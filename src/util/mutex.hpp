// Annotated mutex / RAII-lock / condvar wrappers (DESIGN.md §16). These
// replace raw std::mutex / std::lock_guard in the concurrency core so
// that (a) clang's Thread Safety Analysis can check the locking
// contracts declared with the SCHOONER_GUARDED_BY / SCHOONER_REQUIRES
// macros, and (b) the debug-mode lock-order checker (util::lockdep) can
// observe every acquisition. Each Mutex names its lockdep class; the
// documented hierarchy lives in lock_hierarchy.md.
//
// CondVar is built on std::condition_variable, not
// std::condition_variable_any: libstdc++'s _any variant signals while
// holding an internal mutex, so on one CPU the woken thread runs, blocks
// on that mutex and switches back — two context switches per handoff
// instead of one, on every sim mailbox and host work queue. A wait hands
// the Mutex's own std::mutex to the native condvar, and lockdep sees it
// as what it is: a release of the Mutex before blocking and a fresh
// acquisition (ordering edges included) at the wait's call site after
// waking.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <source_location>

#include "util/thread_annotations.hpp"

#if defined(SCHOONER_LOCKDEP) && SCHOONER_LOCKDEP
#include "util/lockdep.hpp"
#endif

namespace npss::util {

/// A std::mutex with thread-safety-analysis capability attributes and
/// (in SCHOONER_LOCKDEP builds) lock-order tracking. The lock-class
/// name groups instances for ordering purposes: every BusChannel's
/// mutex is the same class, so an ordering observed on one channel
/// constrains them all.
class SCHOONER_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(const char* lock_class = "mutex") {
#if defined(SCHOONER_LOCKDEP) && SCHOONER_LOCKDEP
    class_ = lockdep::lock_class(lock_class);
#else
    (void)lock_class;
#endif
  }
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  /// Blocking acquire. The lockdep hook runs *before* blocking so a
  /// lock-order inversion is reported instead of deadlocked on. The
  /// source_location default captures the caller's site as the edge
  /// provenance lockdep reports.
  // The wrapper bodies manipulate the unannotated std::mutex, so the
  // analysis is disabled *inside* them (the annotations still describe
  // them to callers) — the same trusted-primitive split absl::Mutex uses.
  void lock(std::source_location site = std::source_location::current())
      SCHOONER_ACQUIRE() SCHOONER_NO_THREAD_SAFETY_ANALYSIS {
#if defined(SCHOONER_LOCKDEP) && SCHOONER_LOCKDEP
    lockdep::on_acquire(class_, this, site);
#else
    (void)site;
#endif
    mu_.lock();
  }

  void unlock() SCHOONER_RELEASE() SCHOONER_NO_THREAD_SAFETY_ANALYSIS {
    mu_.unlock();
#if defined(SCHOONER_LOCKDEP) && SCHOONER_LOCKDEP
    lockdep::on_release(class_, this);
#endif
  }

  /// Non-blocking acquire: recorded in the held stack but adds no
  /// ordering edges (it cannot deadlock).
  bool try_lock(std::source_location site = std::source_location::current())
      SCHOONER_TRY_ACQUIRE(true) SCHOONER_NO_THREAD_SAFETY_ANALYSIS {
    const bool ok = mu_.try_lock();
#if defined(SCHOONER_LOCKDEP) && SCHOONER_LOCKDEP
    if (ok) lockdep::on_try_acquire(class_, this, site);
#else
    (void)site;
#endif
    return ok;
  }

 private:
  friend class CondVar;
  std::mutex mu_;
#if defined(SCHOONER_LOCKDEP) && SCHOONER_LOCKDEP
  const lockdep::LockClass* class_ = nullptr;
#endif
};

/// RAII scoped lock over util::Mutex — the std::lock_guard equivalent
/// the analysis understands as a scoped capability.
class SCHOONER_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu,
                     std::source_location site =
                         std::source_location::current()) SCHOONER_ACQUIRE(mu)
      SCHOONER_NO_THREAD_SAFETY_ANALYSIS : mu_(&mu) {
    mu_->lock(site);
  }
  ~MutexLock() SCHOONER_RELEASE() SCHOONER_NO_THREAD_SAFETY_ANALYSIS {
    mu_->unlock();
  }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex* mu_;
};

/// Condition variable waiting on util::Mutex (see the header comment for
/// why it wraps std::condition_variable). Callers pass the MutexLock they
/// hold; the analysis treats the capability as held throughout (the
/// caller-visible contract: the guarded predicate may be re-read the
/// moment wait returns). Each wait reports a release and a re-acquire to
/// lockdep, so the held stack stays exact across it.
///
/// There is deliberately no predicate-taking overload: the analysis is
/// intra-procedural, so a predicate lambda reading guarded fields would
/// need its own annotations. Callers write the while-loop at the call
/// site instead, where the lock is visibly held.
class CondVar {
 public:
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  void wait(MutexLock& lock,
            std::source_location site = std::source_location::current()) {
    Adopted native(*lock.mu_, site);
    cv_.wait(native.lock);
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      MutexLock& lock, const std::chrono::time_point<Clock, Duration>& tp,
      std::source_location site = std::source_location::current()) {
    Adopted native(*lock.mu_, site);
    return cv_.wait_until(native.lock, tp);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(
      MutexLock& lock, const std::chrono::duration<Rep, Period>& d,
      std::source_location site = std::source_location::current()) {
    Adopted native(*lock.mu_, site);
    return cv_.wait_for(native.lock, d);
  }

 private:
  // Lends the held Mutex's std::mutex to the native condvar for one wait
  // and takes it back on every exit path (the condvar re-locks before
  // returning or throwing), so MutexLock still owns the unlock.
  struct Adopted {
    Adopted(Mutex& held, std::source_location at)
        : mu(held), site(at), lock(held.mu_, std::adopt_lock) {
#if defined(SCHOONER_LOCKDEP) && SCHOONER_LOCKDEP
      lockdep::on_release(mu.class_, &mu);
#endif
    }
    ~Adopted() {
      lock.release();
#if defined(SCHOONER_LOCKDEP) && SCHOONER_LOCKDEP
      lockdep::on_acquire(mu.class_, &mu, site);
#endif
    }
    Adopted(const Adopted&) = delete;
    Adopted& operator=(const Adopted&) = delete;

    Mutex& mu;
    std::source_location site;
    std::unique_lock<std::mutex> lock;
  };

  std::condition_variable cv_;
};

}  // namespace npss::util
