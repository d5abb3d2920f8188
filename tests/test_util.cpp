// Tests of the utility substrate: byte reader/writer framing, the
// closable blocking queue and the CondVar under it, virtual clocks, error
// taxonomy, and the parallel_for helper's chunking.
#include <gtest/gtest.h>

#include <thread>

#include <atomic>

#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/fair_queue.hpp"
#include "util/mutex.hpp"
#include "util/parallel.hpp"
#include "util/queue.hpp"
#include "util/status.hpp"

namespace npss::util {
namespace {

TEST(Bytes, WriterReaderRoundTripAllTypes) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i32(-42);
  w.i64(-1ll << 40);
  w.f32(3.5f);
  w.f64(-2.25);
  w.str("schooner");
  w.blob({{1, 2, 3}});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1ll << 40);
  EXPECT_EQ(r.f32(), 3.5f);
  EXPECT_EQ(r.f64(), -2.25);
  EXPECT_EQ(r.str(), "schooner");
  EXPECT_EQ(r.blob(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, BigEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  EXPECT_EQ(w.bytes(), (Bytes{1, 2, 3, 4}));
}

TEST(Bytes, UnderflowThrowsEncodingError) {
  Bytes two{1, 2};
  ByteReader r(two);
  EXPECT_THROW((void)r.u32(), EncodingError);
  ByteReader r2(two);
  r2.u16();
  EXPECT_THROW((void)r2.u8(), EncodingError);
}

TEST(Bytes, StringLengthValidatedBeforeRead) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes, provides none
  ByteReader r(w.bytes());
  EXPECT_THROW((void)r.str(), EncodingError);
}

TEST(Bytes, HexDump) {
  EXPECT_EQ(hex_dump(Bytes{0x00, 0xff, 0x3f}), "00 ff 3f");
  EXPECT_EQ(hex_dump(Bytes{}), "");
}

TEST(Queue, FifoOrderAndTryPop) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.try_pop().has_value());
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(*q.pop(), 1);
  EXPECT_EQ(*q.try_pop(), 2);
  EXPECT_EQ(*q.pop(), 3);
}

TEST(Queue, CloseDrainsThenStops) {
  BlockingQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_FALSE(q.push(8));  // dropped after close
  EXPECT_EQ(*q.pop(), 7);   // existing items drain
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_TRUE(q.closed());
}

TEST(Queue, CloseWakesBlockedConsumer) {
  BlockingQueue<int> q;
  std::thread consumer([&] {
    auto item = q.pop();
    EXPECT_FALSE(item.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  consumer.join();
}

TEST(Queue, CrossThreadHandoff) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    for (int i = 0; i < 1000; ++i) q.push(i);
    q.close();
  });
  int expected = 0;
  while (auto item = q.pop()) {
    EXPECT_EQ(*item, expected++);
  }
  EXPECT_EQ(expected, 1000);
  producer.join();
}

TEST(Queue, PopForTimesOutAndLeavesTheQueueUsable) {
  BlockingQueue<int> q;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_for(std::chrono::milliseconds(20)).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(20));
  EXPECT_FALSE(q.closed());  // a timeout, not a close
  // The wait gave the lock back: another thread can push, and the next
  // pop_for sees the item at once.
  std::thread producer([&] { q.push(5); });
  producer.join();
  EXPECT_EQ(*q.pop_for(std::chrono::milliseconds(1000)), 5);

  FairQueue<int> fq;
  EXPECT_FALSE(fq.pop_for(std::chrono::milliseconds(10)).has_value());
  EXPECT_TRUE(fq.push(1, 9));
  EXPECT_EQ(*fq.pop_for(std::chrono::milliseconds(1000)), 9);
}

TEST(CondVar, WaiterReleasesTheMutexWhileBlocked) {
  Mutex mu{"test.condvar"};
  CondVar cv;
  bool ready = false;
  std::atomic<bool> waiting{false};
  std::thread waiter([&] {
    MutexLock lock(mu);
    waiting = true;
    while (!ready) cv.wait(lock);
  });
  while (!waiting) std::this_thread::yield();
  // The waiter holds `mu` until it blocks in wait(); from then on this
  // thread must be able to take it (a wait that kept the lock would
  // hang here, so bound the attempt instead of locking blindly).
  bool locked = false;
  for (int i = 0; i < 2000 && !locked; ++i) {
    locked = mu.try_lock();
    if (!locked) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(locked);
  ready = true;
  mu.unlock();
  cv.notify_one();
  waiter.join();
}

TEST(CondVar, WaitForTimesOutHoldingTheLock) {
  Mutex mu{"test.condvar"};
  CondVar cv;
  MutexLock lock(mu);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(cv.wait_for(lock, std::chrono::milliseconds(15)),
            std::cv_status::timeout);
  EXPECT_EQ(cv.wait_until(lock, std::chrono::steady_clock::now() +
                                    std::chrono::milliseconds(5)),
            std::cv_status::timeout);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(20));
  // Back from the wait with the lock held: another thread cannot take it.
  bool other_locked = true;
  std::thread probe([&] {
    other_locked = mu.try_lock();
    if (other_locked) mu.unlock();
  });
  probe.join();
  EXPECT_FALSE(other_locked);
}

TEST(CondVar, NotifyOneWakesExactlyOneOfTwoWaiters) {
  Mutex mu{"test.condvar"};
  CondVar cv;
  int waiting = 0;
  int wakeups = 0;
  int tokens = 0;
  std::atomic<int> finished{0};
  auto waiter = [&] {
    MutexLock lock(mu);
    ++waiting;
    while (tokens == 0) {
      cv.wait(lock);
      ++wakeups;
    }
    --tokens;
    ++finished;
  };
  std::thread a(waiter);
  std::thread b(waiter);
  // Both are blocked in wait() once `waiting` reads 2 under the lock:
  // each bumped it under the lock and released the lock only by waiting.
  for (;;) {
    {
      MutexLock lock(mu);
      if (waiting == 2) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    MutexLock lock(mu);
    tokens = 1;
  }
  cv.notify_one();
  while (finished < 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    MutexLock lock(mu);
    EXPECT_EQ(wakeups, 1);  // notify_all would have woken both
    EXPECT_EQ(finished.load(), 1);
    tokens = 1;
  }
  cv.notify_one();
  a.join();
  b.join();
  EXPECT_EQ(finished.load(), 2);
}

TEST(Clock, AdvanceAndJoinAreMonotone) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance(100);
  EXPECT_EQ(clock.now(), 100);
  clock.join(50);  // earlier stamp never rewinds
  EXPECT_EQ(clock.now(), 100);
  clock.join(250);
  EXPECT_EQ(clock.now(), 250);
  clock.reset();
  EXPECT_EQ(clock.now(), 0);
}

TEST(Clock, SimTimeConversions) {
  EXPECT_EQ(sim_ms(1.5), 1500);
  EXPECT_DOUBLE_EQ(sim_to_ms(2500), 2.5);
}

TEST(Status, ErrorsCarryCodeAndCategory) {
  RangeError e("too big");
  EXPECT_EQ(e.code(), ErrorCode::kRangeError);
  EXPECT_NE(std::string(e.what()).find("range-error"), std::string::npos);
  EXPECT_NE(std::string(e.what()).find("too big"), std::string::npos);
}

TEST(Parallel, CoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; }, 4);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Parallel, WorkerExceptionRethrownOnCaller) {
  // Regression: an exception escaping a worker used to unwind out of the
  // std::jthread body and std::terminate the process. It must instead be
  // rethrown on the joining thread.
  EXPECT_THROW(
      parallel_for(
          0, 64,
          [](std::size_t i) {
            if (i == 17) throw RangeError("boom at 17");
          },
          4),
      RangeError);
}

TEST(Parallel, ExceptionStopsRemainingWork) {
  std::atomic<int> ran{0};
  try {
    parallel_for(
        0, 100000,
        [&](std::size_t) {
          ++ran;
          throw ModelError("fail fast");
        },
        4);
    FAIL() << "expected ModelError";
  } catch (const ModelError&) {
  }
  // Each worker stops at its next iteration once a failure is flagged, so
  // only a small fraction of the range runs.
  EXPECT_LT(ran.load(), 100000);
}

TEST(Status, RaiseErrorRestoresConcreteType) {
  for (ErrorCode code :
       {ErrorCode::kTypeMismatch, ErrorCode::kLookupFailure,
        ErrorCode::kStaleBinding, ErrorCode::kConvergenceFailure}) {
    try {
      raise_error(code, "x");
      FAIL();
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), code);
    }
  }
  EXPECT_THROW(raise_error(ErrorCode::kShutdown, "x"), ShutdownError);
  EXPECT_THROW(raise_error(ErrorCode::kUnknown, "x"), Error);
}

}  // namespace
}  // namespace npss::util
