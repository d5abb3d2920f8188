// meta_check internals: the World model, the schedule codec, and the
// explorer — including the negative corpus (the legacy PR 6 protocol
// MUST lose an acked write) and the determinism contracts the visited
// set depends on. `ctest -L mc` runs this suite alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "mc/explore.hpp"
#include "mc/model.hpp"
#include "meta/state.hpp"
#include "util/sha256.hpp"
#include "util/status.hpp"

namespace npss {
namespace {

mc::Options small_opts(bool quorum) {
  mc::Options opts;
  opts.replicas = 3;
  opts.quorum_commit = quorum;
  opts.max_ops = 1;
  opts.max_crashes = 0;
  opts.max_restarts = 0;
  opts.max_drops = 0;
  opts.max_duplicates = 0;
  return opts;
}

bool contains(const std::vector<mc::Action>& acts, const mc::Action& a) {
  return std::find(acts.begin(), acts.end(), a) != acts.end();
}

TEST(McWorld, BootstrapEnablesTheLeaderAndNothingIsInFlight) {
  const mc::World world(small_opts(true));
  const std::vector<mc::Action> acts = world.enabled();
  // Replica 0 bootstraps as leader: the client may propose there, every
  // replica's timer may fire, and no link carries a frame yet.
  EXPECT_TRUE(contains(acts, {mc::ActionKind::kPropose, 0, -1}));
  EXPECT_FALSE(contains(acts, {mc::ActionKind::kPropose, 1, -1}));
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(contains(acts, {mc::ActionKind::kTimer, i, -1}));
    EXPECT_TRUE(world.up(i));
  }
  for (const mc::Action& a : acts) {
    EXPECT_NE(a.kind, mc::ActionKind::kDeliver);
    EXPECT_NE(a.kind, mc::ActionKind::kCrash);  // max_crashes = 0
  }
  EXPECT_TRUE(world.acked().empty());
}

TEST(McWorld, FingerprintsAreDeterministicAcrossIdenticalRuns) {
  mc::Options opts = small_opts(true);
  opts.max_crashes = 1;
  mc::World a(opts);
  mc::World b(opts);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // The same schedule applied to both worlds keeps them identical.
  for (const mc::Action& act : mc::decode_schedule("p0,t0,c1,d0>2")) {
    ASSERT_TRUE(a.is_enabled(act)) << a.describe(act);
    a.step(act);
    b.step(act);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
  }
  // And a world that took a different branch is distinguishable.
  mc::World c(opts);
  c.step({mc::ActionKind::kTimer, 1, -1});
  EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(McWorld, CrashSilencesAReplicaUntilRestart) {
  mc::Options opts = small_opts(true);
  opts.max_crashes = 1;
  opts.max_restarts = 1;
  mc::World world(opts);
  world.step({mc::ActionKind::kPropose, 0, -1});  // puts appends in flight
  world.step({mc::ActionKind::kCrash, 1, -1});
  EXPECT_FALSE(world.up(1));
  const std::vector<mc::Action> acts = world.enabled();
  for (const mc::Action& a : acts) {
    // A dead replica neither acts nor receives; its only move is rejoin.
    if (a.kind == mc::ActionKind::kRestart) {
      EXPECT_EQ(a.a, 1);
      continue;
    }
    if (a.kind == mc::ActionKind::kTimer ||
        a.kind == mc::ActionKind::kPropose) {
      EXPECT_NE(a.a, 1);
    }
    if (a.kind == mc::ActionKind::kDeliver) {
      EXPECT_NE(a.b, 1);
    }
  }
  EXPECT_TRUE(contains(acts, {mc::ActionKind::kRestart, 1, -1}));
  world.step({mc::ActionKind::kRestart, 1, -1});
  EXPECT_TRUE(world.up(1));
}

TEST(McSchedule, CodecRoundTripsEveryActionKind) {
  const std::string text = "p0,t1,c2,r2,d1>2,x0>1,u2>0";
  const std::vector<mc::Action> schedule = mc::decode_schedule(text);
  ASSERT_EQ(schedule.size(), 7u);
  EXPECT_EQ(schedule[0], (mc::Action{mc::ActionKind::kPropose, 0, -1}));
  EXPECT_EQ(schedule[4], (mc::Action{mc::ActionKind::kDeliver, 1, 2}));
  EXPECT_EQ(schedule[5], (mc::Action{mc::ActionKind::kDrop, 0, 1}));
  EXPECT_EQ(schedule[6], (mc::Action{mc::ActionKind::kDuplicate, 2, 0}));
  EXPECT_EQ(mc::encode_schedule(schedule), text);

  EXPECT_THROW(mc::decode_schedule("z9"), util::ParseError);
  EXPECT_THROW(mc::decode_schedule("d1"), util::ParseError);   // missing >b
  EXPECT_THROW(mc::decode_schedule("p"), util::ParseError);    // missing index
  EXPECT_THROW(mc::decode_schedule("t1>2"), util::ParseError); // stray link
}

TEST(McExplore, QuorumProtocolIsCleanAtSmallBounds) {
  mc::ExploreOptions x;
  x.depth = 6;
  const mc::ExploreResult result = mc::explore(small_opts(true), x);
  EXPECT_FALSE(result.violation) << result.transcript;
  EXPECT_GT(result.stats.states_explored, 0u);
  EXPECT_FALSE(result.stats.budget_exhausted);
}

TEST(McExplore, LegacyProtocolLosesAnAckedWrite) {
  // The negative corpus: under the PR 6 fire-and-forget protocol the
  // checker MUST find an acked-then-lost schedule (MC003) — a new
  // leader elected on index-only votes abandons the acked write. The
  // minimized schedule needs no crash and no drop: four actions.
  mc::ExploreOptions x;
  x.depth = 6;
  const mc::ExploreResult result = mc::explore(small_opts(false), x);
  ASSERT_TRUE(result.violation);
  EXPECT_EQ(result.violation->code, "MC003");
  EXPECT_LE(result.schedule.size(), 6u);
  // The minimized schedule replays to the same verdict, bit for bit.
  const mc::ExploreResult again = mc::replay(small_opts(false), result.schedule);
  ASSERT_TRUE(again.violation);
  EXPECT_EQ(again.violation->code, "MC003");
  EXPECT_NE(result.transcript.find("MC003"), std::string::npos);
}

TEST(McExplore, StateCountsArePinned) {
  // The visited set is keyed on a hash of World::fingerprint(). These
  // counts were taken with the original fixed-width image (every field
  // u32/u64, records in their wire encoding) and no reduction; the
  // compact varint image must partition states identically: were it to
  // merge two distinct states, or split one, the counts would move.
  mc::Options opts = small_opts(true);
  opts.max_ops = 2;
  opts.max_duplicates = 1;
  opts.max_crashes = 1;
  opts.max_restarts = 1;
  opts.max_drops = 1;
  mc::ExploreOptions x;
  x.depth = 5;
  x.max_states = 0;
  for (const std::uint64_t interval : {0u, 1u}) {
    opts.snapshot_interval = interval;  // 1: snapshots and fetch images
    const mc::ExploreResult result = mc::explore(opts, x);
    EXPECT_FALSE(result.violation) << result.transcript;
    EXPECT_EQ(result.stats.states_explored, 19514u) << "interval " << interval;
    EXPECT_EQ(result.stats.visited_hits, 11130u) << "interval " << interval;
    EXPECT_EQ(result.stats.sleep_pruned, 0u);
  }

  // The negative corpus under faults: the search stops at the same
  // violating state after the same number of steps.
  mc::Options legacy = small_opts(false);
  legacy.max_duplicates = 1;
  legacy.max_crashes = 1;
  x.depth = 6;
  const mc::ExploreResult found = mc::explore(legacy, x);
  ASSERT_TRUE(found.violation);
  EXPECT_EQ(found.violation->code, "MC003");
  EXPECT_EQ(found.stats.states_explored, 248u);
  EXPECT_EQ(found.stats.visited_hits, 84u);
}

TEST(McExplore, QuorumIsCleanUnderDuplicatesAndCrashes) {
  // Duplicated frames and a crash at once: stale appends, acks and
  // fetch replies arrive after the replica that sent them died.
  mc::Options opts = small_opts(true);
  opts.max_duplicates = 1;
  opts.max_crashes = 1;
  mc::ExploreOptions x;
  x.depth = 6;
  x.max_states = 0;
  const mc::ExploreResult result = mc::explore(opts, x);
  EXPECT_FALSE(result.violation) << result.transcript;
  EXPECT_GT(result.stats.visited_hits, 0u);
}

TEST(McExplore, ReplayRejectsSchedulesTheWorldCannotRun) {
  // Proposing on a follower is never enabled; replay must say so rather
  // than silently diverging from the transcript it claims to reproduce.
  EXPECT_THROW(mc::replay(small_opts(true), mc::decode_schedule("p1")),
               util::ProtocolError);
  // Exceeding the ops budget is equally invalid.
  EXPECT_THROW(mc::replay(small_opts(true), mc::decode_schedule("p0,p0")),
               util::ProtocolError);
}

TEST(McExplore, DuplicatedFramesAreHarmlessUnderQuorum) {
  mc::Options opts = small_opts(true);
  opts.max_duplicates = 1;
  mc::ExploreOptions x;
  x.depth = 6;
  const mc::ExploreResult result = mc::explore(opts, x);
  EXPECT_FALSE(result.violation) << result.transcript;
}

TEST(McExplore, MultiOpWithDuplicatesAndFaultsStaysClean) {
  // The stale-fetch-ack regression class (see test_meta_state.cpp's
  // StaleFetchAckCannotDropQuorumCountedEntries) needs two client ops
  // and a duplicated frame to even be expressible; the shallow single-op
  // dup-free bounds above cannot reach it. Explore with every fault
  // class enabled at once — ops 2, dups 1, drops 1, crashes 1 — so the
  // dup/fetch/append interleavings are systematically covered.
  mc::Options opts = small_opts(true);
  opts.max_ops = 2;
  opts.max_duplicates = 1;
  opts.max_drops = 1;
  opts.max_crashes = 1;
  mc::ExploreOptions x;
  x.depth = 6;
  x.max_states = 1000000;
  const mc::ExploreResult result = mc::explore(opts, x);
  EXPECT_FALSE(result.violation) << result.transcript;
  EXPECT_FALSE(result.stats.budget_exhausted);
}

meta::ChangeRecord random_record(std::mt19937& rng) {
  // A tiny alphabet, so independent sequences often build equal tables.
  const auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  meta::ChangeRecord rec;
  rec.kind = static_cast<meta::RecordKind>(1 + pick(5));
  rec.line = 1 + pick(2);
  rec.note = pick(2) ? "a" : "b";
  rec.quota = pick(2);
  rec.address = pick(2) ? "p1" : "p2";
  rec.shared = pick(2) == 1;
  rec.machine = "m";
  rec.spec_hash = pick(2) ? "h1" : "h2";
  if (pick(2)) rec.procs = {{"f", "int"}};
  return rec;
}

meta::ReplicatedState random_state(std::mt19937& rng) {
  meta::ReplicatedState state;
  const int n = std::uniform_int_distribution<int>(0, 3)(rng);
  std::uint64_t index = 0;
  for (int i = 0; i < n; ++i) {
    // Skipped indices vary last_applied() independently of the table.
    index += std::uniform_int_distribution<std::uint64_t>(1, 2)(rng);
    state.apply(random_record(rng), index);
  }
  return state;
}

TEST(McState, SameTableAgreesWithDigestEquality) {
  // MC004/MC005 compare tables with same_table() instead of digests; the
  // two must agree on every pair, including pairs whose last_applied()
  // differs (the digest ignores it, so must same_table()).
  std::mt19937 rng(7);
  int equal = 0;
  int equal_at_different_index = 0;
  int different = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const meta::ReplicatedState a = random_state(rng);
    const meta::ReplicatedState b = random_state(rng);
    const bool same = a.same_table(b);
    ASSERT_EQ(same, a.digest() == b.digest()) << "trial " << trial;
    EXPECT_EQ(same, b.same_table(a));
    if (same) {
      ++equal;
      if (a.last_applied() != b.last_applied()) ++equal_at_different_index;
    } else {
      ++different;
    }
  }
  // The generator must exercise both verdicts, and equal tables reached
  // at different log positions.
  EXPECT_GT(equal, 100);
  EXPECT_GT(equal_at_different_index, 10);
  EXPECT_GT(different, 100);
}

std::string hex(const util::Sha256Digest& digest) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t byte : digest) {
    out.push_back(digits[byte >> 4]);
    out.push_back(digits[byte & 0xf]);
  }
  return out;
}

TEST(Sha256, RawDigestMatchesFipsVectors) {
  // FIPS 180-4 / NIST example vectors; the 56-byte message pads into a
  // second block.
  const std::pair<std::string, std::string> vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
  };
  for (const auto& [message, expected] : vectors) {
    const util::Sha256Digest digest = util::sha256(message);
    EXPECT_EQ(digest.size(), 32u);
    EXPECT_EQ(hex(digest), expected) << "message '" << message << "'";
    EXPECT_EQ(util::sha256_hex(message), expected);
  }
}

}  // namespace
}  // namespace npss
