// FaultSimScheduler: thread sharding, deterministic fault-drop
// reconciliation, one-test call shapes, and the X-aware (3-valued)
// detection path — all pinned to the legacy scalar oracle by the
// randomized harness.
#include <gtest/gtest.h>

#include "atpg/atpg.hpp"
#include "io/bench.hpp"
#include "logic/zoo.hpp"
#include "oracle_common.hpp"

namespace obd::atpg {
namespace {

using logic::Circuit;

TEST(SchedulerOracle, MatricesBitIdenticalAcrossLanesAndThreads) {
  std::uint64_t seed = 0x5c4ed001;
  for (const Circuit& c : oracle::zoo())
    oracle::sweep_matrices(c, 96, seed++);
}

TEST(SchedulerOracle, DroppingCampaignsMatchSingleThreadedEngine) {
  std::uint64_t seed = 0x5c4ed002;
  for (const Circuit& c : oracle::zoo())
    oracle::sweep_campaigns(c, 150, seed++, /*drop=*/true);
}

TEST(SchedulerOracle, UndroppedCampaignsMatchSingleThreadedEngine) {
  const Circuit c = logic::ripple_carry_adder(4);
  oracle::sweep_campaigns(c, 150, 0x5c4ed003, /*drop=*/false);
}

TEST(SchedulerOracle, TinyTestListsMatchLegacy) {
  // 1..8 tests fill only the low lanes of one block; equivalence must hold
  // on partial trailing fault words too (faults % 64 != 0 everywhere here).
  std::uint64_t seed = 0x5c4ed004;
  for (const Circuit& c : oracle::zoo())
    for (int n_tests : {1, 3, 8}) oracle::sweep_matrices(c, n_tests, seed++);
}

TEST(SchedulerOracle, OneTestCallsMatchLegacy) {
  // The zoo's one-test matrix_* calls run in TinyTestListsMatchLegacy.
  std::uint64_t seed = 0x5c4ed008;
  for (const Circuit& c : oracle::zoo()) oracle::sweep_wrappers(c, 6, seed++);
  const io::BenchParseResult p =
      io::load_bench_file(std::string(OBD_CORPUS_DIR) + "/c880.bench");
  ASSERT_TRUE(p.ok) << p.error;
  const Circuit c880 = logic::decompose_composites(p.circuit());
  oracle::sweep_matrices(c880, 1, seed++);
  oracle::sweep_wrappers(c880, 3, seed);
}

TEST(Scheduler, ThreadCountDoesNotChangeDropWorkAccounting) {
  // fault_block_evals may only grow with threads (round-granular dropping
  // simulates a dropped fault until its round ends), never shrink below the
  // single-threaded engine's count, and detection must be unchanged.
  const Circuit c = logic::ripple_carry_adder(4);
  const auto faults = enumerate_obd_faults(c);
  const auto tests = random_pairs(static_cast<int>(c.inputs().size()), 400,
                                  0x5c4ed005);
  FaultSimEngine engine(c);
  const auto ref = engine.campaign_obd(tests, faults, true);
  for (int threads : {1, 2, 4}) {
    FaultSimScheduler sched(c, {.threads = threads});
    const auto got = sched.campaign_obd(tests, faults, true);
    EXPECT_EQ(got.first_test, ref.first_test) << threads;
    EXPECT_EQ(got.detected, ref.detected) << threads;
    EXPECT_GE(got.fault_block_evals, ref.fault_block_evals) << threads;
    if (threads == 1)
      EXPECT_EQ(got.fault_block_evals, ref.fault_block_evals);
  }
}

TEST(Scheduler, SmallShapesAutoSerialize) {
  // Below the gates x blocks x lane_words granularity threshold the
  // scheduler runs inline regardless of the thread knob; past it the
  // requested workers engage (capped by the block count).
  const Circuit c = logic::c17();  // 6 gates: always sub-threshold
  FaultSimScheduler sched(c, {.threads = 4});
  EXPECT_EQ(sched.pattern_workers(4), 1);
  EXPECT_EQ(sched.pattern_workers(100), 1);

  const Circuit big = logic::array_multiplier(6);  // 444 gates
  FaultSimScheduler bsched(big, {.threads = 4});
  EXPECT_EQ(bsched.pattern_workers(64), 4);  // big shape: all 4 engage
  EXPECT_EQ(bsched.pattern_workers(8), 1);   // 444 x 8 < threshold: inline

  // Wide lanes raise the per-block work, so fewer blocks cross the gate —
  // and the block count still caps the workers past it.
  FaultSimScheduler wsched(big, {.threads = 4, .lane_words = 8});
  EXPECT_EQ(wsched.pattern_workers(8), 4);
  EXPECT_EQ(wsched.pattern_workers(3), 3);
  EXPECT_EQ(wsched.pattern_workers(2), 1);  // 444 x 2 x 8 is sub-threshold

  // Serial calls take one block per round; an explicit block_batch wins
  // over the auto pick everywhere.
  EXPECT_EQ(sched.resolve_batch(100, 1), 1u);
  EXPECT_GE(bsched.resolve_batch(64, 4), 1u);
  FaultSimScheduler esched(big, {.threads = 4, .block_batch = 3});
  EXPECT_EQ(esched.resolve_batch(64, 4), 3u);
}

TEST(Scheduler, BatchAwareSerialThreshold) {
  // The serial-threshold product must include the block batch: batched
  // rounds do batch x blocks x gates of work, so a shape that is
  // sub-threshold per block can still be worth fanning out.
  const Circuit big = logic::array_multiplier(6);  // 444 gates
  FaultSimScheduler plain(big, {.threads = 4});
  EXPECT_EQ(plain.pattern_workers(8), 1);  // 444 x 8 x 1: sub-threshold
  FaultSimScheduler batched(big, {.threads = 4, .block_batch = 4});
  EXPECT_EQ(batched.pattern_workers(8), 4);  // 444 x 8 x 1 x 4 crosses it
}

TEST(Scheduler, BatchedRoundsMatchEngineAboveSerialThreshold) {
  // mul4x4 with 3200 tests = 50 blocks puts gates x blocks past the
  // auto-serial gate, so these campaigns really run threaded rounds of
  // workers x batch blocks; every batching must reproduce the
  // single-threaded engine exactly, paying at most extra redundant work.
  const Circuit c = logic::array_multiplier(4);
  const auto faults = enumerate_obd_faults(c);
  const auto tests = random_pairs(static_cast<int>(c.inputs().size()), 3200,
                                  0x5c4ed007);
  FaultSimEngine engine(c);
  const auto ref = engine.campaign_obd(tests, faults, true);
  for (const SimOptions& o : std::vector<SimOptions>{
           {.threads = 2, .block_batch = 1},
           {.threads = 2, .block_batch = 2},
           {.threads = 4, .block_batch = 4},
           {.threads = 4},  // auto batch
           {.threads = 2, .lane_words = 4, .block_batch = 2},  // wide x batch
       }) {
    FaultSimScheduler sched(c, o);
    ASSERT_GT(sched.pattern_workers(
                  (tests.size() + static_cast<std::size_t>(
                                      64 * std::max(1, o.lane_words)) - 1) /
                  static_cast<std::size_t>(64 * std::max(1, o.lane_words))),
              1)
        << oracle::config_name(o);
    const auto got = sched.campaign_obd(tests, faults, true);
    EXPECT_EQ(got.first_test, ref.first_test) << oracle::config_name(o);
    EXPECT_EQ(got.detected, ref.detected) << oracle::config_name(o);
    EXPECT_GE(got.fault_block_evals, ref.fault_block_evals)
        << oracle::config_name(o);
  }
}

TEST(Scheduler, EmptyShapes) {
  const Circuit c = logic::c17();
  const auto faults = enumerate_obd_faults(c);
  FaultSimScheduler sched(c, {.threads = 4});
  const DetectionMatrix no_tests = sched.matrix_obd({}, faults);
  EXPECT_EQ(no_tests.n_tests, 0u);
  EXPECT_EQ(no_tests.covered_count, 0);
  const DetectionMatrix no_faults =
      sched.matrix_obd(random_pairs(5, 10, 1), {});
  EXPECT_EQ(no_faults.n_faults, 0u);
  const auto campaign = sched.campaign_obd({}, faults);
  EXPECT_EQ(campaign.detected, 0);
  EXPECT_EQ(campaign.first_test,
            std::vector<int>(faults.size(), -1));
}

TEST(Scheduler, MoreThreadsThanBlocksIsFine) {
  const Circuit c = logic::mux_tree(2);
  const auto faults = enumerate_transition_faults(c);
  const auto tests =
      random_pairs(static_cast<int>(c.inputs().size()), 30, 0x5c4ed006);
  FaultSimEngine engine(c);
  const auto ref = engine.campaign_transition(tests, faults, true);
  FaultSimScheduler sched(c, {.threads = 16});
  const auto got = sched.campaign_transition(tests, faults, true);
  EXPECT_EQ(got.first_test, ref.first_test);
}

// --- X-aware (3-valued) detection -------------------------------------------

TEST(DefiniteObd, FullySpecifiedTestMatchesConcreteSimulation) {
  for (const Circuit& c : oracle::zoo()) {
    const auto faults = enumerate_obd_faults(c);
    const std::size_t n_pi = c.inputs().size();
    const std::uint64_t all = n_pi >= 64 ? ~0ull : ((1ull << n_pi) - 1);
    FaultSimEngine engine(c);
    for (const auto& t : random_pairs(static_cast<int>(n_pi), 20, 0xdef1)) {
      const XTwoVectorTest xt{{t.v1, all}, {t.v2, all}};
      EXPECT_EQ(engine.definite_obd(xt, faults),
                legacy::simulate_obd(c, t, faults))
          << c.name();
    }
  }
}

TEST(DefiniteObd, IsSoundUnderEveryFillOfTheXBits) {
  // Anything proven definite must be detected by every concretization.
  const Circuit c = logic::random_circuit(6, 40, 5, 0x50f7);
  const auto faults = enumerate_obd_faults(c);
  const std::size_t n_pi = c.inputs().size();
  FaultSimEngine engine(c);
  util::Prng prng(0xdef2);
  for (int trial = 0; trial < 30; ++trial) {
    XTwoVectorTest xt;
    xt.v1.care_mask = prng.next_u64() & ((1ull << n_pi) - 1);
    xt.v2.care_mask = prng.next_u64() & ((1ull << n_pi) - 1);
    xt.v1.bits = prng.next_u64() & xt.v1.care_mask;
    xt.v2.bits = prng.next_u64() & xt.v2.care_mask;
    const std::vector<bool> definite = engine.definite_obd(xt, faults);
    for (int fill = 0; fill < 8; ++fill) {
      const InputVec f1 = and_not(prng.next_u64(), xt.v1.care_mask);
      const InputVec f2 = and_not(prng.next_u64(), xt.v2.care_mask);
      const TwoVectorTest t{(xt.v1.bits | f1) & ((1ull << n_pi) - 1),
                            (xt.v2.bits | f2) & ((1ull << n_pi) - 1)};
      const std::vector<bool> got = legacy::simulate_obd(c, t, faults);
      for (std::size_t i = 0; i < faults.size(); ++i)
        if (definite[i])
          EXPECT_TRUE(got[i]) << "fault " << i << " fill " << fill;
    }
  }
}

TEST(DefiniteObd, AllXDetectsNothing) {
  const Circuit c = logic::c17();
  const auto faults = enumerate_obd_faults(c);
  FaultSimEngine engine(c);
  const std::vector<bool> det = engine.definite_obd({}, faults);
  for (bool d : det) EXPECT_FALSE(d);
}

}  // namespace
}  // namespace obd::atpg
