// Cross-block good-eval delta propagation: the --delta-goods acceptance
// bar.
//
// Delta mode is a pure throughput knob — the engine keeps the previous
// block's good values resident and re-evaluates only the cones of changed
// PIs, so every detection bit must match the full-evaluation engine
// exactly. These tests pin that contract three ways: legacy-reference
// oracle sweeps on the zoo, matrix bit-identity on the ISCAS corpus
// (c2670/c7552, where fanout is deep enough to exercise long level walks),
// and end-to-end campaign matrix_hash invariance across threads, lane
// widths, shard counts, and the grey block ordering.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "atpg/atpg.hpp"
#include "atpg/diagnose.hpp"
#include "flow/campaign.hpp"
#include "flow/supervisor.hpp"
#include "io/bench.hpp"
#include "oracle_common.hpp"

namespace obd::atpg {
namespace {

using logic::Circuit;

std::string corpus(const std::string& file) {
  return std::string(OBD_CORPUS_DIR) + "/" + file;
}

Circuit load_prim(const std::string& file) {
  const io::BenchParseResult p = io::load_bench_file(corpus(file));
  EXPECT_TRUE(p.ok) << file << ": " << p.error;
  const Circuit view =
      p.seq.flops().empty() ? p.circuit() : p.seq.scan_view();
  return logic::decompose_composites(view);
}

/// Delta/grey engine configurations swept against the legacy scalar
/// reference: lane widths 1/2/4/8 words x threads 1/2/4 x packings, each
/// with delta propagation forced on or in auto mode, plus grey ordering.
std::vector<SimOptions> delta_configs() {
  using D = DeltaGoods;
  return {
      {.threads = 1, .packing = SimPacking::kPatternMajor,
       .delta_goods = D::kOn},
      {.threads = 1, .packing = SimPacking::kPatternMajor, .lane_words = 2,
       .delta_goods = D::kOn},
      {.threads = 1, .packing = SimPacking::kPatternMajor, .lane_words = 4,
       .delta_goods = D::kOn},
      {.threads = 1, .packing = SimPacking::kPatternMajor, .lane_words = 8,
       .delta_goods = D::kOn},
      {.threads = 2, .packing = SimPacking::kPatternMajor,
       .delta_goods = D::kOn},
      {.threads = 2, .packing = SimPacking::kPatternMajor, .lane_words = 4,
       .delta_goods = D::kOn},
      {.threads = 4, .packing = SimPacking::kPatternMajor, .lane_words = 2,
       .delta_goods = D::kOn},
      {.threads = 4, .packing = SimPacking::kPatternMajor, .lane_words = 8,
       .delta_goods = D::kOn},
      {.threads = 1, .packing = SimPacking::kFaultMajor, .delta_goods = D::kOn},
      {.threads = 2, .packing = SimPacking::kFaultMajor, .lane_words = 4,
       .delta_goods = D::kOn},
      {.threads = 1, .packing = SimPacking::kPatternMajor,
       .delta_goods = D::kAuto},
      {.threads = 4, .packing = SimPacking::kPatternMajor, .lane_words = 4,
       .delta_goods = D::kAuto},
      {.threads = 1, .packing = SimPacking::kPatternMajor, .lane_words = 2,
       .delta_goods = D::kOn, .grey_order = true},
      {.threads = 2, .packing = SimPacking::kPatternMajor, .lane_words = 4,
       .delta_goods = D::kAuto, .grey_order = true},
      {.threads = 4, .packing = SimPacking::kPatternMajor, .block_batch = 2,
       .delta_goods = D::kOn, .grey_order = true}};
}

TEST(DeltaGoods, OracleSweepZoo) {
  for (const Circuit& c : oracle::zoo())
    oracle::sweep_matrices(c, 96, 0xde17a ^ c.num_gates(), delta_configs());
}

TEST(DeltaGoods, CampaignSweepZoo) {
  // Fault-dropping campaigns reconcile per round; the per-worker resident
  // goods must not leak detection state across drop rounds.
  oracle::sweep_campaigns(logic::ripple_carry_adder(4), 128, 0xde17a, true);
  oracle::sweep_campaigns(logic::random_circuit(8, 60, 6, 0xfeed), 128,
                          0x900d5, true);
}

/// Matrix bit-identity on one ISCAS circuit: delta on/auto/grey against
/// the full-evaluation baseline.
void sweep_corpus(const std::string& file, int n_tests) {
  const Circuit c = load_prim(file);
  const auto faults = enumerate_obd_faults(c);
  const auto tests =
      random_pairs(static_cast<int>(c.inputs().size()), n_tests, 0xde17a);

  FaultSimScheduler base(c, {.threads = 1,
                             .packing = SimPacking::kPatternMajor});
  const DetectionMatrix ref = base.matrix_obd(tests, faults);
  EXPECT_GT(ref.covered_count, 0) << file;

  using D = DeltaGoods;
  for (const SimOptions& o : std::vector<SimOptions>{
           {.threads = 1, .packing = SimPacking::kPatternMajor,
            .delta_goods = D::kOn},
           {.threads = 1, .packing = SimPacking::kPatternMajor, .lane_words = 4,
            .delta_goods = D::kOn},
           {.threads = 2, .packing = SimPacking::kPatternMajor, .lane_words = 8,
            .delta_goods = D::kOn},
           {.threads = 4, .packing = SimPacking::kPatternMajor, .lane_words = 4,
            .delta_goods = D::kAuto},
           {.threads = 1, .packing = SimPacking::kPatternMajor, .lane_words = 4,
            .delta_goods = D::kOn, .grey_order = true},
           {.threads = 2, .packing = SimPacking::kPatternMajor, .lane_words = 8,
            .delta_goods = D::kAuto, .grey_order = true},
       }) {
    FaultSimScheduler sched(c, o);
    oracle::expect_matrices_identical(ref, sched.matrix_obd(tests, faults),
                                      c.name() + " " + oracle::config_name(o));
  }
}

TEST(DeltaGoods, C2670MatrixIdentical) { sweep_corpus("c2670.bench", 192); }

TEST(DeltaGoods, C7552MatrixIdentical) { sweep_corpus("c7552.bench", 192); }

TEST(DeltaGoods, CorrelatedStreamTakesDeltaPath) {
  // Delta propagation diffs whole per-PI lane words block to block, so a
  // "correlated stream" is one where consecutive 64-test blocks repeat the
  // low PIs' bit pattern and walk only the high PIs in Gray order: exactly
  // one PI word changes per block boundary. With delta on the engine must
  // serve those blocks from the delta walk; an uncorrelated random stream
  // must trip kAuto's changed-PI-cone guard instead.
  const Circuit c = logic::array_multiplier(4);
  const int n_pi = static_cast<int>(c.inputs().size());
  ASSERT_GE(n_pi, 8);
  std::vector<TwoVectorTest> tests;
  for (int i = 0; i < 256; ++i) {
    const unsigned low = static_cast<unsigned>(i) & 63u;  // repeats per block
    const unsigned blk = static_cast<unsigned>(i) >> 6;
    const unsigned grey = blk ^ (blk >> 1);
    TwoVectorTest t;
    for (int b = 0; b < 6; ++b) {
      t.v1.set_bit(static_cast<std::size_t>(b), ((low >> b) & 1u) != 0);
      t.v2.set_bit(static_cast<std::size_t>(b), ((low >> b) & 1u) != 0);
    }
    for (int b = 0; b < 2; ++b) {
      t.v1.set_bit(static_cast<std::size_t>(6 + b), ((grey >> b) & 1u) != 0);
      t.v2.set_bit(static_cast<std::size_t>(6 + b), ((grey >> b) & 1u) != 0);
    }
    tests.push_back(t);
  }
  const auto faults = enumerate_obd_faults(c);

  FaultSimEngine off(c, {.delta_goods = DeltaGoods::kOff});
  FaultSimEngine on(c, {.delta_goods = DeltaGoods::kOn});
  const auto ref = off.campaign_obd(tests, faults, false);
  const auto got = on.campaign_obd(tests, faults, false);
  EXPECT_EQ(ref.first_test, got.first_test);
  EXPECT_EQ(ref.detected, got.detected);
  EXPECT_EQ(off.delta_good_evals(), 0);
  EXPECT_GT(on.delta_good_evals(), 0);

  // kAuto on the same correlated stream also takes the delta path…
  FaultSimEngine aut(c, {.delta_goods = DeltaGoods::kAuto});
  const auto got_auto = aut.campaign_obd(tests, faults, false);
  EXPECT_EQ(ref.first_test, got_auto.first_test);
  EXPECT_EQ(ref.detected, got_auto.detected);
  EXPECT_GT(aut.delta_good_evals(), 0);

  // …but an uncorrelated random stream trips its changed-PI-cone guard.
  const auto noisy =
      random_pairs(n_pi, 256, 0xbad5eed);
  FaultSimEngine aut2(c, {.delta_goods = DeltaGoods::kAuto});
  aut2.campaign_obd(noisy, faults, false);
  EXPECT_GT(aut2.delta_full_fallbacks(), 0);
}

/// End-to-end witness: the campaign matrix_hash — what the CLI prints for
/// --delta-goods — is invariant over delta mode x threads x lane width.
void sweep_campaign_hash(const std::string& file) {
  const io::BenchParseResult p = io::load_bench_file(corpus(file));
  ASSERT_TRUE(p.ok) << p.error;
  flow::CampaignOptions opt;
  opt.model = flow::FaultModel::kObd;
  opt.random_patterns = 256;
  flow::CampaignReport base;
  bool first = true;
  for (const DeltaGoods d :
       {DeltaGoods::kOff, DeltaGoods::kOn, DeltaGoods::kAuto}) {
    for (const int threads : {1, 2, 4}) {
      for (const int lane_words : {1, 4, 8}) {
        opt.sim.delta_goods = d;
        opt.sim.threads = threads;
        opt.sim.lane_words = lane_words;
        const flow::CampaignReport r = flow::run_campaign(p.seq, opt);
        ASSERT_TRUE(r.ok()) << r.error;
        if (first) {
          base = r;
          first = false;
          continue;
        }
        const std::string label = file + " delta=" + to_string(d) + " " +
                                  std::to_string(threads) + "t/" +
                                  std::to_string(64 * lane_words) + "l";
        EXPECT_EQ(r.matrix_hash, base.matrix_hash) << label;
        EXPECT_EQ(r.detected, base.detected) << label;
        EXPECT_EQ(r.tests_final, base.tests_final) << label;
      }
    }
  }
}

TEST(DeltaGoods, C2670CampaignHashInvariant) {
  sweep_campaign_hash("c2670.bench");
}

TEST(DeltaGoods, ShardedCampaignHashInvariant) {
  const io::BenchParseResult p = io::load_bench_file(corpus("c2670.bench"));
  ASSERT_TRUE(p.ok) << p.error;
  flow::CampaignOptions opt;
  opt.model = flow::FaultModel::kObd;
  opt.random_patterns = 256;
  opt.max_backtracks = 5000;
  const flow::CampaignReport base = flow::run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;
  ASSERT_NE(base.matrix_hash, 0u);

  int n = 0;
  for (const DeltaGoods d : {DeltaGoods::kOff, DeltaGoods::kOn}) {
    for (const int shards : {1, 4}) {
      flow::SupervisorOptions sup;
      const auto dir = std::filesystem::temp_directory_path() /
                       ("obd_delta_shard_" + std::to_string(n++));
      std::filesystem::remove_all(dir);
      sup.checkpoint_dir = dir.string();
      sup.shards = shards;
      sup.in_process = true;
      opt.sim.delta_goods = d;
      const flow::SupervisorResult res =
          flow::run_supervised_campaign(p.seq, opt, sup);
      const std::string label = std::string("delta=") + to_string(d) + " " +
                                std::to_string(shards) + " shards";
      ASSERT_TRUE(res.report.ok()) << label << ": " << res.report.error;
      EXPECT_EQ(res.report.matrix_hash, base.matrix_hash) << label;
      EXPECT_EQ(res.report.detected, base.detected) << label;
      std::filesystem::remove_all(dir);
    }
  }
}

TEST(DeltaGoods, BatchAwareSerialThreshold) {
  // The serial-threshold product must include the block batch: batched
  // rounds do batch x blocks x gates of work, so a shape that is
  // sub-threshold per block can still be worth fanning out.
  const Circuit big = logic::array_multiplier(6);  // 444 gates
  FaultSimScheduler plain(big, {.threads = 4,
                                .packing = SimPacking::kPatternMajor});
  EXPECT_EQ(plain.pattern_workers(8), 1);  // 444 x 8 x 1: sub-threshold
  FaultSimScheduler batched(big, {.threads = 4,
                                  .packing = SimPacking::kPatternMajor,
                                  .block_batch = 4});
  EXPECT_EQ(batched.pattern_workers(8), 4);  // 444 x 8 x 1 x 4 crosses it
}

TEST(DeltaGoods, PruneUntestableDropsByIndex) {
  const Circuit c = logic::c17();
  const auto faults = enumerate_obd_faults(c);
  ASSERT_GE(faults.size(), 4u);
  const auto kept = prune_untestable(
      faults, {1, 3, static_cast<std::uint32_t>(faults.size() + 7)});
  ASSERT_EQ(kept.size(), faults.size() - 2);  // out-of-range index ignored
  EXPECT_EQ(kept[0].gate_index, faults[0].gate_index);
  EXPECT_EQ(kept[1].gate_index, faults[2].gate_index);
  for (std::size_t i = 2; i < kept.size(); ++i)
    EXPECT_EQ(kept[i].gate_index, faults[i + 2].gate_index);
}

}  // namespace
}  // namespace obd::atpg
