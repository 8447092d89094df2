// Wide-lane determinism on the ISCAS corpus: the --lanes acceptance bar.
//
// The LaneBlock engine must be a pure throughput knob — on c2670 and c7552
// (the wide >64-PI tier where the old engine hit its cliff), detection
// matrices and campaign matrix_hash values are bit-identical across lane
// widths 64/256/512 and thread counts 1/2/4. The zoo-level
// legacy-reference sweeps live in oracle_common.hpp; these tests pin the
// corpus scale, where fanout is deep enough to exercise long frontier
// walks and multi-word value strides for real.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "atpg/atpg.hpp"
#include "flow/campaign.hpp"
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

/// Matrix bit-identity across lane widths x threads, against the 1-thread
/// 64-lane baseline.
void sweep_lanes(const std::string& file, int n_tests) {
  const Circuit c = load_prim(file);
  const auto faults = enumerate_obd_faults(c);
  const auto tests =
      random_pairs(static_cast<int>(c.inputs().size()), n_tests, 0x1a9e5);

  FaultSimScheduler base(c, {.threads = 1});
  const DetectionMatrix ref = base.matrix_obd(tests, faults);
  EXPECT_GT(ref.covered_count, 0) << file;

  for (const SimOptions& o : std::vector<SimOptions>{
           {.threads = 1, .lane_words = 4},
           {.threads = 1, .lane_words = 8},
           {.threads = 2, .lane_words = 4},
           {.threads = 4, .lane_words = 8},
           {.threads = 2, .lane_words = 8, .block_batch = 2},
       }) {
    FaultSimScheduler sched(c, o);
    oracle::expect_matrices_identical(ref, sched.matrix_obd(tests, faults),
                                      c.name() + " " + oracle::config_name(o));
  }
}

TEST(LanesCorpus, C2670MatrixIdenticalAcrossWidths) {
  sweep_lanes("c2670.bench", 192);
}

TEST(LanesCorpus, C7552MatrixIdenticalAcrossWidths) {
  sweep_lanes("c7552.bench", 192);
}

/// End-to-end witness: the campaign driver's matrix_hash — what the CLI
/// prints for --lanes — is invariant over lane width x threads.
void sweep_campaign_hash(const std::string& file,
                         const std::vector<int>& thread_counts) {
  const io::BenchParseResult p = io::load_bench_file(corpus(file));
  ASSERT_TRUE(p.ok) << p.error;
  flow::CampaignOptions opt;
  opt.model = flow::FaultModel::kObd;
  opt.random_patterns = 256;  // keep the sweep quick
  flow::CampaignReport base;
  bool first = true;
  for (const int lane_words : {1, 4, 8}) {
    for (const int threads : thread_counts) {
      opt.sim.lane_words = lane_words;
      opt.sim.threads = threads;
      const flow::CampaignReport r = flow::run_campaign(p.seq, opt);
      ASSERT_TRUE(r.ok()) << r.error;
      EXPECT_EQ(r.lanes, 64 * lane_words);
      if (first) {
        base = r;
        first = false;
        continue;
      }
      const std::string label = file + " " + std::to_string(64 * lane_words) +
                                "l/" + std::to_string(threads) + "t";
      EXPECT_EQ(r.matrix_hash, base.matrix_hash) << label;
      EXPECT_EQ(r.detected, base.detected) << label;
      EXPECT_EQ(r.tests_final, base.tests_final) << label;
      EXPECT_EQ(r.coverage, base.coverage) << label;
    }
  }
}

TEST(LanesCorpus, C2670CampaignHashIdentical) {
  sweep_campaign_hash("c2670.bench", {1, 2, 4});
}

TEST(LanesCorpus, C7552CampaignHashIdentical) {
  sweep_campaign_hash("c7552.bench", {1, 2});
}

}  // namespace
}  // namespace obd::atpg
