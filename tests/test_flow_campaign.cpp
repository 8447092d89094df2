// End-to-end campaign driver: coverage on zoo and corpus circuits,
// bit-identical results across thread counts, stuck-at collapse
// soundness, and the JSON report.
#include <gtest/gtest.h>

#include <string>

#include "atpg/atpg.hpp"
#include "flow/campaign.hpp"
#include "io/bench.hpp"
#include "logic/zoo.hpp"

namespace obd::flow {
namespace {

using namespace obd::atpg;

std::string corpus(const std::string& file) {
  return std::string(OBD_CORPUS_DIR) + "/" + file;
}

TEST(FlowCampaign, C17StuckFullCoverage) {
  const CampaignReport r = run_campaign(logic::c17());
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.circuit, "c17");
  EXPECT_LT(r.faults_collapsed, r.faults_total);
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
  EXPECT_EQ(r.untestable, 0);
  EXPECT_EQ(r.aborted, 0);
  EXPECT_GT(r.tests_final, 0);
  EXPECT_NE(r.matrix_hash, 0u);
}

TEST(FlowCampaign, C432BitIdenticalAcrossThreads) {
  // The acceptance bar: >= 95% collapsed stuck-at coverage on c432 and a
  // bit-identical detection matrix at 1 / 2 / 4 threads.
  const io::BenchParseResult p = io::load_bench_file(corpus("c432.bench"));
  ASSERT_TRUE(p.ok) << p.error;
  CampaignOptions opt;
  CampaignReport base;
  for (const int threads : {1, 2, 4}) {
    opt.sim.threads = threads;
    const CampaignReport r = run_campaign(p.seq, opt);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_GE(r.coverage, 0.95);
    if (threads == 1) {
      base = r;
      continue;
    }
    EXPECT_EQ(r.matrix_hash, base.matrix_hash) << threads;
    EXPECT_EQ(r.detected, base.detected);
    EXPECT_EQ(r.tests_final, base.tests_final);
    EXPECT_EQ(r.tests_random, base.tests_random);
  }
}

TEST(FlowCampaign, ScanSequentialCampaign) {
  const io::BenchParseResult p = io::load_bench_file(corpus("s27.bench"));
  ASSERT_TRUE(p.ok) << p.error;
  const CampaignReport r = run_campaign(p.seq);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.scan);
  EXPECT_EQ(r.flops, 3u);
  EXPECT_EQ(r.pis, 7u);  // 4 PIs + 3 pseudo-PIs
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
}

TEST(FlowCampaign, ObdModelDecomposesAndRuns) {
  CampaignOptions opt;
  opt.model = FaultModel::kObd;
  const CampaignReport r = run_campaign(logic::c17(), opt);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.faults_total, 0u);
  EXPECT_LT(r.faults_collapsed, r.faults_total);
  EXPECT_GE(r.coverage, 0.9);
}

TEST(FlowCampaign, WideCircuitRunsPastThe64PiCeiling) {
  // 65 PIs used to be rejected outright; InputVec test vectors carry any
  // width, so the campaign must now run end to end at full coverage.
  const logic::Circuit c = logic::parity_tree(65);
  ASSERT_EQ(c.inputs().size(), 65u);
  const CampaignReport r = run_campaign(c);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.pis, 65u);
  EXPECT_DOUBLE_EQ(r.coverage, 1.0);
  EXPECT_NE(r.matrix_hash, 0u);
}

TEST(FlowCampaign, Wide141PiCampaignBitIdenticalAcrossThreads) {
  // A 141-PI adder through the whole flow (collapse -> prepass -> PODEM
  // top-off -> matrix -> compaction), hash-identical at 1/2/4 threads.
  const logic::Circuit c = logic::ripple_carry_adder(70);
  ASSERT_EQ(c.inputs().size(), 141u);
  CampaignOptions opt;
  opt.random_patterns = 256;
  opt.max_backtracks = 1000;
  CampaignReport base;
  for (const int threads : {1, 2, 4}) {
    opt.sim.threads = threads;
    const CampaignReport r = run_campaign(c, opt);
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.pis, 141u);
    EXPECT_GT(r.coverage, 0.95);
    if (threads == 1) {
      base = r;
      continue;
    }
    EXPECT_EQ(r.matrix_hash, base.matrix_hash) << threads;
    EXPECT_EQ(r.detected, base.detected);
    EXPECT_EQ(r.tests_final, base.tests_final);
  }
}

TEST(FlowCampaign, LocScanStyleRunsObdCampaign) {
  // Launch-on-capture scan mode drives the two-frame scan ATPG and still
  // produces a matrix-backed, compacted report. Enhanced scan can only be
  // better-or-equal in coverage (LOC adds the next-state constraint).
  const logic::SequentialCircuit seq = logic::lfsr_like_machine(4);
  CampaignOptions opt;
  opt.model = FaultModel::kObd;
  opt.random_patterns = 128;
  opt.scan_style = ScanMode::kLaunchOnCapture;
  const CampaignReport loc = run_campaign(seq, opt);
  ASSERT_TRUE(loc.ok()) << loc.error;
  EXPECT_EQ(loc.scan_style, "launch-on-capture");
  EXPECT_GT(loc.detected, 0);
  EXPECT_GT(loc.tests_final, 0);
  EXPECT_NE(loc.matrix_hash, 0u);

  opt.scan_style = ScanMode::kEnhanced;
  const CampaignReport enh = run_campaign(seq, opt);
  ASSERT_TRUE(enh.ok()) << enh.error;
  EXPECT_EQ(enh.scan_style, "enhanced-scan");
  EXPECT_GE(enh.coverage, loc.coverage);

  // LOC results must also be thread-invariant.
  opt.scan_style = ScanMode::kLaunchOnCapture;
  opt.sim.threads = 4;
  const CampaignReport loc4 = run_campaign(seq, opt);
  ASSERT_TRUE(loc4.ok()) << loc4.error;
  EXPECT_EQ(loc4.matrix_hash, loc.matrix_hash);
  EXPECT_EQ(loc4.detected, loc.detected);

  // Without a prepass every fault reaches PODEM, and the report carries
  // the searches' effort.
  opt.random_patterns = 0;
  const CampaignReport det = run_campaign(seq, opt);
  ASSERT_TRUE(det.ok()) << det.error;
  EXPECT_GT(det.tests_deterministic, 0);
  EXPECT_GT(det.podem_implications, 0);
}

TEST(FlowCampaign, LocScanStyleRejectsNonObdModels) {
  const logic::SequentialCircuit seq = logic::lfsr_like_machine(2);
  CampaignOptions opt;
  opt.model = FaultModel::kStuck;
  opt.scan_style = ScanMode::kLaunchOnCapture;
  const CampaignReport r = run_campaign(seq, opt);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("obd"), std::string::npos) << r.error;
}

TEST(FlowCampaign, ReportJsonWellFormed) {
  const CampaignReport r = run_campaign(logic::c17());
  const std::string j = report_json(r);
  for (const char* key :
       {"\"circuit\"", "\"model\"", "\"coverage\"", "\"matrix_hash\"",
        "\"threads\"", "\"total\"", "\"collapsed\""})
    EXPECT_NE(j.find(key), std::string::npos) << key;
  // Balanced braces and a trailing newline: cheap structural sanity that
  // catches truncated writes (CI validates with a real JSON parser).
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(j.back(), '\n');
}

TEST(StuckCollapse, ClassesShareDetectionColumns) {
  // Soundness of the structural equivalence: every fault of a class must
  // be detected by exactly the same tests (checked against the legacy
  // scalar simulator, which knows nothing about collapsing).
  for (const logic::Circuit& c :
       {logic::c17(), logic::parity_tree(8), logic::alu_bit_slice()}) {
    const auto faults = enumerate_stuck_faults(c);
    const CollapsedStuck col = collapse_stuck_faults(c, faults);
    ASSERT_EQ(col.class_of.size(), faults.size());
    EXPECT_LT(col.representatives.size(), faults.size());
    const auto tests = random_pairs(static_cast<int>(c.inputs().size()), 64,
                                    0xc0117a5e);
    for (const auto& t : tests) {
      const auto det = legacy::simulate_stuck_at(c, t.v2, faults);
      // Per class: all members agree with the representative.
      for (std::size_t f = 0; f < faults.size(); ++f) {
        const StuckFault& rep = col.representatives[col.class_of[f]];
        std::size_t rep_idx = 0;
        for (std::size_t k = 0; k < faults.size(); ++k)
          if (faults[k] == rep) { rep_idx = k; break; }
        EXPECT_EQ(det[f], det[rep_idx])
            << c.name() << " fault " << f << " vs rep " << rep_idx;
      }
    }
  }
}

TEST(StuckCollapse, InverterChainCollapsesToTwoClasses) {
  // A fanout-free inverter chain is one equivalence chain per polarity:
  // 2*(n+1) net faults collapse to exactly 2 representatives.
  logic::Circuit c("chain");
  logic::NetId prev = c.add_input("a");
  for (int i = 0; i < 4; ++i) {
    const logic::NetId nxt = c.net("n" + std::to_string(i));
    c.add_gate(logic::GateType::kInv, "inv" + std::to_string(i), {prev}, nxt);
    prev = nxt;
  }
  c.mark_output(prev);
  const auto faults = enumerate_stuck_faults(c);
  ASSERT_EQ(faults.size(), 10u);
  const CollapsedStuck col = collapse_stuck_faults(c, faults);
  EXPECT_EQ(col.representatives.size(), 2u);
  EXPECT_DOUBLE_EQ(col.reduction(), 0.8);
}

}  // namespace
}  // namespace obd::flow
