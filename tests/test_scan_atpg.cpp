// Scan-based OBD ATPG: three application modes, cross-validated by
// cycle-accurate simulation.
#include "atpg/scan.hpp"

#include <gtest/gtest.h>

#include "atpg/faults.hpp"
#include "atpg/faultsim.hpp"

namespace obd::atpg {
namespace {

using logic::SequentialCircuit;

std::vector<ObdFaultSite> core_faults(const SequentialCircuit& seq) {
  return enumerate_obd_faults(seq.core());
}

class ScanModeTest : public testing::TestWithParam<ScanMode> {};

TEST_P(ScanModeTest, GeneratedTestsVerifyOnLfsr3) {
  const SequentialCircuit seq = logic::lfsr_like_machine(3);
  const ScanMode mode = GetParam();
  for (const auto& f : core_faults(seq)) {
    const ScanObdResult r = generate_scan_obd_test(seq, f, mode);
    if (r.status != PodemStatus::kFound) continue;
    EXPECT_TRUE(verify_scan_obd_test(seq, f, r.test))
        << to_string(mode) << " " << fault_name(seq.core(), f);
  }
}

TEST_P(ScanModeTest, LocStateIsMachineResponse) {
  const SequentialCircuit seq = logic::lfsr_like_machine(3);
  const ScanMode mode = GetParam();
  if (mode == ScanMode::kEnhanced) GTEST_SKIP();
  for (const auto& f : core_faults(seq)) {
    const ScanObdResult r = generate_scan_obd_test(seq, f, mode);
    if (r.status != PodemStatus::kFound) continue;
    EXPECT_FALSE(r.test.state2_loaded);
    EXPECT_EQ(r.test.state2,
              seq.step(r.test.pi1, r.test.state1).next_state);
    if (mode == ScanMode::kLaunchOnCaptureHeldPi) {
      EXPECT_EQ(r.test.pi1, r.test.pi2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ScanModeTest,
                         testing::Values(ScanMode::kEnhanced,
                                         ScanMode::kLaunchOnCapture,
                                         ScanMode::kLaunchOnCaptureHeldPi),
                         [](const testing::TestParamInfo<ScanMode>& info) {
                           switch (info.param) {
                             case ScanMode::kEnhanced: return "Enhanced";
                             case ScanMode::kLaunchOnCapture: return "Loc";
                             default: return "LocHeldPi";
                           }
                         });

TEST(ScanAtpg, CoverageOrderingAcrossModes) {
  // Enhanced scan dominates LOC, which dominates LOC-with-held-PIs: each
  // added constraint can only lose coverage. This is the classic DFT
  // trade-off the paper's Sec. 5 gestures at.
  const SequentialCircuit seq = logic::lfsr_like_machine(3);
  const auto faults = core_faults(seq);
  const ScanCampaign enh =
      run_scan_obd_atpg(seq, faults, ScanMode::kEnhanced);
  const ScanCampaign loc =
      run_scan_obd_atpg(seq, faults, ScanMode::kLaunchOnCapture);
  const ScanCampaign held =
      run_scan_obd_atpg(seq, faults, ScanMode::kLaunchOnCaptureHeldPi);
  EXPECT_GE(enh.found, loc.found);
  EXPECT_GE(loc.found, held.found);
  EXPECT_GT(enh.found, 0);
  EXPECT_EQ(enh.aborted + loc.aborted + held.aborted, 0);
}

TEST(ScanAtpg, EnhancedMatchesCombinationalAtpgOnScanView) {
  // Enhanced scan is exactly combinational ATPG on the scan view.
  const SequentialCircuit seq = logic::lfsr_like_machine(2);
  const logic::Circuit sv = seq.scan_view();
  for (const auto& f : core_faults(seq)) {
    const ScanObdResult r =
        generate_scan_obd_test(seq, f, ScanMode::kEnhanced);
    const TwoFrameResult comb = generate_obd_test(sv, f);
    EXPECT_EQ(r.status, comb.status) << fault_name(seq.core(), f);
  }
}

TEST(ScanAtpg, LocTestRespectsUnrolledSemantics) {
  // The unrolled circuit's outputs under the found assignment must differ
  // between good and faulty (re-derive the PODEM result independently).
  const SequentialCircuit seq = logic::lfsr_like_machine(3);
  const auto faults = core_faults(seq);
  int checked = 0;
  for (const auto& f : faults) {
    const ScanObdResult r =
        generate_scan_obd_test(seq, f, ScanMode::kLaunchOnCapture);
    if (r.status != PodemStatus::kFound) continue;
    // Map to an OBD fault on the frame-2 twin in the unrolled circuit and
    // ask the combinational gross-delay simulator.
    const logic::Circuit u = seq.unroll_two_frames();
    const std::size_t n_pi = seq.core().inputs().size();
    const std::size_t n_ff = seq.flops().size();
    const InputVec v = r.test.pi1 | (r.test.state1 << n_pi) |
                       (r.test.pi2 << (n_pi + n_ff));
    const ObdFaultSite f2{seq.frame2_gate_index(f.gate_index), f.transistor};
    // Frame-1 gate inputs already settled: the local two-vector is encoded
    // by a single unrolled assignment, so compare against the simulator's
    // gross-delay output with the same vector on both frames.
    const auto det = simulate_obd(u, TwoVectorTest{v, v}, {f2});
    // A same-vector "pair" cannot excite anything; this asserts only that
    // the plumbing runs without tripping assertions.
    EXPECT_FALSE(det[0]);
    ++checked;
    if (checked > 4) break;
  }
  EXPECT_GT(checked, 0);
}

TEST(ScanAtpg, ToggleMachineSmallEnoughForExhaustiveCheck) {
  // Exhaustively validate LOC results on a 2-bit machine: for every fault
  // the generator finds, some (state1, pi1, pi2) must detect it per the
  // cycle-accurate verifier; if the generator says untestable, no
  // combination may detect it.
  const SequentialCircuit seq = logic::lfsr_like_machine(2);
  const auto faults = core_faults(seq);
  for (const auto& f : faults) {
    const ScanObdResult r =
        generate_scan_obd_test(seq, f, ScanMode::kLaunchOnCapture);
    ASSERT_NE(r.status, PodemStatus::kAborted);
    bool any = false;
    for (std::uint64_t s = 0; s < 4 && !any; ++s)
      for (std::uint64_t p1 = 0; p1 < 4 && !any; ++p1)
        for (std::uint64_t p2 = 0; p2 < 4 && !any; ++p2) {
          ScanObdTest t;
          t.state1 = s;
          t.pi1 = p1;
          t.pi2 = p2;
          if (verify_scan_obd_test(seq, f, t)) any = true;
        }
    EXPECT_EQ(r.status == PodemStatus::kFound, any)
        << fault_name(seq.core(), f);
  }
}

TEST(ScanAtpg, PiFedFlopStateIsMachineResponseUnderHeldPi) {
  // A flop whose d net IS a primary input: under held-PI unrolling the
  // frame-1 next state must read the shared PI net, not a fresh undriven
  // "@1" net (which silently evaluates to 0).
  logic::Circuit c("pifed");
  const logic::NetId x = c.add_input("x");
  const logic::NetId q = c.net("q");
  const logic::NetId o = c.net("o");
  c.add_gate(logic::GateType::kNand2, "o", {x, q}, o);
  c.mark_output(o);
  logic::SequentialCircuit seq(std::move(c));
  seq.add_flop("ff", q, x);  // d = x (a PI)
  ASSERT_TRUE(seq.validate().empty());
  for (const auto mode :
       {ScanMode::kLaunchOnCapture, ScanMode::kLaunchOnCaptureHeldPi}) {
    for (const auto& f : core_faults(seq)) {
      const ScanObdResult r = generate_scan_obd_test(seq, f, mode);
      if (r.status != PodemStatus::kFound) continue;
      EXPECT_EQ(r.test.state2,
                seq.step(r.test.pi1, r.test.state1).next_state)
          << to_string(mode) << " " << fault_name(seq.core(), f);
      EXPECT_TRUE(verify_scan_obd_test(seq, f, r.test)) << to_string(mode);
    }
  }
}

TEST_P(ScanModeTest, CampaignMatchesPerFaultSearches) {
  // The campaign builds its search circuit and PODEM workspace once; every
  // result, and the effort totals, must equal fresh per-fault searches.
  const SequentialCircuit seq = logic::lfsr_like_machine(4);
  const ScanMode mode = GetParam();
  const auto faults = core_faults(seq);
  const ScanCampaign c = run_scan_obd_atpg(seq, faults, mode);
  int found = 0;
  long backtracks = 0;
  long implications = 0;
  for (const auto& f : faults) {
    const ScanObdResult r = generate_scan_obd_test(seq, f, mode);
    backtracks += r.backtracks;
    implications += r.implications;
    if (r.status != PodemStatus::kFound) continue;
    ASSERT_LT(static_cast<std::size_t>(found), c.tests.size());
    const ScanObdTest& t = c.tests[static_cast<std::size_t>(found++)];
    EXPECT_EQ(t.state1, r.test.state1) << fault_name(seq.core(), f);
    EXPECT_EQ(t.pi1, r.test.pi1) << fault_name(seq.core(), f);
    EXPECT_EQ(t.pi2, r.test.pi2) << fault_name(seq.core(), f);
    EXPECT_EQ(t.state2, r.test.state2) << fault_name(seq.core(), f);
  }
  EXPECT_EQ(c.found, found);
  EXPECT_EQ(c.backtracks, backtracks);
  EXPECT_EQ(c.implications, implications);
  EXPECT_GT(c.implications, 0);
}

TEST_P(ScanModeTest, RandomPrepassDropsNoCoverage) {
  // The broadside random-pattern phase runs with fault dropping; it must
  // detect exactly what an undropped simulation of the same tests detects,
  // with identical first-detecting tests.
  const SequentialCircuit seq = logic::lfsr_like_machine(3);
  const ScanMode mode = GetParam();
  const auto faults = core_faults(seq);
  const logic::Circuit sv = seq.scan_view();
  const auto random_tests = random_broadside_tests(seq, mode, 256, 0xb10ad);
  std::vector<TwoVectorTest> vectors;
  for (const auto& t : random_tests)
    vectors.push_back(scan_view_vectors(seq, t));
  FaultSimScheduler sched(sv);
  const auto dropped = sched.campaign_obd(vectors, faults, true);
  const auto full = sched.campaign_obd(vectors, faults, false);
  EXPECT_EQ(dropped.detected, full.detected);
  EXPECT_EQ(dropped.first_test, full.first_test);
  EXPECT_LE(dropped.fault_block_evals, full.fault_block_evals);
}

TEST_P(ScanModeTest, RandomPrepassKeepsAtpgCoverageParity) {
  const SequentialCircuit seq = logic::lfsr_like_machine(3);
  const ScanMode mode = GetParam();
  const auto faults = core_faults(seq);
  const ScanCampaign base = run_scan_obd_atpg(seq, faults, mode);
  PodemOptions opt;
  opt.random_phase = 256;
  opt.random_phase_seed = 0xb10ad;
  const ScanCampaign rnd = run_scan_obd_atpg(seq, faults, mode, opt);
  // The prepass may only replace deterministic work, never lose coverage:
  // untestable faults still reach (and are proven by) PODEM.
  EXPECT_EQ(rnd.found + rnd.untestable + rnd.aborted,
            static_cast<int>(faults.size()));
  EXPECT_GE(rnd.found, base.found);
  EXPECT_EQ(rnd.untestable, base.untestable);
  EXPECT_GT(rnd.random_found, 0) << to_string(mode);

  // Every fault the campaign's random phase claims must be detected by the
  // recorded test per the cycle-accurate verifier — the engine's broadside
  // semantics on the scan view and verify_scan_obd_test must agree.
  const auto random_tests = random_broadside_tests(seq, mode, 256, 0xb10ad);
  std::vector<TwoVectorTest> vectors;
  for (const auto& t : random_tests)
    vectors.push_back(scan_view_vectors(seq, t));
  const logic::Circuit sv = seq.scan_view();
  FaultSimScheduler sched(sv);
  const auto campaign = sched.campaign_obd(vectors, faults, true);
  int verified = 0;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const int t = campaign.first_test[f];
    if (t < 0) continue;
    EXPECT_TRUE(verify_scan_obd_test(
        seq, faults[f], random_tests[static_cast<std::size_t>(t)]))
        << to_string(mode) << " " << fault_name(seq.core(), faults[f]);
    ++verified;
  }
  EXPECT_EQ(verified, campaign.detected);
  EXPECT_EQ(campaign.detected, rnd.random_found);
}

}  // namespace
}  // namespace obd::atpg
