// SAT ATPG backend: CDCL core on hand-built CNFs (unit propagation,
// conflict learning, UNSAT proofs, budgets, brute-force cross-check), the
// circuit encoder gate-by-gate against the simulator's own gate function,
// and the cross-oracle sweep — every `untestable` verdict on zoo-sized
// circuits verified by exhaustive simulation, every cube replayed through
// FaultSimEngine and required to detect its fault.
#include "atpg/sat/sat_atpg.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <vector>

#include "atpg/faults.hpp"
#include "atpg/faultsim_engine.hpp"
#include "atpg/patterns.hpp"
#include "atpg/podem.hpp"
#include "atpg/sat/cnf.hpp"
#include "atpg/sat/incremental.hpp"
#include "atpg/sat/solver.hpp"
#include "atpg/twoframe.hpp"
#include "flow/campaign.hpp"
#include "flow/supervisor.hpp"
#include "logic/gate.hpp"
#include "logic/zoo.hpp"
#include "util/prng.hpp"

namespace obd::atpg::sat {
namespace {

using logic::Circuit;
using logic::GateType;

// --- CDCL core on hand-built CNFs ----------------------------------------

TEST(SatSolver, UnitPropagationChain) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  ASSERT_TRUE(s.add_clause({mk_lit(a)}));                  // a
  ASSERT_TRUE(s.add_clause({mk_lit(a, true), mk_lit(b)})); // a -> b
  ASSERT_TRUE(s.add_clause({mk_lit(b, true), mk_lit(c)})); // b -> c
  EXPECT_EQ(s.solve(), SolveStatus::kSat);
  EXPECT_TRUE(s.value(a));
  EXPECT_TRUE(s.value(b));
  EXPECT_TRUE(s.value(c));
  // The chain resolves by propagation alone.
  EXPECT_EQ(s.stats().decisions, 0);
}

TEST(SatSolver, TrivialUnsatViaUnits) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  EXPECT_TRUE(s.add_clause({mk_lit(a), mk_lit(b)}));
  EXPECT_TRUE(s.add_clause({mk_lit(a, true)}));
  // (~b) contradicts the propagated consequences.
  s.add_clause({mk_lit(b, true)});
  EXPECT_EQ(s.solve(), SolveStatus::kUnsat);
}

TEST(SatSolver, TautologyAndDuplicatesAreHarmless) {
  Solver s;
  const Var a = s.new_var(), b = s.new_var();
  ASSERT_TRUE(s.add_clause({mk_lit(a), mk_lit(a, true)}));  // tautology
  ASSERT_TRUE(s.add_clause({mk_lit(b), mk_lit(b), mk_lit(b)}));
  EXPECT_EQ(s.solve(), SolveStatus::kSat);
  EXPECT_TRUE(s.value(b));
}

/// Pigeonhole PHP(n+1, n): n+1 pigeons into n holes — UNSAT, and famously
/// requires genuine conflict learning rather than luck.
void add_pigeonhole(Solver& s, int pigeons, int holes) {
  std::vector<std::vector<Var>> p(static_cast<std::size_t>(pigeons));
  for (auto& row : p)
    for (int h = 0; h < holes; ++h) row.push_back(s.new_var());
  for (int i = 0; i < pigeons; ++i) {
    std::vector<Lit> some;
    for (int h = 0; h < holes; ++h)
      some.push_back(mk_lit(p[static_cast<std::size_t>(i)][static_cast<std::size_t>(h)]));
    s.add_clause(some);
  }
  for (int h = 0; h < holes; ++h)
    for (int i = 0; i < pigeons; ++i)
      for (int j = i + 1; j < pigeons; ++j)
        s.add_clause({mk_lit(p[static_cast<std::size_t>(i)][static_cast<std::size_t>(h)], true),
                      mk_lit(p[static_cast<std::size_t>(j)][static_cast<std::size_t>(h)], true)});
}

TEST(SatSolver, PigeonholeUnsatNeedsLearning) {
  Solver s;
  add_pigeonhole(s, 5, 4);
  EXPECT_EQ(s.solve(), SolveStatus::kUnsat);
  EXPECT_GT(s.stats().conflicts, 0);
  EXPECT_GT(s.stats().learned, 0);
}

TEST(SatSolver, ConflictBudgetReturnsUnknown) {
  Solver s;
  add_pigeonhole(s, 7, 6);
  EXPECT_EQ(s.solve(1), SolveStatus::kUnknown);
  // The same instance resolves once the budget allows it.
  EXPECT_EQ(s.solve(0), SolveStatus::kUnsat);
}

TEST(SatSolver, XorChainBothParities) {
  // x0 ^ x1 ^ x2 = 1 is satisfiable; adding x0 ^ x1 ^ x2 = 0 is not.
  const auto xor_clauses = [](Solver& s, Var a, Var b, Var c, bool parity) {
    // Clauses forbidding every assignment of the wrong parity.
    for (std::uint32_t m = 0; m < 8; ++m) {
      const bool p = ((m & 1) ^ ((m >> 1) & 1) ^ ((m >> 2) & 1)) != 0;
      if (p == parity) continue;
      s.add_clause({mk_lit(a, (m & 1) != 0), mk_lit(b, (m & 2) != 0),
                    mk_lit(c, (m & 4) != 0)});
    }
  };
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  xor_clauses(s, a, b, c, true);
  EXPECT_EQ(s.solve(), SolveStatus::kSat);
  EXPECT_TRUE(s.value(a) ^ s.value(b) ^ s.value(c));
  xor_clauses(s, a, b, c, false);
  EXPECT_EQ(s.solve(), SolveStatus::kUnsat);
}

TEST(SatSolver, RandomThreeSatAgainstBruteForce) {
  // 60 deterministic random 3-SAT instances near the phase transition,
  // each cross-checked against exhaustive enumeration.
  util::Prng prng(0x5a7a7e57ull);
  for (int inst = 0; inst < 60; ++inst) {
    const int n = 6 + static_cast<int>(prng.next_u64() % 5);  // 6..10 vars
    const int m = static_cast<int>(4.3 * n);
    std::vector<std::vector<Lit>> clauses;
    for (int k = 0; k < m; ++k) {
      std::vector<Lit> cl;
      for (int j = 0; j < 3; ++j) {
        const Var v = static_cast<Var>(prng.next_u64() % n);
        cl.push_back(mk_lit(v, (prng.next_u64() & 1) != 0));
      }
      clauses.push_back(cl);
    }
    bool brute_sat = false;
    for (std::uint32_t asg = 0; asg < (1u << n) && !brute_sat; ++asg) {
      bool all = true;
      for (const auto& cl : clauses) {
        bool any = false;
        for (const Lit l : cl)
          if (((asg >> var_of(l)) & 1u) != (sign_of(l) ? 1u : 0u)) {
            any = true;
            break;
          }
        if (!any) {
          all = false;
          break;
        }
      }
      brute_sat = all;
    }
    Solver s;
    for (int v = 0; v < n; ++v) s.new_var();
    for (const auto& cl : clauses) s.add_clause(cl);
    const SolveStatus st = s.solve();
    ASSERT_EQ(st, brute_sat ? SolveStatus::kSat : SolveStatus::kUnsat)
        << "instance " << inst << " (" << n << " vars)";
    if (st == SolveStatus::kSat) {
      for (const auto& cl : clauses) {
        bool any = false;
        for (const Lit l : cl)
          if (s.value(var_of(l)) != sign_of(l)) any = true;
        EXPECT_TRUE(any) << "model violates a clause in instance " << inst;
      }
    }
  }
}

// --- Encoder: every gate type against gate_eval --------------------------

TEST(SatCnf, EveryGateTypeMatchesGateEval) {
  const GateType kAll[] = {
      GateType::kBuf,   GateType::kInv,   GateType::kNand2, GateType::kNand3,
      GateType::kNand4, GateType::kNor2,  GateType::kNor3,  GateType::kNor4,
      GateType::kAnd2,  GateType::kOr2,   GateType::kXor2,  GateType::kXnor2,
      GateType::kAoi21, GateType::kAoi22, GateType::kOai21};
  Circuit dummy("cnf-gate");
  for (const GateType t : kAll) {
    const int n = logic::gate_arity(t);
    for (std::uint32_t m = 0; m < (1u << n); ++m) {
      for (const bool out : {false, true}) {
        Solver s;
        CnfEncoder enc(dummy, s);
        Var ins[8];
        for (int i = 0; i < n; ++i) ins[i] = s.new_var();
        const Var o = s.new_var();
        enc.encode_gate(t, o, ins);
        for (int i = 0; i < n; ++i)
          s.add_clause({mk_lit(ins[i], ((m >> i) & 1u) == 0)});
        s.add_clause({mk_lit(o, !out)});
        const bool consistent = out == logic::gate_eval(t, m);
        EXPECT_EQ(s.solve(), consistent ? SolveStatus::kSat : SolveStatus::kUnsat)
            << logic::gate_type_name(t) << " inputs=" << m << " out=" << out;
      }
    }
  }
}

// --- Cross-oracle sweep on zoo circuits ----------------------------------

/// Replays a cube's concrete test through the fault simulator: it must
/// detect the fault.
template <typename Fault>
void expect_cube_detects(const Circuit& c, const Fault& fault,
                         const XTwoVectorTest& cube);

template <>
void expect_cube_detects(const Circuit& c, const ObdFaultSite& fault,
                         const XTwoVectorTest& cube) {
  FaultSimEngine eng(c);
  const auto camp = eng.campaign_obd({cube.concrete()}, {fault});
  EXPECT_EQ(camp.detected, 1) << "SAT cube fails to detect "
                              << fault_name(c, fault);
}

template <>
void expect_cube_detects(const Circuit& c, const StuckFault& fault,
                         const XTwoVectorTest& cube) {
  FaultSimEngine eng(c);
  const auto camp = eng.campaign_stuck({cube.concrete().v2}, {fault});
  EXPECT_EQ(camp.detected, 1) << "SAT cube fails to detect "
                              << fault_name(c, fault);
}

template <>
void expect_cube_detects(const Circuit& c, const TransitionFault& fault,
                         const XTwoVectorTest& cube) {
  FaultSimEngine eng(c);
  const auto camp = eng.campaign_transition({cube.concrete()}, {fault});
  EXPECT_EQ(camp.detected, 1) << "SAT cube fails to detect "
                              << fault_name(c, fault);
}

TEST(SatAtpgOracle, ObdVerdictsOnZooCircuits) {
  const Circuit circuits[] = {logic::full_adder_sum_circuit(), logic::c17(),
                              logic::ripple_carry_adder(3)};
  for (const Circuit& c : circuits) {
    const auto sites = enumerate_obd_faults(c);
    ASSERT_FALSE(sites.empty());
    const auto pairs =
        all_ordered_pairs(static_cast<int>(c.inputs().size()), true);
    FaultSimEngine eng(c);
    int cubes = 0, proofs = 0;
    for (const ObdFaultSite& site : sites) {
      const SatAtpgResult r = sat_generate_obd_test(c, site);
      ASSERT_NE(r.verdict, SatVerdict::kUnknown)
          << fault_name(c, site) << " should resolve at the default budget";
      // PODEM (generous budget) must agree with the SAT verdict.
      PodemOptions popt;
      popt.max_backtracks = 1000000;
      const TwoFrameResult p = generate_obd_test(c, site, popt);
      if (r.verdict == SatVerdict::kCube) {
        ++cubes;
        EXPECT_EQ(p.status, PodemStatus::kFound) << fault_name(c, site);
        expect_cube_detects(c, site, r.cube);
      } else {
        ++proofs;
        EXPECT_EQ(p.status, PodemStatus::kUntestable) << fault_name(c, site);
        // Exhaustive refutation: no transition pair detects the fault.
        const auto camp = eng.campaign_obd(pairs, {site});
        EXPECT_EQ(camp.detected, 0)
            << fault_name(c, site) << " proven untestable but detectable";
      }
    }
    EXPECT_GT(cubes, 0) << c.name();
    if (c.name() == "full_adder_sum") EXPECT_GT(proofs, 0);
  }
}

TEST(SatAtpgOracle, ObdUntestableTailOnFullAdder) {
  // The paper's full-adder circuit carries an intentionally redundant
  // branch: the sweep must prove at least one OBD site untestable.
  const Circuit c = logic::full_adder_sum_circuit();
  int proofs = 0;
  for (const ObdFaultSite& site : enumerate_obd_faults(c))
    if (sat_generate_obd_test(c, site).verdict == SatVerdict::kUntestable)
      ++proofs;
  EXPECT_GT(proofs, 0);
}

TEST(SatAtpgOracle, StuckVerdictsMatchPodemAndSim) {
  const Circuit circuits[] = {logic::full_adder_sum_circuit(), logic::c17(),
                              logic::parity_tree(5)};
  for (const Circuit& c : circuits) {
    for (const StuckFault& f : enumerate_stuck_faults(c)) {
      const SatAtpgResult r = sat_generate_stuck_test(c, f);
      ASSERT_NE(r.verdict, SatVerdict::kUnknown);
      PodemOptions popt;
      popt.max_backtracks = 1000000;
      const PodemResult p = podem_stuck_at(c, f, popt);
      if (r.verdict == SatVerdict::kCube) {
        EXPECT_EQ(p.status, PodemStatus::kFound) << fault_name(c, f);
        EXPECT_EQ(r.cube.v1.bits, r.cube.v2.bits);
        expect_cube_detects(c, f, r.cube);
      } else {
        EXPECT_EQ(p.status, PodemStatus::kUntestable) << fault_name(c, f);
      }
    }
  }
}

TEST(SatAtpgOracle, TransitionVerdictsMatchPodemAndSim) {
  const Circuit c = logic::ripple_carry_adder(3);
  for (const TransitionFault& f : enumerate_transition_faults(c)) {
    const SatAtpgResult r = sat_generate_transition_test(c, f);
    ASSERT_NE(r.verdict, SatVerdict::kUnknown);
    PodemOptions popt;
    popt.max_backtracks = 1000000;
    const TwoFrameResult p = generate_transition_test(c, f, popt);
    if (r.verdict == SatVerdict::kCube) {
      EXPECT_EQ(p.status, PodemStatus::kFound) << fault_name(c, f);
      expect_cube_detects(c, f, r.cube);
    } else {
      EXPECT_EQ(p.status, PodemStatus::kUntestable) << fault_name(c, f);
    }
  }
}

TEST(SatAtpg, CubesCarryRealDontCares) {
  // On the 3-PI full adder the lifted cubes should leave at least one PI
  // position X somewhere across the fault list — the maximal-don't-care
  // property compaction feeds on.
  const Circuit c = logic::full_adder_sum_circuit();
  const logic::InputVec full = logic::InputVec::mask(c.inputs().size());
  bool any_x = false;
  for (const ObdFaultSite& site : enumerate_obd_faults(c)) {
    const SatAtpgResult r = sat_generate_obd_test(c, site);
    if (r.verdict != SatVerdict::kCube) continue;
    if (!(r.cube.v1.care_mask == full) || !(r.cube.v2.care_mask == full))
      any_x = true;
  }
  EXPECT_TRUE(any_x);
}

// --- Campaign escalation -------------------------------------------------

/// Campaign options that force a PODEM abort tail: no random prepass, zero
/// backtrack budget. array_multiplier(3) has dozens of faults PODEM then
/// aborts on — most of them testable, so escalation must produce cubes.
flow::CampaignOptions abort_tail_options() {
  flow::CampaignOptions opt;
  opt.model = flow::FaultModel::kObd;
  opt.random_patterns = 0;
  opt.max_backtracks = 0;
  return opt;
}

TEST(SatCampaign, EscalationResolvesEveryAbort) {
  const Circuit c = logic::array_multiplier(3);

  flow::CampaignOptions base = abort_tail_options();
  const flow::CampaignReport podem_only = flow::run_campaign(c, base);
  ASSERT_TRUE(podem_only.ok()) << podem_only.error;
  ASSERT_GT(podem_only.aborted, 0);
  EXPECT_EQ(podem_only.aborted_faults.size(),
            static_cast<std::size_t>(podem_only.aborted));

  base.sat_escalate = true;
  const flow::CampaignReport sat = flow::run_campaign(c, base);
  ASSERT_TRUE(sat.ok()) << sat.error;
  // Every abort resolves: a validated cube or an untestability proof.
  EXPECT_EQ(sat.aborted, 0);
  EXPECT_EQ(sat.sat_unknown, 0);
  EXPECT_TRUE(sat.aborted_faults.empty());
  EXPECT_GT(sat.sat_detected, 0);
  EXPECT_EQ(sat.sat_detected + sat.sat_untestable, podem_only.aborted);
  EXPECT_DOUBLE_EQ(sat.provable_coverage, 1.0);

  // The SAT cubes recover exactly the coverage a generous PODEM budget
  // reaches — detected counts come from the replayed detection matrix, so
  // this cross-checks every cube against the fault simulator.
  flow::CampaignOptions generous = abort_tail_options();
  generous.max_backtracks = 1000000;
  const flow::CampaignReport full = flow::run_campaign(c, generous);
  ASSERT_TRUE(full.ok()) << full.error;
  EXPECT_EQ(sat.detected, full.detected);
  EXPECT_EQ(sat.untestable + sat.sat_untestable, full.untestable);
}

TEST(SatCampaign, EscalatedMatrixHashIsThreadInvariant) {
  const Circuit c = logic::array_multiplier(3);
  flow::CampaignOptions opt = abort_tail_options();
  opt.sat_escalate = true;
  opt.random_patterns = 64;  // exercise the prepass + escalation mix too
  std::uint64_t first_hash = 0;
  for (const int threads : {1, 2, 4}) {
    opt.sim.threads = threads;
    const flow::CampaignReport r = flow::run_campaign(c, opt);
    ASSERT_TRUE(r.ok()) << r.error;
    if (threads == 1) first_hash = r.matrix_hash;
    else EXPECT_EQ(r.matrix_hash, first_hash) << threads << " threads";
  }
}

TEST(SatCampaign, EscalationRejectedForLocScan) {
  // LOC state coupling is not modeled by the SAT encoding; the campaign
  // must refuse rather than emit inapplicable cubes.
  logic::SequentialCircuit seq(logic::c17());
  seq.add_flop("ff0", seq.core().inputs()[0], seq.core().outputs()[0]);
  flow::CampaignOptions opt;
  opt.model = flow::FaultModel::kObd;
  opt.scan_style = ScanMode::kLaunchOnCapture;
  opt.sat_escalate = true;
  const flow::CampaignReport r = flow::run_campaign(seq, opt);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("--sat-escalate"), std::string::npos) << r.error;
}

namespace {

std::string fresh_dir(const std::string& name) {
  const auto p =
      std::filesystem::temp_directory_path() / ("obd_satwf_" + name);
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p);
  return p.string();
}

flow::CampaignReport run_sharded(const Circuit& c,
                                 const flow::CampaignOptions& opt, int shards,
                                 const std::string& dir, bool resume) {
  flow::SupervisorOptions sup;
  sup.checkpoint_dir = dir;
  sup.shards = shards;
  sup.in_process = true;
  sup.resume = resume;
  return flow::run_supervised_campaign(logic::SequentialCircuit(c), opt, sup)
      .report;
}

}  // namespace

TEST(SatCampaign, EscalatedShardedMergeMatchesOneShot) {
  const Circuit c = logic::array_multiplier(3);
  flow::CampaignOptions opt = abort_tail_options();
  opt.sat_escalate = true;
  const flow::CampaignReport oneshot = flow::run_campaign(c, opt);
  ASSERT_TRUE(oneshot.ok()) << oneshot.error;
  // The persistent SatSession actually shares work on this tail. (Total
  // conflicts can exceed per-fault fresh solving: SAT pairs are solved
  // twice — session attempt, then the fresh path for byte-identical cube
  // lifting. The conflicts-saved win belongs to refutation-heavy tails;
  // BENCH_atpg_scale's incremental_sat section measures it.)
  EXPECT_GT(oneshot.sat_pairs, 0);
  EXPECT_GT(oneshot.sat_cone_hits, 0);
  EXPECT_GT(oneshot.sat_incremental_refutes, 0);
  ASSERT_GT(oneshot.sat_detected, 0);
  for (const int shards : {1, 4}) {
    const flow::CampaignReport merged = run_sharded(
        c, opt, shards, fresh_dir("shards" + std::to_string(shards)), false);
    ASSERT_TRUE(merged.ok()) << merged.error;
    EXPECT_EQ(merged.matrix_hash, oneshot.matrix_hash) << shards << " shards";
    EXPECT_EQ(merged.detected, oneshot.detected);
    EXPECT_EQ(merged.sat_detected, oneshot.sat_detected);
    EXPECT_EQ(merged.sat_untestable, oneshot.sat_untestable);
    // SAT cubes count in sat_detected, not as deterministic tests.
    EXPECT_EQ(merged.tests_deterministic, oneshot.tests_deterministic);
    EXPECT_EQ(merged.tests_final, oneshot.tests_final);
    EXPECT_EQ(merged.aborted, 0);
    EXPECT_DOUBLE_EQ(merged.provable_coverage, 1.0);
    EXPECT_GT(merged.sat_conflicts, 0);
  }
}

TEST(SatCampaign, ResumeEscalatesRecordedBacktrackAborts) {
  // A PODEM-only sharded run records backtrack aborts in its checkpoints.
  // Resuming the same directory with escalation enabled must reopen ONLY
  // those aborts, send them straight to the SAT backend, and land on the
  // escalated one-shot campaign's matrix hash — the checkpoint fingerprint
  // deliberately ignores the SAT options to make this top-off legal.
  const Circuit c = logic::array_multiplier(3);
  flow::CampaignOptions opt = abort_tail_options();
  const std::string dir = fresh_dir("resume");

  const flow::CampaignReport before = run_sharded(c, opt, 2, dir, false);
  ASSERT_TRUE(before.ok()) << before.error;
  ASSERT_GT(before.aborted_backtracks, 0);

  opt.sat_escalate = true;
  const flow::CampaignReport after = run_sharded(c, opt, 2, dir, true);
  ASSERT_TRUE(after.ok()) << after.error;
  EXPECT_EQ(after.aborted, 0);
  EXPECT_GT(after.sat_detected, 0);
  EXPECT_EQ(after.sat_detected + after.sat_untestable,
            before.aborted_backtracks);

  const flow::CampaignReport oneshot = flow::run_campaign(c, opt);
  ASSERT_TRUE(oneshot.ok()) << oneshot.error;
  EXPECT_EQ(after.matrix_hash, oneshot.matrix_hash);
  EXPECT_EQ(after.detected, oneshot.detected);
}

// --- Assumption-based incremental solving --------------------------------

TEST(SatIncremental, AssumptionsLeaveDatabaseReusable) {
  // (a -> b), (b -> c): UNSAT under {a, ~c}, SAT under {a}, and an UNSAT
  // answer under assumptions must not poison the clause database — the
  // next call sees the same formula.
  Solver s;
  const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
  ASSERT_TRUE(s.add_clause({mk_lit(a, true), mk_lit(b)}));
  ASSERT_TRUE(s.add_clause({mk_lit(b, true), mk_lit(c)}));
  EXPECT_EQ(s.solve({mk_lit(a), mk_lit(c, true)}, 0), SolveStatus::kUnsat);
  EXPECT_TRUE(s.okay());
  EXPECT_EQ(s.solve({mk_lit(a)}, 0), SolveStatus::kSat);
  EXPECT_TRUE(s.value(b));
  EXPECT_TRUE(s.value(c));
  EXPECT_EQ(s.solve({mk_lit(c, true)}, 0), SolveStatus::kSat);
  EXPECT_FALSE(s.value(a));
  EXPECT_EQ(s.solve(0), SolveStatus::kSat);
}

TEST(SatIncremental, ImpliedAssumptionsAreNotConflicts) {
  // A unit clause forces x at level 0. Assuming x (already true) must
  // still be SAT; assuming ~x is UNSAT under assumptions, with the
  // database intact either way. This pins the already-assigned branch of
  // the assumption walk, where a polarity slip silently flips every
  // verdict whose assumption was implied by propagation.
  Solver s;
  const Var x = s.new_var(), y = s.new_var();
  ASSERT_TRUE(s.add_clause({mk_lit(x)}));
  ASSERT_TRUE(s.add_clause({mk_lit(x, true), mk_lit(y)}));
  EXPECT_EQ(s.solve({mk_lit(x)}, 0), SolveStatus::kSat);
  EXPECT_EQ(s.solve({mk_lit(y)}, 0), SolveStatus::kSat);
  EXPECT_EQ(s.solve({mk_lit(x, true)}, 0), SolveStatus::kUnsat);
  EXPECT_TRUE(s.okay());
  EXPECT_EQ(s.solve(0), SolveStatus::kSat);
  EXPECT_TRUE(s.value(x));
}

TEST(SatIncremental, SessionMatchesFreshOnAbortTail) {
  // The whole point of the session: for every OBD fault of the abort-tail
  // circuit, the incremental path must return the same verdict AND the
  // same cube bytes as the fresh per-fault encoder, while actually
  // sharing work (cone cache hits, incremental refutations).
  const Circuit c = logic::array_multiplier(3);
  SatAtpgOptions opt;
  SatSession session(c, opt);
  int cubes = 0, untestable = 0;
  for (const ObdFaultSite& site : enumerate_obd_faults(c)) {
    const SatAtpgResult fresh = sat_generate_obd_test(c, site, opt);
    const SatAtpgResult inc = session.generate_obd_test(site);
    ASSERT_EQ(fresh.verdict, inc.verdict)
        << "gate " << site.gate_index << " fault";
    if (fresh.verdict == SatVerdict::kCube) {
      ++cubes;
      EXPECT_EQ(fresh.cube.v1.bits, inc.cube.v1.bits);
      EXPECT_EQ(fresh.cube.v1.care_mask, inc.cube.v1.care_mask);
      EXPECT_EQ(fresh.cube.v2.bits, inc.cube.v2.bits);
      EXPECT_EQ(fresh.cube.v2.care_mask, inc.cube.v2.care_mask);
    } else if (fresh.verdict == SatVerdict::kUntestable) {
      ++untestable;
    }
  }
  EXPECT_GT(cubes, 0);
  EXPECT_GT(untestable, 0);
  const SatSessionStats& st = session.stats();
  EXPECT_GT(st.pairs_total, 0);
  EXPECT_GT(st.cone_hits, 0);            // shared cones actually reused
  EXPECT_GT(st.incremental_refutes, 0);  // refutations from the shared DB
  EXPECT_GT(st.vars_shared, 0);
  EXPECT_LT(st.cone_encodes, st.pairs_total);
}

TEST(SatCampaign, NdetectSkipsProvenUntestable) {
  // n-detect growth must not chase faults the SAT backend proved
  // untestable — they can never reach n detections, so keeping them only
  // burns PODEM budget. The report counts what was pruned.
  const Circuit c = logic::array_multiplier(3);
  flow::CampaignOptions opt = abort_tail_options();
  opt.sat_escalate = true;
  opt.ndetect = 2;
  const flow::CampaignReport r = flow::run_campaign(c, opt);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_GT(r.sat_untestable, 0);
  EXPECT_EQ(r.ndetect_pruned_untestable, r.sat_untestable);
}

}  // namespace
}  // namespace obd::atpg::sat
