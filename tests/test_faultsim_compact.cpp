// Fault simulators, detection matrices, compaction.
#include <gtest/gtest.h>

#include <bit>

#include "atpg/atpg.hpp"
#include "flow/campaign_detail.hpp"
#include "io/bench.hpp"
#include "logic/zoo.hpp"
#include "util/prng.hpp"

namespace obd::atpg {
namespace {

using logic::Circuit;
using logic::GateType;

Circuit single_nand() {
  Circuit c("nand");
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto o = c.net("o");
  c.add_gate(GateType::kNand2, "g", {a, b}, o);
  c.mark_output(o);
  return c;
}

TEST(FaultSimStuck, DetectsOutputFault) {
  const Circuit c = single_nand();
  const StuckFault f{c.find_net("o"), true};
  EXPECT_TRUE(simulate_stuck_at(c, 0b11, {f})[0]);   // good 0, faulty 1
  EXPECT_FALSE(simulate_stuck_at(c, 0b01, {f})[0]);  // good already 1
}

TEST(FaultSimStuck, PiFaultPropagates) {
  const Circuit c = single_nand();
  const StuckFault f{c.find_net("a"), false};
  EXPECT_TRUE(simulate_stuck_at(c, 0b11, {f})[0]);
  EXPECT_FALSE(simulate_stuck_at(c, 0b10, {f})[0]);  // a already 0
}

TEST(FaultSimObd, PaperNand2Conditions) {
  const Circuit c = single_nand();
  const auto faults = enumerate_obd_faults(c);  // N0 N1 P0 P1
  ASSERT_EQ(faults.size(), 4u);
  auto idx = [&](bool pmos, int input) -> std::size_t {
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (faults[i].transistor.pmos == pmos &&
          faults[i].transistor.input == input)
        return i;
    return 99;
  };
  // (01,11): both NMOS detected, no PMOS.
  auto det = simulate_obd(c, {0b01, 0b11}, faults);
  EXPECT_TRUE(det[idx(false, 0)]);
  EXPECT_TRUE(det[idx(false, 1)]);
  EXPECT_FALSE(det[idx(true, 0)]);
  EXPECT_FALSE(det[idx(true, 1)]);
  // (11,10) in paper order = our v2 with A=0,B=1: detects PMOS A only.
  det = simulate_obd(c, {0b11, 0b10}, faults);
  EXPECT_FALSE(det[idx(false, 0)]);
  EXPECT_FALSE(det[idx(false, 1)]);
  EXPECT_TRUE(det[idx(true, 0)]);
  EXPECT_FALSE(det[idx(true, 1)]);
  // (11,00): both PMOS conduct -> neither excited.
  det = simulate_obd(c, {0b11, 0b00}, faults);
  EXPECT_FALSE(det[idx(true, 0)]);
  EXPECT_FALSE(det[idx(true, 1)]);
}

TEST(FaultSimObd, RequiresObservablePath) {
  // NAND whose output feeds a blocked AND: excitation without propagation.
  Circuit c("t");
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto blk = c.add_input("blk");
  const auto n = c.net("n");
  const auto m = c.net("m");
  const auto o = c.net("o");
  c.add_gate(GateType::kNand2, "g1", {a, b}, n);
  c.add_gate(GateType::kNand2, "g2", {n, blk}, m);
  c.add_gate(GateType::kInv, "g3", {m}, o);
  c.mark_output(o);
  const auto faults = enumerate_obd_faults(c);
  // Fault on g1 NMOS A, transition (01,11) with blk = 0: path blocked.
  std::size_t target = 99;
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (c.gate(faults[i].gate_index).name == "g1" &&
        !faults[i].transistor.pmos && faults[i].transistor.input == 0)
      target = i;
  ASSERT_NE(target, 99u);
  EXPECT_FALSE(simulate_obd(c, {0b001, 0b011}, faults)[target]);
  EXPECT_TRUE(simulate_obd(c, {0b101, 0b111}, faults)[target]);
}

TEST(FaultSimTransition, ExcitedByOutputToggleOnly) {
  const Circuit c = single_nand();
  const auto faults = enumerate_transition_faults(c);
  ASSERT_EQ(faults.size(), 2u);  // str, stf at o
  const std::size_t str = faults[0].slow_to_rise ? 0 : 1;
  const std::size_t stf = 1 - str;
  auto det = simulate_transition(c, {0b11, 0b00}, faults);
  EXPECT_TRUE(det[str]);   // output rises
  EXPECT_FALSE(det[stf]);
  det = simulate_transition(c, {0b01, 0b11}, faults);
  EXPECT_TRUE(det[stf]);   // output falls
  EXPECT_FALSE(det[str]);
}

TEST(FaultSimObd, TransitionSimBroaderThanObdSim) {
  // On the rising pair (11,00) the transition model claims detection but
  // the OBD model (correctly) does not: both PMOS share the current.
  const Circuit c = single_nand();
  const auto tf = enumerate_transition_faults(c);
  const auto of = enumerate_obd_faults(c);
  const auto dt = simulate_transition(c, {0b11, 0b00}, tf);
  const auto doo = simulate_obd(c, {0b11, 0b00}, of);
  EXPECT_TRUE(dt[0] || dt[1]);
  for (bool d : doo) EXPECT_FALSE(d);
}

TEST(FaultSimTiming, CaptureWindowDecidesDetection) {
  const Circuit c = single_nand();
  const auto faults = enumerate_obd_faults(c);
  ObdFaultSite pmos_a;
  for (const auto& f : faults)
    if (f.transistor.pmos && f.transistor.input == 0) pmos_a = f;
  const TwoVectorTest test{0b11, 0b10};  // excites PMOS A
  // Nominal rise is 110 ps. With +500 ps extra delay:
  //  - capture at 300 ps sees the stale value -> detected;
  //  - capture at 2 ns has let the slow edge through -> missed.
  EXPECT_TRUE(
      simulate_obd_timing(c, test, pmos_a, 500e-12, false, 300e-12));
  EXPECT_FALSE(
      simulate_obd_timing(c, test, pmos_a, 500e-12, false, 2e-9));
}

TEST(FaultSimTiming, StuckAlwaysDetectedOnceExcited) {
  const Circuit c = single_nand();
  const auto faults = enumerate_obd_faults(c);
  ObdFaultSite pmos_a;
  for (const auto& f : faults)
    if (f.transistor.pmos && f.transistor.input == 0) pmos_a = f;
  EXPECT_TRUE(simulate_obd_timing(c, {0b11, 0b10}, pmos_a, 0.0, true, 10e-9));
  // Unexcited transition: no detection even with a stuck effect.
  EXPECT_FALSE(simulate_obd_timing(c, {0b11, 0b01}, pmos_a, 0.0, true, 10e-9));
}

TEST(FaultSimTiming, GrossDelayAgreesWithTimingSimAtTightCapture) {
  // With capture placed right after the nominal settle time and a huge
  // extra delay, the timing-aware detector must agree with the gross-delay
  // static detector on every (fault, pair) of the full adder's mid gate.
  const Circuit c = logic::full_adder_sum_circuit();
  const auto faults = enumerate_obd_faults(c);
  std::vector<ObdFaultSite> mid;
  for (const auto& f : faults)
    if (c.gate(f.gate_index).name == logic::kFullAdderMidNand)
      mid.push_back(f);
  ASSERT_EQ(mid.size(), 4u);
  const logic::DelayLibrary lib;
  const double settle = 15 * 110e-12;  // depth 9 x max delay + margin
  for (const auto& f : mid) {
    for (const auto& t : all_ordered_pairs(3)) {
      const bool gross = simulate_obd(c, t, {f})[0];
      const bool timing =
          simulate_obd_timing(c, t, f, 1e-6, false, settle, lib);
      EXPECT_EQ(gross, timing)
          << fault_name(c, f) << " " << t.v1 << "->" << t.v2;
    }
  }
}

// --- Compaction --------------------------------------------------------------

TEST(Compact, GreedyCoversEverything) {
  const Circuit c = logic::full_adder_sum_circuit();
  const auto faults = enumerate_obd_faults(c, true);
  const auto tests = all_ordered_pairs(3);
  const DetectionMatrix m = build_obd_matrix(c, tests, faults);
  const auto picks = greedy_cover(m);
  EXPECT_TRUE(covers_all(m, picks));
  EXPECT_LT(picks.size(), tests.size());
}

TEST(Compact, ExactNoWorseThanGreedy) {
  const Circuit c = logic::full_adder_sum_circuit();
  const auto faults = enumerate_obd_faults(c, true);
  const auto tests = all_ordered_pairs(3);
  const DetectionMatrix m = build_obd_matrix(c, tests, faults);
  const auto greedy = greedy_cover(m);
  const auto exact = exact_cover(m);
  EXPECT_TRUE(covers_all(m, exact));
  EXPECT_LE(exact.size(), greedy.size());
}

TEST(Compact, EmptyMatrix) {
  DetectionMatrix m;
  EXPECT_TRUE(greedy_cover(m).empty());
  EXPECT_TRUE(exact_cover(m).empty());
  EXPECT_TRUE(covers_all(m, {}));
}

/// The eager greedy cover, kept as the lazy implementation's oracle:
/// every pick re-scores every test and takes the first maximum gain.
std::vector<std::size_t> eager_greedy_cover(const DetectionMatrix& m) {
  std::vector<std::size_t> picks;
  if (m.n_tests == 0) return picks;
  std::vector<std::uint64_t> covered(m.words_per_row, 0);
  const auto gain_of = [&](std::size_t t) {
    std::size_t n = 0;
    for (std::size_t w = 0; w < covered.size(); ++w)
      n += static_cast<std::size_t>(std::popcount(m.row(t)[w] & ~covered[w]));
    return n;
  };
  std::size_t remaining = static_cast<std::size_t>(m.covered_count);
  while (remaining > 0) {
    std::size_t best = 0;
    std::size_t best_gain = 0;
    for (std::size_t t = 0; t < m.n_tests; ++t) {
      const std::size_t gain = gain_of(t);
      if (gain > best_gain) {
        best_gain = gain;
        best = t;
      }
    }
    if (best_gain == 0) break;
    picks.push_back(best);
    for (std::size_t w = 0; w < covered.size(); ++w)
      covered[w] |= m.row(best)[w];
    remaining -= best_gain;
  }
  return picks;
}

/// A seeded random matrix whose shape stresses the cover's tie-breaks:
/// few distinct gains (ties on every pick), duplicated rows, empty rows,
/// faults no test detects, and rows spanning several words.
DetectionMatrix random_matrix(util::Prng& prng) {
  DetectionMatrix m;
  m.n_tests = prng.next_below(80);
  m.n_faults = prng.next_below(300);
  m.words_per_row = (m.n_faults + 63) / 64;
  m.rows.assign(m.n_tests * m.words_per_row, 0);
  // Density from very sparse (many uncoverable faults) to dense.
  const std::uint64_t per_mille = 5 + prng.next_below(400);
  for (std::size_t t = 0; t < m.n_tests; ++t) {
    const std::uint64_t kind = prng.next_below(8);
    if (kind == 0) continue;  // empty row
    if (kind == 1 && t > 0) {  // duplicate of an earlier row
      const std::size_t src = prng.next_below(t);
      std::copy(m.row(src), m.row(src) + m.words_per_row,
                m.rows.begin() + static_cast<std::ptrdiff_t>(t * m.words_per_row));
      continue;
    }
    for (std::size_t f = 0; f < m.n_faults; ++f)
      if (prng.next_below(1000) < per_mille)
        m.rows[t * m.words_per_row + (f >> 6)] |= 1ull << (f & 63);
  }
  m.covered.assign(m.n_faults, false);
  for (std::size_t f = 0; f < m.n_faults; ++f)
    for (std::size_t t = 0; t < m.n_tests && !m.covered[f]; ++t)
      if (m.detects(t, f)) {
        m.covered[f] = true;
        ++m.covered_count;
      }
  return m;
}

TEST(Compact, LazyGreedyMatchesEagerPickSequence) {
  util::Prng prng(0xc0e7);
  int multiword = 0, uncoverable = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const DetectionMatrix m = random_matrix(prng);
    multiword += m.words_per_row > 1;
    uncoverable += m.covered_count < static_cast<int>(m.n_faults);
    const auto lazy = greedy_cover(m);
    ASSERT_EQ(lazy, eager_greedy_cover(m))
        << "trial " << trial << ": " << m.n_tests << " tests x "
        << m.n_faults << " faults";
    EXPECT_TRUE(covers_all(m, lazy)) << "trial " << trial;
  }
  // The generator really produced the shapes the contract is about.
  EXPECT_GT(multiword, 100);
  EXPECT_GT(uncoverable, 100);
}

TEST(Compact, LazyGreedyTieBreakTakesLowestIndex) {
  // Rows 1 and 3 tie at the top (gain 3); row 1 must win, then row 3 is
  // left with gain 1 and ties row 0 and row 2 — the lowest index wins.
  DetectionMatrix m;
  m.n_tests = 4;
  m.n_faults = 5;
  m.words_per_row = 1;
  m.rows = {0b00001, 0b01110, 0b10000, 0b00111};
  m.covered.assign(5, true);
  m.covered_count = 5;
  EXPECT_EQ(eager_greedy_cover(m), (std::vector<std::size_t>{1, 0, 2}));
  EXPECT_EQ(greedy_cover(m), (std::vector<std::size_t>{1, 0, 2}));
}

/// The detection matrix of the one-shot OBD campaign `obd_atpg <c> --model
/// obd --backtracks 20 --sat-escalate`, rebuilt through the campaign's own
/// model hooks: prepass-kept tests, then a PODEM test or SAT cube per
/// surviving representative, in representative order.
DetectionMatrix obd_campaign_matrix(const std::string& file) {
  const io::BenchParseResult p =
      io::load_bench_file(std::string(OBD_CORPUS_DIR) + "/" + file);
  EXPECT_TRUE(p.ok) << p.error;
  flow::CampaignOptions opt;
  opt.model = flow::FaultModel::kObd;
  opt.max_backtracks = 20;
  opt.sat_escalate = true;
  const flow::detail::CampaignContext ctx = flow::detail::make_context(p.seq, opt);
  EXPECT_TRUE(ctx.error.empty()) << ctx.error;
  FaultSimScheduler sched(ctx.view, opt.sim);
  const std::vector<TwoVectorTest> pool = flow::detail::random_pool(ctx.view, opt);
  const PrepassMarks marks =
      mark_first_detections(ctx.prepass(sched, pool, {}), pool.size());
  std::vector<TwoVectorTest> tests;
  for (std::size_t t = 0; t < pool.size(); ++t)
    if (marks.useful[t]) tests.push_back(pool[t]);
  for (std::uint32_t i = 0; i < ctx.n_reps; ++i) {
    if (marks.skip[i]) continue;
    const TwoFrameResult res = ctx.generate(i);
    if (res.status == PodemStatus::kFound) {
      tests.push_back(res.test);
    } else if (res.status == PodemStatus::kAborted &&
               res.reason != AbortReason::kTime) {
      const sat::SatAtpgResult sr = ctx.escalate(i);
      if (sr.verdict == sat::SatVerdict::kCube)
        tests.push_back(sr.cube.concrete());
    }
  }
  return ctx.matrix(sched, tests, {});
}

TEST(Compact, LazyGreedyMatchesEagerOnCampaignMatrices) {
  // The pinned matrix hashes prove these are the campaign's own matrices;
  // the pick counts are the reports' tests.final.
  const struct {
    const char* file;
    std::uint64_t hash;
    std::size_t picks;
  } cases[] = {{"c2670.bench", 0x879931ea3ebbcb87ull, 221},
               {"c7552.bench", 0x3acbf5af9913764dull, 320}};
  for (const auto& k : cases) {
    const DetectionMatrix m = obd_campaign_matrix(k.file);
    EXPECT_EQ(flow::detail::hash_matrix(m), k.hash) << k.file;
    const auto lazy = greedy_cover(m);
    EXPECT_EQ(lazy.size(), k.picks) << k.file;
    EXPECT_EQ(lazy, eager_greedy_cover(m)) << k.file;
  }
}

TEST(Patterns, AllOrderedPairsCount) {
  EXPECT_EQ(all_ordered_pairs(3).size(), 56u);        // 8*8 - 8
  EXPECT_EQ(all_ordered_pairs(3, true).size(), 64u);  // 8*8
  EXPECT_EQ(all_ordered_pairs(2).size(), 12u);
}

TEST(Patterns, RandomPairsDeterministic) {
  const auto a = random_pairs(5, 10, 42);
  const auto b = random_pairs(5, 10, 42);
  EXPECT_EQ(a.size(), 10u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
    EXPECT_LT(a[i].v1, 32u);
  }
}

TEST(Patterns, ConsecutivePairs) {
  const auto p = consecutive_pairs({1, 2, 3});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], (TwoVectorTest{1, 2}));
  EXPECT_EQ(p[1], (TwoVectorTest{2, 3}));
}

// --- X-overlap merging -------------------------------------------------------

std::vector<bool> covered_by(const Circuit& c,
                             const std::vector<TwoVectorTest>& tests,
                             const std::vector<ObdFaultSite>& faults) {
  const DetectionMatrix m = build_obd_matrix(c, tests, faults);
  return m.covered;
}

TEST(XMerge, PropertyNoCoverageLossAndNoCareConflicts) {
  // Random partially-specified tests over random circuits: the merged set
  // must be no larger, never combine conflicting care bits, and its
  // concrete vectors must cover every fault the originals covered.
  for (std::uint64_t seed : {0x11aull, 0x22bull, 0x33cull}) {
    const Circuit c = logic::random_circuit(7, 50, 5, seed);
    const auto faults = enumerate_obd_faults(c);
    const std::uint64_t all = (1ull << c.inputs().size()) - 1;
    util::Prng prng(seed * 7919);
    std::vector<XTwoVectorTest> tests;
    for (int i = 0; i < 24; ++i) {
      XTwoVectorTest t;
      t.v1.care_mask = prng.next_u64() & all;
      t.v2.care_mask = prng.next_u64() & all;
      t.v1.bits = prng.next_u64() & t.v1.care_mask;
      t.v2.bits = prng.next_u64() & t.v2.care_mask;
      tests.push_back(t);
    }

    const XMergeResult merged = merge_x_overlap(c, tests, faults);
    EXPECT_LE(merged.tests.size(), tests.size());
    ASSERT_EQ(merged.members.size(), merged.tests.size());

    // Every constituent is represented, exactly once, without conflicts:
    // the merged vector agrees with each member on the member's care bits
    // and cares about at least those bits.
    std::vector<int> seen(tests.size(), 0);
    for (std::size_t s = 0; s < merged.tests.size(); ++s) {
      for (std::size_t i : merged.members[s]) {
        ++seen[i];
        const XTwoVectorTest& orig = tests[i];
        const XTwoVectorTest& m = merged.tests[s];
        EXPECT_EQ((m.v1.bits ^ orig.v1.bits) & orig.v1.care_mask, 0u);
        EXPECT_EQ((m.v2.bits ^ orig.v2.bits) & orig.v2.care_mask, 0u);
        EXPECT_EQ(and_not(orig.v1.care_mask, m.v1.care_mask), 0u);
        EXPECT_EQ(and_not(orig.v2.care_mask, m.v2.care_mask), 0u);
      }
    }
    EXPECT_EQ(seen, std::vector<int>(tests.size(), 1));

    // X-aware soundness through the public wrapper: the merged vector's
    // definite detections include every member's (the merge invariant),
    // and a definite detection is always a concrete one (Kleene
    // conservatism — it holds for every fill of the X bits).
    for (std::size_t s = 0; s < merged.tests.size(); ++s) {
      const auto def_m = simulate_obd_x(c, merged.tests[s], faults);
      const auto conc_m = simulate_obd(c, merged.tests[s].concrete(), faults);
      for (std::size_t f = 0; f < faults.size(); ++f)
        if (def_m[f]) EXPECT_TRUE(conc_m[f]) << "indefinite detection " << f;
      for (std::size_t i : merged.members[s]) {
        const auto def_i = simulate_obd_x(c, tests[i], faults);
        for (std::size_t f = 0; f < faults.size(); ++f)
          if (def_i[f]) EXPECT_TRUE(def_m[f]) << "lost definite " << f;
      }
    }

    // Coverage parity: no originally-covered fault may be lost.
    std::vector<TwoVectorTest> before, after;
    for (const auto& t : tests) before.push_back(t.concrete());
    for (const auto& t : merged.tests) after.push_back(t.concrete());
    const auto cov_before = covered_by(c, before, faults);
    const auto cov_after = covered_by(c, after, faults);
    for (std::size_t f = 0; f < faults.size(); ++f)
      if (cov_before[f]) EXPECT_TRUE(cov_after[f]) << "lost fault " << f;
  }
}

TEST(XMerge, ConflictingCareBitsNeverMerge) {
  const Circuit c = logic::c17();
  const auto faults = enumerate_obd_faults(c);
  // Same care bit, opposite values, in frame 2.
  XTwoVectorTest a{{0b00001, 0b00001}, {0b00001, 0b00001}};
  XTwoVectorTest b{{0b00000, 0b00001}, {0b00000, 0b00001}};
  ASSERT_FALSE(a.compatible(b));
  const XMergeResult merged = merge_x_overlap(c, {a, b}, faults);
  EXPECT_EQ(merged.tests.size(), 2u);
}

TEST(XMerge, AtpgXTestsCompactWithoutCoverageLoss) {
  // End to end: PODEM care masks -> X-overlap merge -> same OBD coverage.
  const Circuit c = logic::ripple_carry_adder(4);
  const auto faults = enumerate_obd_faults(c);
  const AtpgRun run = run_obd_atpg(c, faults);
  ASSERT_EQ(run.x_tests.size(), run.tests.size());
  for (std::size_t i = 0; i < run.tests.size(); ++i)
    EXPECT_EQ(run.x_tests[i].concrete(), run.tests[i]);

  const XMergeResult merged = merge_x_overlap(c, run.x_tests, faults);
  EXPECT_LT(merged.tests.size(), run.x_tests.size())
      << "expected some X-overlap among PODEM tests";
  std::vector<TwoVectorTest> after;
  for (const auto& t : merged.tests) after.push_back(t.concrete());
  EXPECT_GE(obd_coverage(c, after, faults),
            obd_coverage(c, run.tests, faults) - 1e-12);
}

TEST(EvalWords, MatchesScalarEval) {
  const Circuit c = logic::c17();
  // Pack the 32 input vectors into one word per PI.
  std::vector<std::uint64_t> pi(c.inputs().size(), 0);
  for (std::uint64_t v = 0; v < 32; ++v)
    for (std::size_t i = 0; i < pi.size(); ++i)
      if ((v >> i) & 1u) pi[i] |= (1ull << v);
  const auto words = c.eval_words(pi);
  for (std::uint64_t v = 0; v < 32; ++v) {
    const std::uint64_t expect = c.eval_outputs(v).u64();
    for (std::size_t o = 0; o < c.outputs().size(); ++o) {
      const bool bit =
          (words[static_cast<std::size_t>(c.outputs()[o])] >> v) & 1u;
      EXPECT_EQ(bit, ((expect >> o) & 1u) != 0) << v << " " << o;
    }
  }
}

}  // namespace
}  // namespace obd::atpg
