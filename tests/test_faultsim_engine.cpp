// Bit-parallel fault-sim engine vs the legacy scalar reference: randomized
// equivalence over zoo circuits, fault dropping, packed detection matrices,
// and the 3-valued block evaluator. The cross-mode / cross-thread sweeps
// live in the shared oracle harness (oracle_common.hpp).
#include <gtest/gtest.h>

#include <set>

#include "atpg/atpg.hpp"
#include "core/excitation.hpp"
#include "io/bench.hpp"
#include "logic/laneblock.hpp"
#include "logic/zoo.hpp"
#include "oracle_common.hpp"
#include "util/prng.hpp"

namespace obd::atpg {
namespace {

using logic::Circuit;

std::vector<Circuit> zoo_circuits() { return oracle::zoo(); }

TEST(FaultSimOracle, EngineLaneWidthsMatchLegacyScalar) {
  // Single-threaded only (the threaded sweep is owned by
  // test_faultsim_scheduler, so the zoo-wide matrix build runs once per
  // engine concern rather than twice in full), at every LaneBlock width.
  const std::vector<SimOptions> configs = {{.threads = 1},
                                           {.threads = 1, .lane_words = 2},
                                           {.threads = 1, .lane_words = 4},
                                           {.threads = 1, .lane_words = 8}};
  std::uint64_t seed = 0x0bd0007;
  for (const Circuit& c : zoo_circuits())
    oracle::sweep_matrices(c, 130, seed++, configs);
}

std::vector<TwoVectorTest> random_tests(const Circuit& c, int count,
                                        std::uint64_t seed) {
  // 150 tests -> blocks of 64, 64, 22: exercises full and partial blocks.
  return random_pairs(static_cast<int>(c.inputs().size()), count, seed);
}

TEST(FaultSimEngine, StuckEquivalentToLegacy) {
  for (const Circuit& c : zoo_circuits()) {
    const auto faults = enumerate_stuck_faults(c);
    const auto tests = random_tests(c, 150, 0x5eed0);
    std::vector<InputVec> patterns;
    for (const auto& t : tests) patterns.push_back(t.v2);
    const DetectionMatrix m = build_stuck_matrix(c, patterns, faults);
    for (std::size_t t = 0; t < patterns.size(); ++t) {
      const auto ref = legacy::simulate_stuck_at(c, patterns[t], faults);
      for (std::size_t f = 0; f < faults.size(); ++f)
        ASSERT_EQ(m.detects(t, f), ref[f])
            << c.name() << " test " << t << " fault " << f;
    }
  }
}

TEST(FaultSimEngine, TransitionEquivalentToLegacy) {
  for (const Circuit& c : zoo_circuits()) {
    const auto faults = enumerate_transition_faults(c);
    const auto tests = random_tests(c, 150, 0x5eed1);
    const DetectionMatrix m = build_transition_matrix(c, tests, faults);
    for (std::size_t t = 0; t < tests.size(); ++t) {
      const auto ref = legacy::simulate_transition(c, tests[t], faults);
      for (std::size_t f = 0; f < faults.size(); ++f)
        ASSERT_EQ(m.detects(t, f), ref[f])
            << c.name() << " test " << t << " fault " << f;
    }
  }
}

TEST(FaultSimEngine, ObdEquivalentToLegacy) {
  for (const Circuit& c : zoo_circuits()) {
    const auto faults = enumerate_obd_faults(c);
    const auto tests = random_tests(c, 150, 0x5eed2);
    const DetectionMatrix m = build_obd_matrix(c, tests, faults);
    for (std::size_t t = 0; t < tests.size(); ++t) {
      const auto ref = legacy::simulate_obd(c, tests[t], faults);
      for (std::size_t f = 0; f < faults.size(); ++f)
        ASSERT_EQ(m.detects(t, f), ref[f])
            << c.name() << " test " << t << " fault " << f;
    }
  }
}

TEST(FaultSimEngine, ScalarWrappersMatchLegacy) {
  const Circuit c = logic::random_circuit(7, 40, 5, 0xabc);
  const auto of = enumerate_obd_faults(c);
  const auto sf = enumerate_stuck_faults(c);
  for (const auto& t : random_tests(c, 40, 0x5eed3)) {
    EXPECT_EQ(simulate_obd(c, t, of), legacy::simulate_obd(c, t, of));
    EXPECT_EQ(simulate_stuck_at(c, t.v2, sf),
              legacy::simulate_stuck_at(c, t.v2, sf));
  }
}

TEST(FaultSimEngine, FaultDroppingPreservesDetection) {
  for (const Circuit& c : zoo_circuits()) {
    const auto faults = enumerate_obd_faults(c);
    const auto tests = random_tests(c, 200, 0x5eed4);
    FaultSimEngine engine(c);
    const auto dropped = engine.campaign_obd(tests, faults, true);
    const auto full = engine.campaign_obd(tests, faults, false);
    // Dropping must not change what is detected or by which first test.
    EXPECT_EQ(dropped.detected, full.detected) << c.name();
    EXPECT_EQ(dropped.first_test, full.first_test) << c.name();
    // It must do no more (and with any detection, strictly less) work.
    EXPECT_LE(dropped.fault_block_evals, full.fault_block_evals);
    if (dropped.detected > 0 && tests.size() > PatternBlock::kLanes)
      EXPECT_LT(dropped.fault_block_evals, full.fault_block_evals);
    // And the detected count must match the matrix's covered count.
    const DetectionMatrix m = build_obd_matrix(c, tests, faults);
    EXPECT_EQ(dropped.detected, m.covered_count) << c.name();
  }
}

TEST(FaultSimEngine, CampaignFirstTestMatchesMatrix) {
  const Circuit c = logic::ripple_carry_adder(4);
  const auto faults = enumerate_transition_faults(c);
  const auto tests = random_tests(c, 130, 0x5eed5);
  FaultSimEngine engine(c);
  const auto campaign = engine.campaign_transition(tests, faults, true);
  const DetectionMatrix m = build_transition_matrix(c, tests, faults);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    int first = -1;
    for (std::size_t t = 0; t < tests.size() && first < 0; ++t)
      if (m.detects(t, f)) first = static_cast<int>(t);
    EXPECT_EQ(campaign.first_test[f], first) << "fault " << f;
  }
}

TEST(PatternBlockTest, WideBlocksStrideLanesAcrossWords) {
  // 4-word blocks carry 256 tests; lane L of PI i lives at bit (L & 63) of
  // word (i * lane_words + (L >> 6)) — word-major, so word 0 is bit-for-bit
  // the classic 64-lane block.
  const Circuit c = logic::c17();
  const auto tests = random_tests(c, 300, 0x5eed8);
  const auto blocks = PatternBlock::pack(c, tests, 4);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].capacity(), 256);
  EXPECT_EQ(blocks[0].size(), 256);
  EXPECT_EQ(blocks[1].size(), 44);
  EXPECT_EQ(blocks[1].lane_mask(0), (1ull << 44) - 1);
  EXPECT_EQ(blocks[1].lane_mask(1), 0u);
  EXPECT_EQ(blocks[0].lane_mask(3), ~0ull);
  for (std::size_t t = 0; t < tests.size(); ++t) {
    const PatternBlock& b = blocks[t / 256];
    const int lane = static_cast<int>(t % 256);
    EXPECT_EQ(b.test(lane), tests[t]);
    const std::size_t word = static_cast<std::size_t>(lane) >> 6;
    const int bit = lane & 63;
    for (std::size_t i = 0; i < c.inputs().size(); ++i) {
      EXPECT_EQ((b.pi1()[i * 4 + word] >> bit) & 1u, (tests[t].v1 >> i) & 1u);
      EXPECT_EQ((b.pi2()[i * 4 + word] >> bit) & 1u, (tests[t].v2 >> i) & 1u);
    }
  }
}

TEST(FrontierPropagation, ExitsEarlyWhenTheFrontierDies) {
  // x stuck-at-1 under x=y=0: the fault flips x but AND(1, 0) still
  // evaluates to 0, so the frontier dies at the AND gate and the inverter
  // chain behind it is never evaluated.
  Circuit c("chain");
  const logic::NetId x = c.add_input("x");
  const logic::NetId y = c.add_input("y");
  const logic::NetId g = c.net("g");
  c.add_gate(logic::GateType::kAnd2, "g", {x, y}, g);
  logic::NetId prev = g;
  for (int i = 0; i < 4; ++i) {
    const logic::NetId n = c.net("n" + std::to_string(i));
    c.add_gate(logic::GateType::kInv, "inv" + std::to_string(i), {prev}, n);
    prev = n;
  }
  c.mark_output(prev);

  const std::vector<StuckFault> faults = {{x, true}};
  std::vector<std::uint64_t> detect;
  {
    FaultSimEngine engine(c);
    PatternBlock b(c);
    b.push({0b00, 0b00});  // x=0, y=0
    engine.block_stuck(b, faults, detect);
    EXPECT_EQ(detect[0], 0u);
    EXPECT_EQ(engine.propagations(), 1);
    EXPECT_EQ(engine.frontier_gate_evals(), 1);  // the AND gate only
    EXPECT_EQ(engine.frontier_events(), 1);  // the forced net itself
  }
  {
    // Add a lane with y=1: now the AND output flips, the frontier survives
    // the full chain, and the detection lands in that lane only.
    FaultSimEngine engine(c);
    PatternBlock b(c);
    b.push({0b00, 0b00});
    b.push({0b10, 0b10});  // x=0, y=1
    engine.block_stuck(b, faults, detect);
    EXPECT_EQ(detect[0], 0b10u);
    EXPECT_EQ(engine.propagations(), 1);
    EXPECT_EQ(engine.frontier_gate_evals(), 5);  // AND + 4 inverters
    EXPECT_EQ(engine.frontier_events(), 6);  // x, g, n0..n3
  }
}

/// What one propagation must do, computed the slow way: a full
/// re-simulation of the block with `net` forced to `forced` (W words),
/// diffed net by net against the good valuation.
struct Resimulated {
  long long gate_evals = 0;  // gates with >= 1 input differing from good
  long long events = 0;      // nets differing from good, forced net included
  std::vector<std::uint64_t> po_diff;  // OR over POs of (faulty ^ good)
};

Resimulated resimulate(const Circuit& c, const std::vector<std::uint64_t>& pi,
                       std::size_t W, const std::vector<std::uint64_t>& good,
                       logic::NetId net, const std::uint64_t* forced) {
  std::vector<std::uint64_t> bad;
  c.eval_wide_into(pi, W, bad, net, forced);
  const auto differs = [&](logic::NetId n) {
    const auto s = static_cast<std::size_t>(n);
    return logic::lanes_differ(good.data() + s * W, bad.data() + s * W, W);
  };
  Resimulated r;
  r.po_diff.assign(W, 0);
  for (std::size_t n = 0; n < c.num_nets(); ++n)
    r.events += differs(static_cast<logic::NetId>(n));
  for (std::size_t g = 0; g < c.num_gates(); ++g) {
    const auto& ins = c.gate(static_cast<int>(g)).inputs;
    r.gate_evals += std::any_of(ins.begin(), ins.end(), differs);
  }
  for (logic::NetId po : c.outputs())
    for (std::size_t w = 0; w < W; ++w)
      r.po_diff[w] |= good[static_cast<std::size_t>(po) * W + w] ^
                      bad[static_cast<std::size_t>(po) * W + w];
  return r;
}

/// Forced words that flip `net` away from the good frame-2 valuation on the
/// `act` lanes only: what the engine propagates for a fault activated
/// there.
std::vector<std::uint64_t> flip_lanes(const std::vector<std::uint64_t>& good2,
                                      std::size_t W, logic::NetId net,
                                      const std::vector<std::uint64_t>& act) {
  std::vector<std::uint64_t> forced(W);
  for (std::size_t w = 0; w < W; ++w)
    forced[w] = good2[static_cast<std::size_t>(net) * W + w] ^ act[w];
  return forced;
}

/// Per-lane OBD excitation words of `f` under the block's good frames,
/// decided lane by lane from the excitation rules (independent of the
/// engine's word-parallel table walk).
std::vector<std::uint64_t> obd_excitation(
    const Circuit& c, const ObdFaultSite& f, std::size_t W,
    const std::vector<std::uint64_t>& good1,
    const std::vector<std::uint64_t>& good2) {
  std::vector<std::uint64_t> exc(W, 0);
  const auto& g = c.gate(f.gate_index);
  if (!logic::is_primitive_cmos(g.type)) return exc;
  const auto topo = logic::gate_topology(g.type);
  for (std::size_t lane = 0; lane < W * 64; ++lane) {
    const std::size_t w = lane >> 6, bit = lane & 63;
    std::uint32_t v1 = 0, v2 = 0;
    for (std::size_t k = 0; k < g.inputs.size(); ++k) {
      const auto in = static_cast<std::size_t>(g.inputs[k]) * W + w;
      v1 |= static_cast<std::uint32_t>((good1[in] >> bit) & 1u) << k;
      v2 |= static_cast<std::uint32_t>((good2[in] >> bit) & 1u) << k;
    }
    if (core::excites_obd(*topo, f.transistor, cells::TwoVector{v1, v2}))
      exc[w] |= 1ull << bit;
  }
  return exc;
}

/// What the single-fault calls of one fault kind produced, for the
/// multi-fault check: each fault's detect words (W per fault, in fault
/// order) and the net it excites in the block (kNoNet when none).
struct SingleCalls {
  std::vector<std::uint64_t> detect;
  std::vector<logic::NetId> excited_net;
};

/// One kernel call with every fault, then one with about half of them
/// inactive: each fault's detect words equal its single-fault call's (0
/// when inactive), and the call propagates at most once per distinct
/// excited net among its active faults.
template <typename Fault, typename Kernel>
void expect_shared_propagation(FaultSimEngine& engine, const PatternBlock& b,
                               const std::vector<Fault>& faults,
                               const SingleCalls& single, Kernel kernel,
                               const std::string& kind, std::uint64_t seed) {
  const auto W = static_cast<std::size_t>(b.lane_words());
  util::Prng prng(seed);
  std::vector<std::uint8_t> half(faults.size());
  for (auto& a : half) a = prng.next_bool();
  const std::vector<std::uint8_t>* const modes[] = {nullptr, &half};
  for (const std::vector<std::uint8_t>* active : modes) {
    const auto on = [&](std::size_t i) { return !active || (*active)[i]; };
    std::set<logic::NetId> nets;
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (on(i) && single.excited_net[i] != logic::kNoNet)
        nets.insert(single.excited_net[i]);
    const long long props = engine.propagations();
    std::vector<std::uint64_t> detect;
    (engine.*kernel)(b, faults, detect, active);
    const std::string name = kind + (active ? " half" : " all");
    EXPECT_LE(engine.propagations() - props,
              static_cast<long long>(nets.size()))
        << name;
    if (!nets.empty()) {
      EXPECT_GT(engine.propagations(), props) << name;
    }
    ASSERT_EQ(detect.size(), faults.size() * W) << name;
    for (std::size_t i = 0; i < faults.size(); ++i)
      for (std::size_t w = 0; w < W; ++w)
        EXPECT_EQ(detect[i * W + w], on(i) ? single.detect[i * W + w] : 0u)
            << name << " fault " << i << " word " << w;
  }
}

/// Every stuck-at, transition and OBD fault of `c` against one full random
/// block of 64 * lane_words tests. Each single-fault call's gate-eval and
/// event counts equal the re-simulation of the lanes it flips (so no gate
/// is evaluated twice, however many of its inputs change, and none is
/// evaluated without a changed input), and its detection words equal the
/// re-simulated PO diff of the fault's full faulty value on its excited
/// lanes. Calls with every fault at once must reproduce the single-fault
/// words while sharing one propagation per excited net.
void expect_propagation_matches_resimulation(const Circuit& c, int lane_words,
                                             std::uint64_t seed) {
  const auto W = static_cast<std::size_t>(lane_words);
  const auto blocks = PatternBlock::pack(
      c, random_tests(c, PatternBlock::kLanes * lane_words, seed),
      lane_words);
  ASSERT_EQ(blocks.size(), 1u);
  const PatternBlock& b = blocks[0];
  ASSERT_TRUE(b.full());
  std::vector<std::uint64_t> good1, good2, detect;
  c.eval_wide_into(b.pi1(), W, good1);
  c.eval_wide_into(b.pi2(), W, good2);
  FaultSimEngine engine(c, {.lane_words = lane_words});
  const auto any = [](const std::vector<std::uint64_t>& words) {
    return std::any_of(words.begin(), words.end(),
                       [](std::uint64_t x) { return x != 0; });
  };
  // One single-fault call: counters against the re-simulation of the
  // flipped lanes `act`, detect words against `want_detect`.
  const auto check_single = [&](const std::string& name, auto call,
                                logic::NetId net,
                                const std::vector<std::uint64_t>& act,
                                const std::vector<std::uint64_t>& want_detect,
                                SingleCalls& out) {
    Resimulated want;
    if (any(act))
      want = resimulate(c, b.pi2(), W, good2, net,
                        flip_lanes(good2, W, net, act).data());
    const long long evals = engine.frontier_gate_evals();
    const long long events = engine.frontier_events();
    call();
    EXPECT_EQ(engine.frontier_gate_evals() - evals, want.gate_evals) << name;
    EXPECT_EQ(engine.frontier_events() - events, want.events) << name;
    for (std::size_t w = 0; w < W; ++w)
      EXPECT_EQ(detect[w], want_detect[w]) << name << " word " << w;
    out.detect.insert(out.detect.end(), detect.begin(), detect.begin() + W);
    out.excited_net.push_back(any(act) ? net : logic::kNoNet);
  };

  const std::vector<StuckFault> stuck = enumerate_stuck_faults(c);
  SingleCalls stuck_single;
  for (const StuckFault& f : stuck) {
    const std::vector<std::uint64_t> forced(W, f.value ? ~0ull : 0ull);
    std::vector<std::uint64_t> act(W);
    for (std::size_t w = 0; w < W; ++w)
      act[w] = good2[static_cast<std::size_t>(f.net) * W + w] ^ forced[w];
    check_single(
        c.net_name(f.net) + (f.value ? "/1" : "/0"),
        [&] { engine.block_stuck(b, {f}, detect); }, f.net, act,
        resimulate(c, b.pi2(), W, good2, f.net, forced.data()).po_diff,
        stuck_single);
  }

  // A transition fault holds the per-lane frame-1 value; the engine flips
  // only its excited lanes, so its counters follow good2 ^ exc while its
  // detections equal the full frame-1 forcing on the excited lanes.
  const std::vector<TransitionFault> trans = enumerate_transition_faults(c);
  SingleCalls trans_single;
  for (const TransitionFault& f : trans) {
    const auto s = static_cast<std::size_t>(f.net);
    std::vector<std::uint64_t> exc(W), want(W, 0);
    for (std::size_t w = 0; w < W; ++w) {
      const std::uint64_t o1 = good1[s * W + w], o2 = good2[s * W + w];
      exc[w] = f.slow_to_rise ? (~o1 & o2) : (o1 & ~o2);
    }
    if (any(exc)) {
      want = resimulate(c, b.pi2(), W, good2, f.net, good1.data() + s * W)
                 .po_diff;
      for (std::size_t w = 0; w < W; ++w) want[w] &= exc[w];
    }
    check_single(
        c.net_name(f.net) + (f.slow_to_rise ? " STR" : " STF"),
        [&] { engine.block_transition(b, {f}, detect); }, f.net, exc, want,
        trans_single);
  }

  // An excited OBD site holds its gate output at the frame-1 value, which
  // changes the net only on lanes where the output switches.
  const std::vector<ObdFaultSite> obd = enumerate_obd_faults(c);
  SingleCalls obd_single;
  for (const ObdFaultSite& f : obd) {
    const logic::NetId out = c.gate(f.gate_index).output;
    const auto s = static_cast<std::size_t>(out);
    const std::vector<std::uint64_t> exc =
        obd_excitation(c, f, W, good1, good2);
    std::vector<std::uint64_t> act(W), want(W, 0);
    for (std::size_t w = 0; w < W; ++w)
      act[w] = exc[w] & (good1[s * W + w] ^ good2[s * W + w]);
    if (any(exc)) {
      want = resimulate(c, b.pi2(), W, good2, out, good1.data() + s * W)
                 .po_diff;
      for (std::size_t w = 0; w < W; ++w)
        want[w] &= exc[w] & b.lane_mask(static_cast<int>(w));
    }
    check_single(
        fault_name(c, f), [&] { engine.block_obd(b, {f}, detect); }, out, act,
        want, obd_single);
  }

  expect_shared_propagation(engine, b, stuck, stuck_single,
                            &FaultSimEngine::block_stuck, "stuck", seed ^ 1);
  expect_shared_propagation(engine, b, trans, trans_single,
                            &FaultSimEngine::block_transition, "transition",
                            seed ^ 2);
  expect_shared_propagation(engine, b, obd, obd_single,
                            &FaultSimEngine::block_obd, "obd", seed ^ 3);
}

/// a feeds a gate on both of its inputs (sq = AND(a, a)) and reconverges
/// at r = XOR(NAND(a, b), INV(a)).
Circuit twice_read_and_reconvergent() {
  Circuit c("reconv");
  const logic::NetId a = c.add_input("a");
  const logic::NetId b = c.add_input("b");
  const logic::NetId sq = c.net("sq");
  const logic::NetId p = c.net("p");
  const logic::NetId q = c.net("q");
  const logic::NetId r = c.net("r");
  c.add_gate(logic::GateType::kAnd2, "sq", {a, a}, sq);
  c.add_gate(logic::GateType::kNand2, "p", {a, b}, p);
  c.add_gate(logic::GateType::kInv, "q", {a}, q);
  c.add_gate(logic::GateType::kXor2, "r", {p, q}, r);
  c.mark_output(sq);
  c.mark_output(r);
  return c;
}

TEST(FrontierPropagation, EvaluatesEachReachedGateOnce) {
  // a stuck-at-1 under a=0, b=1 in every lane: sq, p and q all flip; r is
  // queued by both p and q but evaluated once, and the change dies there
  // (1^1 -> 0^0).
  const Circuit c = twice_read_and_reconvergent();
  const std::vector<StuckFault> faults = {{c.find_net("a"), true}};
  FaultSimEngine engine(c);
  PatternBlock b(c);
  while (!b.full()) b.push({0b10, 0b10});  // a=0, b=1
  std::vector<std::uint64_t> detect;
  engine.block_stuck(b, faults, detect);
  EXPECT_EQ(detect[0], ~0ull);  // seen at sq
  EXPECT_EQ(engine.propagations(), 1);
  EXPECT_EQ(engine.frontier_gate_evals(), 4);  // sq, p, q, r
  EXPECT_EQ(engine.frontier_events(), 4);      // a, sq, p, q
}

TEST(FrontierPropagation, MatchesForcedResimulationOnWideBlocks) {
  expect_propagation_matches_resimulation(twice_read_and_reconvergent(), 2,
                                          0x7e1c0);
  expect_propagation_matches_resimulation(logic::array_multiplier(4), 4,
                                          0x7e1c1);
  const io::BenchParseResult p =
      io::load_bench_file(std::string(OBD_CORPUS_DIR) + "/c880.bench");
  ASSERT_TRUE(p.ok) << p.error;
  expect_propagation_matches_resimulation(
      logic::decompose_composites(p.circuit()), 4, 0x7e1c2);
}

TEST(PatternBlockTest, PackPreservesOrderAndLanes) {
  const Circuit c = logic::c17();
  const auto tests = random_tests(c, 70, 0x5eed6);
  const auto blocks = PatternBlock::pack(c, tests);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].size(), 64);
  EXPECT_EQ(blocks[1].size(), 6);
  EXPECT_EQ(blocks[1].lane_mask(), 0x3full);
  for (std::size_t t = 0; t < tests.size(); ++t) {
    const PatternBlock& b = blocks[t / 64];
    const int lane = static_cast<int>(t % 64);
    EXPECT_EQ(b.test(lane), tests[t]);
    for (std::size_t i = 0; i < c.inputs().size(); ++i) {
      EXPECT_EQ((b.pi1()[i] >> lane) & 1u, (tests[t].v1 >> i) & 1u);
      EXPECT_EQ((b.pi2()[i] >> lane) & 1u, (tests[t].v2 >> i) & 1u);
    }
  }
}

TEST(EvalWords3, MatchesScalarEval3) {
  using logic::Tri;
  using logic::Words3;
  util::Prng prng(0x3fa1);
  for (const Circuit& c : zoo_circuits()) {
    const std::size_t n_pi = c.inputs().size();
    // 64 random lanes of {0, 1, X} per PI.
    std::vector<Words3> pi_words(n_pi);
    std::vector<std::vector<Tri>> lanes(64, std::vector<Tri>(n_pi, Tri::kX));
    for (std::size_t i = 0; i < n_pi; ++i) {
      for (int lane = 0; lane < 64; ++lane) {
        const auto r = prng.next_u64() % 3;
        const Tri v = r == 0 ? Tri::k0 : (r == 1 ? Tri::k1 : Tri::kX);
        lanes[static_cast<std::size_t>(lane)][i] = v;
        if (v != Tri::k1) pi_words[i].can0 |= 1ull << lane;
        if (v != Tri::k0) pi_words[i].can1 |= 1ull << lane;
      }
    }
    const auto words = c.eval3_words(pi_words);
    for (int lane = 0; lane < 64; ++lane) {
      const auto ref = c.eval3(lanes[static_cast<std::size_t>(lane)]);
      for (std::size_t n = 0; n < c.num_nets(); ++n) {
        const bool can0 = (words[n].can0 >> lane) & 1u;
        const bool can1 = (words[n].can1 >> lane) & 1u;
        const Tri got = can0 && can1 ? Tri::kX : (can1 ? Tri::k1 : Tri::k0);
        ASSERT_EQ(got, ref[n]) << c.name() << " lane " << lane << " net "
                               << c.net_name(static_cast<logic::NetId>(n));
      }
    }
  }
}

TEST(RandomPhase, AtpgWithPrepassKeepsCoverage) {
  const Circuit c = logic::ripple_carry_adder(4);
  const auto faults = enumerate_obd_faults(c);
  const AtpgRun base = run_obd_atpg(c, faults);
  PodemOptions opt;
  opt.random_phase = 256;
  const AtpgRun rnd = run_obd_atpg(c, faults, opt);
  // The prepass may only reduce deterministic work, never coverage.
  EXPECT_EQ(rnd.found + rnd.untestable + rnd.aborted,
            static_cast<int>(faults.size()));
  EXPECT_GE(rnd.found, base.found);
  EXPECT_LE(rnd.total_implications, base.total_implications);
  EXPECT_GE(obd_coverage(c, rnd.tests, faults),
            obd_coverage(c, base.tests, faults) - 1e-12);
  // Every random test kept in the set detects at least one fault.
  const DetectionMatrix m = build_obd_matrix(c, rnd.tests, faults);
  for (std::size_t t = 0; t < rnd.tests.size(); ++t)
    EXPECT_GT(m.row_count(t), 0u) << "useless test " << t;
}

TEST(FaultSimEngine, CoverageFunctionsMatchMatrices) {
  const Circuit c = logic::mux_tree(2);
  const auto tests = random_tests(c, 100, 0x5eed7);
  std::vector<InputVec> patterns;
  for (const auto& t : tests) patterns.push_back(t.v2);

  const auto sf = enumerate_stuck_faults(c);
  const DetectionMatrix ms = build_stuck_matrix(c, patterns, sf);
  EXPECT_DOUBLE_EQ(stuck_coverage(c, patterns, sf),
                   static_cast<double>(ms.covered_count) / sf.size());

  const auto tf = enumerate_transition_faults(c);
  const DetectionMatrix mt = build_transition_matrix(c, tests, tf);
  EXPECT_DOUBLE_EQ(transition_coverage(c, tests, tf),
                   static_cast<double>(mt.covered_count) / tf.size());

  const auto of = enumerate_obd_faults(c);
  const DetectionMatrix mo = build_obd_matrix(c, tests, of);
  EXPECT_DOUBLE_EQ(obd_coverage(c, tests, of),
                   static_cast<double>(mo.covered_count) / of.size());
}

TEST(ForcedOutputsDiffer, MatchesStuckDetection) {
  const Circuit c = logic::c17();
  const auto faults = enumerate_stuck_faults(c);
  for (std::uint64_t p = 0; p < 32; ++p) {
    const auto det = legacy::simulate_stuck_at(c, p, faults);
    for (std::size_t f = 0; f < faults.size(); ++f)
      EXPECT_EQ(forced_outputs_differ(c, p, faults[f].net, faults[f].value),
                det[f]);
  }
}

}  // namespace
}  // namespace obd::atpg
