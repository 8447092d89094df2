// PODEM correctness: validated against exhaustive search on small circuits.
#include "atpg/podem.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "atpg/collapse.hpp"
#include "atpg/faultsim.hpp"
#include "atpg/twoframe.hpp"
#include "io/bench.hpp"
#include "logic/zoo.hpp"
#include "util/prng.hpp"

namespace obd::atpg {
namespace {

using logic::Circuit;
using logic::GateType;

/// Exhaustive ground truth: is there any vector detecting the stuck fault?
bool exhaustively_testable(const Circuit& c, const StuckFault& f) {
  const std::uint64_t limit = 1ull << c.inputs().size();
  for (std::uint64_t v = 0; v < limit; ++v) {
    const auto det = simulate_stuck_at(c, v, {f});
    if (det[0]) return true;
  }
  return false;
}

TEST(Podem, DetectsSimpleFault) {
  Circuit c("t");
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto o = c.net("o");
  c.add_gate(GateType::kNand2, "g", {a, b}, o);
  c.mark_output(o);
  const PodemResult r = podem_stuck_at(c, {o, true});
  ASSERT_EQ(r.status, PodemStatus::kFound);
  // Only (1,1) drives o to 0, exposing stuck-at-1.
  EXPECT_EQ(r.vector.bits & 0b11, 0b11u);
}

TEST(Podem, GeneratedTestActuallyDetects) {
  const Circuit c = logic::c17();
  for (const StuckFault& f : enumerate_stuck_faults(c)) {
    const PodemResult r = podem_stuck_at(c, f);
    if (r.status != PodemStatus::kFound) continue;
    const auto det = simulate_stuck_at(c, r.vector.bits, {f});
    EXPECT_TRUE(det[0]) << fault_name(c, f);
  }
}

TEST(Podem, AgreesWithExhaustiveOnC17) {
  const Circuit c = logic::c17();
  for (const StuckFault& f : enumerate_stuck_faults(c)) {
    const PodemResult r = podem_stuck_at(c, f);
    ASSERT_NE(r.status, PodemStatus::kAborted) << fault_name(c, f);
    EXPECT_EQ(r.status == PodemStatus::kFound, exhaustively_testable(c, f))
        << fault_name(c, f);
  }
}

TEST(Podem, AgreesWithExhaustiveOnFullAdder) {
  const Circuit c = logic::full_adder_sum_circuit();
  int untestable = 0;
  for (const StuckFault& f : enumerate_stuck_faults(c)) {
    const PodemResult r = podem_stuck_at(c, f);
    ASSERT_NE(r.status, PodemStatus::kAborted) << fault_name(c, f);
    const bool truth = exhaustively_testable(c, f);
    EXPECT_EQ(r.status == PodemStatus::kFound, truth) << fault_name(c, f);
    if (!truth) ++untestable;
  }
  // The redundant branch makes several stuck faults untestable.
  EXPECT_GT(untestable, 0);
}

TEST(Podem, AgreesWithExhaustiveOnRandomCircuits) {
  for (std::uint64_t seed : {11ull, 22ull, 33ull, 44ull}) {
    const Circuit c = logic::random_circuit(5, 25, 3, seed);
    for (const StuckFault& f : enumerate_stuck_faults(c)) {
      const PodemResult r = podem_stuck_at(c, f);
      ASSERT_NE(r.status, PodemStatus::kAborted);
      EXPECT_EQ(r.status == PodemStatus::kFound,
                exhaustively_testable(c, f))
          << "seed " << seed << " " << fault_name(c, f);
    }
  }
}

TEST(Podem, RedundantNetUntestable) {
  // q1 in the full adder is constant 1: stuck-at-1 there is untestable.
  const Circuit c = logic::full_adder_sum_circuit();
  const auto q1 = c.find_net("q1");
  ASSERT_NE(q1, logic::kNoNet);
  EXPECT_EQ(podem_stuck_at(c, {q1, true}).status, PodemStatus::kUntestable);
}

TEST(PodemJustify, SatisfiesConstraints) {
  const Circuit c = logic::full_adder_sum_circuit();
  // Ask for w1 = 0 (i.e. minterm A'B'C true): forces A=0, B=0, C=1.
  const auto w1 = c.find_net("w1");
  const PodemResult r = podem_justify(c, {{w1, false}});
  ASSERT_EQ(r.status, PodemStatus::kFound);
  const auto values = c.eval(r.vector.bits);
  EXPECT_FALSE(values[static_cast<std::size_t>(w1)]);
  EXPECT_EQ(r.vector.bits & 0b111, 0b100u);  // A=0 B=0 C=1
}

TEST(PodemJustify, MultipleSimultaneousConstraints) {
  const Circuit c = logic::c17();
  const auto n10 = c.find_net("10");
  const auto n19 = c.find_net("19");
  const PodemResult r = podem_justify(c, {{n10, false}, {n19, false}});
  ASSERT_EQ(r.status, PodemStatus::kFound);
  const auto values = c.eval(r.vector.bits);
  EXPECT_FALSE(values[static_cast<std::size_t>(n10)]);
  EXPECT_FALSE(values[static_cast<std::size_t>(n19)]);
}

TEST(PodemJustify, ImpossibleConstraintUntestable) {
  const Circuit c = logic::full_adder_sum_circuit();
  const auto q1 = c.find_net("q1");  // constant 1
  EXPECT_EQ(podem_justify(c, {{q1, false}}).status, PodemStatus::kUntestable);
}

TEST(PodemJustify, ContradictoryPairUntestable) {
  Circuit c("t");
  const auto a = c.add_input("a");
  const auto o = c.net("o");
  c.add_gate(GateType::kInv, "g", {a}, o);
  c.mark_output(o);
  EXPECT_EQ(podem_justify(c, {{a, true}, {o, true}}).status,
            PodemStatus::kUntestable);
}

TEST(PodemConstrainedFault, RespectsPins) {
  // NAND feeding an inverter; pin the NAND inputs to (1,1) while its output
  // is stuck at 1 in the faulty circuit: D' must reach the PO.
  Circuit c("t");
  const auto a = c.add_input("a");
  const auto b = c.add_input("b");
  const auto n = c.net("n");
  const auto o = c.net("o");
  c.add_gate(GateType::kNand2, "g1", {a, b}, n);
  c.add_gate(GateType::kInv, "g2", {n}, o);
  c.mark_output(o);
  const PodemResult r =
      podem_constrained_fault(c, {{a, true}, {b, true}}, n, true);
  ASSERT_EQ(r.status, PodemStatus::kFound);
  EXPECT_EQ(r.vector.bits & 0b11, 0b11u);
}

TEST(PodemConstrainedFault, InfeasiblePinCombination) {
  // Pinning an inverter's input and output to the same value is absurd.
  Circuit c("t");
  const auto a = c.add_input("a");
  const auto n = c.net("n");
  const auto o = c.net("o");
  c.add_gate(GateType::kInv, "g1", {a}, n);
  c.add_gate(GateType::kInv, "g2", {n}, o);
  c.mark_output(o);
  const PodemResult r =
      podem_constrained_fault(c, {{a, true}, {n, true}}, n, false);
  EXPECT_EQ(r.status, PodemStatus::kUntestable);
}

TEST(Podem, BacktrackBudgetAborts) {
  // Proving a redundant fault untestable requires exhausting the decision
  // tree, which cannot happen without backtracking; a zero budget must
  // abort instead of mislabeling the fault untestable.
  const Circuit c = logic::full_adder_sum_circuit();
  const auto q1 = c.find_net("q1");  // constant-1 net
  PodemOptions opt;
  opt.max_backtracks = 0;
  EXPECT_EQ(podem_stuck_at(c, {q1, true}, opt).status, PodemStatus::kAborted);
}

TEST(Podem, FullCoverageOnIrredundantCircuit) {
  // The parity tree has no redundancy: every stuck fault is testable.
  const Circuit c = logic::parity_tree(4);
  for (const StuckFault& f : enumerate_stuck_faults(c)) {
    EXPECT_EQ(podem_stuck_at(c, f).status, PodemStatus::kFound)
        << fault_name(c, f);
  }
}

/// Every PI vector of a circuit with at most 10 PIs, evaluated once in
/// 64-lane words (lane k of word w is vector 64*w + k). The oracle for the
/// sweep below: "is there any vector such that ..." becomes a mask scan.
class Exhaustive {
 public:
  explicit Exhaustive(const Circuit& c) : c_(c) {
    const std::size_t n = c.inputs().size();
    const std::uint64_t count = 1ull << n;
    for (std::uint64_t base = 0; base < count; base += 64) {
      std::vector<std::uint64_t> pi(n, 0);
      for (std::uint64_t k = 0; k < 64 && base + k < count; ++k)
        for (std::size_t i = 0; i < n; ++i)
          if (((base + k) >> i) & 1u) pi[i] |= 1ull << k;
      valid_.push_back(count - base >= 64 ? ~0ull
                                          : (1ull << (count - base)) - 1);
      good_.push_back(c.eval_words(pi));
      pis_.push_back(std::move(pi));
    }
  }

  /// Some vector satisfies every constraint and, when `forced` names a
  /// net, shows a PO difference with that net stuck at `forced_value`.
  bool any(const std::vector<NetConstraint>& constraints,
           NetId forced = logic::kNoNet, bool forced_value = false) const {
    for (std::size_t w = 0; w < good_.size(); ++w) {
      std::uint64_t m = valid_[w];
      for (const NetConstraint& k : constraints) {
        const std::uint64_t g = good_[w][static_cast<std::size_t>(k.net)];
        m &= k.value ? g : ~g;
      }
      if (m != 0 && forced != logic::kNoNet) {
        const auto bad =
            c_.eval_words(pis_[w], forced, forced_value ? ~0ull : 0ull);
        std::uint64_t differ = 0;
        for (NetId po : c_.outputs())
          differ |= good_[w][static_cast<std::size_t>(po)] ^
                    bad[static_cast<std::size_t>(po)];
        m &= differ;
      }
      if (m != 0) return true;
    }
    return false;
  }

 private:
  const Circuit& c_;
  std::vector<std::vector<std::uint64_t>> pis_;
  std::vector<std::vector<std::uint64_t>> good_;
  std::vector<std::uint64_t> valid_;
};

/// Both extreme fills of a PODEM vector's don't-care PIs. A 3-valued
/// verdict must hold for every completion, so both must pass.
std::vector<logic::InputVec> fills(const TestVector& v, std::size_t n_pi) {
  return {v.bits, v.bits | and_not(logic::InputVec::mask(n_pi), v.care_mask)};
}

bool satisfies(const Circuit& c, const logic::InputVec& v,
               const std::vector<NetConstraint>& constraints) {
  const auto values = c.eval(v);
  for (const NetConstraint& k : constraints)
    if (values[static_cast<std::size_t>(k.net)] != k.value) return false;
  return true;
}

/// Seeded sweep: every non-aborted verdict of the three PODEM entry points
/// equals exhaustive enumeration, and every found vector is checked under
/// the independent scalar simulators. Tight budgets exercise the abort path
/// mid-search; the unlimited budget's untestable verdicts unwind the whole
/// decision tree (the deepest undo there is).
TEST(Podem, RandomCircuitSweepAgreesWithExhaustive) {
  PodemOptions tight;
  tight.max_backtracks = 2;
  PodemOptions unlimited;
  int found = 0;
  int untestable = 0;
  int aborted = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    const int n_pi = 2 + static_cast<int>(seed % 9);  // 2..10
    const int n_gates = 8 + static_cast<int>((seed * 7) % 33);
    const int n_po = 1 + static_cast<int>(seed % 3);
    const Circuit c = logic::random_circuit(n_pi, n_gates, n_po, 1000 + seed);
    const std::size_t n_nets = c.num_nets();
    const Exhaustive ex(c);
    util::Prng prng(seed);
    const std::string tag = "seed " + std::to_string(seed);

    const auto check = [&](const PodemResult& r, bool truth,
                           const std::string& what, auto&& vector_ok) {
      if (r.status == PodemStatus::kAborted) {
        ++aborted;
        return;
      }
      EXPECT_EQ(r.status == PodemStatus::kFound, truth) << tag << " " << what;
      if (r.status != PodemStatus::kFound) {
        ++untestable;
        return;
      }
      ++found;
      for (const logic::InputVec& v : fills(r.vector, c.inputs().size()))
        EXPECT_TRUE(vector_ok(v)) << tag << " " << what;
    };

    for (const PodemOptions* opt : {&tight, &unlimited}) {
      const std::string budget =
          opt == &tight ? " (tight budget)" : " (unlimited)";
      for (const StuckFault& f : enumerate_stuck_faults(c)) {
        check(podem_stuck_at(c, f, *opt), ex.any({}, f.net, f.value),
              fault_name(c, f) + budget, [&](const logic::InputVec& v) -> bool {
                return simulate_stuck_at(c, v, {f})[0];
              });
      }
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<NetConstraint> ks;
        const int n_k = 1 + static_cast<int>(prng.next_below(3));
        for (int k = 0; k < n_k; ++k)
          ks.push_back({static_cast<NetId>(prng.next_below(n_nets)),
                        prng.next_below(2) != 0});
        check(podem_justify(c, ks, *opt), ex.any(ks), "justify" + budget,
              [&](const logic::InputVec& v) { return satisfies(c, v, ks); });
      }
      for (std::size_t gi = 0; gi < c.num_gates(); ++gi) {
        // The frame-2 shape of OBD generation: pin a gate's inputs, force
        // its output, and require the difference at a PO.
        const logic::Gate& g = c.gate(static_cast<int>(gi));
        std::vector<NetConstraint> ks;
        for (NetId in : g.inputs) ks.push_back({in, prng.next_below(2) != 0});
        const bool forced = prng.next_below(2) != 0;
        check(podem_constrained_fault(c, ks, g.output, forced, *opt),
              ex.any(ks, g.output, forced), g.name + budget,
              [&](const logic::InputVec& v) {
                return satisfies(c, v, ks) &&
                       forced_outputs_differ(c, v, g.output, forced);
              });
      }
    }
  }
  // The sweep must reach every verdict, deep untestable unwinds included.
  EXPECT_GT(found, 3000);
  EXPECT_GT(untestable, 5000);
  EXPECT_GT(aborted, 1000);
}

/// Pins the search itself, not only its verdicts: any change to decision
/// order, objective choice, or the implication/backtrack accounting moves
/// this hash. Covers every collapsed OBD representative of c880 at the
/// campaign's top-off budget (both frames, aborts included).
TEST(Podem, ObdSearchPinnedOnC880) {
  const io::BenchParseResult p =
      io::load_bench_file(std::string(OBD_CORPUS_DIR) + "/c880.bench");
  ASSERT_TRUE(p.ok) << p.error;
  const Circuit c = logic::decompose_composites(p.circuit());
  const auto reps =
      collapse_obd_faults(c, enumerate_obd_faults(c)).representatives;
  PodemOptions opt;
  opt.max_backtracks = 20;
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const auto mix_vec = [&](const logic::InputVec& v) {
    for (std::size_t w = 0; w < v.nwords(); ++w) mix(v.word(w));
  };
  int found = 0;
  for (const ObdFaultSite& site : reps) {
    const TwoFrameResult r = generate_obd_test(c, site, opt);
    mix(static_cast<std::uint64_t>(r.status));
    for (const TestVector* v : {&r.x_test.v1, &r.x_test.v2}) {
      mix_vec(v->bits);
      mix_vec(v->care_mask);
    }
    mix(static_cast<std::uint64_t>(r.backtracks));
    mix(static_cast<std::uint64_t>(r.implications));
    if (r.status == PodemStatus::kFound) ++found;
  }
  EXPECT_GT(found, 0);
  EXPECT_EQ(h, 0x71954f7cd720d2d6ull) << std::hex << h << " over " << std::dec
                       << reps.size() << " reps";
}

/// Everything a search reports (status, effort, vector bits and care
/// masks), flattened into words for comparison.
std::vector<std::uint64_t> outcome(
    PodemStatus status, long backtracks, long implications,
    std::initializer_list<const TestVector*> vs) {
  std::vector<std::uint64_t> out{static_cast<std::uint64_t>(status),
                                 static_cast<std::uint64_t>(backtracks),
                                 static_cast<std::uint64_t>(implications)};
  for (const TestVector* v : vs)
    for (const logic::InputVec* w : {&v->bits, &v->care_mask})
      for (std::size_t k = 0; k < w->nwords(); ++k) out.push_back(w->word(k));
  return out;
}

std::vector<std::uint64_t> outcome(const PodemResult& r) {
  return outcome(r.status, r.backtracks, r.implications, {&r.vector});
}

std::vector<std::uint64_t> outcome(const TwoFrameResult& r) {
  return outcome(r.status, r.backtracks, r.implications,
                 {&r.x_test.v1, &r.x_test.v2});
}

/// A reused workspace must be invisible: every search leaves it in its
/// all-X state, and reports bit for bit what a fresh workspace would.
class WorkspaceIdentity {
 public:
  explicit WorkspaceIdentity(const Circuit& c) : ws_(c) {}

  /// `shared` ran in ws(), `fresh` in a workspace of its own.
  template <typename Result>
  void check(const Result& shared, const Result& fresh,
             const std::string& what) {
    EXPECT_EQ(ws_.good(), ws_.all_x()) << what;
    EXPECT_EQ(ws_.faulty(), ws_.all_x()) << what;
    EXPECT_EQ(outcome(shared), outcome(fresh)) << what;
    ++checks_;
  }

  PodemWorkspace& ws() { return ws_; }
  int checks() const { return checks_; }

 private:
  PodemWorkspace ws_;
  int checks_ = 0;
};

/// One workspace serves every c880 OBD representative's two-frame search,
/// interleaved with stuck-at searches over c880's collapsed stuck faults,
/// and each gate's pinned frame-2 / frame-1 searches on their own. Budgets
/// are the campaign's, so aborted searches are among them.
TEST(PodemWorkspace, ReuseMatchesFreshWorkspaceOnC880) {
  const io::BenchParseResult p =
      io::load_bench_file(std::string(OBD_CORPUS_DIR) + "/c880.bench");
  ASSERT_TRUE(p.ok) << p.error;
  const Circuit c = logic::decompose_composites(p.circuit());
  const auto obd =
      collapse_obd_faults(c, enumerate_obd_faults(c)).representatives;
  const auto stuck =
      collapse_stuck_faults(c, enumerate_stuck_faults(c)).representatives;
  PodemOptions opt;
  opt.max_backtracks = 20;
  WorkspaceIdentity id(c);
  EXPECT_EQ(id.ws().all_x(),
            c.eval3(std::vector<logic::Tri>(c.inputs().size(),
                                            logic::Tri::kX)));

  const std::size_t n = std::max(obd.size(), stuck.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i < obd.size())
      id.check(generate_obd_test(id.ws(), obd[i], opt),
               generate_obd_test(c, obd[i], opt), fault_name(c, obd[i]));
    if (i < stuck.size())
      id.check(podem_stuck_at(id.ws(), stuck[i], opt),
               podem_stuck_at(c, stuck[i], opt), fault_name(c, stuck[i]));
  }

  util::Prng prng(880);
  for (std::size_t gi = 0; gi < c.num_gates(); gi += 3) {
    const logic::Gate& g = c.gate(static_cast<int>(gi));
    std::vector<NetConstraint> ks;
    for (NetId in : g.inputs) ks.push_back({in, prng.next_below(2) != 0});
    const bool forced = prng.next_below(2) != 0;
    id.check(podem_constrained_fault(id.ws(), ks, g.output, forced, opt),
             podem_constrained_fault(c, ks, g.output, forced, opt),
             "frame 2 at " + g.name);
    id.check(podem_justify(id.ws(), ks, opt), podem_justify(c, ks, opt),
             "frame 1 at " + g.name);
  }
  EXPECT_GT(id.checks(), 1000);
}

}  // namespace
}  // namespace obd::atpg
