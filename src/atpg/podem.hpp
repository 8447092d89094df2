// PODEM: path-oriented decision making over primary inputs.
//
// One engine serves three uses:
//  - classical stuck-at test generation (activation + D-propagation);
//  - pure justification (set of required good-circuit net values) — the
//    frame-1 step of two-vector generation;
//  - constrained fault tests (required values + a forced faulty net) — the
//    frame-2 step of OBD test generation, where the defective gate's inputs
//    are pinned to the excitation vector while the delayed output value
//    propagates as a D to some primary output.
//
// Values are (good, faulty) pairs of 3-valued signals; D = (1,0), D' = (0,1).
// Decisions are made only at primary inputs, so exhausting the decision tree
// proves untestability. A backtrack budget guards against blowup; hitting it
// reports kAborted (counted separately from kUntestable, as ATPG tools do).
//
// Every search runs in a PodemWorkspace: the per-circuit state (gate levels,
// PI index, level buckets, the all-X good state every search starts from)
// and the per-search scratch (value vectors, undo trail, decisions, fault
// cone, D-frontier), built once and reused. A caller that runs many searches
// on one circuit owns one workspace next to that circuit. A workspace is
// single-threaded (one per worker), references its circuit, which must
// outlive it, and must itself outlive every search run in it. The
// `const Circuit&` overloads build a throwaway workspace per call: they are
// for one-off searches only.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/faults.hpp"
#include "atpg/patterns.hpp"

namespace obd::atpg {

struct PodemOptions {
  /// Maximum number of backtracks before giving up.
  long max_backtracks = 100000;
  /// Wall-clock budget for one search; 0 disables. Exceeding it aborts
  /// with AbortReason::kTime. Unlike the backtrack limit this makes the
  /// found/aborted split machine-speed dependent, so campaign results are
  /// only reproducible across runs when the budget is off (the default) —
  /// resumable campaigns use the reason split to re-attempt exactly the
  /// time-budget aborts.
  double time_budget_s = 0.0;
  /// Value used to fill don't-care PIs in the returned vector.
  bool fill_value = false;
  /// Random-pattern prepass for the whole-list drivers (run_*_atpg): this
  /// many random tests are fault-simulated in 64-lane blocks with fault
  /// dropping; the deterministic search then only targets the survivors,
  /// and the useful random tests join the returned test set. 0 disables.
  int random_phase = 0;
  std::uint64_t random_phase_seed = 0x0bd5eedull;
  /// Scheduler configuration for the random-phase fault simulation
  /// (threads + lanes; results are bit-identical for any setting).
  SimOptions sim;
};

enum class PodemStatus { kFound, kUntestable, kAborted };

/// Why a kAborted search gave up. Backtrack-limit aborts are deterministic
/// (the same circuit/fault/options always abort); time-budget aborts are a
/// property of the run, so resumed campaigns re-attempt only those.
enum class AbortReason : std::uint8_t { kNone = 0, kBacktracks, kTime };

struct PodemResult {
  PodemStatus status = PodemStatus::kUntestable;
  AbortReason reason = AbortReason::kNone;  ///< set when status == kAborted
  TestVector vector;
  long backtracks = 0;
  long implications = 0;
};

/// A required good-circuit value on a net.
struct NetConstraint {
  NetId net = logic::kNoNet;
  bool value = false;
};

namespace detail {
class PodemEngine;
}

/// Reusable search state for one circuit. Between searches its value
/// vectors hold the all-X state: good() == faulty() == all_x(). A search
/// seeds its fault on top of that state by event-driven implication and
/// rewinds its undo trail to leave the state as it found it.
class PodemWorkspace {
 public:
  explicit PodemWorkspace(const Circuit& c);
  PodemWorkspace(const PodemWorkspace&) = delete;
  PodemWorkspace& operator=(const PodemWorkspace&) = delete;

  const Circuit& circuit() const { return c_; }
  /// 3-valued net values with every PI at X (no fault).
  const std::vector<logic::Tri>& all_x() const { return all_x_; }
  /// Current good / faulty net values.
  const std::vector<logic::Tri>& good() const { return good_; }
  const std::vector<logic::Tri>& faulty() const { return faulty_; }

 private:
  friend class detail::PodemEngine;

  struct Decision {
    std::size_t pi;
    bool value;
    bool flipped;
    std::size_t mark;  ///< trail length before this decision was implied
  };
  /// A net's values before an implication overwrote them.
  struct TrailEntry {
    NetId net;
    logic::Tri good;
    logic::Tri faulty;
  };

  const Circuit& c_;
  std::vector<int> level_;                 ///< per gate (Circuit::gate_levels)
  std::vector<std::vector<int>> buckets_;  ///< queued gates, by level
  std::vector<char> queued_;               ///< per gate: in a bucket
  std::vector<int> pi_of_net_;  ///< PI index of a net, -1 if not a PI
  std::vector<logic::Tri> all_x_;
  std::vector<logic::Tri> good_;
  std::vector<logic::Tri> faulty_;
  std::vector<TrailEntry> trail_;
  std::vector<Decision> decisions_;
  std::vector<int> cone_;       ///< fault-net fanout gates, ascending
  std::vector<char> seen_;      ///< per gate, all 0 between cone walks
  std::vector<NetId> stack_;    ///< cone walk
  std::vector<int> frontier_;   ///< D-frontier, by ascending gate index
};

/// Generates a test for a stuck-at fault (activation + propagation to a PO).
PodemResult podem_stuck_at(PodemWorkspace& ws, const StuckFault& fault,
                           const PodemOptions& opt = {});
PodemResult podem_stuck_at(const Circuit& c, const StuckFault& fault,
                           const PodemOptions& opt = {});

/// Finds an input vector satisfying all constraints (no fault machinery).
PodemResult podem_justify(PodemWorkspace& ws,
                          const std::vector<NetConstraint>& constraints,
                          const PodemOptions& opt = {});
PodemResult podem_justify(const Circuit& c,
                          const std::vector<NetConstraint>& constraints,
                          const PodemOptions& opt = {});

/// Frame-2 workhorse: satisfies `constraints` in the good circuit while the
/// `forced` net is stuck at `forced_value` in the faulty circuit, and the
/// difference reaches a primary output.
PodemResult podem_constrained_fault(PodemWorkspace& ws,
                                    const std::vector<NetConstraint>& constraints,
                                    NetId forced, bool forced_value,
                                    const PodemOptions& opt = {});
PodemResult podem_constrained_fault(const Circuit& c,
                                    const std::vector<NetConstraint>& constraints,
                                    NetId forced, bool forced_value,
                                    const PodemOptions& opt = {});

}  // namespace obd::atpg
