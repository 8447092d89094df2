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

/// Generates a test for a stuck-at fault (activation + propagation to a PO).
PodemResult podem_stuck_at(const Circuit& c, const StuckFault& fault,
                           const PodemOptions& opt = {});

/// Finds an input vector satisfying all constraints (no fault machinery).
PodemResult podem_justify(const Circuit& c,
                          const std::vector<NetConstraint>& constraints,
                          const PodemOptions& opt = {});

/// Frame-2 workhorse: satisfies `constraints` in the good circuit while the
/// `forced` net is stuck at `forced_value` in the faulty circuit, and the
/// difference reaches a primary output.
PodemResult podem_constrained_fault(const Circuit& c,
                                    const std::vector<NetConstraint>& constraints,
                                    NetId forced, bool forced_value,
                                    const PodemOptions& opt = {});

}  // namespace obd::atpg
