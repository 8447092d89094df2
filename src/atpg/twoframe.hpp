// Two-vector test generation for dynamic faults.
//
// OBD flow (Sec. 4 of the paper): for a fault on transistor t of gate G,
// enumerate the gate-local excitation pairs (lv1 -> lv2) derived from the
// cell topology (core::obd_excitations). For each candidate:
//   frame 2: PODEM with G's inputs pinned to lv2 and G's output stuck (in
//            the faulty circuit) at its *previous* value out(lv1); the
//            difference must reach a primary output. This models the
//            gross-delay view of the slow transition.
//   frame 1: independent justification of G's inputs to lv1.
// Both frames are plain combinational searches, which is the paper's
// complexity claim: OBD TPG costs the same as stuck-at TPG per frame.
//
// The classical transition-fault flow is identical minus the gate-input
// pinning: any (v1, v2) toggling G's output will do — which is exactly why
// transition test sets can miss input-specific (PMOS) OBD defects.
#pragma once

#include "atpg/podem.hpp"

namespace obd::atpg {

struct TwoFrameResult {
  PodemStatus status = PodemStatus::kUntestable;
  /// Set when status == kAborted. A time abort anywhere dominates (it
  /// marks the fault as worth re-attempting on resume); backtrack-limit
  /// aborts are deterministic and final for the given options.
  AbortReason reason = AbortReason::kNone;
  TwoVectorTest test;
  /// The same test with the PODEM care masks preserved (don't-care PIs keep
  /// care_mask 0) — the input to X-overlap compaction.
  XTwoVectorTest x_test;
  long backtracks = 0;
  long implications = 0;
};

/// Generates a two-vector test for one OBD fault site. Both frames search
/// in `ws` (a workspace over the circuit under test).
TwoFrameResult generate_obd_test(PodemWorkspace& ws, const ObdFaultSite& site,
                                 const PodemOptions& opt = {});
TwoFrameResult generate_obd_test(const Circuit& c, const ObdFaultSite& site,
                                 const PodemOptions& opt = {});

/// Generates a two-vector test for one classical transition fault.
TwoFrameResult generate_transition_test(PodemWorkspace& ws,
                                        const TransitionFault& fault,
                                        const PodemOptions& opt = {});
TwoFrameResult generate_transition_test(const Circuit& c,
                                        const TransitionFault& fault,
                                        const PodemOptions& opt = {});

/// Whole-fault-list ATPG statistics.
struct AtpgRun {
  std::vector<TwoVectorTest> tests;
  /// Care-mask form of `tests`, index-aligned (random-phase tests are fully
  /// specified). Feeds merge_x_overlap.
  std::vector<XTwoVectorTest> x_tests;
  int found = 0;
  int untestable = 0;
  int aborted = 0;
  long total_backtracks = 0;
  long total_implications = 0;
  /// Indices (into the fault list) of faults proven untestable.
  std::vector<std::size_t> untestable_faults;
};

/// Runs OBD ATPG over every fault in `faults`.
AtpgRun run_obd_atpg(const Circuit& c, const std::vector<ObdFaultSite>& faults,
                     const PodemOptions& opt = {});

/// Runs transition ATPG over every fault in `faults`.
AtpgRun run_transition_atpg(const Circuit& c,
                            const std::vector<TransitionFault>& faults,
                            const PodemOptions& opt = {});

/// Runs stuck-at ATPG over every fault; tests are single vectors (stored in
/// v2 with v1 == v2).
AtpgRun run_stuck_at_atpg(const Circuit& c,
                          const std::vector<StuckFault>& faults,
                          const PodemOptions& opt = {});

}  // namespace obd::atpg
