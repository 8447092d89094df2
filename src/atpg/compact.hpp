// Test-set compaction by set cover over a detection matrix. Regenerates the
// paper's "18 of 72 input transitions are necessary and sufficient" style
// statistics for the full adder.
#pragma once

#include <vector>

#include "atpg/faultsim.hpp"

namespace obd::atpg {

/// Greedy set cover: repeatedly picks the test detecting the most
/// still-uncovered faults (word-packed rows, popcount gains).
/// Returns selected test indices (in pick order).
///
/// Tie-break contract: among tests of equal gain the lowest index wins,
/// and picking stops once m.covered_count faults are covered or no test
/// gains anything. The pick sequence is exactly that of the eager loop
/// that re-scores every test on every pick; the implementation is lazy
/// (a max-heap of stale gains, re-scored only at the top), which is what
/// makes it cheap on large matrices.
std::vector<std::size_t> greedy_cover(const DetectionMatrix& m);

/// Exact minimum cover via branch and bound (seeded by the greedy bound).
/// Intended for small instances (tens of tests after dominance pruning).
std::vector<std::size_t> exact_cover(const DetectionMatrix& m,
                                     std::size_t max_nodes = 2'000'000);

/// True when the selected tests detect every coverable fault of the matrix.
bool covers_all(const DetectionMatrix& m,
                const std::vector<std::size_t>& selection);

/// X-overlap merge of partially-specified OBD tests.
struct XMergeResult {
  std::vector<XTwoVectorTest> tests;
  /// members[i]: indices of the original tests folded into tests[i].
  std::vector<std::vector<std::size_t>> members;
};

/// Greedy first-fit merging of tests whose care bits do not conflict —
/// exact-equality deduplication generalized to X-overlap. A merge is
/// accepted only when the candidate's concrete fill still detects every
/// fault the constituents' concrete fills detected, so accidental (fill-
/// dependent) detections are preserved and total coverage never drops.
/// Definite (3-valued, fill-independent) detections need no runtime gate:
/// a merge is a care-bit refinement of each constituent, and
/// Circuit::eval3_words is Kleene-monotone, so every definite detection of
/// a constituent is automatically definite for the merged vector (the
/// XMerge property test enforces this via simulate_obd_x).
XMergeResult merge_x_overlap(const Circuit& c,
                             const std::vector<XTwoVectorTest>& tests,
                             const std::vector<ObdFaultSite>& faults);

}  // namespace obd::atpg
