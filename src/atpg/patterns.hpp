// Test-pattern containers and generators.
#pragma once

#include <cstdint>
#include <vector>

#include "logic/circuit.hpp"
#include "logic/inputvec.hpp"
#include "util/prng.hpp"

namespace obd::atpg {

using logic::InputVec;

/// A single input vector (bit i = PI i), any width.
struct TestVector {
  InputVec bits;
  /// Bits the generator actually cared about; don't-cares were filled.
  InputVec care_mask;

  bool operator==(const TestVector&) const = default;
};

/// A two-vector (launch/capture) test.
struct TwoVectorTest {
  InputVec v1;
  InputVec v2;

  bool operator==(const TwoVectorTest&) const = default;
};

/// A partially-specified two-vector test: per-frame value and care bits.
/// PODEM emits these (don't-care PIs keep care_mask 0); the X-aware fault
/// simulator proves detections that hold under *any* fill of the X bits,
/// which is what lets compaction merge tests by care-bit overlap instead of
/// exact vector equality.
struct XTwoVectorTest {
  TestVector v1;
  TestVector v2;

  bool operator==(const XTwoVectorTest&) const = default;

  /// No PI is required to be 0 by one test and 1 by the other, in either
  /// frame — the precondition for merging.
  bool compatible(const XTwoVectorTest& o) const {
    return InputVec::compatible(v1.bits, v1.care_mask, o.v1.bits,
                                o.v1.care_mask) &&
           InputVec::compatible(v2.bits, v2.care_mask, o.v2.bits,
                                o.v2.care_mask);
  }

  /// Union of the care bits; don't-cares of both fall back to 0. Only
  /// meaningful when compatible().
  XTwoVectorTest merged(const XTwoVectorTest& o) const {
    XTwoVectorTest m;
    m.v1.care_mask = v1.care_mask | o.v1.care_mask;
    m.v1.bits = InputVec::merge(v1.bits, v1.care_mask, o.v1.bits,
                                o.v1.care_mask);
    m.v2.care_mask = v2.care_mask | o.v2.care_mask;
    m.v2.bits = InputVec::merge(v2.bits, v2.care_mask, o.v2.bits,
                                o.v2.care_mask);
    return m;
  }

  /// The concrete vector pair actually applied on the tester (X bits as
  /// filled in `bits`).
  TwoVectorTest concrete() const { return {v1.bits, v2.bits}; }
};

/// Every ordered pair (v1, v2) over n_pis inputs. `include_repeats` keeps
/// v1 == v2 pairs (which can never excite a transition). Exhaustive
/// enumeration is 4^n_pis pairs, so n_pis is capped at 16; larger requests
/// throw std::invalid_argument (use random_pairs for wide circuits).
std::vector<TwoVectorTest> all_ordered_pairs(int n_pis,
                                             bool include_repeats = false);

/// `count` random pairs, deterministic in `seed`. Any width: vectors wider
/// than 64 PIs consume one PRNG draw per 64-bit word.
std::vector<TwoVectorTest> random_pairs(int n_pis, int count,
                                        std::uint64_t seed);

/// Converts a flat pattern sequence into back-to-back pairs
/// (p0,p1), (p1,p2), ... — how single-vector (stuck-at) test sets are
/// applied in practice when probing dynamic faults.
std::vector<TwoVectorTest> consecutive_pairs(
    const std::vector<InputVec>& patterns);

/// Fault-simulation scheduler knobs. Lives here (not in
/// faultsim_engine.hpp) so options structs like PodemOptions can name it
/// without pulling in the engine.
struct SimOptions {
  /// Worker threads for sharding pattern blocks; 1 runs inline on the
  /// calling thread. Results are bit-identical at any count.
  int threads = 1;
  /// Words per pattern-block lane bundle: 1 = the classic 64-lane blocks,
  /// 4 = 256 lanes, 8 = 512 (the CLI's --lanes divided by 64). Wide
  /// bundles run through the LaneBlock SIMD kernels; detection matrices,
  /// campaigns, and matrix_hash are bit-identical at every width.
  int lane_words = 1;
  /// Pattern blocks per worker per fault-dropping campaign round; 0 picks
  /// automatically. Larger batches amortize the round barrier at the cost
  /// of coarser fault-drop reconciliation (results stay bit-identical —
  /// only the redundant-work metric moves).
  int block_batch = 0;
};

}  // namespace obd::atpg
