// Bit-parallel batched fault simulation (PPSFP) and its scheduler.
//
// The legacy simulators re-evaluated the whole circuit once per fault per
// pattern through the 64-lane Circuit::eval_words kernel with a single live
// bit — wasting 63/64 of every word. This engine restores the classical
// parallel-pattern single-fault-propagation structure:
//
//   - a PatternBlock packs up to 64 * lane_words (two-vector) tests, one
//     per word-lane bit, with the multi-word LaneBlock SIMD kernels
//     (logic/laneblock.hpp) fusing all words of a bundle per gate;
//   - the good circuit is evaluated once per block (per frame);
//   - each fault gets a per-lane activation word (the lanes where it
//     changes its own net); activations are OR-ed per net and each excited
//     net is propagated once against the whole block, event-driven through
//     Circuit::fanout_of in level order — only gates with a changed input
//     are evaluated, and the walk ends as soon as no queued gate is left.
//     Every fault on the net then reads its detections off the shared PO
//     diff, masked by its own activation;
//   - OBD excitation is computed word-parallel from a per-(gate type,
//     transistor) lookup table over local two-vectors: the gate's input
//     words give 2^n minterm words per frame, and the table's (v1, v2)
//     entries OR their products, so input-specific conditions cost a few
//     word ops per 64 lanes instead of a topology walk;
//   - campaigns optionally drop a fault from the active list at its first
//     detection, so late blocks only pay for the hard remainder;
//   - FaultSimScheduler shards independent pattern blocks across a small
//     std::thread pool with per-worker engines (scratch buffers and
//     excitation tables are the only per-engine state). Fault dropping is
//     reconciled in block order after each round, so campaign results are
//     bit-identical to a single-threaded run at any thread count or lane
//     width.
//
// Every call shape, a single test against thousands of OBD sites included,
// runs through the pattern blocks: a one-test call is a one-lane block.
//
// The legacy entry points in faultsim.hpp are thin wrappers over the
// scheduler, keeping every existing caller's API and semantics.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <tuple>

#include "atpg/faults.hpp"
#include "atpg/patterns.hpp"
#include "obs/metrics.hpp"

namespace obd::atpg {

/// Registry ids of the engine's metrics (one process-wide interning).
/// Exposed so report code can read the merged scheduler sheet by id.
struct EngineMetricIds {
  obs::MetricId propagations;
  obs::MetricId frontier_events;
  obs::MetricId frontier_gate_evals;
  static const EngineMetricIds& get();
};

/// Per-engine knobs (the scheduler forwards SimOptions fields here).
struct EngineOptions {
  /// Words per pattern lane bundle: blocks carry 64 * lane_words tests and
  /// every per-net value is lane_words words wide (the LaneBlock SIMD
  /// kernels in logic/laneblock.hpp fuse them). Detection results are
  /// bit-identical at any width.
  int lane_words = 1;
};

/// Up to 64 * lane_words two-vector tests packed lane-per-test (stuck-at
/// tests use only the second frame, with v1 == v2). Lane L lives at bit
/// (L & 63) of word (L >> 6); a one-word block is bit-for-bit the engine's
/// historical 64-lane block.
class PatternBlock {
 public:
  /// Lanes per 64-bit word (the historical whole-block size).
  static constexpr int kLanes = 64;

  explicit PatternBlock(const Circuit& c, int lane_words = 1)
      : lane_words_(lane_words < 1 ? 1 : lane_words),
        pi1_(c.inputs().size() * static_cast<std::size_t>(lane_words_), 0),
        pi2_(c.inputs().size() * static_cast<std::size_t>(lane_words_), 0) {}

  int lane_words() const { return lane_words_; }
  /// Total lanes: 64 * lane_words.
  int capacity() const { return kLanes * lane_words_; }
  int size() const { return size_; }
  bool full() const { return size_ == capacity(); }
  /// Live-lane mask of one word: bits of `word` whose lanes carry real
  /// tests. lane_mask() is the historical whole-block mask for one-word
  /// blocks.
  std::uint64_t lane_mask(int word = 0) const {
    const int live = size_ - word * kLanes;
    if (live >= kLanes) return ~0ull;
    if (live <= 0) return 0;
    return (1ull << live) - 1;
  }

  void clear();
  void push(const TwoVectorTest& t);

  /// Lane-strided PI words: PI i's words at [i * lane_words, +lane_words).
  const std::vector<std::uint64_t>& pi1() const { return pi1_; }
  const std::vector<std::uint64_t>& pi2() const { return pi2_; }
  const TwoVectorTest& test(int lane) const {
    return tests_[static_cast<std::size_t>(lane)];
  }

  /// Packs a test list into ceil(n / capacity) blocks, preserving order.
  static std::vector<PatternBlock> pack(const Circuit& c,
                                        const std::vector<TwoVectorTest>& tests,
                                        int lane_words = 1);

 private:
  int lane_words_ = 1;
  int size_ = 0;
  std::vector<std::uint64_t> pi1_, pi2_;  // [pi * lane_words + word]
  std::vector<TwoVectorTest> tests_;
};

/// Detection matrix: row per test, bit-packed over the fault list (64
/// faults per word). Built by the scheduler, one pattern block's rows per
/// engine call; consumed directly by compaction, n-detect selection, and
/// the diagnosis dictionary.
struct DetectionMatrix {
  std::size_t n_tests = 0;
  std::size_t n_faults = 0;
  std::size_t words_per_row = 0;
  /// Row-major packed bits: rows[t * words_per_row + (f >> 6)] bit (f & 63).
  std::vector<std::uint64_t> rows;
  /// Faults detected by at least one test.
  std::vector<bool> covered;
  int covered_count = 0;

  bool detects(std::size_t test, std::size_t fault) const {
    return (rows[test * words_per_row + (fault >> 6)] >> (fault & 63)) & 1u;
  }
  const std::uint64_t* row(std::size_t test) const {
    return rows.data() + test * words_per_row;
  }
  /// Detection count of one test (row popcount).
  std::size_t row_count(std::size_t test) const;
};

class FaultSimEngine {
 public:
  explicit FaultSimEngine(const Circuit& c, EngineOptions opt = {});

  const Circuit& circuit() const { return c_; }

  // --- Frontier introspection ------------------------------------------
  // Counters live in the engine's obs::Sheet (see metrics()); hot loops
  // bump them through cached slot pointers at member-increment cost. The
  // getters below keep the original introspection API.
  /// Fault-injected propagations run: one per excited *net* x block,
  /// shared by every fault on that net (sa0/sa1, STR/STF, and all OBD
  /// sites of a gate propagate together).
  long long propagations() const { return *propagations_; }
  /// Nets whose wide value actually changed during propagation (frontier
  /// membership events, fault sites included).
  long long frontier_events() const { return *frontier_events_; }
  /// Gates evaluated during propagation: exactly the gates with at least
  /// one changed input, each once.
  long long frontier_gate_evals() const { return *frontier_gate_evals_; }

  /// This engine's accumulation sheet (single-owner; merged by the
  /// scheduler in worker order).
  const obs::Sheet& metrics() const { return metrics_; }

  // --- Block primitives -------------------------------------------------
  // Each fills `detect` (resized to faults.size() * lane_words) with
  // lane_words words per fault at [i * lane_words, +lane_words); bit k of
  // word w set = lane 64w + k of the block detects the fault. The block's
  // lane_words must equal the engine's. When `active` is non-null, faults
  // with active[i] == 0 are skipped (their words are 0).

  void block_stuck(const PatternBlock& b, const std::vector<StuckFault>& faults,
                   std::vector<std::uint64_t>& detect,
                   const std::vector<std::uint8_t>* active = nullptr);
  void block_transition(const PatternBlock& b,
                        const std::vector<TransitionFault>& faults,
                        std::vector<std::uint64_t>& detect,
                        const std::vector<std::uint8_t>* active = nullptr);
  void block_obd(const PatternBlock& b, const std::vector<ObdFaultSite>& faults,
                 std::vector<std::uint64_t>& detect,
                 const std::vector<std::uint8_t>* active = nullptr);

  /// Any of the three block kernels, for code generic over the fault model.
  template <typename Fault>
  using BlockKernel = void (FaultSimEngine::*)(
      const PatternBlock&, const std::vector<Fault>&,
      std::vector<std::uint64_t>&, const std::vector<std::uint8_t>*);

  // --- X-aware (3-valued) detection ------------------------------------
  /// Definite OBD detections under a partially-specified test, through
  /// Circuit::eval3_words on the care-masked vectors: a fault counts only
  /// when its gate-local two-vector is fully specified and exciting, the
  /// frame-1 output value is known, and some PO is known in both the good
  /// and the faulty frame-2 valuation with differing values. Kleene
  /// conservatism makes this a guarantee over *every* fill of the X bits —
  /// the property X-overlap compaction relies on.
  std::vector<bool> definite_obd(const XTwoVectorTest& t,
                                 const std::vector<ObdFaultSite>& faults);

  // --- Campaigns --------------------------------------------------------
  /// Whole-test-set simulation. With `drop_detected`, a fault leaves the
  /// active list at its first detection (first_test is unaffected: it is
  /// the first detecting test index either way; -1 = undetected).
  struct Campaign {
    std::vector<int> first_test;
    int detected = 0;
    /// Work metric fault dropping shrinks: (active fault x block) pairs
    /// simulated (an upper bound on propagations, which count excited nets,
    /// not faults).
    long long fault_block_evals = 0;
  };

  Campaign campaign_stuck(const std::vector<InputVec>& patterns,
                          const std::vector<StuckFault>& faults,
                          bool drop_detected = true);
  Campaign campaign_transition(const std::vector<TwoVectorTest>& tests,
                               const std::vector<TransitionFault>& faults,
                               bool drop_detected = true);
  Campaign campaign_obd(const std::vector<TwoVectorTest>& tests,
                        const std::vector<ObdFaultSite>& faults,
                        bool drop_detected = true);

  /// PO difference word between the good block valuation `good` (one word
  /// per net) and the same block with `forced` pinned to `forced_word`,
  /// propagating only through the forced net's transitive fanout. The
  /// one-word convenience form of the wide frontier propagation.
  std::uint64_t forced_diff(const std::vector<std::uint64_t>& good,
                            NetId forced, std::uint64_t forced_word);

 private:
  /// Event-driven frontier propagation, the engine's hot loop: pins
  /// `forced` to `forced_words` (W words) against the lane-strided good
  /// valuation `good` and drains the change through the level buckets
  /// (see drain()). `diff` (W words) gets the OR over POs of
  /// (faulty ^ good).
  void propagate(const std::uint64_t* good, std::size_t n_words, NetId forced,
                 const std::uint64_t* forced_words, std::uint64_t* diff);
  /// The shared body of the block kernels. Sets the block's lane masks,
  /// then calls `activate(i, act)` for every active fault: it writes the
  /// fault's W activation words (lanes where the fault flips its net away
  /// from good2_, lane-masked) to `act` and returns that net. Activations
  /// are OR-ed per net, each excited net is propagated once with its
  /// union lanes flipped, and fault i's detect words become its net's PO
  /// diff & its activation.
  template <typename ActivateFn>
  void propagate_per_net(const PatternBlock& b, std::size_t n_faults,
                         const std::vector<std::uint8_t>* active,
                         std::vector<std::uint64_t>& detect,
                         ActivateFn activate);
  /// 2^n x 2^n excitation table for (gate type, transistor): row bit v2 of
  /// entry v1 set when (v1 -> v2) excites the OBD defect.
  const std::array<std::uint16_t, 16>& obd_table(logic::GateType t,
                                                 const cells::TransistorRef& tr);

  template <typename Fault>
  Campaign run_campaign(const std::vector<TwoVectorTest>& tests,
                        const std::vector<Fault>& faults, bool drop_detected,
                        BlockKernel<Fault> kernel);

  /// Flags net `n` changed and queues every gate reading it into the
  /// bucket of its logic level (once per gate, however many of its inputs
  /// change).
  void mark_changed(NetId n);
  /// The event-driven walk behind propagate(): takes the level buckets in
  /// ascending order and evaluates each queued gate exactly once, reading
  /// changed inputs from `bad_` and the rest from `good`. An output whose W
  /// words differ from `good` is written to `bad_` and marked changed,
  /// queueing its readers at strictly higher levels; changed POs also OR
  /// (bad ^ good) into `diff`. Returns the number of outputs that changed
  /// and leaves every changed flag cleared.
  long long drain(const std::uint64_t* good, std::size_t W,
                  std::uint64_t* diff);

  const Circuit& c_;
  EngineOptions opt_;
  std::vector<int> gate_level_;                  // gate -> logic level
  std::vector<std::uint8_t> po_mask_;            // per net: 1 = primary output
  // Metrics slab + cached slot pointers (stable: every engine id is
  // touched before the pointers are taken, and the engine adds no other
  // ids to its own sheet).
  obs::Sheet metrics_;
  long long* propagations_ = nullptr;
  long long* frontier_events_ = nullptr;
  long long* frontier_gate_evals_ = nullptr;
  std::map<std::tuple<int, bool, int>, std::array<std::uint16_t, 16>>
      obd_tables_;
  // Lane-strided per-net scratch (lane_words words per net).
  std::vector<std::uint64_t> good1_, good2_, bad_;
  // Propagation scratch: per-net changed flags with their reset list, the
  // level buckets of queued gates (a gate's readers sit at strictly higher
  // levels, so a bucket never grows while it drains) with per-gate queued
  // flags and the non-empty level range, the gate-output staging words,
  // and the per-block lane masks.
  std::vector<std::uint8_t> changed_;
  std::vector<NetId> touched_;
  std::vector<std::vector<int>> buckets_;
  std::vector<std::uint8_t> queued_;
  int lo_ = std::numeric_limits<int>::max();
  int hi_ = 0;
  std::vector<std::uint64_t> eval_tmp_, force_, masks_;
  // Per-net sharing scratch (lane-strided): the union of the activations
  // on each net (all-zero between blocks), each excited net's PO diff, the
  // excited-net list, each fault's excited net (kNoNet when unexcited),
  // and the two frames' 16 minterm words of the current OBD gate.
  std::vector<std::uint64_t> net_act_, net_diff_;
  std::vector<NetId> excited_nets_, fault_net_;
  std::vector<std::uint64_t> minterms1_, minterms2_;
};

/// Aggregated per-engine counters (summed over the scheduler's workers).
/// Surfaced in the campaign JSON report so frontier behaviour is
/// observable without rerunning the bench.
struct SimStats {
  // Always 0: propagation keeps no fanout-cone store any more.
  std::size_t cone_resident = 0;
  std::size_t cone_peak_bytes = 0;
  /// One per excited net x block (shared by every fault on the net).
  long long propagations = 0;
  long long frontier_events = 0;
  long long frontier_gate_evals = 0;
};

/// Schedules fault-simulation calls over a worker pool. (SimOptions lives
/// in patterns.hpp.)
///
/// Determinism contract: matrices and campaigns are bit-identical across
/// thread counts and lane widths (the randomized oracle harness in
/// tests/oracle_common.hpp enforces this against the legacy scalar
/// simulators). Threads shard whole pattern blocks (matrix rows are
/// disjoint per block); fault-dropping campaigns run rounds of
/// `threads * block_batch`
/// blocks against a frozen active list and reconcile detections in block
/// order between rounds, trading a little redundant tail work for exact
/// equivalence. Small shapes (gates x blocks x lane_words below a measured
/// threshold) run single-threaded regardless of `threads` — the barrier
/// tax exceeds the parallel win there.
class FaultSimScheduler {
 public:
  explicit FaultSimScheduler(const Circuit& c, SimOptions opt = {});
  ~FaultSimScheduler();

  const Circuit& circuit() const { return c_; }
  const SimOptions& options() const { return opt_; }

  /// Counter sums over all worker engines.
  SimStats stats() const;
  /// Worker sheets folded in engine-index order — deterministic totals for
  /// any thread count whenever the work partition is (matrix builds are;
  /// fault-dropping campaigns redo tail work per round by design).
  obs::Sheet merged_metrics() const;

  /// Workers a call with this many blocks actually uses:
  /// min(threads, blocks), gated to 1 when gates x blocks x lane_words
  /// falls below a measured threshold — there the thread-spawn and round-
  /// barrier tax exceeds any parallel win, so the call runs inline.
  int pattern_workers(std::size_t n_blocks) const;
  /// Blocks per worker per campaign round (block_batch, or an auto pick
  /// that amortizes the round barrier without coarsening fault dropping
  /// too much).
  std::size_t resolve_batch(std::size_t n_blocks, int workers) const;

  // --- Detection matrices ----------------------------------------------
  DetectionMatrix matrix_stuck(const std::vector<InputVec>& patterns,
                               const std::vector<StuckFault>& faults);
  DetectionMatrix matrix_transition(const std::vector<TwoVectorTest>& tests,
                                    const std::vector<TransitionFault>& faults);
  DetectionMatrix matrix_obd(const std::vector<TwoVectorTest>& tests,
                             const std::vector<ObdFaultSite>& faults);

  // --- Campaigns (deterministic fault-drop reconciliation) -------------
  FaultSimEngine::Campaign campaign_stuck(
      const std::vector<InputVec>& patterns,
      const std::vector<StuckFault>& faults, bool drop_detected = true);
  FaultSimEngine::Campaign campaign_transition(
      const std::vector<TwoVectorTest>& tests,
      const std::vector<TransitionFault>& faults, bool drop_detected = true);
  FaultSimEngine::Campaign campaign_obd(
      const std::vector<TwoVectorTest>& tests,
      const std::vector<ObdFaultSite>& faults, bool drop_detected = true);

 private:
  template <typename Fault>
  DetectionMatrix build_matrix(const std::vector<TwoVectorTest>& tests,
                               const std::vector<Fault>& faults,
                               FaultSimEngine::BlockKernel<Fault> kernel);
  template <typename Fault>
  FaultSimEngine::Campaign run_campaign(
      const std::vector<TwoVectorTest>& tests,
      const std::vector<Fault>& faults, bool drop_detected,
      FaultSimEngine::BlockKernel<Fault> kernel);

  FaultSimEngine& engine(int worker) { return *engines_[static_cast<std::size_t>(worker)]; }

  const Circuit& c_;
  SimOptions opt_;
  std::vector<std::unique_ptr<FaultSimEngine>> engines_;  // one per worker
};

}  // namespace obd::atpg
