// Campaign internals: one executor, one merge, and the model hooks both
// run through.
//
// A one-shot campaign (run_campaign) is the executor on partition 0/1 in
// memory, fed through merge_states. A shard (run_campaign_shard) is the
// executor on partition i/n with checkpointing, and the supervisor feeds the
// n committed states through the same merge_states. There is one top-off
// loop and one status-to-report accounting, so the crash-tolerance layer's
// central claim — a sharded run, even one interrupted and resumed, merges
// to a detection matrix bit-identical to the one-shot campaign — holds by
// construction rather than by parallel maintenance.
//
// A CampaignContext packages the model-specific machinery (collapsed
// representatives, prepass campaign, deterministic generator, matrix
// builder) behind fault-subset-aware closures: the executor passes its
// strided partition (or nothing, for all representatives), and the merge
// rebuilds the matrix over the union of tests against the full list. The
// fault-sim scheduler's determinism contract (first detections independent
// of which other faults are co-simulated) does the rest.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "atpg/atpg.hpp"
#include "atpg/sat/incremental.hpp"
#include "atpg/sat/sat_atpg.hpp"
#include "flow/campaign.hpp"
#include "flow/checkpoint.hpp"
#include "flow/shard.hpp"
#include "logic/sequential.hpp"
#include "obs/metrics.hpp"

namespace obd::flow::detail {

/// Global representative indices a closure should operate on. Empty means
/// "all representatives" (the one-shot fast path, no subset copy).
using RepSubset = std::vector<std::uint32_t>;

/// Model-specific campaign machinery over a fixed circuit view. The typed
/// fault vectors live inside the closures (shared_ptr-captured), so a
/// context is freely copyable and outlives make_context's locals.
struct CampaignContext {
  /// Non-empty when the preamble failed (validation error, unsupported
  /// model/style combination); every other field is then unspecified.
  std::string error;

  std::string circuit;  ///< the design's name (checkpoint identity)
  logic::Circuit view;  ///< full-scan or combinational view, model-lowered
  std::size_t faults_total = 0;  ///< before structural collapse
  std::size_t n_reps = 0;        ///< collapsed representatives
  double collapse_s = 0.0;       ///< enumerate+collapse wall clock
  atpg::PodemOptions popt;       ///< budgets for the deterministic search

  /// Fault-dropping prepass over the subset's representatives. The
  /// returned Campaign's first_test is indexed by subset position.
  std::function<atpg::FaultSimEngine::Campaign(
      atpg::FaultSimScheduler&, const std::vector<atpg::TwoVectorTest>&,
      const RepSubset&)>
      prepass;
  /// Deterministic search for one representative (global index).
  std::function<atpg::TwoFrameResult(std::uint32_t rep_index)> generate;
  /// SAT escalation for one representative (global index): definitive
  /// cube/untestable verdict for a PODEM backtrack-abort, budget
  /// permitting. Configured from CampaignOptions::sat_conflict_budget. The
  /// calls share one lazily constructed persistent SatSession.
  std::function<atpg::sat::SatAtpgResult(std::uint32_t rep_index)> escalate;
  /// The session's counters, or nullptr when no fault escalated.
  std::function<const atpg::sat::SatSessionStats*()> escalate_stats;
  /// Fault-site name of one representative (for abort reporting).
  std::function<std::string(std::uint32_t rep_index)> rep_name;
  /// Detection matrix of `tests` against the subset's representatives.
  std::function<atpg::DetectionMatrix(
      atpg::FaultSimScheduler&, const std::vector<atpg::TwoVectorTest>&,
      const RepSubset&)>
      matrix;
  /// n-detect growth tail (OBD model only; null otherwise). The subset
  /// lists SAT-proven-untestable representatives to drop from the target
  /// set — they can never reach n detections.
  std::function<void(const CampaignOptions&, const RepSubset& sat_untestable,
                     CampaignReport&)>
      ndetect;
};

/// Builds the model context for the enhanced-scan / combinational paths:
/// view construction (+ composite lowering for OBD), validation, fault
/// enumeration and collapse, and the model hooks. Launch-on-capture scan
/// styles use a separate driver and are rejected here.
CampaignContext make_context(const logic::SequentialCircuit& seq,
                             const CampaignOptions& opt);

/// The seeded random-prepass pool, with the model's application fixup
/// (stuck-at collapses each pair to a single vector). Regenerating the
/// pool from CampaignOptions::seed is what lets checkpoints store pool
/// *indices* instead of vectors.
std::vector<atpg::TwoVectorTest> random_pool(const logic::Circuit& view,
                                             const CampaignOptions& opt);

/// FNV-1a over the packed matrix (dims + row words) — the cross-run,
/// cross-shard, cross-resume witness.
std::uint64_t hash_matrix(const atpg::DetectionMatrix& m);

/// Structure stats shared by every campaign path.
void fill_structure(const logic::Circuit& view, CampaignReport& r);

/// Report preamble common to run_campaign and the supervisor's merge:
/// circuit identity, model, sim configuration, scan detection.
void init_report(const logic::SequentialCircuit& seq,
                 const CampaignOptions& opt, CampaignReport& r);

/// What one executor run produced: the shard result (status, error, final
/// state), the flow metrics it recorded (atpg.podem_*, sat.*), and its
/// phase wall clocks (random_s, atpg_s, sat_s; the rest stay zero).
struct ExecutorRun {
  ShardRunResult shard;
  obs::Sheet metrics;
  PhaseTimes time;
};

/// The campaign executor: random prepass over partition
/// sopt.shard_index/sopt.shard_count, then the deterministic top-off over
/// its survivors with inline SAT escalation. `pool` is random_pool(ctx.view,
/// opt); `sched` runs every fault simulation. With a checkpoint dir it
/// resumes, flushes checkpoints, polls the stop flag, writes heartbeats,
/// and finishes with the shard-local matrix; with an empty one it runs in
/// memory and returns the state without a matrix (the merge builds the
/// full one).
ExecutorRun run_executor(const CampaignContext& ctx, const CampaignOptions& opt,
                         atpg::FaultSimScheduler& sched,
                         const std::vector<atpg::TwoVectorTest>& pool,
                         const ShardRunOptions& sopt);

/// Deterministic merge: the union of the states' useful-test marks
/// reproduces the one-shot prepass test list (first detections are
/// independent of the fault partition), the deterministic tests interleave
/// back into global representative order, fault statuses become the report
/// counts, and the matrix is rebuilt on `sched` over the merged tests
/// against ALL representatives, then compacted. Bit-identical to the
/// one-shot campaign when every shard completed.
void merge_states(const CampaignContext& ctx, const CampaignOptions& opt,
                  atpg::FaultSimScheduler& sched,
                  const std::vector<atpg::TwoVectorTest>& pool,
                  const std::vector<const ShardState*>& states,
                  std::uint32_t shard_count, CampaignReport& r);

}  // namespace obd::flow::detail
