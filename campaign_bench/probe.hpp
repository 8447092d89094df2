// Outside-in layer probe for the traced benchmark run.
//
// probe_campaign replays run_campaign's one-shot enhanced-scan path by
// calling the same flow::detail hooks in the same order (make_context ->
// prepass -> generate / escalate -> matrix -> greedy_cover) and times each
// call from the benchmark's side, so the program itself carries no extra
// tracing. Its matrix hash and verdict counts must equal run_campaign's for
// the same circuit and options; the benchmark compares them and withholds
// the per-layer numbers on a mismatch.
//
// probe_shards does the same for the sharded path: each shard runs
// in-process through run_campaign_shard, its checkpoint is measured and
// re-saved, and the supervisor merges the committed checkpoints.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "flow/campaign.hpp"
#include "logic/sequential.hpp"

namespace campaign_bench {

/// In-memory span recorder, written out once as Chrome/Perfetto JSON
/// (B/E pairs on one track; args carry span id, parent id and campaign id).
class SpanLog {
 public:
  SpanLog();
  /// Opens a span; returns its id. parent < 0 marks a root span.
  int open(const std::string& name, int parent, int campaign,
           const std::string& detail = {});
  /// Closes span `id` (the innermost open one); returns its seconds.
  double close(int id);
  bool write_chrome_json(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  struct Span {
    std::string name, detail;
    int parent = -1, campaign = 0;
    double t0_us = 0.0, t1_us = 0.0;
  };
  struct Event {
    bool begin = true;
    int span = 0;
  };
  double now_us() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Event> events_;
};

/// RAII span: closes on scope exit unless closed explicitly first.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, int parent, int campaign,
             const std::string& detail = {})
      : log_(log), id_(log.open(name, parent, campaign, detail)) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }
  double close() {
    if (!open_) return seconds_;
    open_ = false;
    return seconds_ = log_.close(id_);
  }

 private:
  SpanLog& log_;
  int id_;
  bool open_ = true;
  double seconds_ = 0.0;
};

/// One traced campaign: layer times (seconds) and counts, plus the
/// verdicts compared against run_campaign.
struct ProbeResult {
  std::string error;

  // Verdicts (must equal run_campaign's).
  std::uint64_t matrix_hash = 0;
  int detected = 0, untestable = 0, aborted = 0, tests_final = 0;

  // Layer times.
  double campaign_s = 0.0;  ///< the root span
  double collapse_s = 0.0;  ///< make_context
  double prepass_s = 0.0;   ///< scheduler + pool + prepass + first-detection marks
  double topoff_loop_s = 0.0;
  double generate_s = 0.0;  ///< summed generate calls
  double sat_s = 0.0;       ///< summed escalate calls
  double matrix_s = 0.0;
  double compact_s = 0.0;
  double span_coverage = 0.0;  ///< direct child spans / root span
  std::vector<double> call_s;  ///< per generate call

  // Layer counts.
  std::size_t faults_total = 0, reps = 0;
  std::size_t pool = 0, kept = 0, dropped = 0;
  long long fault_block_evals = 0;
  std::size_t cone_peak_bytes = 0, cone_resident = 0;
  long long frontier_gate_evals = 0;
  int calls = 0, found = 0;
  long long implications = 0, backtracks = 0;
  int sat_calls = 0, sat_cubes = 0, sat_untestable = 0, sat_unknown = 0;
  long long sat_conflicts = 0;
  std::size_t matrix_tests = 0;
  /// Top-off calls whose fault an earlier top-off test already detects
  /// (-1 when not analyzed). Measured after the root span closes.
  int wasted_calls = -1;
};

ProbeResult probe_campaign(const obd::logic::SequentialCircuit& seq,
                           const obd::flow::CampaignOptions& opt, SpanLog& log,
                           int campaign, bool analyze_waste);

struct ShardProbeResult {
  std::string error;
  std::vector<double> shard_s;       ///< run_campaign_shard wall per shard
  std::uint64_t checkpoint_bytes = 0;  ///< summed final checkpoint sizes
  double checkpoint_save_s = 0.0;      ///< summed save_checkpoint re-saves
  obd::flow::CampaignReport merged;  ///< in-process supervisor merge
};

ShardProbeResult probe_shards(const obd::logic::SequentialCircuit& seq,
                              const obd::flow::CampaignOptions& opt,
                              const std::string& checkpoint_dir, int shards,
                              SpanLog& log, int campaign);

}  // namespace campaign_bench
