#include "flow/shard.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "flow/campaign_detail.hpp"
#include "flow/inject.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/prng.hpp"

namespace obd::flow {
namespace {

using namespace obd::atpg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

ShardRunResult fail(ShardRunStatus status, std::string error) {
  ShardRunResult r;
  r.status = status;
  r.error = std::move(error);
  return r;
}

/// Keeps det_tests sorted by local_index (resume can revisit a
/// time-budget abort whose index precedes already-committed tests).
void insert_det_test(std::vector<ShardDetTest>& det, std::uint32_t local,
                     const TwoVectorTest& test) {
  const auto pos = std::lower_bound(
      det.begin(), det.end(), local,
      [](const ShardDetTest& d, std::uint32_t l) { return d.local_index < l; });
  det.insert(pos, ShardDetTest{local, test});
}

/// Snapshot of a shard's fault statuses for a heartbeat record. A fault is
/// "resolved" once it left kPending (kSatUnknown counts: the budget was
/// spent even though resume may reopen it).
obs::Heartbeat make_heartbeat(const ShardState& s, const ShardRunOptions& sopt,
                              const char* phase, long long ckpt_seq,
                              Clock::time_point t0) {
  obs::Heartbeat hb;
  hb.shard = static_cast<int>(sopt.shard_index);
  hb.phase = phase;
  hb.assigned = static_cast<long long>(s.status.size());
  for (const FaultStatus st : s.status) {
    if (st != FaultStatus::kPending) ++hb.resolved;
    if (st == FaultStatus::kRandomDetected || st == FaultStatus::kTestFound ||
        st == FaultStatus::kSatCube)
      ++hb.detected;
    else if (st == FaultStatus::kAbortedBacktracks ||
             st == FaultStatus::kAbortedTime || st == FaultStatus::kSatUnknown)
      ++hb.aborted;
  }
  hb.coverage = hb.assigned > 0
                    ? static_cast<double>(hb.detected) /
                          static_cast<double>(hb.assigned)
                    : 0.0;
  hb.ckpt_seq = ckpt_seq;
  hb.elapsed_s = seconds_since(t0);
  hb.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::system_clock::now().time_since_epoch())
                 .count();
  return hb;
}

/// Campaign-level metric ids (the scheduler's engine metrics are merged in
/// separately via FaultSimScheduler::merged_metrics).
struct FlowMetricIds {
  obs::MetricId podem_found;
  obs::MetricId podem_untestable;
  obs::MetricId podem_aborted;
  obs::MetricId podem_backtracks_per_fault;
  obs::MetricId podem_implications_per_fault;
  obs::MetricId sat_conflicts;
  obs::MetricId sat_decisions;
  obs::MetricId sat_restarts;
  obs::MetricId sat_conflicts_per_fault;
  obs::MetricId sat_inc_pairs;
  obs::MetricId sat_inc_cone_encodes;
  obs::MetricId sat_inc_cone_hits;
  obs::MetricId sat_inc_refutes;
  obs::MetricId sat_inc_fresh;
  obs::MetricId sat_inc_vars_shared;
  obs::MetricId sat_inc_clauses_kept;
  static const FlowMetricIds& get() {
    static const FlowMetricIds ids = [] {
      FlowMetricIds m;
      m.podem_found = obs::counter("atpg.podem_found");
      m.podem_untestable = obs::counter("atpg.podem_untestable");
      m.podem_aborted = obs::counter("atpg.podem_aborted");
      m.podem_backtracks_per_fault =
          obs::histogram("atpg.podem_backtracks_per_fault");
      m.podem_implications_per_fault =
          obs::histogram("atpg.podem_implications_per_fault");
      m.sat_conflicts = obs::counter("sat.conflicts");
      m.sat_decisions = obs::counter("sat.decisions");
      m.sat_restarts = obs::counter("sat.restarts");
      m.sat_conflicts_per_fault = obs::histogram("sat.conflicts_per_fault");
      m.sat_inc_pairs = obs::counter("sat.incremental_pairs");
      m.sat_inc_cone_encodes = obs::counter("sat.cone_encodes");
      m.sat_inc_cone_hits = obs::counter("sat.cone_hits");
      m.sat_inc_refutes = obs::counter("sat.incremental_refutes");
      m.sat_inc_fresh = obs::counter("sat.fresh_fallbacks");
      m.sat_inc_vars_shared = obs::counter("sat.vars_shared");
      m.sat_inc_clauses_kept = obs::counter("sat.clauses_kept");
      return m;
    }();
    return ids;
  }
};

}  // namespace

namespace detail {

ExecutorRun run_executor(const CampaignContext& ctx, const CampaignOptions& opt,
                         FaultSimScheduler& sched,
                         const std::vector<TwoVectorTest>& pool,
                         const ShardRunOptions& sopt) {
  ExecutorRun run;
  ShardState& s = run.shard.state;
  const bool durable = !sopt.checkpoint_dir.empty();
  // Span category: shard children keep their own, one-shot runs the
  // campaign's.
  const char* cat = durable ? "shard" : "atpg";
  const std::size_t assigned = ShardState::assigned_count(
      ctx.n_reps, sopt.shard_index, sopt.shard_count);
  const std::string path =
      durable ? checkpoint_path(sopt.checkpoint_dir,
                                static_cast<int>(sopt.shard_index))
              : std::string();
  auto global_of = [&](std::uint32_t local) {
    return sopt.shard_index + local * sopt.shard_count;
  };
  // The partition as a rep subset; empty (= all reps, no copy) for 0/1.
  RepSubset subset;
  if (sopt.shard_count > 1) {
    subset.resize(assigned);
    for (std::size_t j = 0; j < assigned; ++j)
      subset[j] = global_of(static_cast<std::uint32_t>(j));
  }
  const auto stop_with = [&run](ShardRunStatus status, std::string error) {
    run.shard.status = status;
    run.shard.error = std::move(error);
  };

  std::string err;
  bool have_state = false;
  if (durable && sopt.resume && std::filesystem::exists(path)) {
    if (!load_checkpoint(path, &s, &err) ||
        !checkpoint_matches(s, opt, ctx.circuit, ctx.view, sopt.shard_index,
                            sopt.shard_count, ctx.n_reps, pool.size(), &err)) {
      stop_with(ShardRunStatus::kBadCheckpoint, path + ": " + err);
      return run;
    }
    have_state = true;
  }

  const auto t0 = Clock::now();
  long long ckpt_seq = 0;
  obs::ProgressWriter progress(sopt.progress_path, sopt.progress_interval_s);
  // Heartbeats are built only when a progress file is open: each one
  // scans every assigned status.
  const auto beat = [&](const char* phase) {
    if (progress.active())
      progress.emit(make_heartbeat(s, sopt, phase, ckpt_seq, t0));
  };
  const auto flush = [&](ShardPhase phase) {
    s.phase = phase;
    if (!durable) return true;
    if (!save_checkpoint(path, s, &err)) {
      stop_with(ShardRunStatus::kError, path + ": " + err);
      return false;
    }
    ++ckpt_seq;
    return true;
  };

  if (!have_state) {
    s.circuit = ctx.circuit;
    if (durable)  // hashes the whole view; only a checkpoint needs it
      s.options_fp =
          options_fingerprint(opt, ctx.circuit, ctx.view, sopt.shard_count);
    s.shard_index = sopt.shard_index;
    s.shard_count = sopt.shard_count;
    s.n_reps_total = ctx.n_reps;
    s.pool_size = pool.size();
    s.prng_state = util::Prng(opt.seed).state();
    s.status.assign(assigned, FaultStatus::kPending);

    // Random prepass over the assigned partition only. first_test[j] is
    // the same value a one-partition run computes for this fault, so the
    // useful-test marks merge losslessly across shards. Detected faults
    // skip the deterministic search.
    if (!pool.empty() && assigned > 0) {
      const obs::Span span("prepass", cat);
      const auto tp = Clock::now();
      const FaultSimEngine::Campaign campaign =
          ctx.prepass(sched, pool, subset);
      s.fault_block_evals = campaign.fault_block_evals;
      const PrepassMarks marks =
          mark_first_detections(campaign, pool.size());
      for (std::size_t j = 0; j < assigned; ++j)
        if (marks.skip[j]) s.status[j] = FaultStatus::kRandomDetected;
      for (std::size_t t = 0; t < pool.size(); ++t)
        if (marks.useful[t])
          s.useful_pool.push_back(static_cast<std::uint32_t>(t));
      run.time.random_s = seconds_since(tp);
    }
    if (!flush(ShardPhase::kPrepassDone)) return run;
    beat("prepass");
  } else {
    // Re-attempt time-budget aborts: they are load-dependent, not proofs.
    // With SAT escalation enabled, backtrack aborts (and stale sat-unknown
    // verdicts) also reopen — straight to the SAT backend, no PODEM redo —
    // so a PODEM-only checkpoint resumes into a provable-coverage run.
    bool reopened = false;
    for (FaultStatus& st : s.status) {
      if (st == FaultStatus::kAbortedTime) {
        st = FaultStatus::kPending;
        reopened = true;
      } else if (opt.sat_escalate && (st == FaultStatus::kAbortedBacktracks ||
                                      st == FaultStatus::kSatUnknown)) {
        st = FaultStatus::kSatUnknown;  // marker: SAT-only re-attempt below
        reopened = true;
      }
    }
    if (!reopened && s.phase == ShardPhase::kDone && s.has_matrix) {
      run.shard.status = ShardRunStatus::kDone;
      return run;
    }
    // The matrix (if any) predates the faults we are about to re-attempt.
    s.has_matrix = false;
    s.local_matrix = DetectionMatrix{};
  }

  // Deterministic top-off over the assigned survivors. Backtrack aborts
  // escalate inline to the SAT backend — the cube (or proof) lands at the
  // same position a PODEM test would have, so escalation preserves the
  // cross-thread/shard determinism contract. A durable run commits a
  // checkpoint every checkpoint_every results and on the stop flag.
  {
    const obs::Span topoff_span("topoff", cat);
    const auto tt = Clock::now();
    const FlowMetricIds& mids = FlowMetricIds::get();
    obs::Sheet& m = run.metrics;
    const auto escalate = [&](std::uint32_t local) {
      const auto t_sat = Clock::now();
      const obs::Span sat_span("sat-escalate", cat);
      const sat::SatAtpgResult sr = ctx.escalate(global_of(local));
      run.time.sat_s += seconds_since(t_sat);
      s.sat_conflicts += sr.conflicts;
      s.sat_decisions += sr.decisions;
      s.sat_restarts += sr.restarts;
      ++s.sat_hist[static_cast<std::size_t>(
          obs::log2_bucket(static_cast<std::uint64_t>(sr.conflicts)))];
      m.add(mids.sat_conflicts, sr.conflicts);
      m.add(mids.sat_decisions, sr.decisions);
      m.add(mids.sat_restarts, sr.restarts);
      m.observe(mids.sat_conflicts_per_fault,
                static_cast<std::uint64_t>(sr.conflicts));
      switch (sr.verdict) {
        case sat::SatVerdict::kCube:
          s.status[local] = FaultStatus::kSatCube;
          insert_det_test(s.det_tests, local, sr.cube.concrete());
          break;
        case sat::SatVerdict::kUntestable:
          s.status[local] = FaultStatus::kSatUntestable;
          break;
        case sat::SatVerdict::kUnknown:
          s.status[local] = FaultStatus::kSatUnknown;
          break;
      }
    };
    int since_flush = 0;
    for (std::uint32_t j = 0; j < s.status.size(); ++j) {
      if (sopt.stop && *sopt.stop) {
        if (!flush(ShardPhase::kPodemPartial)) return run;
        stop_with(ShardRunStatus::kInterrupted,
                  "interrupted; progress checkpointed to " + path);
        return run;
      }
      const bool sat_retry =
          opt.sat_escalate && s.status[j] == FaultStatus::kSatUnknown;
      if (s.status[j] != FaultStatus::kPending && !sat_retry) continue;
      if (sat_retry) {
        // Reopened backtrack-abort: PODEM's verdict is deterministic and
        // final, so go straight to the SAT backend.
        escalate(j);
      } else {
        const TwoFrameResult res = ctx.generate(global_of(j));
        s.podem_implications += res.implications;
        s.podem_backtracks += res.backtracks;
        m.observe(mids.podem_backtracks_per_fault,
                  static_cast<std::uint64_t>(res.backtracks));
        m.observe(mids.podem_implications_per_fault,
                  static_cast<std::uint64_t>(res.implications));
        switch (res.status) {
          case PodemStatus::kFound:
            s.status[j] = FaultStatus::kTestFound;
            insert_det_test(s.det_tests, j, res.test);
            m.add(mids.podem_found);
            break;
          case PodemStatus::kUntestable:
            s.status[j] = FaultStatus::kUntestable;
            m.add(mids.podem_untestable);
            break;
          case PodemStatus::kAborted:
            m.add(mids.podem_aborted);
            if (res.reason == AbortReason::kTime) {
              s.status[j] = FaultStatus::kAbortedTime;
            } else if (opt.sat_escalate) {
              escalate(j);
            } else {
              s.status[j] = FaultStatus::kAbortedBacktracks;
            }
            break;
        }
      }
      if (durable && ++since_flush >= std::max(1, sopt.checkpoint_every)) {
        if (!flush(ShardPhase::kPodemPartial)) return run;
        since_flush = 0;
      }
      if (progress.due()) beat("topoff");
    }
    // Session totals for the metrics sheet (nullptr when nothing
    // escalated).
    if (const sat::SatSessionStats* ss = ctx.escalate_stats()) {
      m.add(mids.sat_inc_pairs, ss->pairs_total);
      m.add(mids.sat_inc_cone_encodes, ss->cone_encodes);
      m.add(mids.sat_inc_cone_hits, ss->cone_hits);
      m.add(mids.sat_inc_refutes, ss->incremental_refutes);
      m.add(mids.sat_inc_fresh, ss->fresh_fallbacks);
      m.add(mids.sat_inc_vars_shared, ss->vars_shared);
      m.add(mids.sat_inc_clauses_kept, ss->clauses_kept);
    }
    run.time.atpg_s = seconds_since(tt);
  }

  if (durable) {
    // Shard-local detection matrix: this shard's tests against its
    // assigned faults — the packed rows the final checkpoint carries.
    beat("matrix");
    obs::Span matrix_span("matrix", cat);
    std::vector<TwoVectorTest> tests;
    tests.reserve(s.useful_pool.size() + s.det_tests.size());
    for (const std::uint32_t t : s.useful_pool) tests.push_back(pool[t]);
    for (const ShardDetTest& d : s.det_tests) tests.push_back(d.test);
    s.local_matrix = assigned > 0 ? ctx.matrix(sched, tests, subset)
                                  : DetectionMatrix{};
    s.has_matrix = true;
    matrix_span.close();
    if (!flush(ShardPhase::kDone)) return run;
    beat("done");
  }
  run.shard.status = ShardRunStatus::kDone;
  return run;
}

}  // namespace detail

ShardRunResult run_campaign_shard(const logic::SequentialCircuit& seq,
                                  const CampaignOptions& opt,
                                  const ShardRunOptions& sopt) {
  FaultInjector& inj = FaultInjector::instance();
  inj.visit(CrashPoint::kShardStart);  // delay entries stall here

  if (sopt.checkpoint_dir.empty())
    return fail(ShardRunStatus::kError, "shard mode needs a checkpoint dir");
  if (sopt.shard_count == 0 || sopt.shard_index >= sopt.shard_count)
    return fail(ShardRunStatus::kError,
                "invalid shard " + std::to_string(sopt.shard_index) + "/" +
                    std::to_string(sopt.shard_count));
  if (opt.ndetect > 0)
    return fail(ShardRunStatus::kError,
                "--ndetect is a whole-campaign construct; not available in "
                "shard mode");
  if (!seq.flops().empty() && opt.scan_style != ScanMode::kEnhanced)
    return fail(ShardRunStatus::kError,
                "launch-on-capture scan styles cannot be sharded "
                "(--scan-style enhanced only)");

  const detail::CampaignContext ctx = detail::make_context(seq, opt);
  if (!ctx.error.empty()) return fail(ShardRunStatus::kError, ctx.error);
  FaultSimScheduler sched(ctx.view, opt.sim);
  return detail::run_executor(ctx, opt, sched,
                              detail::random_pool(ctx.view, opt), sopt)
      .shard;
}

}  // namespace obd::flow
