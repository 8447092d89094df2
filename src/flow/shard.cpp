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
                              std::chrono::steady_clock::time_point t0) {
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
  hb.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  hb.ts_us = std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::system_clock::now().time_since_epoch())
                 .count();
  return hb;
}

}  // namespace

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
  if (opt.seed_sat_cubes)
    return fail(ShardRunStatus::kError,
                "--seed-sat-cubes feeds earlier escalation cubes to later "
                "faults, which crosses shard boundaries; not available in "
                "shard mode");
  if (!seq.flops().empty() && opt.scan_style != ScanMode::kEnhanced)
    return fail(ShardRunStatus::kError,
                "launch-on-capture scan styles cannot be sharded "
                "(--scan-style enhanced only)");

  const detail::CampaignContext ctx = detail::make_context(seq, opt);
  if (!ctx.error.empty()) return fail(ShardRunStatus::kError, ctx.error);

  const std::string circuit = seq.core().name();
  const std::size_t assigned = ShardState::assigned_count(
      ctx.n_reps, sopt.shard_index, sopt.shard_count);
  const std::vector<TwoVectorTest> pool = detail::random_pool(ctx.view, opt);
  const std::string path =
      checkpoint_path(sopt.checkpoint_dir, static_cast<int>(sopt.shard_index));
  auto global_of = [&](std::uint32_t local) {
    return sopt.shard_index + local * sopt.shard_count;
  };

  ShardState s;
  std::string err;
  bool have_state = false;
  if (sopt.resume && std::filesystem::exists(path)) {
    if (!load_checkpoint(path, &s, &err))
      return fail(ShardRunStatus::kBadCheckpoint, path + ": " + err);
    if (!checkpoint_matches(s, opt, circuit, sopt.shard_index,
                            sopt.shard_count, ctx.n_reps, pool.size(), &err))
      return fail(ShardRunStatus::kBadCheckpoint, path + ": " + err);
    have_state = true;
  }

  const auto t0 = std::chrono::steady_clock::now();
  long long ckpt_seq = 0;
  obs::ProgressWriter progress(sopt.progress_path, sopt.progress_interval_s);
  auto flush = [&](ShardPhase phase) {
    s.phase = phase;
    if (!save_checkpoint(path, s, &err)) return false;
    ++ckpt_seq;
    return true;
  };

  FaultSimScheduler sched(ctx.view, opt.sim);

  if (!have_state) {
    s.circuit = circuit;
    s.options_fp = options_fingerprint(opt, circuit, sopt.shard_count);
    s.shard_index = sopt.shard_index;
    s.shard_count = sopt.shard_count;
    s.n_reps_total = ctx.n_reps;
    s.pool_size = pool.size();
    s.prng_state = util::Prng(opt.seed).state();
    s.status.assign(assigned, FaultStatus::kPending);

    // Random prepass over the assigned partition only. first_test[j] is
    // the same value the one-shot campaign computes for this fault, so
    // the useful-test marks merge losslessly across shards.
    if (!pool.empty() && assigned > 0) {
      const obs::Span span("prepass", "shard");
      detail::RepSubset subset(assigned);
      for (std::size_t j = 0; j < assigned; ++j)
        subset[j] = global_of(static_cast<std::uint32_t>(j));
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
    }
    if (!flush(ShardPhase::kPrepassDone))
      return fail(ShardRunStatus::kError, path + ": " + err);
    progress.emit(make_heartbeat(s, sopt, "prepass", ckpt_seq, t0));
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
      ShardRunResult done;
      done.status = ShardRunStatus::kDone;
      done.state = std::move(s);
      return done;
    }
    // The matrix (if any) predates the faults we are about to re-attempt.
    s.has_matrix = false;
    s.local_matrix = DetectionMatrix{};
  }

  // Deterministic top-off over the assigned survivors, committing a
  // checkpoint every checkpoint_every results and on the stop flag.
  obs::Span topoff_span("topoff", "shard");
  int since_flush = 0;
  for (std::uint32_t j = 0; j < s.status.size(); ++j) {
    if (sopt.stop && *sopt.stop) {
      if (!flush(ShardPhase::kPodemPartial))
        return fail(ShardRunStatus::kError, path + ": " + err);
      ShardRunResult out;
      out.status = ShardRunStatus::kInterrupted;
      out.error = "interrupted; progress checkpointed to " + path;
      out.state = std::move(s);
      return out;
    }
    const bool sat_retry = opt.sat_escalate && ctx.escalate &&
                           s.status[j] == FaultStatus::kSatUnknown;
    if (s.status[j] != FaultStatus::kPending && !sat_retry) continue;
    const auto escalate = [&](std::uint32_t local) {
      const sat::SatAtpgResult sr = ctx.escalate(global_of(local));
      s.sat_conflicts += sr.conflicts;
      s.sat_decisions += sr.decisions;
      s.sat_restarts += sr.restarts;
      ++s.sat_hist[static_cast<std::size_t>(
          obs::log2_bucket(static_cast<std::uint64_t>(sr.conflicts)))];
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
    if (sat_retry) {
      // Reopened backtrack-abort: PODEM's verdict is deterministic and
      // final, so go straight to the SAT backend.
      escalate(j);
    } else {
      const TwoFrameResult res = ctx.generate(global_of(j));
      s.podem_implications += res.implications;
      s.podem_backtracks += res.backtracks;
      switch (res.status) {
        case PodemStatus::kFound:
          s.status[j] = FaultStatus::kTestFound;
          insert_det_test(s.det_tests, j, res.test);
          break;
        case PodemStatus::kUntestable:
          s.status[j] = FaultStatus::kUntestable;
          break;
        case PodemStatus::kAborted:
          if (res.reason == AbortReason::kTime) {
            s.status[j] = FaultStatus::kAbortedTime;
          } else if (opt.sat_escalate && ctx.escalate) {
            escalate(j);
          } else {
            s.status[j] = FaultStatus::kAbortedBacktracks;
          }
          break;
      }
    }
    if (++since_flush >= std::max(1, sopt.checkpoint_every)) {
      if (!flush(ShardPhase::kPodemPartial))
        return fail(ShardRunStatus::kError, path + ": " + err);
      since_flush = 0;
    }
    progress.maybe_emit(make_heartbeat(s, sopt, "topoff", ckpt_seq, t0));
  }
  topoff_span.close();

  // Shard-local detection matrix: this shard's tests against its assigned
  // faults — the packed rows the checkpoint carries for the final state.
  progress.emit(make_heartbeat(s, sopt, "matrix", ckpt_seq, t0));
  obs::Span matrix_span("matrix", "shard");
  std::vector<TwoVectorTest> tests;
  tests.reserve(s.useful_pool.size() + s.det_tests.size());
  for (const std::uint32_t t : s.useful_pool) tests.push_back(pool[t]);
  for (const ShardDetTest& d : s.det_tests) tests.push_back(d.test);
  if (assigned > 0) {
    detail::RepSubset subset(assigned);
    for (std::size_t j = 0; j < assigned; ++j)
      subset[j] = global_of(static_cast<std::uint32_t>(j));
    s.local_matrix = ctx.matrix(sched, tests, subset);
  } else {
    s.local_matrix = DetectionMatrix{};
  }
  s.has_matrix = true;
  matrix_span.close();
  if (!flush(ShardPhase::kDone))
    return fail(ShardRunStatus::kError, path + ": " + err);
  progress.emit(make_heartbeat(s, sopt, "done", ckpt_seq, t0));

  ShardRunResult out;
  out.status = ShardRunStatus::kDone;
  out.state = std::move(s);
  return out;
}

}  // namespace obd::flow
