// obd_atpg — end-to-end ATPG campaign driver for ISCAS `.bench` (and
// BLIF-flavoured `.netlist`) circuits.
//
// Usage:
//   obd_atpg <circuit.bench> [options]
//
// Options:
//   --model stuck|transition|obd   fault model (default stuck)
//   --scan-style enhanced|loc|loc-held
//                                  scan application style for sequential
//                                  designs (default enhanced; the LOC
//                                  styles need --model obd)
//   --threads N                    fault-sim worker threads (default 1)
//   --lanes 64|128|256|512         pattern lanes per simulation block
//                                  (default 64; wider blocks run the SIMD
//                                  LaneBlock kernels, results identical)
//   --random N                     random prepass patterns (default 2048)
//   --seed S                       PRNG seed (default 0x0bd5eed)
//   --backtracks N                 PODEM backtrack budget (default 100000)
//   --podem-time S                 wall-clock budget per fault search,
//                                  seconds (default 0 = off; nonzero
//                                  forfeits cross-run determinism — time
//                                  aborts are re-attempted on --resume)
//   --sat-escalate                 escalate PODEM backtrack-limit aborts
//                                  to the embedded SAT backend: each abort
//                                  becomes a validated test cube or a
//                                  proven-untestable verdict (provable
//                                  coverage); deterministic, so the
//                                  matrix_hash contract is preserved
//   --sat-conflict-budget N        CDCL conflicts per SAT solver call
//                                  (default 100000; 0 = unlimited). The
//                                  escalation tail shares one incremental
//                                  SAT session: good circuit encoded once,
//                                  learned clauses kept across faults
//   --ndetect N                    grow an n-detect set (obd model only)
//   --no-compact                   skip greedy set-cover compaction
//   --report FILE.json             write the JSON report (atomically:
//                                  temp + fsync + rename)
//   --min-coverage F               exit 2 unless coverage >= F (CI gate)
//   --write-bench FILE             re-emit the parsed netlist as .bench
//   --quiet                        suppress the summary table and warnings
//                                  (errors still print)
//   --verbose                      debug-level progress logging on stderr
//
// Observability:
//   --trace FILE                   record a Chrome/Perfetto trace: campaign
//                                  phase spans, per-worker scheduler
//                                  tracks, and (with --shards) one stitched
//                                  per-shard process track per child. Load
//                                  the file in ui.perfetto.dev. Shard
//                                  children (--shard) write an NDJSON
//                                  fragment instead; the supervisor
//                                  stitches the fragments. Tracing never
//                                  perturbs results: matrix_hash is
//                                  bit-identical with tracing on or off
//   --progress                     live progress: shard children append
//                                  heartbeat NDJSON records next to their
//                                  checkpoints and the supervisor emits
//                                  aggregated {"event":"status",...} lines
//                                  with an ETA on stderr; heartbeat growth
//                                  also counts as liveness for the
//                                  --shard-timeout watchdog
//   --progress-interval S          heartbeat/status cadence (default 1.0)
//
// Crash-tolerant sharded campaigns (a one-shot run is the same executor
// on one in-memory shard, so the merged report matches it by construction):
//   --shards N                     supervise N shard child processes and
//                                  merge their checkpoints (bit-identical
//                                  to the one-shot run; exit 3 when shards
//                                  were quarantined and the report is
//                                  partial)
//   --shard I/N                    run as shard I of N (normally spawned
//                                  by --shards, not by hand)
//   --checkpoint-dir DIR           shard checkpoint directory (required
//                                  for --shards / --shard)
//   --resume                       continue from committed checkpoints
//                                  (a checkpoint taken on different
//                                  netlist content or options is rejected
//                                  and its shard re-runs fresh)
//   --shard-timeout S              per-attempt watchdog deadline, seconds
//   --max-retries N                retries before quarantining a shard
//                                  (default 2)
//   --shard-jobs N                 concurrent shard processes (default N)
//   --inject SPEC                  deterministic fault injection (see
//                                  src/flow/inject.hpp; FLOW_FAULT_INJECT
//                                  env is the fallback)
//   --help, -h                     print usage to stdout and exit 0
//
// SIGINT/SIGTERM checkpoint in-flight shards and exit 75 (EX_TEMPFAIL);
// rerunning with --resume continues where the campaign stopped.
//
// Results are bit-identical across --threads and --lanes settings; the
// report's matrix_hash field is the witness.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include <chrono>

#include "flow/campaign.hpp"
#include "flow/inject.hpp"
#include "flow/shard.hpp"
#include "flow/supervisor.hpp"
#include "io/bench.hpp"
#include "obs/log.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/io.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace {

using namespace obd;

volatile std::sig_atomic_t g_stop = 0;

void on_stop_signal(int) { g_stop = 1; }

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s <circuit.bench> [--model stuck|transition|obd] "
               "[--scan-style enhanced|loc|loc-held]\n"
               "       [--threads N] [--lanes 64|128|256|512] "
               "[--random N] [--seed S]\n"
               "       [--backtracks N] [--podem-time S] [--sat-escalate] "
               "[--sat-conflict-budget N] [--ndetect N]\n"
               "       [--no-compact] [--report FILE.json] "
               "[--min-coverage F] [--write-bench FILE] [--quiet] "
               "[--verbose]\n"
               "       [--trace FILE] [--progress] [--progress-interval S]\n"
               "       [--shards N | --shard I/N] [--checkpoint-dir DIR] "
               "[--resume] [--shard-timeout S]\n"
               "       [--max-retries N] [--shard-jobs N] [--inject SPEC]\n"
               "       [--help | -h]\n",
               argv0);
}

int usage(const char* argv0) {
  print_usage(stderr, argv0);
  return 1;
}

bool parse_long(const char* s, long long& out) {
  char* end = nullptr;
  out = std::strtoll(s, &end, 0);
  return end && *end == '\0';
}

bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end && end != s && *end == '\0';
}

/// "I/N" for --shard.
bool parse_shard_spec(const char* s, int& index, int& count) {
  long long i = 0, n = 0;
  const char* slash = std::strchr(s, '/');
  if (!slash) return false;
  const std::string left(s, slash - s);
  if (!parse_long(left.c_str(), i) || !parse_long(slash + 1, n)) return false;
  if (n < 1 || i < 0 || i >= n) return false;
  index = static_cast<int>(i);
  count = static_cast<int>(n);
  return true;
}

/// Path of this executable, for spawning shard children.
std::string self_exe(const char* argv0) {
#if defined(__linux__)
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
#endif
  return argv0;
}

bool write_report(const std::string& path, const flow::CampaignReport& r) {
  std::string err;
  if (!util::write_file_atomic(path, flow::report_json(r), &err)) {
    obs::logf(obs::LogLevel::kError, "cannot write %s: %s", path.c_str(),
              err.c_str());
    return false;
  }
  return true;
}

/// Serializes the recorder: a complete Chrome trace JSON for one-shot and
/// supervisor runs, an NDJSON fragment for shard children (the supervisor
/// stitches those into its own document).
bool write_trace(const std::string& path, bool fragment) {
  std::string err;
  if (!util::write_file_atomic(path,
                               fragment
                                   ? obs::Recorder::instance().to_ndjson()
                                   : obs::Recorder::instance().to_json(),
                               &err)) {
    obs::logf(obs::LogLevel::kError, "cannot write trace %s: %s", path.c_str(),
              err.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path, report_path, write_bench_path;
  flow::CampaignOptions opt;
  flow::SupervisorOptions sup;
  double min_coverage = -1.0;
  bool quiet = false;
  bool verbose = false;
  bool resume = false;
  bool progress = false;
  double progress_interval_s = 1.0;
  std::string trace_path;
  int shard_index = -1, shard_count = 0;  // --shard I/N
  int shards = 0;                         // --shards N (supervisor)
  std::string checkpoint_dir, inject_spec;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    long long n = 0;
    if (a == "--help" || a == "-h") {
      print_usage(stdout, argv[0]);
      return 0;
    } else if (a == "--model") {
      if (!flow::fault_model_from_string(value("--model"), opt.model)) {
        obs::logf(obs::LogLevel::kError, "unknown model '%s'", argv[i]);
        return 1;
      }
    } else if (a == "--scan-style") {
      if (!flow::scan_style_from_string(value("--scan-style"),
                                        opt.scan_style)) {
        obs::logf(obs::LogLevel::kError, "unknown scan style '%s'", argv[i]);
        return 1;
      }
    } else if (a == "--threads") {
      if (!parse_long(value("--threads"), n) || n < 1) return usage(argv[0]);
      opt.sim.threads = static_cast<int>(n);
    } else if (a == "--lanes") {
      if (!parse_long(value("--lanes"), n) ||
          (n != 64 && n != 128 && n != 256 && n != 512)) {
        obs::logf(obs::LogLevel::kError,
                  "--lanes must be 64, 128, 256, or 512");
        return 1;
      }
      opt.sim.lane_words = static_cast<int>(n / 64);
    } else if (a == "--random") {
      if (!parse_long(value("--random"), n) || n < 0) return usage(argv[0]);
      opt.random_patterns = static_cast<int>(n);
    } else if (a == "--seed") {
      if (!parse_long(value("--seed"), n)) return usage(argv[0]);
      opt.seed = static_cast<std::uint64_t>(n);
    } else if (a == "--backtracks") {
      if (!parse_long(value("--backtracks"), n) || n < 0) return usage(argv[0]);
      opt.max_backtracks = static_cast<long>(n);
    } else if (a == "--podem-time") {
      if (!parse_double(value("--podem-time"), opt.podem_time_budget_s) ||
          opt.podem_time_budget_s < 0.0) {
        obs::logf(obs::LogLevel::kError,
                  "--podem-time needs a non-negative seconds value");
        return 1;
      }
    } else if (a == "--sat-escalate") {
      opt.sat_escalate = true;
    } else if (a == "--sat-conflict-budget") {
      if (!parse_long(value("--sat-conflict-budget"), n) || n < 0)
        return usage(argv[0]);
      opt.sat_conflict_budget = n;
    } else if (a == "--ndetect") {
      if (!parse_long(value("--ndetect"), n) || n < 0) return usage(argv[0]);
      opt.ndetect = static_cast<int>(n);
    } else if (a == "--no-compact") {
      opt.compact = false;
    } else if (a == "--report") {
      report_path = value("--report");
    } else if (a == "--min-coverage") {
      // Strict parse: a typo here must not silently disable a CI gate.
      if (!parse_double(value("--min-coverage"), min_coverage) ||
          min_coverage < 0.0 || min_coverage > 1.0) {
        obs::logf(obs::LogLevel::kError,
                  "--min-coverage needs a fraction in [0, 1]");
        return 1;
      }
    } else if (a == "--write-bench") {
      write_bench_path = value("--write-bench");
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--verbose") {
      verbose = true;
    } else if (a == "--trace") {
      trace_path = value("--trace");
    } else if (a == "--progress") {
      progress = true;
    } else if (a == "--progress-interval") {
      if (!parse_double(value("--progress-interval"), progress_interval_s) ||
          progress_interval_s <= 0.0) {
        obs::logf(obs::LogLevel::kError,
                  "--progress-interval needs positive seconds");
        return 1;
      }
    } else if (a == "--shard") {
      if (!parse_shard_spec(value("--shard"), shard_index, shard_count)) {
        obs::logf(obs::LogLevel::kError, "--shard needs I/N with 0 <= I < N");
        return 1;
      }
    } else if (a == "--shards") {
      if (!parse_long(value("--shards"), n) || n < 1) return usage(argv[0]);
      shards = static_cast<int>(n);
    } else if (a == "--checkpoint-dir") {
      checkpoint_dir = value("--checkpoint-dir");
    } else if (a == "--resume") {
      resume = true;
    } else if (a == "--shard-timeout") {
      if (!parse_double(value("--shard-timeout"), sup.shard_timeout_s) ||
          sup.shard_timeout_s < 0.0) {
        obs::logf(obs::LogLevel::kError,
                  "--shard-timeout needs non-negative seconds");
        return 1;
      }
    } else if (a == "--max-retries") {
      if (!parse_long(value("--max-retries"), n) || n < 0) return usage(argv[0]);
      sup.max_retries = static_cast<int>(n);
    } else if (a == "--shard-jobs") {
      if (!parse_long(value("--shard-jobs"), n) || n < 1) return usage(argv[0]);
      sup.jobs = static_cast<int>(n);
    } else if (a == "--inject") {
      inject_spec = value("--inject");
    } else if (!a.empty() && a[0] == '-') {
      obs::logf(obs::LogLevel::kError, "unknown option '%s'", a.c_str());
      return usage(argv[0]);
    } else if (path.empty()) {
      path = a;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);
  if (shards > 0 && shard_index >= 0) {
    obs::logf(obs::LogLevel::kError,
              "--shards and --shard are mutually exclusive");
    return 1;
  }
  if (inject_spec.empty())
    if (const char* env = std::getenv("FLOW_FAULT_INJECT")) inject_spec = env;
  obs::set_log_level(verbose ? obs::LogLevel::kDebug
                             : quiet ? obs::LogLevel::kError
                                     : obs::LogLevel::kWarn);

  // Recorder setup before any instrumented work. Shard children record on
  // their own process track (pid shard+1 — the supervisor owns pid 0) and
  // dump an NDJSON fragment the parent stitches.
  if (!trace_path.empty()) {
    if (shard_index >= 0)
      obs::Recorder::instance().enable(
          shard_index + 1, "shard " + std::to_string(shard_index));
    else
      obs::Recorder::instance().enable(0, shards > 0 ? "supervisor"
                                                     : "obd_atpg");
    obs::Recorder::instance().set_thread_name("main");
  }

  const auto t_parse = std::chrono::steady_clock::now();
  obs::Span parse_span("parse", "io");
  const io::BenchParseResult parsed = io::load_bench_file(path);
  parse_span.close();
  const double parse_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_parse)
          .count();
  if (!parsed.ok) {
    obs::logf(obs::LogLevel::kError, "%s: %s", path.c_str(),
              parsed.error.c_str());
    return 1;
  }
  obs::logf(obs::LogLevel::kDebug, "parsed %s in %.3fs", path.c_str(), parse_s);
  if (!write_bench_path.empty()) {
    std::ofstream out(write_bench_path);
    if (!out) {
      obs::logf(obs::LogLevel::kError, "cannot write %s",
                write_bench_path.c_str());
      return 1;
    }
    out << io::write_bench(parsed.seq);
  }

  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);

  // --- Shard child mode: run one fault partition, checkpointed ----------
  if (shard_index >= 0) {
    flow::FaultInjector& inj = flow::FaultInjector::instance();
    std::string ierr;
    if (!inj.configure(inject_spec, &ierr)) {
      obs::logf(obs::LogLevel::kError, "%s", ierr.c_str());
      return 1;
    }
    long long attempt = 0;
    if (const char* env = std::getenv("FLOW_SHARD_ATTEMPT"))
      parse_long(env, attempt);
    inj.set_context(shard_index, static_cast<int>(attempt));

    flow::ShardRunOptions so;
    so.checkpoint_dir = checkpoint_dir;
    so.shard_index = static_cast<std::uint32_t>(shard_index);
    so.shard_count = static_cast<std::uint32_t>(shard_count);
    so.resume = resume;
    so.stop = &g_stop;
    if (progress && !checkpoint_dir.empty()) {
      so.progress_path = obs::progress_path(checkpoint_dir, shard_index);
      so.progress_interval_s = progress_interval_s;
    }
    const flow::ShardRunResult rr =
        flow::run_campaign_shard(parsed.seq, opt, so);
    // The fragment is written on every exit path — an interrupted or failed
    // attempt's spans are still worth seeing in the stitched trace.
    if (!trace_path.empty()) write_trace(trace_path, /*fragment=*/true);
    switch (rr.status) {
      case flow::ShardRunStatus::kDone:
        if (!quiet)
          std::printf("shard %d/%d done: %zu faults, %zu tests\n",
                      shard_index, shard_count, rr.state.status.size(),
                      rr.state.useful_pool.size() + rr.state.det_tests.size());
        return 0;
      case flow::ShardRunStatus::kInterrupted:
        obs::logf(obs::LogLevel::kError, "shard %d/%d: %s", shard_index,
                  shard_count, rr.error.c_str());
        return 75;  // EX_TEMPFAIL: resume to continue
      case flow::ShardRunStatus::kBadCheckpoint:
        obs::logf(obs::LogLevel::kError, "shard %d/%d: %s", shard_index,
                  shard_count, rr.error.c_str());
        return 71;  // supervisor deletes the checkpoint and retries fresh
      case flow::ShardRunStatus::kError:
        obs::logf(obs::LogLevel::kError, "shard %d/%d: %s", shard_index,
                  shard_count, rr.error.c_str());
        return 1;
    }
    return 1;
  }

  // --- Supervisor mode: sharded campaign with retry + merge -------------
  if (shards > 0) {
    sup.shards = shards;
    sup.checkpoint_dir = checkpoint_dir;
    sup.resume = resume;
    sup.inject_spec = inject_spec;
    sup.child_exe = self_exe(argv[0]);
    sup.circuit_path = path;
    sup.stop = &g_stop;
    sup.trace = !trace_path.empty();
    sup.progress = progress;
    sup.progress_interval_s = progress_interval_s;
    flow::SupervisorResult sr =
        flow::run_supervised_campaign(parsed.seq, opt, sup);
    sr.report.time.parse_s = parse_s;
    sr.report.time.total_s += parse_s;
    for (const flow::ShardAttempt& at : sr.attempts)
      if (at.outcome != flow::ShardOutcome::kClean)
        obs::logf(obs::LogLevel::kWarn, "shard %d attempt %d: %s%s%s",
                  at.shard, at.attempt, to_string(at.outcome),
                  at.detail.empty() ? "" : " — ", at.detail.c_str());
    if (!trace_path.empty()) write_trace(trace_path, /*fragment=*/false);
    if (!quiet) flow::print_report(sr.report);
    if (!report_path.empty() && !write_report(report_path, sr.report))
      return 1;
    if (sr.interrupted) return 75;
    if (!sr.report.ok()) {
      obs::logf(obs::LogLevel::kError, "%s", sr.report.error.c_str());
      return 1;
    }
    if (sr.report.partial) {
      std::string q;
      for (const int s : sr.report.quarantined_shards)
        q += (q.empty() ? "" : ", ") + std::to_string(s);
      obs::logf(obs::LogLevel::kError,
                "partial result: shard(s) %s quarantined after retries",
                q.c_str());
      return 3;
    }
    if (min_coverage >= 0.0 && sr.report.coverage < min_coverage) {
      obs::logf(obs::LogLevel::kError,
                "coverage %.4f below --min-coverage %.4f", sr.report.coverage,
                min_coverage);
      return 2;
    }
    return 0;
  }

  // --- One-shot campaign ------------------------------------------------
  flow::CampaignReport report = flow::run_campaign(parsed.seq, opt);
  report.time.parse_s = parse_s;
  report.time.total_s += parse_s;
  if (!trace_path.empty()) write_trace(trace_path, /*fragment=*/false);
  if (!quiet) flow::print_report(report);
  if (!report_path.empty() && !write_report(report_path, report)) return 1;
  if (!report.ok()) {
    obs::logf(obs::LogLevel::kError, "%s", report.error.c_str());
    return 1;
  }
  if (min_coverage >= 0.0 && report.coverage < min_coverage) {
    obs::logf(obs::LogLevel::kError, "coverage %.4f below --min-coverage %.4f",
              report.coverage, min_coverage);
    return 2;
  }
  return 0;
}
