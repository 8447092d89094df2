// End-to-end OBD campaign benchmark: runs one named workload closed-loop
// (one client, campaigns back to back) through the public campaign entry
// points, checks every campaign's outputs, and prints one JSON result line.
//
//   campaign_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --out-dir DIR [--smoke]
//
// --trace 0 prints the end-to-end metrics, timings scaled to the reference
// host's speed by the host kernel (host_kernel.hpp); --trace 1 runs the
// outside-in layer probe (probe.hpp) next to untraced campaigns and prints
// the per-layer metrics, writing the spans to DIR as Chrome/Perfetto JSON.
// Metric definitions are in README.md next to this file.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "flow/campaign.hpp"
#include "flow/campaign_detail.hpp"
#include "flow/supervisor.hpp"
#include "host_kernel.hpp"
#include "io/bench.hpp"
#include "multiplier.hpp"
#include "probe.hpp"

namespace {

namespace flow = obd::flow;
namespace cb = campaign_bench;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// CPUs this process may run on (the container's share, not the host's).
int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".";
  bool smoke = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v);
    else if (k == "--out-dir") a.out_dir = v;
    else return false;
  }
  return !a.workload.empty();
}

// ---------------------------------------------------------------------------
// Workloads

constexpr int kMultiplierBits = 32;
constexpr int kShards = 4;
/// Prepass pools per end-to-end run: round r uses CampaignOptions::seed =
/// seed * kPools + (r mod kPools), so one run averages over several pools
/// instead of timing one pool's luck.
constexpr int kPools = 8;
/// Set-up repetitions per circuit and round; setup_s is their median.
constexpr int kSetupReps = 3;

struct Workload {
  std::string name;
  flow::FaultModel model = flow::FaultModel::kObd;
  std::vector<std::string> circuits;  ///< corpus stems, or "mult32"
  int threads = 1;
  bool sharded = false;
  /// Traced runs also probe the shard layer (supervised child-process
  /// campaigns, in-process shards, checkpoints) on every circuit.
  bool shard_layer = false;
  /// The workload's campaigns are themselves the reference configuration
  /// (one-shot, one thread), so each pool's first campaign is its reference.
  bool self_reference() const { return threads == 1 && !sharded; }
};

bool make_workload(const std::string& name, int cpus, Workload& w) {
  w.name = name;
  if (name == "obd_topoff") {
    w.circuits = {"c2670", "c7552"};
    w.shard_layer = true;
  } else if (name == "obd_threads") {
    w.circuits = {"c2670", "c7552"};
    w.threads = cpus;
  } else if (name == "stuck_mult") {
    w.model = flow::FaultModel::kStuck;
    w.circuits = {"mult32"};
  } else if (name == "obd_sharded") {
    w.circuits = {"c7552"};
    w.sharded = true;
    w.shard_layer = true;
  } else {
    return false;
  }
  return true;
}

/// The workload's campaign options: OBD/stuck model, `--backtracks 20
/// --sat-escalate`, default 2048-pattern prepass.
flow::CampaignOptions campaign_options(const Workload& w) {
  flow::CampaignOptions opt;
  opt.model = w.model;
  opt.max_backtracks = 20;
  opt.sat_escalate = true;
  opt.sim.threads = w.threads;
  return opt;
}

// ---------------------------------------------------------------------------
// Inputs and set-up

struct Input {
  std::string name;
  std::string path;  ///< corpus file; empty for a generated netlist
  std::string text;  ///< generated .bench text
  obd::io::BenchParseResult parsed;
  std::vector<double> parse_s, context_s;
};

obd::io::BenchParseResult parse(const Input& in) {
  return in.path.empty() ? obd::io::parse_bench(in.text, in.name)
                         : obd::io::load_bench_file(in.path);
}

/// Timed set-ups, as a campaign's caller pays them: parse, then
/// make_context (lowering, validation, enumeration, collapse). Runs
/// kSetupReps times per round, so the samples spread over the run like the
/// campaigns'. Returns each repetition's seconds.
std::vector<double> time_setup(Input& in, const flow::CampaignOptions& opt,
                               cb::SpanLog& log) {
  std::vector<double> total;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const cb::ScopedSpan root(log, "setup", -1, 0, in.name);
    cb::ScopedSpan parse_span(log, "parse", root.id(), 0);
    const obd::io::BenchParseResult parsed = parse(in);
    in.parse_s.push_back(parse_span.close());
    cb::ScopedSpan context_span(log, "collapse", root.id(), 0);
    const flow::detail::CampaignContext ctx =
        flow::detail::make_context(parsed.seq, opt);
    in.context_s.push_back(context_span.close());
    total.push_back(in.parse_s.back() + in.context_s.back());
  }
  return total;
}

/// Generator checks: the multiplier multiplies, and write_bench ->
/// parse_bench is a fixpoint that keeps the function.
std::string check_generated(const Input& in, std::uint64_t seed) {
  std::string err = cb::check_multiplier(in.parsed.circuit(), kMultiplierBits, seed);
  if (!err.empty()) return "generated netlist: " + err;
  const std::string once = obd::io::write_bench(in.parsed.seq);
  const obd::io::BenchParseResult re = obd::io::parse_bench(once, in.name);
  if (!re.ok) return "write_bench output does not parse: " + re.error;
  if (obd::io::write_bench(re.seq) != once)
    return "write_bench -> parse_bench is not a fixpoint";
  err = cb::check_multiplier(re.circuit(), kMultiplierBits, seed);
  return err.empty() ? err : "round-tripped netlist: " + err;
}

// ---------------------------------------------------------------------------
// Campaign execution and output checks

struct Runner {
  const Workload& w;
  flow::CampaignOptions opt;
  std::vector<std::uint64_t> pool_seeds;
  std::string checkpoint_dir;
  int jobs = 1;

  flow::CampaignOptions options(std::size_t pool, int threads) const {
    flow::CampaignOptions o = opt;
    o.seed = pool_seeds[pool];
    o.sim.threads = threads;
    return o;
  }
  /// One campaign of the workload.
  flow::CampaignReport run(const Input& in, std::size_t pool) const {
    if (w.sharded) return run_supervised(in, pool);
    return flow::run_campaign(in.parsed.seq, options(pool, opt.sim.threads));
  }
  /// One campaign through run_supervised_campaign: kShards shard child
  /// processes, `jobs` at a time.
  flow::CampaignReport run_supervised(const Input& in, std::size_t pool) const {
    const flow::CampaignOptions o = options(pool, opt.sim.threads);
    flow::SupervisorOptions sup;
    sup.checkpoint_dir = checkpoint_dir;
    sup.shards = kShards;
    sup.jobs = jobs;
    sup.child_exe = OBD_ATPG_EXE;
    sup.circuit_path = in.path;
    return flow::run_supervised_campaign(in.parsed.seq, o, sup).report;
  }
};

/// The outputs the determinism contract fixes for a circuit and seed.
struct Verdict {
  std::uint64_t matrix_hash = 0;
  double coverage = 0.0;
  int tests_final = 0, aborted = 0, detected = 0, untestable = 0,
      sat_untestable = 0;
  bool operator==(const Verdict&) const = default;
};

Verdict verdict_of(const flow::CampaignReport& r) {
  return {r.matrix_hash, r.coverage,  r.tests_final,   r.aborted,
          r.detected,    r.untestable, r.sat_untestable};
}

/// Reference campaigns, [circuit][pool]: one-shot run_campaign, 1 thread.
/// In a self-referencing workload a slot stays empty until its pool first
/// runs.
using References =
    std::vector<std::vector<std::optional<flow::CampaignReport>>>;

struct Checker {
  long attempted = 0;
  long failed = 0;

  /// Counts one campaign; false (and a diagnostic) when it failed.
  bool check(const flow::CampaignReport& r, const Verdict& ref,
             const std::string& what) {
    std::string why;
    if (!r.ok()) why = "error: " + r.error;
    else if (r.partial) why = "partial report (quarantined shards)";
    else if (r.shard_retries > 0) why = "shard retries";
    else if (!(verdict_of(r) == ref)) why = "outputs differ from the reference";
    return expect(why.empty(), what + ": " + why);
  }
  /// Counts one checked operation; false (and a diagnostic) unless ok.
  bool expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return true;
    ++failed;
    std::fprintf(stderr, "campaign_bench: FAILED %s\n", what.c_str());
    return false;
  }
  bool fail(const std::string& what) { return expect(false, what); }
};

/// Peak resident memory of this process plus its live children, sampled:
/// the sharded workload's process tree. Children report their own peak
/// (VmHWM), so a child sampled at least once before it exits counts fully.
class TreeRssSampler {
 public:
  TreeRssSampler() : thread_([this] { loop(); }) {}
  ~TreeRssSampler() { stop(); }
  TreeRssSampler(const TreeRssSampler&) = delete;
  TreeRssSampler& operator=(const TreeRssSampler&) = delete;
  double stop() {
    if (thread_.joinable()) {
      stop_ = true;
      thread_.join();
    }
    return peak_kb_ / 1024.0;
  }

 private:
  static long status_kb(const std::string& path, const char* key) {
    std::ifstream in(path);
    std::string line;
    const std::size_t n = std::char_traits<char>::length(key);
    while (std::getline(in, line))
      if (line.compare(0, n, key) == 0) return std::atol(line.c_str() + n);
    return 0;
  }
  void loop() {
    const std::string self = std::to_string(getpid());
    const std::string children = "/proc/" + self + "/task/" + self + "/children";
    while (!stop_) {
      long kb = status_kb("/proc/self/status", "VmRSS:");
      std::ifstream in(children);
      long pid = 0;
      while (in >> pid)
        kb += status_kb("/proc/" + std::to_string(pid) + "/status", "VmHWM:");
      peak_kb_ = std::max(peak_kb_, static_cast<double>(kb));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  std::atomic<bool> stop_{false};
  double peak_kb_ = 0.0;
  std::thread thread_;  // declared last: starts after the fields it uses
};

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, const Checker& ck,
                  const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\": " << (correct && ck.failed == 0 ? "true" : "false")
    << ", \"attempted\": " << ck.attempted << ", \"failed\": " << ck.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    o << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
      << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  std::fflush(stderr);
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
}

void describe(const Input& in, const std::vector<double>& wall,
              const char* what) {
  std::vector<double> s = wall;
  std::sort(s.begin(), s.end());
  std::fprintf(stderr,
               "campaign_bench: %-7s %s: n=%zu median %.4f s, min %.4f, max %.4f\n",
               in.name.c_str(), what, s.size(), median(s),
               s.empty() ? 0.0 : s.front(), s.empty() ? 0.0 : s.back());
}

// ---------------------------------------------------------------------------
// End-to-end run (tracing off)

void run_end_to_end(const Args& a, const Runner& runner,
                    std::vector<Input>& inputs, References& refs,
                    cb::HostKernel& kernel, cb::SpanLog& log, Checker& ck) {
  const std::size_t n = inputs.size(), pools = runner.pool_seeds.size();
  std::unique_ptr<TreeRssSampler> sampler;
  if (runner.w.sharded) sampler = std::make_unique<TreeRssSampler>();

  // Host-kernel samples in time order, one before each round's set-ups and
  // one before each campaign. A timing taken between samples k and k + 1 is
  // scaled by their mean: wall x (reference kernel time / kernel time then).
  std::vector<double> kernel_s;
  struct Timing {
    double wall;
    std::size_t k;
  };
  auto tick = [&] {
    kernel_s.push_back(kernel.run());
    return kernel_s.size() - 1;
  };
  auto scaled = [&](const std::vector<Timing>& ts) {
    std::vector<double> out;
    for (const Timing& t : ts)
      out.push_back(t.wall * cb::HostKernel::kReferenceSeconds /
                    (0.5 * (kernel_s[t.k] + kernel_s[t.k + 1])));
    return out;
  };
  std::vector<std::vector<Timing>> wall(n), setup(n);
  const auto start = Clock::now();
  std::size_t round = 0;
  do {
    const std::size_t pool = round++ % pools;
    const std::size_t setup_k = tick();
    for (std::size_t c = 0; c < n; ++c)
      for (const double s : time_setup(inputs[c], runner.opt, log))
        setup[c].push_back({s, setup_k});
    for (std::size_t c = 0; c < n; ++c) {
      const std::size_t k = tick();
      const auto t0 = Clock::now();
      flow::CampaignReport r = runner.run(inputs[c], pool);
      wall[c].push_back({since(t0), k});
      std::optional<flow::CampaignReport>& ref = refs[c][pool];
      // A pool's first campaign becomes its reference only when it is sound.
      if (!ref && ck.check(r, verdict_of(r), inputs[c].name + " reference"))
        ref = std::move(r);
      else if (ref)
        ck.check(r, verdict_of(*ref), inputs[c].name);
    }
  } while (!a.smoke && since(start) < a.seconds);
  tick();
  ck.expect(kernel.stable(), "host kernel output changed between runs");

  // Timings: medians of the scaled samples. Result quality: from the
  // references, which every timed campaign was checked against.
  double med_scaled = 0.0, faults = 0.0, setup_s = 0.0, coverage = 0.0,
         tests_final = 0.0, aborted = 0.0, collapsed = 0.0;
  std::fprintf(stderr, "campaign_bench: host kernel: n=%zu median %.4f s (reference %.4f s)\n",
               kernel_s.size(), median(kernel_s), cb::HostKernel::kReferenceSeconds);
  for (std::size_t c = 0; c < n; ++c) {
    std::vector<double> raw;
    for (const Timing& t : wall[c]) raw.push_back(t.wall);
    describe(inputs[c], raw, "campaign");
    describe(inputs[c], scaled(wall[c]), "scaled  ");
    describe(inputs[c], inputs[c].parse_s, "parse   ");
    describe(inputs[c], inputs[c].context_s, "context ");
    med_scaled += median(scaled(wall[c]));
    setup_s += median(scaled(setup[c])) / static_cast<double>(n);
    double refs_run = 0.0, circuit_faults = 0.0, circuit_coverage = 0.0,
           circuit_tests = 0.0;
    for (const std::optional<flow::CampaignReport>& r : refs[c]) {
      if (!r) continue;
      refs_run += 1.0;
      circuit_faults += static_cast<double>(r->faults_collapsed);
      circuit_coverage += r->coverage;
      circuit_tests += r->tests_final;
      aborted += r->aborted;
      collapsed += static_cast<double>(r->faults_collapsed);
    }
    faults += ratio(circuit_faults, refs_run);
    coverage += ratio(circuit_coverage, refs_run) / static_cast<double>(n);
    tests_final += ratio(circuit_tests, refs_run);
  }
  double rss_mb = self_peak_rss_mb();
  if (sampler) rss_mb = std::max(rss_mb, sampler->stop());

  print_result(true, ck,
               {{"campaign_s", med_scaled / static_cast<double>(n), "s"},
                {"faults_per_s", ratio(faults, med_scaled), "1/s"},
                {"setup_s", setup_s, "s"},
                {"peak_rss_mb", rss_mb, "MB"},
                {"coverage", coverage, "ratio"},
                {"tests_final", tests_final, "count"},
                {"resolved_ratio", 1.0 - ratio(aborted, collapsed), "ratio"},
                {"ok_ratio", 1.0 - ratio(ck.failed, ck.attempted), "ratio"}});
}

// ---------------------------------------------------------------------------
// Traced run: untraced campaigns interleaved with the outside-in probe

struct LayerSamples {
  std::vector<double> oneshot, campaign, collapse, prepass, generate,
      sat, matrix, compact, span_coverage, cone_peak, cone_resident, frontier,
      fault_block_evals, supervised, shard_max, shard_mean, ckpt_bytes,
      ckpt_save;
  cb::ProbeResult last;  ///< counts: deterministic once the verdicts match
  int wasted = 0;
};

void run_traced(const Args& a, const Runner& runner,
                std::vector<Input>& inputs, const References& refs,
                cb::HostKernel& kernel, cb::SpanLog& log, Checker& ck) {
  const std::size_t n = inputs.size();
  std::vector<LayerSamples> ls(n);
  std::vector<double> call_s, kernel_s;
  bool match = true;
  // One pool; the probe is one-shot, with the workload's thread count (a
  // sharded workload's: that of its shards).
  const flow::CampaignOptions popt = runner.options(0, runner.opt.sim.threads);
  int campaign_id = 0, round = 0;
  const auto start = Clock::now();
  do {
    kernel_s.push_back(kernel.run());
    for (Input& in : inputs) time_setup(in, runner.opt, log);
    for (std::size_t c = 0; c < n; ++c) {
      const Input& in = inputs[c];
      LayerSamples& s = ls[c];
      const Verdict ref = verdict_of(*refs[c][0]);
      auto t0 = Clock::now();
      const flow::CampaignReport r = runner.run(in, 0);
      const double untraced = since(t0);
      ck.check(r, ref, in.name + " untraced");
      if (runner.w.sharded) {
        s.supervised.push_back(untraced);
        t0 = Clock::now();
        const flow::CampaignReport one = flow::run_campaign(in.parsed.seq, popt);
        s.oneshot.push_back(since(t0));
        ck.check(one, ref, in.name + " one-shot");
      } else {
        s.oneshot.push_back(untraced);
        if (runner.w.shard_layer) {
          t0 = Clock::now();
          const flow::CampaignReport sup = runner.run_supervised(in, 0);
          s.supervised.push_back(since(t0));
          ck.check(sup, ref, in.name + " supervised");
        }
      }

      const cb::ProbeResult p =
          cb::probe_campaign(in.parsed.seq, popt, log, ++campaign_id, round == 0);
      const Verdict pv{p.matrix_hash,
                       ratio(p.detected, static_cast<double>(p.reps)),
                       p.tests_final,
                       p.aborted,
                       p.detected,
                       p.untestable,
                       p.sat_untestable};
      if (!ck.expect(p.error.empty() && pv == ref,
                     in.name + " probe verdicts differ from run_campaign " +
                         p.error))
        match = false;
      if (round == 0) s.wasted = p.wasted_calls;
      s.campaign.push_back(p.campaign_s);
      s.collapse.push_back(p.collapse_s);
      s.prepass.push_back(p.prepass_s);
      s.generate.push_back(p.generate_s);
      s.sat.push_back(p.sat_s);
      s.matrix.push_back(p.matrix_s);
      s.compact.push_back(p.compact_s);
      s.span_coverage.push_back(p.span_coverage);
      s.cone_peak.push_back(static_cast<double>(p.cone_peak_bytes));
      s.cone_resident.push_back(static_cast<double>(p.cone_resident));
      s.frontier.push_back(static_cast<double>(p.frontier_gate_evals));
      s.fault_block_evals.push_back(static_cast<double>(p.fault_block_evals));
      call_s.insert(call_s.end(), p.call_s.begin(), p.call_s.end());
      s.last = p;

      if (runner.w.shard_layer) {
        const cb::ShardProbeResult sp = cb::probe_shards(
            in.parsed.seq, popt, runner.checkpoint_dir + "-probe", kShards, log,
            ++campaign_id);
        if (!sp.error.empty()) {
          ck.fail(in.name + " shard probe: " + sp.error);
          match = false;
          continue;
        }
        if (!ck.check(sp.merged, ref, in.name + " shard probe merge"))
          match = false;
        double mx = 0.0, sum = 0.0;
        for (const double t : sp.shard_s) {
          mx = std::max(mx, t);
          sum += t;
        }
        s.shard_max.push_back(mx);
        s.shard_mean.push_back(sum / static_cast<double>(sp.shard_s.size()));
        s.ckpt_bytes.push_back(static_cast<double>(sp.checkpoint_bytes));
        s.ckpt_save.push_back(sp.checkpoint_save_s);
      }
    }
    ++round;
  } while (!a.smoke && since(start) < a.seconds);
  ck.expect(kernel.stable(), "host kernel output changed between runs");

  // Per-layer values are per workload round: medians per circuit, summed
  // over the workload's circuits; counts are exact per circuit and summed.
  auto sum_med = [&](std::vector<double> LayerSamples::*f) {
    double t = 0.0;
    for (const LayerSamples& s : ls) t += median(s.*f);
    return t;
  };
  auto sum_count = [&](auto get) {
    double t = 0.0;
    for (const LayerSamples& s : ls) t += static_cast<double>(get(s.last));
    return t;
  };
  double parse_s = 0.0, gates = 0.0, wasted = 0.0, fault_tests = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    parse_s += median(inputs[c].parse_s);
    gates += static_cast<double>(inputs[c].parsed.circuit().num_gates());
    wasted += ls[c].wasted;
    fault_tests += static_cast<double>(ls[c].last.matrix_tests) *
                   static_cast<double>(ls[c].last.reps);
    describe(inputs[c], ls[c].oneshot, "untraced");
    describe(inputs[c], ls[c].campaign, "probe   ");
  }
  std::vector<double> span_cov;
  for (const LayerSamples& s : ls)
    span_cov.insert(span_cov.end(), s.span_coverage.begin(),
                    s.span_coverage.end());
  const double shard_max = sum_med(&LayerSamples::shard_max);

  std::vector<Metric> m = {
      {"io.parse_s", parse_s, "s"},
      {"io.gates", gates, "count"},
      {"collapse.s", sum_med(&LayerSamples::collapse), "s"},
      {"collapse.faults", sum_count([](const auto& p) { return p.faults_total; }), "count"},
      {"collapse.reps", sum_count([](const auto& p) { return p.reps; }), "count"},
      {"prepass.s", sum_med(&LayerSamples::prepass), "s"},
      {"prepass.kept_ratio",
       ratio(sum_count([](const auto& p) { return p.kept; }),
             sum_count([](const auto& p) { return p.pool; })),
       "ratio"},
      {"prepass.dropped", sum_count([](const auto& p) { return p.dropped; }), "count"},
      {"prepass.fault_block_evals", sum_med(&LayerSamples::fault_block_evals), "count"},
      {"sim.cone_peak_bytes", sum_med(&LayerSamples::cone_peak), "bytes"},
      {"sim.cone_resident", sum_med(&LayerSamples::cone_resident), "count"},
      {"sim.frontier_gate_evals", sum_med(&LayerSamples::frontier), "count"},
      {"topoff.s", sum_med(&LayerSamples::generate), "s"},
      {"topoff.calls", sum_count([](const auto& p) { return p.calls; }), "count"},
      {"topoff.found", sum_count([](const auto& p) { return p.found; }), "count"},
      {"topoff.call_s_p50", percentile(call_s, 0.5), "s"},
      {"topoff.call_s_p90", percentile(call_s, 0.9), "s"},
      {"topoff.implications", sum_count([](const auto& p) { return p.implications; }), "count"},
      {"topoff.backtracks", sum_count([](const auto& p) { return p.backtracks; }), "count"},
      {"topoff.wasted_calls", wasted, "count"},
      {"sat.s", sum_med(&LayerSamples::sat), "s"},
      {"sat.calls", sum_count([](const auto& p) { return p.sat_calls; }), "count"},
      {"sat.cubes", sum_count([](const auto& p) { return p.sat_cubes; }), "count"},
      {"sat.untestable", sum_count([](const auto& p) { return p.sat_untestable; }), "count"},
      {"sat.unknown", sum_count([](const auto& p) { return p.sat_unknown; }), "count"},
      {"sat.conflicts", sum_count([](const auto& p) { return p.sat_conflicts; }), "count"},
      {"matrix.s", sum_med(&LayerSamples::matrix), "s"},
      {"matrix.fault_tests_per_s", ratio(fault_tests, sum_med(&LayerSamples::matrix)), "1/s"},
      {"compact.s", sum_med(&LayerSamples::compact), "s"},
      {"compact.tests_in", sum_count([](const auto& p) { return p.matrix_tests; }), "count"},
      {"compact.tests_out", sum_count([](const auto& p) { return p.tests_final; }), "count"},
      {"shard.run_s_max", shard_max, "s"},
      {"shard.imbalance", ratio(shard_max, sum_med(&LayerSamples::shard_mean)), "ratio"},
      {"checkpoint.bytes", sum_med(&LayerSamples::ckpt_bytes), "bytes"},
      {"checkpoint.save_s", sum_med(&LayerSamples::ckpt_save), "s"},
      {"supervisor.overhead_s",
       runner.w.shard_layer ? sum_med(&LayerSamples::supervised) - shard_max : 0.0,
       "s"},
      {"probe.campaign_s", sum_med(&LayerSamples::campaign), "s"},
      {"probe.span_coverage", median(span_cov), "ratio"},
      {"probe.overhead",
       ratio(sum_med(&LayerSamples::campaign), sum_med(&LayerSamples::oneshot)) - 1.0,
       "ratio"},
      {"probe.hash_match", match ? 1.0 : 0.0, "bool"},
      {"host.kernel_s", median(kernel_s), "s"},
  };
  // A probe that does not reproduce run_campaign measured something else:
  // withhold its numbers rather than publish them.
  if (!match)
    for (Metric& x : m)
      if (x.name != "probe.hash_match") x.value = 0.0;

  const std::string trace = a.out_dir + "/trace-" + runner.w.name + "-seed" +
                            std::to_string(a.seed) + ".json";
  if (log.write_chrome_json(trace))
    std::fprintf(stderr, "campaign_bench: spans written to %s\n", trace.c_str());
  else
    ck.fail("cannot write " + trace);
  print_result(match, ck, m);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: campaign_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR [--smoke]\n");
    return 2;
  }
  const int cpus = available_cpus();
  Workload w;
  if (!make_workload(a.workload, cpus, w)) {
    std::fprintf(stderr, "campaign_bench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(a.out_dir, ec);

  const flow::CampaignOptions opt = campaign_options(w);
  const int pools = a.trace || a.smoke ? 1 : kPools;
  std::vector<std::uint64_t> pool_seeds;
  for (int k = 0; k < pools; ++k) pool_seeds.push_back(a.seed * kPools + k);
  const Runner runner{
      w, opt, pool_seeds,
      a.out_dir + "/ckpt-" + w.name + "-" + std::to_string(getpid()),
      std::min(kShards, cpus)};

  std::vector<Input> inputs;
  for (const std::string& name : w.circuits) {
    Input in;
    in.name = name;
    if (name == "mult32") {
      in.text = cb::array_multiplier_bench(kMultiplierBits, a.seed);
      std::fprintf(stderr, "campaign_bench: mult32 seed %llu netlist hash 0x%016llx\n",
                   static_cast<unsigned long long>(a.seed),
                   static_cast<unsigned long long>(cb::fnv1a64(in.text)));
    } else {
      in.path = std::string(OBD_CORPUS_DIR) + "/" + name + ".bench";
    }
    inputs.push_back(std::move(in));
  }

  for (Input& in : inputs) {
    in.parsed = parse(in);
    if (!in.parsed.ok) {
      std::fprintf(stderr, "campaign_bench: %s: %s\n", in.name.c_str(),
                   in.parsed.error.c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "campaign_bench: workload %s, seed %llu, %d pool(s), %d thread(s)%s, "
               "cpus %d\n",
               w.name.c_str(), static_cast<unsigned long long>(a.seed), pools,
               w.threads, w.sharded ? ", 4 shards as child processes" : "", cpus);

  // References: a one-shot, one-thread run_campaign per circuit and pool.
  // Every workload campaign must reproduce its reference, which also ties
  // obd_threads and obd_sharded to obd_topoff's results at equal seeds. They
  // run untimed, before the timed rounds, and warm the caches. A
  // self-referencing workload runs only pool 0's here and adopts each other
  // pool's first timed campaign.
  Checker ck;
  References refs(inputs.size());
  for (std::size_t c = 0; c < inputs.size(); ++c) {
    const Input& in = inputs[c];
    if (!in.text.empty()) {
      const std::string err = check_generated(in, a.seed);
      if (!err.empty()) ck.fail(err);
    }
    refs[c].resize(pool_seeds.size());
    const std::size_t upfront = w.self_reference() ? 1 : pool_seeds.size();
    for (std::size_t k = 0; k < upfront; ++k) {
      flow::CampaignReport r = flow::run_campaign(in.parsed.seq, runner.options(k, 1));
      ck.expect(r.ok() && !r.partial, in.name + " reference: " + r.error);
      refs[c][k] = std::move(r);
    }
  }

  cb::SpanLog log;
  cb::HostKernel kernel(cb::array_multiplier_bench(kMultiplierBits, 1));
  if (a.trace) run_traced(a, runner, inputs, refs, kernel, log, ck);
  else run_end_to_end(a, runner, inputs, refs, kernel, log, ck);

  std::filesystem::remove_all(runner.checkpoint_dir, ec);
  std::filesystem::remove_all(runner.checkpoint_dir + "-probe", ec);
  return 0;
}
