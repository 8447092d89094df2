#include "flow/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>

#include "flow/campaign_detail.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

namespace obd::flow {
namespace {

using namespace obd::atpg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Copies the scheduler's aggregated frontier counters into the report
/// (taken after the last fault-sim call so prepass + matrix work is
/// included).
void fill_sim_stats(const FaultSimScheduler& sched, CampaignReport& r) {
  const atpg::SimStats s = sched.stats();
  r.propagations = s.propagations;
  r.frontier_events = s.frontier_events;
  r.frontier_gate_evals = s.frontier_gate_evals;
}

/// Shared campaign tail: detection matrix over the final test set, greedy
/// compaction, and the derived report fields.
void matrix_and_compact(const CampaignOptions& opt, std::size_t n_tests,
                        const std::function<DetectionMatrix()>& build,
                        CampaignReport& r) {
  const auto t0 = Clock::now();
  obs::Span matrix_span("matrix");
  const DetectionMatrix m = build();
  matrix_span.close();
  r.detected = m.covered_count;
  r.matrix_hash = detail::hash_matrix(m);
  r.time.matrix_s = seconds_since(t0);
  r.tests_final = static_cast<int>(n_tests);
  if (opt.compact && n_tests > 0) {
    const obs::Span span("compact");
    const auto t1 = Clock::now();
    r.tests_final = static_cast<int>(greedy_cover(m).size());
    r.time.compact_s = seconds_since(t1);
  }
}

/// Coverage over the collapsed representatives and over the provably
/// coverable ones (representatives minus PODEM- and SAT-proven untestable).
void fill_coverage(std::size_t n_reps, CampaignReport& r) {
  r.coverage =
      static_cast<double>(r.detected) / static_cast<double>(n_reps);
  const std::size_t provable =
      n_reps - static_cast<std::size_t>(r.untestable + r.sat_untestable);
  r.provable_coverage =
      provable == 0 ? 1.0
                    : static_cast<double>(r.detected) /
                          static_cast<double>(provable);
}

/// Materializes a representative subset; empty subset = the full list.
template <typename Fault>
std::vector<Fault> select_reps(const std::vector<Fault>& reps,
                               const detail::RepSubset& subset) {
  if (subset.empty()) return reps;
  std::vector<Fault> out;
  out.reserve(subset.size());
  for (const std::uint32_t i : subset) out.push_back(reps[i]);
  return out;
}

/// Launch-on-capture scan campaign (OBD model): the two-frame scan ATPG
/// generates machine-consistent (state, PI) tests, whose scan-view images
/// then feed the same matrix/compaction tail as the enhanced path. The
/// gross-delay semantics of matrix_obd on the scan view match
/// verify_scan_obd_test exactly because the LOC state coupling is already
/// baked into each test's frame-2 state.
void drive_loc_scan(const logic::SequentialCircuit& seq,
                    const CampaignOptions& opt, CampaignReport& r) {
  const auto t_total = Clock::now();
  const logic::SequentialCircuit prim = logic::decompose_composites(seq);
  const logic::Circuit view = prim.scan_view();
  detail::fill_structure(view, r);
  const std::string diag = prim.validate();
  if (!diag.empty()) {
    r.error = diag;
    return;
  }

  obs::Span collapse_span("collapse");
  const auto t0 = Clock::now();
  auto faults = enumerate_obd_faults(prim.core());
  r.faults_total = faults.size();
  const CollapsedFaults collapsed = collapse_obd_faults(prim.core(), faults);
  const std::vector<ObdFaultSite>& reps = collapsed.representatives;
  r.faults_collapsed = reps.size();
  r.time.collapse_s = seconds_since(t0);
  collapse_span.close();
  if (reps.empty()) {
    r.coverage = 1.0;
    r.provable_coverage = 1.0;
    r.time.total_s = seconds_since(t_total);
    return;
  }

  PodemOptions popt;
  popt.max_backtracks = opt.max_backtracks;
  popt.time_budget_s = opt.podem_time_budget_s;
  popt.sim = opt.sim;
  popt.random_phase = opt.random_patterns;
  popt.random_phase_seed = opt.seed;

  const auto t1 = Clock::now();
  const ScanCampaign sc = run_scan_obd_atpg(prim, reps, opt.scan_style, popt);
  r.tests_random = sc.random_tests;
  r.tests_deterministic = sc.found - sc.random_found;
  r.untestable = sc.untestable;
  r.aborted = sc.aborted;
  r.podem_implications = sc.implications;
  r.podem_backtracks = sc.backtracks;
  r.fault_block_evals = sc.fault_block_evals;
  r.time.random_s = sc.random_seconds;
  r.time.atpg_s = seconds_since(t1) - sc.random_seconds;

  // Matrix + compaction over the scan-view images of the LOC tests.
  std::vector<TwoVectorTest> vectors;
  vectors.reserve(sc.tests.size());
  for (const ScanObdTest& t : sc.tests)
    vectors.push_back(scan_view_vectors(prim, t));
  FaultSimScheduler sched(view, opt.sim);
  matrix_and_compact(opt, vectors.size(),
                     [&] { return sched.matrix_obd(vectors, reps); }, r);
  fill_sim_stats(sched, r);
  r.metrics = obs::snapshot(sched.merged_metrics());
  fill_coverage(reps.size(), r);
  r.time.total_s = seconds_since(t_total);
}

}  // namespace

namespace detail {

std::uint64_t hash_matrix(const DetectionMatrix& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a(h, m.n_tests);
  h = fnv1a(h, m.n_faults);
  for (std::uint64_t w : m.rows) h = fnv1a(h, w);
  return h;
}

void fill_structure(const logic::Circuit& view, CampaignReport& r) {
  r.gates = view.num_gates();
  r.nets = view.num_nets();
  r.pis = view.inputs().size();
  r.pos = view.outputs().size();
  r.depth = view.depth();
}

std::vector<TwoVectorTest> random_pool(const logic::Circuit& view,
                                       const CampaignOptions& opt) {
  if (opt.random_patterns <= 0) return {};
  std::vector<TwoVectorTest> pool = random_pairs(
      static_cast<int>(view.inputs().size()), opt.random_patterns, opt.seed);
  if (opt.model == FaultModel::kStuck)
    for (auto& t : pool) t.v1 = t.v2;  // single-vector application
  return pool;
}

void init_report(const logic::SequentialCircuit& seq,
                 const CampaignOptions& opt, CampaignReport& r) {
  r.model = opt.model;
  r.threads = opt.sim.threads;
  r.lanes = 64 * std::max(1, opt.sim.lane_words);
  r.scan = !seq.flops().empty();
  r.flops = seq.flops().size();
  r.circuit = seq.core().name();
}

void merge_states(const CampaignContext& ctx, const CampaignOptions& opt,
                  FaultSimScheduler& sched,
                  const std::vector<TwoVectorTest>& pool,
                  const std::vector<const ShardState*>& states,
                  std::uint32_t shard_count, CampaignReport& r) {
  const auto t_total = Clock::now();
  r.faults_total = ctx.faults_total;
  r.faults_collapsed = ctx.n_reps;
  r.time.collapse_s = ctx.collapse_s;
  if (ctx.n_reps == 0) {
    r.coverage = 1.0;
    r.provable_coverage = 1.0;
    r.time.total_s = seconds_since(t_total) + ctx.collapse_s;
    return;
  }

  // Pool tests that first-detected a fault in any shard, in pool order.
  std::vector<std::uint32_t> useful;
  for (const ShardState* s : states)
    useful.insert(useful.end(), s->useful_pool.begin(), s->useful_pool.end());
  std::sort(useful.begin(), useful.end());
  useful.erase(std::unique(useful.begin(), useful.end()), useful.end());

  // Deterministic tests (PODEM tests and SAT cubes) back in global
  // representative order.
  struct DetEntry {
    std::uint64_t global;
    const TwoVectorTest* test;
  };
  std::vector<DetEntry> det;
  for (const ShardState* s : states)
    for (const ShardDetTest& d : s->det_tests)
      det.push_back({s->shard_index +
                         static_cast<std::uint64_t>(d.local_index) *
                             shard_count,
                     &d.test});
  std::sort(det.begin(), det.end(),
            [](const DetEntry& a, const DetEntry& b) {
              return a.global < b.global;
            });

  std::vector<TwoVectorTest> tests;
  tests.reserve(useful.size() + det.size());
  for (const std::uint32_t t : useful) tests.push_back(pool[t]);
  for (const DetEntry& d : det) tests.push_back(*d.test);
  r.tests_random = static_cast<int>(useful.size());

  std::vector<std::uint64_t> aborted_globals;
  for (const ShardState* s : states) {
    r.fault_block_evals += s->fault_block_evals;
    r.sat_conflicts += s->sat_conflicts;
    r.sat_decisions += s->sat_decisions;
    r.sat_restarts += s->sat_restarts;
    r.podem_implications += s->podem_implications;
    r.podem_backtracks += s->podem_backtracks;
    for (std::size_t k = 0; k < s->sat_hist.size(); ++k)
      r.sat_conflicts_hist[k] += s->sat_hist[k];
    for (std::size_t j = 0; j < s->status.size(); ++j) {
      const auto record_abort = [&] {
        ++r.aborted;
        aborted_globals.push_back(s->shard_index + j * shard_count);
      };
      switch (s->status[j]) {
        case FaultStatus::kTestFound: ++r.tests_deterministic; break;
        case FaultStatus::kUntestable: ++r.untestable; break;
        case FaultStatus::kAbortedBacktracks:
          record_abort();
          ++r.aborted_backtracks;
          break;
        case FaultStatus::kAbortedTime:
          record_abort();
          ++r.aborted_time;
          break;
        case FaultStatus::kSatCube: ++r.sat_detected; break;
        case FaultStatus::kSatUntestable: ++r.sat_untestable; break;
        case FaultStatus::kSatUnknown:
          // Budget-exhausted escalation: still an unresolved backtrack
          // abort from the campaign's point of view.
          ++r.sat_unknown;
          record_abort();
          ++r.aborted_backtracks;
          break;
        default: break;
      }
    }
  }
  // Shards visit faults in shard-major order; canonicalize to ascending
  // representative order.
  std::sort(aborted_globals.begin(), aborted_globals.end());
  for (const std::uint64_t g : aborted_globals)
    r.aborted_faults.push_back(ctx.rep_name(static_cast<std::uint32_t>(g)));

  // Detection matrix over the final set: recounts every detection (the
  // prepass only tracked first hits) and is the cross-run witness.
  matrix_and_compact(opt, tests.size(),
                     [&] { return ctx.matrix(sched, tests, {}); }, r);
  fill_sim_stats(sched, r);
  fill_coverage(ctx.n_reps, r);
  r.time.total_s = seconds_since(t_total) + ctx.collapse_s;
}

namespace {

/// Typed per-model state referenced by the context closures. shared_ptr
/// capture keeps a context copyable and self-contained.
template <typename Fault>
struct ModelData {
  logic::Circuit view;
  std::vector<Fault> reps;
  PodemOptions popt;
  sat::SatAtpgOptions satopt;
  /// Lazily constructed on the first escalation; one persistent solver
  /// serves the whole campaign (or shard). Declared after `view` so the
  /// session's circuit reference outlives it.
  std::shared_ptr<sat::SatSession> session;
  /// Lazily constructed on the first deterministic search, like the SAT
  /// session, so make_context (and setup time) pays nothing for it. Every
  /// search of the campaign (or shard) runs in it.
  std::unique_ptr<PodemWorkspace> workspace;

  sat::SatSession& sat() {
    if (!session) session = std::make_shared<sat::SatSession>(view, satopt);
    return *session;
  }

  PodemWorkspace& podem() {
    if (!workspace) workspace = std::make_unique<PodemWorkspace>(view);
    return *workspace;
  }
};

/// The model-independent hooks: SAT session counters and fault names.
template <typename Fault>
void bind_common(CampaignContext& ctx,
                 const std::shared_ptr<ModelData<Fault>>& data) {
  ctx.escalate_stats = [data]() -> const sat::SatSessionStats* {
    return data->session ? &data->session->stats() : nullptr;
  };
  ctx.rep_name = [data](std::uint32_t i) {
    return fault_name(data->view, data->reps[i]);
  };
}

}  // namespace

CampaignContext make_context(const logic::SequentialCircuit& seq,
                             const CampaignOptions& opt) {
  CampaignContext ctx;
  ctx.circuit = seq.core().name();
  const bool scan = !seq.flops().empty();
  if (scan && opt.scan_style != ScanMode::kEnhanced) {
    ctx.error = "launch-on-capture scan styles use the dedicated scan "
                "driver, not the shared campaign context";
    return ctx;
  }

  // Full-scan application: flops become pseudo-PIs/POs and every test is a
  // plain (two-)vector on the view. InputVec test vectors carry any width,
  // so wide netlists and long scan chains need no special casing.
  ctx.view = scan ? seq.scan_view() : seq.core();
  if (opt.model == FaultModel::kObd)
    ctx.view = logic::decompose_composites(ctx.view);

  const std::string diag = ctx.view.validate();
  if (!diag.empty()) {
    ctx.error = diag;
    return ctx;
  }

  ctx.popt.max_backtracks = opt.max_backtracks;
  ctx.popt.time_budget_s = opt.podem_time_budget_s;
  ctx.popt.sim = opt.sim;

  sat::SatAtpgOptions satopt;
  satopt.conflict_budget = opt.sat_conflict_budget;

  if (opt.model == FaultModel::kStuck) {
    auto data = std::make_shared<ModelData<StuckFault>>();
    data->view = ctx.view;
    data->popt = ctx.popt;
    data->satopt = satopt;
    const obs::Span span("collapse");
    const auto t0 = Clock::now();
    const auto faults = enumerate_stuck_faults(data->view);
    ctx.faults_total = faults.size();
    data->reps = collapse_stuck_faults(data->view, faults).representatives;
    ctx.collapse_s = seconds_since(t0);
    ctx.n_reps = data->reps.size();
    auto patterns_of = [](const std::vector<TwoVectorTest>& ts) {
      std::vector<logic::InputVec> p(ts.size());
      for (std::size_t i = 0; i < ts.size(); ++i) p[i] = ts[i].v2;
      return p;
    };
    ctx.prepass = [data, patterns_of](FaultSimScheduler& s,
                                      const std::vector<TwoVectorTest>& ts,
                                      const RepSubset& subset) {
      return s.campaign_stuck(patterns_of(ts), select_reps(data->reps, subset));
    };
    ctx.generate = [data](std::uint32_t i) {
      const PodemResult pr = podem_stuck_at(data->podem(), data->reps[i],
                                            data->popt);
      TwoFrameResult t;
      t.status = pr.status;
      t.reason = pr.reason;
      t.test = TwoVectorTest{pr.vector.bits, pr.vector.bits};
      t.backtracks = pr.backtracks;
      t.implications = pr.implications;
      return t;
    };
    ctx.matrix = [data, patterns_of](FaultSimScheduler& s,
                                     const std::vector<TwoVectorTest>& ts,
                                     const RepSubset& subset) {
      return s.matrix_stuck(patterns_of(ts), select_reps(data->reps, subset));
    };
    ctx.escalate = [data](std::uint32_t i) {
      return data->sat().generate_stuck_test(data->reps[i]);
    };
    bind_common(ctx, data);
  } else if (opt.model == FaultModel::kTransition) {
    auto data = std::make_shared<ModelData<TransitionFault>>();
    data->view = ctx.view;
    data->popt = ctx.popt;
    data->satopt = satopt;
    data->reps = enumerate_transition_faults(data->view);
    ctx.faults_total = data->reps.size();  // no structural collapse
    ctx.n_reps = data->reps.size();
    ctx.prepass = [data](FaultSimScheduler& s,
                         const std::vector<TwoVectorTest>& ts,
                         const RepSubset& subset) {
      return s.campaign_transition(ts, select_reps(data->reps, subset));
    };
    ctx.generate = [data](std::uint32_t i) {
      return generate_transition_test(data->podem(), data->reps[i],
                                      data->popt);
    };
    ctx.matrix = [data](FaultSimScheduler& s,
                        const std::vector<TwoVectorTest>& ts,
                        const RepSubset& subset) {
      return s.matrix_transition(ts, select_reps(data->reps, subset));
    };
    ctx.escalate = [data](std::uint32_t i) {
      return data->sat().generate_transition_test(data->reps[i]);
    };
    bind_common(ctx, data);
  } else {
    auto data = std::make_shared<ModelData<ObdFaultSite>>();
    data->view = ctx.view;
    data->popt = ctx.popt;
    data->satopt = satopt;
    const obs::Span span("collapse");
    const auto t0 = Clock::now();
    const auto faults = enumerate_obd_faults(data->view);
    ctx.faults_total = faults.size();
    data->reps = collapse_obd_faults(data->view, faults).representatives;
    ctx.collapse_s = seconds_since(t0);
    ctx.n_reps = data->reps.size();
    ctx.prepass = [data](FaultSimScheduler& s,
                         const std::vector<TwoVectorTest>& ts,
                         const RepSubset& subset) {
      return s.campaign_obd(ts, select_reps(data->reps, subset));
    };
    ctx.generate = [data](std::uint32_t i) {
      return generate_obd_test(data->podem(), data->reps[i], data->popt);
    };
    ctx.matrix = [data](FaultSimScheduler& s,
                        const std::vector<TwoVectorTest>& ts,
                        const RepSubset& subset) {
      return s.matrix_obd(ts, select_reps(data->reps, subset));
    };
    ctx.escalate = [data](std::uint32_t i) {
      return data->sat().generate_obd_test(data->reps[i]);
    };
    bind_common(ctx, data);
    ctx.ndetect = [data](const CampaignOptions& o,
                         const RepSubset& sat_untestable, CampaignReport& r) {
      if (data->reps.empty()) return;
      const obs::Span span("ndetect");
      const auto t1 = Clock::now();
      NDetectOptions nopt;
      nopt.n = o.ndetect;
      nopt.random_pool = o.ndetect_random_pool;
      nopt.seed = o.seed;
      nopt.podem = data->popt;
      nopt.sim = o.sim;
      // SAT-proven-untestable representatives can never reach n
      // detections; growing toward them wastes the whole random pool.
      std::vector<ObdFaultSite> targets;
      const std::vector<ObdFaultSite>* reps = &data->reps;
      if (!sat_untestable.empty()) {
        std::vector<std::uint8_t> drop(data->reps.size(), 0);
        for (const std::uint32_t u : sat_untestable) drop[u] = 1;
        targets.reserve(data->reps.size() - sat_untestable.size());
        for (std::size_t i = 0; i < data->reps.size(); ++i)
          if (!drop[i]) targets.push_back(data->reps[i]);
        reps = &targets;
        r.ndetect_pruned_untestable =
            static_cast<int>(sat_untestable.size());
      }
      const NDetectResult nd = build_ndetect_set(data->view, *reps, nopt);
      r.ndetect_tests = static_cast<int>(nd.tests.size());
      r.ndetect_satisfied = nd.satisfied;
      r.time.ndetect_s = seconds_since(t1);
      r.time.total_s += r.time.ndetect_s;
    };
  }
  return ctx;
}

}  // namespace detail

const char* to_string(FaultModel m) {
  switch (m) {
    case FaultModel::kStuck: return "stuck";
    case FaultModel::kTransition: return "transition";
    case FaultModel::kObd: return "obd";
  }
  return "?";
}

bool fault_model_from_string(const std::string& s, FaultModel& out) {
  if (s == "stuck") out = FaultModel::kStuck;
  else if (s == "transition") out = FaultModel::kTransition;
  else if (s == "obd") out = FaultModel::kObd;
  else return false;
  return true;
}

bool scan_style_from_string(const std::string& s, atpg::ScanMode& out) {
  if (s == "enhanced") out = ScanMode::kEnhanced;
  else if (s == "loc") out = ScanMode::kLaunchOnCapture;
  else if (s == "loc-held") out = ScanMode::kLaunchOnCaptureHeldPi;
  else return false;
  return true;
}

CampaignReport run_campaign(const logic::SequentialCircuit& seq,
                            const CampaignOptions& opt) {
  CampaignReport r;
  detail::init_report(seq, opt, r);

  // Launch-on-capture scan styles run the two-frame scan ATPG instead of
  // the enhanced-scan (any-pair) skeleton below.
  if (r.scan && opt.scan_style != ScanMode::kEnhanced) {
    r.scan_style = to_string(opt.scan_style);
    const std::string style =
        opt.scan_style == ScanMode::kLaunchOnCapture ? "loc" : "loc-held";
    if (opt.model != FaultModel::kObd) {
      r.error = "--scan-style " + style + " requires the obd fault model";
      return r;
    }
    if (opt.ndetect > 0) {
      // n-detect growth builds unconstrained combinational tests, which
      // would violate the LOC state coupling — reject rather than silently
      // dropping the option.
      r.error = "--ndetect is not supported with --scan-style " + style;
      return r;
    }
    if (opt.sat_escalate) {
      // The SAT backend encodes unconstrained two-frame instances; it does
      // not model the LOC state coupling. Reject rather than emit cubes the
      // scan machinery cannot apply.
      r.error = "--sat-escalate is not supported with --scan-style " + style;
      return r;
    }
    drive_loc_scan(seq, opt, r);
    return r;
  }
  if (r.scan) r.scan_style = to_string(ScanMode::kEnhanced);

  const detail::CampaignContext ctx = detail::make_context(seq, opt);
  detail::fill_structure(ctx.view, r);
  if (!ctx.error.empty()) {
    r.error = ctx.error;
    return r;
  }

  // One shard covering every representative, run in memory, then the
  // supervisor's merge over that single state: one scheduler serves the
  // prepass and the merged matrix.
  const auto t0 = Clock::now();
  FaultSimScheduler sched(ctx.view, opt.sim);
  const std::vector<TwoVectorTest> pool = detail::random_pool(ctx.view, opt);
  const detail::ExecutorRun run =
      detail::run_executor(ctx, opt, sched, pool, ShardRunOptions{});
  const ShardState& state = run.shard.state;
  detail::merge_states(ctx, opt, sched, pool, {&state}, 1, r);
  r.time.random_s = run.time.random_s;
  r.time.atpg_s = run.time.atpg_s;
  r.time.sat_s = run.time.sat_s;

  // SAT session counters are process-local, so only the one-shot report
  // carries them (deterministic: escalation order and solver both are).
  if (const sat::SatSessionStats* ss = ctx.escalate_stats()) {
    r.sat_pairs = ss->pairs_total;
    r.sat_cone_encodes = ss->cone_encodes;
    r.sat_cone_hits = ss->cone_hits;
    r.sat_unobservable_hits = ss->unobservable_hits;
    r.sat_incremental_refutes = ss->incremental_refutes;
    r.sat_fresh_fallbacks = ss->fresh_fallbacks;
    r.sat_vars_shared = ss->vars_shared;
    r.sat_clauses_kept = ss->clauses_kept;
  }
  obs::Sheet metrics = sched.merged_metrics();
  metrics.merge_from(run.metrics);
  r.metrics = obs::snapshot(metrics);
  r.time.total_s = seconds_since(t0) + ctx.collapse_s;

  if (opt.ndetect > 0 && ctx.ndetect) {
    detail::RepSubset sat_untestable;
    for (std::uint32_t i = 0; i < state.status.size(); ++i)
      if (state.status[i] == FaultStatus::kSatUntestable)
        sat_untestable.push_back(i);
    ctx.ndetect(opt, sat_untestable, r);
  }
  return r;
}

CampaignReport run_campaign(const logic::Circuit& c,
                            const CampaignOptions& opt) {
  return run_campaign(logic::SequentialCircuit(c), opt);
}

namespace {

std::string json_num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// JSON string escaping: circuit names and error diagnostics may carry
/// quotes, backslashes, or control characters (net names are barely
/// restricted by the .bench grammar).
std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace

std::string report_json(const CampaignReport& r) {
  std::string j = "{\n";
  j += "  \"tool\": \"obd_atpg\",\n";
  if (!r.ok()) j += "  \"error\": " + json_str(r.error) + ",\n";
  j += "  \"circuit\": " + json_str(r.circuit) + ",\n";
  j += "  \"model\": \"" + std::string(to_string(r.model)) + "\",\n";
  j += "  \"structure\": {\"gates\": " + std::to_string(r.gates) +
       ", \"nets\": " + std::to_string(r.nets) +
       ", \"pis\": " + std::to_string(r.pis) +
       ", \"pos\": " + std::to_string(r.pos) +
       ", \"flops\": " + std::to_string(r.flops) +
       ", \"depth\": " + std::to_string(r.depth) +
       ", \"scan\": " + (r.scan ? "true" : "false") +
       ", \"scan_style\": " + json_str(r.scan_style) + "},\n";
  j += "  \"faults\": {\"total\": " + std::to_string(r.faults_total) +
       ", \"collapsed\": " + std::to_string(r.faults_collapsed) +
       ", \"detected\": " + std::to_string(r.detected) +
       ", \"untestable\": " + std::to_string(r.untestable) +
       ", \"aborted\": " + std::to_string(r.aborted) +
       ", \"aborted_backtracks\": " + std::to_string(r.aborted_backtracks) +
       ", \"aborted_time\": " + std::to_string(r.aborted_time) +
       ", \"coverage\": " + json_num(r.coverage) +
       ",\n             \"sat_detected\": " + std::to_string(r.sat_detected) +
       ", \"sat_untestable\": " + std::to_string(r.sat_untestable) +
       ", \"sat_unknown\": " + std::to_string(r.sat_unknown) +
       ", \"sat_conflicts\": " + std::to_string(r.sat_conflicts) +
       ", \"proven_untestable\": " +
       std::to_string(r.untestable + r.sat_untestable) +
       ", \"provable_coverage\": " + json_num(r.provable_coverage) + "},\n";
  j += "  \"aborted_faults\": [";
  for (std::size_t i = 0; i < r.aborted_faults.size(); ++i) {
    if (i > 0) j += ", ";
    j += json_str(r.aborted_faults[i]);
  }
  j += "],\n";
  j += "  \"tests\": {\"random\": " + std::to_string(r.tests_random) +
       ", \"deterministic\": " + std::to_string(r.tests_deterministic) +
       ", \"final\": " + std::to_string(r.tests_final) +
       ", \"ndetect\": " + std::to_string(r.ndetect_tests) +
       ", \"ndetect_satisfied\": " + std::to_string(r.ndetect_satisfied) +
       ", \"ndetect_pruned_untestable\": " +
       std::to_string(r.ndetect_pruned_untestable) + "},\n";
  j += "  \"podem\": {\"implications\": " +
       std::to_string(r.podem_implications) +
       ", \"backtracks\": " + std::to_string(r.podem_backtracks) + "},\n";
  if (r.shards > 0) {
    j += "  \"shards\": {\"count\": " + std::to_string(r.shards) +
         ", \"retries\": " + std::to_string(r.shard_retries) +
         ", \"partial\": " + (r.partial ? "true" : "false") +
         ", \"quarantined\": [";
    for (std::size_t i = 0; i < r.quarantined_shards.size(); ++i) {
      if (i > 0) j += ", ";
      j += std::to_string(r.quarantined_shards[i]);
    }
    j += "]},\n";
  }
  char hash[32];
  std::snprintf(hash, sizeof hash, "0x%016llx",
                static_cast<unsigned long long>(r.matrix_hash));
  j += "  \"sim\": {\"threads\": " + std::to_string(r.threads) +
       ", \"lanes\": " + std::to_string(r.lanes) +
       ", \"fault_block_evals\": " +
       std::to_string(r.fault_block_evals) + ", \"matrix_hash\": \"" + hash +
       "\",\n          \"propagations\": " + std::to_string(r.propagations) +
       ", \"frontier_events\": " + std::to_string(r.frontier_events) +
       ", \"frontier_gate_evals\": " + std::to_string(r.frontier_gate_evals) +
       "},\n";
  // SAT escalation detail: effort totals plus the per-fault conflict
  // histogram (log2 buckets, trailing zeroes trimmed).
  if (r.sat_detected + r.sat_untestable + r.sat_unknown > 0) {
    int hi = obs::kHistBuckets;
    while (hi > 0 && r.sat_conflicts_hist[static_cast<std::size_t>(hi - 1)] == 0)
      --hi;
    j += "  \"sat_escalation\": {\"conflicts\": " +
         std::to_string(r.sat_conflicts) +
         ", \"decisions\": " + std::to_string(r.sat_decisions) +
         ", \"restarts\": " + std::to_string(r.sat_restarts) +
         ", \"conflicts_per_fault_log2\": [";
    for (int b = 0; b < hi; ++b) {
      if (b > 0) j += ", ";
      j += std::to_string(r.sat_conflicts_hist[static_cast<std::size_t>(b)]);
    }
    j += "]";
    // Incremental-session detail (one-shot runs; a sharded merge reports
    // zeros — sessions are process-local).
    if (r.sat_pairs > 0) {
      j += ",\n                     \"incremental\": {\"pairs\": " +
           std::to_string(r.sat_pairs) +
           ", \"cone_encodes\": " + std::to_string(r.sat_cone_encodes) +
           ", \"cone_hits\": " + std::to_string(r.sat_cone_hits) +
           ", \"unobservable_hits\": " +
           std::to_string(r.sat_unobservable_hits) +
           ", \"incremental_refutes\": " +
           std::to_string(r.sat_incremental_refutes) +
           ", \"fresh_fallbacks\": " + std::to_string(r.sat_fresh_fallbacks) +
           ", \"vars_shared\": " + std::to_string(r.sat_vars_shared) +
           ", \"clauses_kept\": " + std::to_string(r.sat_clauses_kept) + "}";
    }
    j += "},\n";
  }
  // Every metric the run touched, self-describing (kind-tagged), sorted by
  // name. Deterministic given a deterministic work partition; campaign
  // counters at > 1 thread legitimately vary (redundant tail work).
  if (!r.metrics.empty()) {
    j += "  \"metrics\": {";
    bool first = true;
    for (const obs::MetricValue& m : r.metrics) {
      if (!first) j += ",";
      first = false;
      j += "\n    " + json_str(m.name) + ": ";
      if (m.kind == obs::MetricKind::kHistogram) {
        int hi = obs::kHistBuckets;
        while (hi > 0 && m.hist.buckets[static_cast<std::size_t>(hi - 1)] == 0)
          --hi;
        j += "{\"count\": " + std::to_string(m.hist.count) +
             ", \"sum\": " + std::to_string(m.hist.sum) +
             ", \"max\": " + std::to_string(m.hist.max) +
             ", \"log2_buckets\": [";
        for (int b = 0; b < hi; ++b) {
          if (b > 0) j += ", ";
          j += std::to_string(m.hist.buckets[static_cast<std::size_t>(b)]);
        }
        j += "]}";
      } else {
        j += std::to_string(m.value);
      }
    }
    j += "\n  },\n";
  }
  // Wall-clock phase durations. Timing-dependent by nature: these are the
  // only fields expected to differ between otherwise identical runs, which
  // is why they live in their own object, outside everything fingerprinted
  // or byte-compared. topoff is the deterministic search minus its SAT
  // share.
  const double topoff_s = std::max(0.0, r.time.atpg_s - r.time.sat_s);
  j += "  \"timing\": {\"parse\": " + json_num(r.time.parse_s) +
       ", \"collapse\": " + json_num(r.time.collapse_s) +
       ", \"prepass\": " + json_num(r.time.random_s) +
       ", \"topoff\": " + json_num(topoff_s) +
       ", \"sat\": " + json_num(r.time.sat_s) +
       ", \"matrix\": " + json_num(r.time.matrix_s) +
       ", \"compact\": " + json_num(r.time.compact_s) +
       ", \"ndetect\": " + json_num(r.time.ndetect_s) +
       ", \"total\": " + json_num(r.time.total_s) + "}\n";
  j += "}\n";
  return j;
}

void print_report(const CampaignReport& r) {
  if (!r.ok()) {
    std::printf("error: %s\n", r.error.c_str());
    return;
  }
  util::AsciiTable t(r.circuit + " · " + to_string(r.model) + " campaign" +
                     (r.partial ? " (PARTIAL)" : ""));
  t.set_header({"metric", "value"});
  t.add_row({"gates / nets / depth", std::to_string(r.gates) + " / " +
                                         std::to_string(r.nets) + " / " +
                                         std::to_string(r.depth)});
  t.add_row({"PIs / POs / flops", std::to_string(r.pis) + " / " +
                                      std::to_string(r.pos) + " / " +
                                      std::to_string(r.flops) +
                                      (r.scan ? " (" + r.scan_style + ")"
                                              : "")});
  t.add_row({"faults (total -> collapsed)", std::to_string(r.faults_total) +
                                                " -> " +
                                                std::to_string(r.faults_collapsed)});
  t.add_row({"detected / untestable / aborted",
             std::to_string(r.detected) + " / " + std::to_string(r.untestable) +
                 " / " + std::to_string(r.aborted) +
                 (r.aborted > 0
                      ? "  (backtracks " + std::to_string(r.aborted_backtracks) +
                            ", time " + std::to_string(r.aborted_time) + ")"
                      : "")});
  t.add_row({"PODEM implications / backtracks",
             std::to_string(r.podem_implications) + " / " +
                 std::to_string(r.podem_backtracks)});
  if (r.sat_detected + r.sat_untestable + r.sat_unknown > 0) {
    t.add_row({"SAT cubes / proofs / unknown",
               std::to_string(r.sat_detected) + " / " +
                   std::to_string(r.sat_untestable) + " / " +
                   std::to_string(r.sat_unknown)});
    t.add_row({"SAT conflicts / decisions / restarts",
               std::to_string(r.sat_conflicts) + " / " +
                   std::to_string(r.sat_decisions) + " / " +
                   std::to_string(r.sat_restarts)});
    if (r.sat_pairs > 0)
      t.add_row({"SAT incremental refutes / fresh",
                 std::to_string(r.sat_incremental_refutes) + " / " +
                     std::to_string(r.sat_fresh_fallbacks) + "  (cones " +
                     std::to_string(r.sat_cone_encodes) + " encoded, " +
                     std::to_string(r.sat_cone_hits) + " reused)"});
    // Compact per-fault hardness profile: "b3:12" = 12 escalated faults
    // needed [4, 8) conflicts.
    std::string hist;
    for (int b = 0; b < obs::kHistBuckets; ++b) {
      const std::uint64_t n = r.sat_conflicts_hist[static_cast<std::size_t>(b)];
      if (n == 0) continue;
      if (!hist.empty()) hist += "  ";
      hist += "b" + std::to_string(b) + ":" + std::to_string(n);
    }
    if (!hist.empty())
      t.add_row({"SAT conflicts/fault (log2 buckets)", hist});
  }
  t.add_row({"coverage (collapsed)",
             util::format_g(100.0 * r.coverage, 4) + "%"});
  t.add_row({"provable coverage",
             util::format_g(100.0 * r.provable_coverage, 4) + "%  (" +
                 std::to_string(r.untestable + r.sat_untestable) +
                 " proven untestable)"});
  t.add_row({"tests random / determ / final",
             std::to_string(r.tests_random) + " / " +
                 std::to_string(r.tests_deterministic) + " / " +
                 std::to_string(r.tests_final)});
  if (r.ndetect_tests > 0)
    t.add_row({"n-detect tests / satisfied",
               std::to_string(r.ndetect_tests) + " / " +
                   std::to_string(r.ndetect_satisfied)});
  if (r.shards > 0) {
    std::string q;
    for (const int s : r.quarantined_shards)
      q += (q.empty() ? "" : ", ") + std::to_string(s);
    t.add_row({"shards / retries",
               std::to_string(r.shards) + " / " +
                   std::to_string(r.shard_retries) +
                   (q.empty() ? "" : "  (quarantined: " + q + ")")});
  }
  char hash[32];
  std::snprintf(hash, sizeof hash, "0x%016llx",
                static_cast<unsigned long long>(r.matrix_hash));
  t.add_row({"matrix hash", hash});
  t.add_row({"threads / lanes",
             std::to_string(r.threads) + " / " + std::to_string(r.lanes)});
  if (r.propagations > 0)
    t.add_row({"frontier gate evals", std::to_string(r.frontier_gate_evals)});
  {
    std::string phases = "prepass " + util::format_g(r.time.random_s, 3) +
                         ", topoff " +
                         util::format_g(
                             std::max(0.0, r.time.atpg_s - r.time.sat_s), 3);
    if (r.time.sat_s > 0.0)
      phases += ", sat " + util::format_g(r.time.sat_s, 3);
    phases += ", matrix " + util::format_g(r.time.matrix_s, 3);
    if (r.time.compact_s > 0.0)
      phases += ", compact " + util::format_g(r.time.compact_s, 3);
    t.add_row({"wall clock",
               util::format_g(r.time.total_s, 3) + " s  (" + phases + ")"});
  }
  t.print();
}

}  // namespace obd::flow
