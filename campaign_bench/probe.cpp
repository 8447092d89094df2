#include "probe.hpp"

#include <cstdio>
#include <filesystem>

#include "atpg/atpg.hpp"
#include "flow/campaign_detail.hpp"
#include "flow/checkpoint.hpp"
#include "flow/shard.hpp"
#include "flow/supervisor.hpp"

namespace campaign_bench {

namespace atpg = obd::atpg;
namespace flow = obd::flow;

SpanLog::SpanLog() : origin_(Clock::now()) {}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int SpanLog::open(const std::string& name, int parent, int campaign,
                  const std::string& detail) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, detail, parent, campaign, now_us(), 0.0});
  events_.push_back({true, id});
  return id;
}

double SpanLog::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.t1_us = now_us();
  events_.push_back({false, id});
  return (s.t1_us - s.t0_us) * 1e-6;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

}  // namespace

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f,
               "{\"traceEvents\": [\n{\"name\": \"process_name\", \"ph\": \"M\", "
               "\"pid\": 1, \"tid\": 1, \"args\": {\"name\": \"campaign_bench\"}}");
  for (const Event& e : events_) {
    const Span& s = spans_[static_cast<std::size_t>(e.span)];
    if (e.begin) {
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"ph\": \"B\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"args\": {\"span\": %d, \"parent\": %d, "
                   "\"campaign\": %d, \"detail\": \"%s\"}}",
                   json_escape(s.name).c_str(), s.t0_us, e.span, s.parent,
                   s.campaign, json_escape(s.detail).c_str());
    } else {
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"ph\": \"E\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f}",
                   json_escape(s.name).c_str(), s.t1_us);
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ProbeResult probe_campaign(const obd::logic::SequentialCircuit& seq,
                           const flow::CampaignOptions& opt, SpanLog& log,
                           int campaign, bool analyze_waste) {
  ProbeResult p;
  ScopedSpan root(log, "campaign", -1, campaign, seq.core().name());
  const int rid = root.id();

  // collapse: view lowering, validation, enumeration, structural collapse.
  ScopedSpan collapse(log, "collapse", rid, campaign);
  const flow::detail::CampaignContext ctx = flow::detail::make_context(seq, opt);
  p.collapse_s = collapse.close();
  if (!ctx.error.empty()) {
    p.error = ctx.error;
    return p;
  }
  p.faults_total = ctx.faults_total;
  p.reps = ctx.n_reps;

  // prepass: the scheduler (thread pool, engines) is built here, as in
  // run_campaign, then the seeded pool runs with fault dropping.
  ScopedSpan prepass(log, "prepass", rid, campaign);
  atpg::FaultSimScheduler sched(ctx.view, opt.sim);
  std::vector<atpg::TwoVectorTest> tests;
  std::vector<std::uint8_t> skip(ctx.n_reps, 0);
  if (opt.random_patterns > 0 && ctx.n_reps > 0) {
    const std::vector<atpg::TwoVectorTest> pool =
        flow::detail::random_pool(ctx.view, opt);
    const atpg::FaultSimEngine::Campaign camp = ctx.prepass(sched, pool, {});
    p.fault_block_evals = camp.fault_block_evals;
    const atpg::PrepassMarks marks =
        atpg::mark_first_detections(camp, pool.size());
    skip = marks.skip;
    for (std::size_t t = 0; t < pool.size(); ++t)
      if (marks.useful[t]) tests.push_back(pool[t]);
    p.pool = pool.size();
    p.kept = tests.size();
    for (const std::uint8_t s : skip) p.dropped += s;
  }
  p.prepass_s = prepass.close();

  // topoff: PODEM / two-frame search per survivor; backtrack aborts
  // escalate inline to SAT, exactly where run_campaign escalates them.
  flow::detail::RepSubset survivors;
  std::vector<int> test_call;  // per top-off test: its call position
  const std::size_t first_topoff_test = tests.size();
  ScopedSpan topoff(log, "topoff", rid, campaign);
  for (std::uint32_t i = 0; i < ctx.n_reps; ++i) {
    if (skip[i]) continue;
    const int call = static_cast<int>(survivors.size());
    survivors.push_back(i);
    ScopedSpan gen(log, "generate", topoff.id(), campaign);
    const atpg::TwoFrameResult res = ctx.generate(i);
    const double gs = gen.close();
    p.generate_s += gs;
    p.call_s.push_back(gs);
    ++p.calls;
    p.implications += res.implications;
    p.backtracks += res.backtracks;
    if (res.status == atpg::PodemStatus::kFound) {
      ++p.found;
      tests.push_back(res.test);
      test_call.push_back(call);
    } else if (res.status == atpg::PodemStatus::kUntestable) {
      ++p.untestable;
    } else if (res.reason == atpg::AbortReason::kTime || !opt.sat_escalate ||
               !ctx.escalate) {
      ++p.aborted;
    } else {
      ScopedSpan sat(log, "sat", topoff.id(), campaign);
      const atpg::sat::SatAtpgResult sr = ctx.escalate(i);
      p.sat_s += sat.close();
      ++p.sat_calls;
      p.sat_conflicts += sr.conflicts;
      switch (sr.verdict) {
        case atpg::sat::SatVerdict::kCube:
          ++p.sat_cubes;
          tests.push_back(sr.cube.concrete());
          test_call.push_back(call);
          break;
        case atpg::sat::SatVerdict::kUntestable:
          ++p.sat_untestable;
          break;
        case atpg::sat::SatVerdict::kUnknown:
          ++p.sat_unknown;
          ++p.aborted;
          break;
      }
    }
  }
  p.topoff_loop_s = topoff.close();

  ScopedSpan matrix(log, "matrix", rid, campaign);
  const atpg::DetectionMatrix m = ctx.matrix(sched, tests, {});
  p.matrix_s = matrix.close();
  p.matrix_tests = tests.size();
  p.detected = m.covered_count;
  p.matrix_hash = flow::detail::hash_matrix(m);
  p.tests_final = static_cast<int>(tests.size());
  if (opt.compact && !tests.empty()) {
    ScopedSpan compact(log, "compact", rid, campaign);
    p.tests_final = static_cast<int>(atpg::greedy_cover(m).size());
    p.compact_s = compact.close();
  }
  const atpg::SimStats st = sched.stats();
  p.cone_peak_bytes = st.cone_peak_bytes;
  p.cone_resident = st.cone_resident;
  p.frontier_gate_evals = st.frontier_gate_evals;
  p.campaign_s = root.close();
  p.span_coverage = (p.collapse_s + p.prepass_s + p.topoff_loop_s +
                     p.matrix_s + p.compact_s) /
                    p.campaign_s;

  // Wasted top-off calls: fault-simulate the top-off tests, in generation
  // order, against the survivors. A survivor whose first detecting test
  // came from an earlier call did not need its own search.
  if (analyze_waste) {
    p.wasted_calls = 0;
    const std::vector<atpg::TwoVectorTest> topoff_tests(
        tests.begin() + static_cast<std::ptrdiff_t>(first_topoff_test),
        tests.end());
    if (!topoff_tests.empty()) {
      const atpg::FaultSimEngine::Campaign camp =
          ctx.prepass(sched, topoff_tests, survivors);
      for (std::size_t j = 0; j < survivors.size(); ++j) {
        const int t = camp.first_test[j];
        if (t >= 0 && test_call[static_cast<std::size_t>(t)] <
                          static_cast<int>(j))
          ++p.wasted_calls;
      }
    }
  }
  return p;
}

ShardProbeResult probe_shards(const obd::logic::SequentialCircuit& seq,
                              const flow::CampaignOptions& opt,
                              const std::string& checkpoint_dir, int shards,
                              SpanLog& log, int campaign) {
  namespace fs = std::filesystem;
  ShardProbeResult sp;
  std::error_code ec;
  fs::remove_all(checkpoint_dir, ec);
  fs::create_directories(checkpoint_dir, ec);
  if (ec) {
    sp.error = "cannot create " + checkpoint_dir + ": " + ec.message();
    return sp;
  }
  ScopedSpan root(log, "sharded", -1, campaign, seq.core().name());
  for (int i = 0; i < shards; ++i) {
    flow::ShardRunOptions so;
    so.checkpoint_dir = checkpoint_dir;
    so.shard_index = static_cast<std::uint32_t>(i);
    so.shard_count = static_cast<std::uint32_t>(shards);
    ScopedSpan shard(log, "shard", root.id(), campaign, std::to_string(i));
    const flow::ShardRunResult res = flow::run_campaign_shard(seq, opt, so);
    sp.shard_s.push_back(shard.close());
    if (res.status != flow::ShardRunStatus::kDone) {
      sp.error = "shard " + std::to_string(i) + ": " + res.error;
      return sp;
    }
  }

  // Checkpoint layer: final sizes, and the cost of one atomic save of each
  // final state (re-saved to a side path so the committed files stay).
  for (int i = 0; i < shards; ++i) {
    const std::string path = flow::checkpoint_path(checkpoint_dir, i);
    sp.checkpoint_bytes += fs::file_size(path, ec);
    flow::ShardState state;
    std::string err;
    if (!flow::load_checkpoint(path, &state, &err)) {
      sp.error = path + ": " + err;
      return sp;
    }
    const std::string copy = checkpoint_dir + "/resave.ckpt";
    ScopedSpan save(log, "checkpoint-save", root.id(), campaign);
    const bool saved = flow::save_checkpoint(copy, state, &err);
    sp.checkpoint_save_s += save.close();
    fs::remove(copy, ec);
    if (!saved) {
      sp.error = copy + ": " + err;
      return sp;
    }
  }

  // Merge: the supervisor resumes the committed shards in-process (each is
  // already done) and re-simulates the merged test set.
  flow::SupervisorOptions sup;
  sup.checkpoint_dir = checkpoint_dir;
  sup.shards = shards;
  sup.in_process = true;
  sup.resume = true;
  ScopedSpan merge(log, "merge", root.id(), campaign);
  sp.merged = flow::run_supervised_campaign(seq, opt, sup).report;
  return sp;
}

}  // namespace campaign_bench
