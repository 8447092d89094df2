// Crash-tolerant sharded campaigns: the merge==one-shot determinism proof
// (matrix_hash identity across shard counts and thread counts), the full
// fault-injection matrix (torn writes, crashes after committed progress,
// corrupt checkpoints, watchdog timeouts, poison shards), interrupt/resume
// on the shard executor, and — when OBD_ATPG_BIN is defined — the real
// child-process supervision path.
#include "flow/supervisor.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "flow/campaign.hpp"
#include "flow/checkpoint.hpp"
#include "flow/inject.hpp"
#include "flow/shard.hpp"
#include "io/bench.hpp"

namespace obd::flow {
namespace {

std::string corpus(const std::string& file) {
  return std::string(OBD_CORPUS_DIR) + "/" + file;
}

int count_outcome(const SupervisorResult& r, ShardOutcome o) {
  int n = 0;
  for (const ShardAttempt& a : r.attempts)
    if (a.outcome == o) ++n;
  return n;
}

/// The merged report must be indistinguishable from the one-shot campaign
/// in every result field — matrix_hash is the bit-identity witness.
void expect_matches_baseline(const CampaignReport& r,
                             const CampaignReport& base,
                             const std::string& what) {
  EXPECT_EQ(r.matrix_hash, base.matrix_hash) << what;
  EXPECT_EQ(r.detected, base.detected) << what;
  EXPECT_EQ(r.untestable, base.untestable) << what;
  EXPECT_EQ(r.aborted, base.aborted) << what;
  EXPECT_EQ(r.aborted_backtracks, base.aborted_backtracks) << what;
  EXPECT_EQ(r.aborted_time, base.aborted_time) << what;
  EXPECT_EQ(r.tests_random, base.tests_random) << what;
  EXPECT_EQ(r.tests_deterministic, base.tests_deterministic) << what;
  EXPECT_EQ(r.tests_final, base.tests_final) << what;
  EXPECT_DOUBLE_EQ(r.coverage, base.coverage) << what;
  // Shards commit each search's effort with its verdict, so the merged
  // totals are the one-shot's even across kills and resumes.
  EXPECT_EQ(r.podem_implications, base.podem_implications) << what;
  EXPECT_EQ(r.podem_backtracks, base.podem_backtracks) << what;
}

class SupervisorTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::instance().reset();
    for (const std::string& d : dirs_) std::filesystem::remove_all(d);
  }

  std::string fresh_dir(const std::string& name) {
    const auto p =
        std::filesystem::temp_directory_path() / ("obd_sup_" + name);
    std::filesystem::remove_all(p);
    std::filesystem::create_directories(p);
    dirs_.push_back(p.string());
    return p.string();
  }

  io::BenchParseResult load(const std::string& file) {
    return io::load_bench_file(corpus(file));
  }

  std::vector<std::string> dirs_;
};

// --- Determinism: merged shards == one-shot campaign ---------------------

TEST_F(SupervisorTest, MergeIsBitIdenticalToOneShotC2670) {
  const io::BenchParseResult p = load("c2670.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 256;
  opt.max_backtracks = 5000;
  opt.sim.threads = 2;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;
  ASSERT_NE(base.matrix_hash, 0u);

  for (const int threads : {1, 2, 4}) {
    for (const int shards : {1, 2, 4, 8}) {
      SupervisorOptions sup;
      sup.checkpoint_dir = fresh_dir("c2670");
      sup.shards = shards;
      sup.in_process = true;
      opt.sim.threads = threads;
      const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
      const std::string what = std::to_string(threads) + " threads, " +
                               std::to_string(shards) + " shards";
      ASSERT_TRUE(res.report.ok()) << what << ": " << res.report.error;
      EXPECT_TRUE(res.quarantined.empty()) << what;
      EXPECT_FALSE(res.report.partial) << what;
      EXPECT_EQ(res.report.shards, shards) << what;
      expect_matches_baseline(res.report, base, what);
    }
  }
}

TEST_F(SupervisorTest, MergeIsBitIdenticalToOneShotC2670Obd) {
  const io::BenchParseResult p = load("c2670.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.model = FaultModel::kObd;
  opt.random_patterns = 256;
  opt.max_backtracks = 5000;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;
  ASSERT_NE(base.matrix_hash, 0u);

  for (const int shards : {1, 4}) {
    SupervisorOptions sup;
    sup.checkpoint_dir = fresh_dir("c2670_obd");
    sup.shards = shards;
    sup.in_process = true;
    const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
    const std::string what = std::to_string(shards) + " shards";
    ASSERT_TRUE(res.report.ok()) << what << ": " << res.report.error;
    expect_matches_baseline(res.report, base, what);
  }
}

// The OBD top-off configuration of the CI provable-coverage step: a tight
// budget, so both frames, backtracks and aborts all feed the totals.
TEST_F(SupervisorTest, PodemEffortTotalsMatchOneShotC2670Obd) {
  const io::BenchParseResult p = load("c2670.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.model = FaultModel::kObd;
  opt.max_backtracks = 20;
  opt.sat_escalate = true;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;
  EXPECT_GT(base.podem_implications, 0);
  EXPECT_GT(base.podem_backtracks, 0);

  SupervisorOptions sup;
  sup.checkpoint_dir = fresh_dir("c2670_effort");
  sup.shards = 4;
  sup.in_process = true;
  const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
  ASSERT_TRUE(res.report.ok()) << res.report.error;
  expect_matches_baseline(res.report, base, "4 shards, obd");
}

TEST_F(SupervisorTest, MergeIsBitIdenticalToOneShotC7552) {
  const io::BenchParseResult p = load("c7552.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 512;
  opt.max_backtracks = 500;  // leaves deliberate aborts in the mix
  opt.sim.threads = 4;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;

  const int combos[][2] = {{2, 2}, {4, 4}};  // {threads, shards}
  for (const auto& c : combos) {
    SupervisorOptions sup;
    sup.checkpoint_dir = fresh_dir("c7552");
    sup.shards = c[1];
    sup.in_process = true;
    opt.sim.threads = c[0];
    const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
    const std::string what = std::to_string(c[0]) + " threads, " +
                             std::to_string(c[1]) + " shards";
    ASSERT_TRUE(res.report.ok()) << what << ": " << res.report.error;
    expect_matches_baseline(res.report, base, what);
  }
}

TEST_F(SupervisorTest, KilledCampaignResumesToOneShotHashOnC2670) {
  const io::BenchParseResult p = load("c2670.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 256;
  opt.max_backtracks = 5000;
  opt.sim.threads = 2;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;

  // {threads, shards}: the acceptance grid — a campaign SIGKILLed after
  // committed progress, quarantined, then resumed, must land on the
  // one-shot hash at >= 2 shard counts and >= 2 thread counts.
  const int combos[][2] = {{2, 4}, {4, 2}};
  for (const auto& c : combos) {
    const std::string what = std::to_string(c[0]) + " threads, " +
                             std::to_string(c[1]) + " shards";
    opt.sim.threads = c[0];
    SupervisorOptions sup;
    sup.checkpoint_dir = fresh_dir("kill_resume");
    sup.shards = c[1];
    sup.in_process = true;
    // Shard 1 dies at its *second* checkpoint save — after the prepass
    // checkpoint committed — on every attempt, and retries are off: the
    // first run ends partial with shard 1 quarantined.
    sup.inject_spec = "sigkill#2@1:*";
    sup.max_retries = 0;
    sup.backoff_base_s = 0.01;
    const SupervisorResult killed = run_supervised_campaign(p.seq, opt, sup);
    ASSERT_TRUE(killed.report.ok()) << what << ": " << killed.report.error;
    ASSERT_EQ(killed.quarantined, std::vector<int>{1}) << what;
    EXPECT_TRUE(killed.report.partial) << what;
    EXPECT_LT(killed.report.detected, base.detected) << what;

    // Resume without injection: the survivors' kDone checkpoints are
    // reused, the killed shard continues from its committed progress.
    SupervisorOptions again = sup;
    again.inject_spec.clear();
    again.resume = true;
    const SupervisorResult res = run_supervised_campaign(p.seq, opt, again);
    ASSERT_TRUE(res.report.ok()) << what << ": " << res.report.error;
    EXPECT_TRUE(res.quarantined.empty()) << what;
    EXPECT_FALSE(res.report.partial) << what;
    expect_matches_baseline(res.report, base, what + " (resumed)");
  }
}

// --- Fault-injection matrix (in-process mode) ----------------------------

struct InjectCase {
  const char* spec;
  ShardOutcome first_failure;
  const char* detail_substr;
};

TEST_F(SupervisorTest, EveryInjectedFailureRecoversToIdenticalResult) {
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 64;  // leaves real PODEM work for the checkpoints
  opt.max_backtracks = 20000;
  opt.sim.threads = 2;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;

  const InjectCase cases[] = {
      // Torn write: the half-written temp file never commits.
      {"abort-mid-write@1", ShardOutcome::kCrash, "abort-mid-write"},
      // Durable temp, crash before rename: old checkpoint still in place.
      {"abort-before-rename@1", ShardOutcome::kCrash, "abort-before-rename"},
      // Death at the very first checkpoint save.
      {"sigkill@1", ShardOutcome::kCrash, "sigkill"},
      // Death *after* the prepass checkpoint committed — the retry resumes
      // from real progress instead of starting over.
      {"sigkill#2@1", ShardOutcome::kCrash, "sigkill"},
      // The checkpoint commits but can never validate; the supervisor must
      // detect it, delete it, and retry fresh.
      {"corrupt-crc@1", ShardOutcome::kCorrupt, "crc mismatch"},
  };

  for (const InjectCase& c : cases) {
    SupervisorOptions sup;
    sup.checkpoint_dir = fresh_dir(std::string("inj_") +
                                   std::to_string(&c - cases));
    sup.shards = 3;
    sup.in_process = true;
    sup.inject_spec = c.spec;
    sup.backoff_base_s = 0.01;  // keep retry sleeps out of the test budget
    const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
    ASSERT_TRUE(res.report.ok()) << c.spec << ": " << res.report.error;

    // Exactly one failed attempt, on shard 1, classified as expected.
    EXPECT_EQ(res.retries, 1) << c.spec;
    EXPECT_EQ(count_outcome(res, ShardOutcome::kClean), 3) << c.spec;
    bool saw_failure = false;
    for (const ShardAttempt& a : res.attempts) {
      if (a.outcome == ShardOutcome::kClean) continue;
      saw_failure = true;
      EXPECT_EQ(a.shard, 1) << c.spec;
      EXPECT_EQ(a.attempt, 0) << c.spec;
      EXPECT_EQ(a.outcome, c.first_failure) << c.spec;
      EXPECT_NE(a.detail.find(c.detail_substr), std::string::npos)
          << c.spec << ": " << a.detail;
    }
    EXPECT_TRUE(saw_failure) << c.spec << ": injection never fired";

    EXPECT_TRUE(res.quarantined.empty()) << c.spec;
    EXPECT_EQ(res.report.shard_retries, 1) << c.spec;
    expect_matches_baseline(res.report, base, c.spec);
  }
}

TEST_F(SupervisorTest, WatchdogTimeoutIsClassifiedAndRetried) {
  const io::BenchParseResult p = load("s27.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  SupervisorOptions sup;
  sup.checkpoint_dir = fresh_dir("timeout");
  sup.shards = 2;
  sup.in_process = true;
  sup.inject_spec = "delay=400@1";  // first attempt of shard 1 stalls
  sup.shard_timeout_s = 0.2;
  sup.backoff_base_s = 0.01;
  const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
  ASSERT_TRUE(res.report.ok()) << res.report.error;
  EXPECT_EQ(count_outcome(res, ShardOutcome::kTimeout), 1);
  EXPECT_EQ(count_outcome(res, ShardOutcome::kClean), 2);
  EXPECT_EQ(res.retries, 1);
  EXPECT_DOUBLE_EQ(res.report.coverage, 1.0);
}

TEST_F(SupervisorTest, PoisonShardIsQuarantinedWithPartialReport) {
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 64;
  opt.sim.threads = 2;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;

  SupervisorOptions sup;
  sup.checkpoint_dir = fresh_dir("poison");
  sup.shards = 3;
  sup.in_process = true;
  sup.inject_spec = "abort-before-rename@1:*";  // every attempt dies
  sup.max_retries = 1;
  sup.backoff_base_s = 0.01;
  const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);

  // Defined degradation: the campaign completes, the report is partial and
  // names the quarantined shard, and its faults count as undetected.
  ASSERT_TRUE(res.report.ok()) << res.report.error;
  EXPECT_EQ(res.quarantined, std::vector<int>{1});
  EXPECT_EQ(res.report.quarantined_shards, std::vector<int>{1});
  EXPECT_TRUE(res.report.partial);
  EXPECT_EQ(res.report.shards, 3);
  EXPECT_EQ(count_outcome(res, ShardOutcome::kCrash), 2);  // 1 + max_retries
  EXPECT_EQ(count_outcome(res, ShardOutcome::kClean), 2);
  EXPECT_LT(res.report.detected, base.detected);
  EXPECT_LT(res.report.coverage, base.coverage);

  // The partial flag and quarantine list survive JSON serialization.
  const std::string json = report_json(res.report);
  EXPECT_NE(json.find("\"partial\": true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"quarantined\": [1]"), std::string::npos) << json;
}

// --- Interrupt / resume --------------------------------------------------

TEST_F(SupervisorTest, PresetStopFlagReportsInterrupted) {
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;
  static volatile std::sig_atomic_t stop = 1;
  CampaignOptions opt;
  SupervisorOptions sup;
  sup.checkpoint_dir = fresh_dir("stop");
  sup.shards = 2;
  sup.in_process = true;
  sup.stop = &stop;
  const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
  EXPECT_TRUE(res.interrupted);
  EXPECT_FALSE(res.report.ok());
  EXPECT_NE(res.report.error.find("--resume"), std::string::npos)
      << res.report.error;
}

TEST_F(SupervisorTest, InterruptedShardResumesToBitIdenticalState) {
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 64;
  opt.max_backtracks = 20000;

  // Uninterrupted reference shard.
  ShardRunOptions ref_opt;
  ref_opt.checkpoint_dir = fresh_dir("shard_ref");
  ref_opt.shard_index = 0;
  ref_opt.shard_count = 2;
  const ShardRunResult ref = run_campaign_shard(p.seq, opt, ref_opt);
  ASSERT_EQ(ref.status, ShardRunStatus::kDone) << ref.error;
  ASSERT_TRUE(ref.state.has_matrix);

  // Same shard, interrupted right after the prepass (the stop flag is
  // polled before the first PODEM search), then resumed.
  static volatile std::sig_atomic_t stop = 1;
  stop = 1;
  ShardRunOptions so;
  so.checkpoint_dir = fresh_dir("shard_int");
  so.shard_index = 0;
  so.shard_count = 2;
  so.stop = &stop;
  const ShardRunResult r1 = run_campaign_shard(p.seq, opt, so);
  ASSERT_EQ(r1.status, ShardRunStatus::kInterrupted) << r1.error;
  EXPECT_NE(r1.error.find("checkpointed"), std::string::npos);

  // The interruption committed a valid, loadable, non-final checkpoint.
  ShardState mid;
  std::string err;
  ASSERT_TRUE(load_checkpoint(checkpoint_path(so.checkpoint_dir, 0), &mid,
                              &err))
      << err;
  EXPECT_NE(mid.phase, ShardPhase::kDone);
  EXPECT_FALSE(mid.has_matrix);

  stop = 0;
  so.resume = true;
  const ShardRunResult r2 = run_campaign_shard(p.seq, opt, so);
  ASSERT_EQ(r2.status, ShardRunStatus::kDone) << r2.error;
  EXPECT_EQ(encode_checkpoint(r2.state), encode_checkpoint(ref.state));

  // Resuming a completed shard is an idempotent no-op.
  const ShardRunResult r3 = run_campaign_shard(p.seq, opt, so);
  ASSERT_EQ(r3.status, ShardRunStatus::kDone) << r3.error;
  EXPECT_EQ(encode_checkpoint(r3.state), encode_checkpoint(ref.state));
}

TEST_F(SupervisorTest, ResumeRejectsACheckpointFromDifferentOptions) {
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 64;
  ShardRunOptions so;
  so.checkpoint_dir = fresh_dir("mismatch");
  so.shard_index = 0;
  so.shard_count = 2;
  ASSERT_EQ(run_campaign_shard(p.seq, opt, so).status, ShardRunStatus::kDone);

  opt.seed ^= 1;  // result-changing option: the fingerprint must differ
  so.resume = true;
  const ShardRunResult r = run_campaign_shard(p.seq, opt, so);
  EXPECT_EQ(r.status, ShardRunStatus::kBadCheckpoint);
  EXPECT_NE(r.error.find("fingerprint"), std::string::npos) << r.error;
}

// A same-name, same-size netlist with one rewired gate must not inherit
// the original's checkpoints: a 2-shard c2670 OBD campaign, then
// ADDX50 = XOR(A50, B50) -> XOR(A50, B51) in a copy of the netlist and a
// resume on the same checkpoint dir. Both stale checkpoints are rejected
// and their shards re-run fresh, so the merge equals a fresh run of the
// rewired netlist.
TEST_F(SupervisorTest, ResumeRejectsCheckpointsOfARewiredNetlist) {
  std::ifstream in(corpus("c2670.bench"));
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();
  const io::BenchParseResult p = io::parse_bench(text, "c2670");
  ASSERT_TRUE(p.ok) << p.error;
  const std::string from = "ADDX50 = XOR(A50, B50)";
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, from.size(), "ADDX50 = XOR(A50, B51)");
  const io::BenchParseResult q = io::parse_bench(text, "c2670");
  ASSERT_TRUE(q.ok) << q.error;

  CampaignOptions opt;
  opt.model = FaultModel::kObd;
  opt.max_backtracks = 20;
  opt.sat_escalate = true;
  SupervisorOptions sup;
  sup.checkpoint_dir = fresh_dir("rewire");
  sup.shards = 2;
  sup.in_process = true;
  sup.backoff_base_s = 0.01;
  const SupervisorResult before = run_supervised_campaign(p.seq, opt, sup);
  ASSERT_TRUE(before.report.ok()) << before.report.error;

  ShardRunOptions so;
  so.checkpoint_dir = sup.checkpoint_dir;
  so.shard_count = 2;
  so.resume = true;
  const ShardRunResult stale = run_campaign_shard(q.seq, opt, so);
  EXPECT_EQ(stale.status, ShardRunStatus::kBadCheckpoint);
  EXPECT_NE(stale.error.find("fingerprint"), std::string::npos) << stale.error;

  sup.resume = true;
  const SupervisorResult res = run_supervised_campaign(q.seq, opt, sup);
  ASSERT_TRUE(res.report.ok()) << res.report.error;
  EXPECT_EQ(count_outcome(res, ShardOutcome::kCorrupt), 2);
  EXPECT_EQ(res.retries, 2);
  EXPECT_TRUE(res.quarantined.empty());
  const CampaignReport fresh = run_campaign(q.seq, opt);
  ASSERT_TRUE(fresh.ok()) << fresh.error;
  EXPECT_NE(fresh.matrix_hash, before.report.matrix_hash);
  expect_matches_baseline(res.report, fresh, "rewired resume");
}

// --- Configuration and spec validation -----------------------------------

TEST_F(SupervisorTest, BadInjectSpecIsAnErrorNotASilentNoOp) {
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;
  CampaignOptions opt;
  SupervisorOptions sup;
  sup.checkpoint_dir = fresh_dir("badspec");
  sup.in_process = true;
  sup.inject_spec = "frobnicate@1";
  const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
  EXPECT_FALSE(res.report.ok());
  EXPECT_NE(res.report.error.find("inject"), std::string::npos)
      << res.report.error;
}

TEST_F(SupervisorTest, InjectSpecParserRejectsEveryMalformedEntry) {
  FaultInjector& inj = FaultInjector::instance();
  std::string err;
  for (const char* bad : {
           "sigkill",            // no @shard
           "@1",                 // no mode
           "sigkill@",           // empty shard
           "sigkill@x",          // non-numeric shard
           "sigkill@1:y",        // non-numeric attempt
           "sigkill#0@1",        // occurrence must be >= 1
           "sigkill#x@1",        // non-numeric occurrence
           "delay@1",            // delay needs =MS
           "sigkill=5@1",        // arg on a mode that takes none
           "sigkill@1,,delay=5@2",  // empty entry in a list
       }) {
    err.clear();
    EXPECT_FALSE(inj.configure(bad, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
    EXPECT_FALSE(inj.active()) << bad;  // a bad spec must not half-install
  }
  EXPECT_TRUE(inj.configure("sigkill#2@*,delay=10@1:*,corrupt-crc@0", &err))
      << err;
  EXPECT_TRUE(inj.active());
  inj.reset();
}

TEST_F(SupervisorTest, ConfigurationErrorsAreDefinedStates) {
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;
  CampaignOptions opt;

  SupervisorOptions no_dir;
  no_dir.in_process = true;
  EXPECT_FALSE(run_supervised_campaign(p.seq, opt, no_dir).report.ok());

  SupervisorOptions bad_shards;
  bad_shards.checkpoint_dir = fresh_dir("cfg");
  bad_shards.shards = 0;
  bad_shards.in_process = true;
  EXPECT_FALSE(run_supervised_campaign(p.seq, opt, bad_shards).report.ok());

  SupervisorOptions sup;
  sup.checkpoint_dir = fresh_dir("cfg2");
  sup.in_process = true;
  CampaignOptions nd = opt;
  nd.ndetect = 2;
  EXPECT_FALSE(run_supervised_campaign(p.seq, nd, sup).report.ok());

  ShardRunOptions so;
  so.checkpoint_dir = fresh_dir("cfg3");
  so.shard_index = 5;
  so.shard_count = 2;
  EXPECT_EQ(run_campaign_shard(p.seq, opt, so).status,
            ShardRunStatus::kError);
  ShardRunOptions empty_dir;
  EXPECT_EQ(run_campaign_shard(p.seq, opt, empty_dir).status,
            ShardRunStatus::kError);
}

// A child must simulate exactly as configured: results are bit-identical
// at any thread count or lane width, so only the argv shows a dropped knob.
TEST_F(SupervisorTest, ShardChildArgsForwardThreadsAndLanes) {
  CampaignOptions opt;
  opt.model = FaultModel::kObd;
  opt.sim.threads = 3;
  opt.sim.lane_words = 4;
  SupervisorOptions sup;
  sup.shards = 5;
  sup.checkpoint_dir = "ck";
  sup.child_exe = "obd_atpg";
  sup.circuit_path = "c.bench";
  const std::vector<std::string> args = shard_child_args(sup, opt, 2);
  ASSERT_GE(args.size(), 2u);
  EXPECT_EQ(args[0], "obd_atpg");
  EXPECT_EQ(args[1], "c.bench");
  const auto value_of = [](const std::vector<std::string>& argv,
                           const std::string& flag) -> std::string {
    for (std::size_t i = 0; i + 1 < argv.size(); ++i)
      if (argv[i] == flag) return argv[i + 1];
    return "<missing>";
  };
  EXPECT_EQ(value_of(args, "--shard"), "2/5");
  EXPECT_EQ(value_of(args, "--checkpoint-dir"), "ck");
  EXPECT_EQ(value_of(args, "--model"), "obd");
  EXPECT_EQ(value_of(args, "--threads"), "3");
  EXPECT_EQ(value_of(args, "--lanes"), "256");

  opt.sim.lane_words = 1;
  EXPECT_EQ(value_of(shard_child_args(sup, opt, 0), "--lanes"), "64");
}

// --- Subprocess supervision (the production path) ------------------------
//
// OBD_ATPG_BIN points at the real obd_atpg binary; these run actual child
// processes through fork/exec, watchdog, and exit-code classification.
#ifdef OBD_ATPG_BIN

TEST_F(SupervisorTest, SubprocessShardsMatchOneShot) {
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 64;
  opt.sim.threads = 2;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;

  SupervisorOptions sup;
  sup.checkpoint_dir = fresh_dir("proc");
  sup.shards = 2;
  sup.child_exe = OBD_ATPG_BIN;
  sup.circuit_path = corpus("c432.bench");
  const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
  ASSERT_TRUE(res.report.ok()) << res.report.error;
  EXPECT_EQ(count_outcome(res, ShardOutcome::kClean), 2);
  expect_matches_baseline(res.report, base, "subprocess 2 shards");
}

TEST_F(SupervisorTest, SubprocessSigkillIsRetriedToIdenticalResult) {
  const io::BenchParseResult p = load("c432.bench");
  ASSERT_TRUE(p.ok) << p.error;

  CampaignOptions opt;
  opt.random_patterns = 64;
  opt.sim.threads = 2;
  const CampaignReport base = run_campaign(p.seq, opt);
  ASSERT_TRUE(base.ok()) << base.error;

  SupervisorOptions sup;
  sup.checkpoint_dir = fresh_dir("proc_kill");
  sup.shards = 2;
  sup.child_exe = OBD_ATPG_BIN;
  sup.circuit_path = corpus("c432.bench");
  sup.inject_spec = "sigkill#2@1";  // dies after the prepass committed
  sup.backoff_base_s = 0.01;
  const SupervisorResult res = run_supervised_campaign(p.seq, opt, sup);
  ASSERT_TRUE(res.report.ok()) << res.report.error;
  EXPECT_EQ(res.retries, 1);
  bool saw_kill = false;
  for (const ShardAttempt& a : res.attempts)
    if (a.outcome == ShardOutcome::kCrash) {
      saw_kill = true;
      EXPECT_EQ(a.shard, 1);
      EXPECT_NE(a.detail.find("signal 9"), std::string::npos) << a.detail;
    }
  EXPECT_TRUE(saw_kill);
  expect_matches_baseline(res.report, base, "subprocess sigkill retry");
}

#endif  // OBD_ATPG_BIN

}  // namespace
}  // namespace obd::flow
