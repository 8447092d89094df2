// Checkpoint codec robustness: round-trip fidelity, then an exhaustive
// attack on the frame — every prefix truncation and every single-byte
// corruption of a valid checkpoint must be rejected with a diagnostic,
// never crash, never misparse. This is the property that lets the shard
// supervisor treat "load succeeded" as "state is trustworthy".
#include "flow/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

#include "logic/zoo.hpp"
#include "util/crc32c.hpp"
#include "util/prng.hpp"

namespace obd::flow {
namespace {

// A fully-populated, internally-consistent state: shard 1 of 3 over 100
// collapsed representatives (assigned partition = 33 faults), prepass pool
// of 40, two PODEM tests, and a kDone matrix whose covered bits are the
// genuine column-OR of its rows.
ShardState sample_state() {
  ShardState s;
  s.circuit = "ckpt-sample";
  s.options_fp = 0xfeedface12345678ull;
  s.shard_index = 1;
  s.shard_count = 3;
  s.n_reps_total = 100;
  s.pool_size = 40;
  s.phase = ShardPhase::kDone;
  s.prng_state = util::Prng(0x0bd5eedull).state();
  s.fault_block_evals = 123456789;
  s.sat_conflicts = 424242;
  s.useful_pool = {3, 11, 12, 29, 39};

  const std::size_t assigned = ShardState::assigned_count(100, 1, 3);
  s.status.assign(assigned, FaultStatus::kRandomDetected);
  s.status[0] = FaultStatus::kPending;
  s.status[5] = FaultStatus::kTestFound;
  s.status[7] = FaultStatus::kUntestable;
  s.status[20] = FaultStatus::kTestFound;
  s.status[21] = FaultStatus::kAbortedBacktracks;
  s.status[22] = FaultStatus::kAbortedTime;
  s.status[24] = FaultStatus::kSatCube;
  s.status[25] = FaultStatus::kSatUntestable;
  s.status[26] = FaultStatus::kSatUnknown;

  ShardDetTest t1;
  t1.local_index = 5;
  t1.test.v1 = logic::InputVec{0xdeadbeefull};
  t1.test.v2 = logic::InputVec{0x12345678ull};
  ShardDetTest t2;
  t2.local_index = 20;
  t2.test.v1.set_word(0, 1);
  t2.test.v1.set_word(2, 0x55aaull);  // a wide (multi-word) vector
  t2.test.v2 = logic::InputVec{7};
  ShardDetTest t3;  // SAT escalation cube, same det_tests stream
  t3.local_index = 24;
  t3.test.v1 = logic::InputVec{0xc0ffeeull};
  t3.test.v2 = logic::InputVec{0xc0ffeeull};
  s.det_tests = {t1, t2, t3};

  s.has_matrix = true;
  auto& m = s.local_matrix;
  m.n_tests = 8;  // 5 useful prepass tests + 2 PODEM + 1 SAT cube
  m.n_faults = assigned;
  m.words_per_row = (assigned + 63) / 64;
  m.rows.assign(m.n_tests * m.words_per_row, 0);
  util::Prng prng(42);
  for (auto& w : m.rows) w = prng.next_u64() & ((1ull << assigned) - 1);
  m.covered.assign(m.n_faults, false);
  m.covered_count = 0;
  for (std::size_t f = 0; f < m.n_faults; ++f)
    for (std::size_t t = 0; t < m.n_tests; ++t)
      if (m.detects(t, f)) {
        m.covered[f] = true;
        ++m.covered_count;
        break;
      }
  return s;
}

void expect_states_equal(const ShardState& a, const ShardState& b) {
  EXPECT_EQ(a.circuit, b.circuit);
  EXPECT_EQ(a.options_fp, b.options_fp);
  EXPECT_EQ(a.shard_index, b.shard_index);
  EXPECT_EQ(a.shard_count, b.shard_count);
  EXPECT_EQ(a.n_reps_total, b.n_reps_total);
  EXPECT_EQ(a.pool_size, b.pool_size);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.prng_state, b.prng_state);
  EXPECT_EQ(a.fault_block_evals, b.fault_block_evals);
  EXPECT_EQ(a.sat_conflicts, b.sat_conflicts);
  EXPECT_EQ(a.useful_pool, b.useful_pool);
  EXPECT_EQ(a.status, b.status);
  ASSERT_EQ(a.det_tests.size(), b.det_tests.size());
  for (std::size_t i = 0; i < a.det_tests.size(); ++i) {
    EXPECT_EQ(a.det_tests[i].local_index, b.det_tests[i].local_index);
    EXPECT_EQ(a.det_tests[i].test, b.det_tests[i].test);
  }
  EXPECT_EQ(a.has_matrix, b.has_matrix);
  EXPECT_EQ(a.local_matrix.n_tests, b.local_matrix.n_tests);
  EXPECT_EQ(a.local_matrix.n_faults, b.local_matrix.n_faults);
  EXPECT_EQ(a.local_matrix.words_per_row, b.local_matrix.words_per_row);
  EXPECT_EQ(a.local_matrix.rows, b.local_matrix.rows);
  EXPECT_EQ(a.local_matrix.covered, b.local_matrix.covered);
  EXPECT_EQ(a.local_matrix.covered_count, b.local_matrix.covered_count);
}

TEST(Checkpoint, RoundTripPreservesEveryField) {
  const ShardState s = sample_state();
  const std::string bytes = encode_checkpoint(s);
  ShardState back;
  std::string err;
  ASSERT_TRUE(decode_checkpoint(bytes, &back, &err)) << err;
  expect_states_equal(s, back);

  // Encoding the decoded state reproduces the exact bytes — the format has
  // no hidden nondeterminism (map ordering, padding, uninitialized bytes).
  EXPECT_EQ(encode_checkpoint(back), bytes);
}

TEST(Checkpoint, RoundTripWithoutMatrix) {
  ShardState s = sample_state();
  s.phase = ShardPhase::kPodemPartial;
  s.has_matrix = false;
  s.local_matrix = {};
  ShardState back;
  std::string err;
  ASSERT_TRUE(decode_checkpoint(encode_checkpoint(s), &back, &err)) << err;
  expect_states_equal(s, back);
}

TEST(Checkpoint, EveryPrefixTruncationRejected) {
  const std::string bytes = encode_checkpoint(sample_state());
  ASSERT_GT(bytes.size(), 100u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ShardState out;
    std::string err;
    EXPECT_FALSE(decode_checkpoint(std::string_view(bytes).substr(0, len),
                                   &out, &err))
        << "accepted a " << len << "-byte prefix of a " << bytes.size()
        << "-byte checkpoint";
    EXPECT_FALSE(err.empty()) << "no diagnostic for prefix length " << len;
  }
}

TEST(Checkpoint, EverySingleByteCorruptionRejected) {
  const std::string bytes = encode_checkpoint(sample_state());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xA5);
    ShardState out;
    std::string err;
    EXPECT_FALSE(decode_checkpoint(mutated, &out, &err))
        << "accepted a checkpoint with byte " << i << " flipped";
    EXPECT_FALSE(err.empty()) << "no diagnostic for corrupt byte " << i;
  }
}

TEST(Checkpoint, TrailingGarbageRejected) {
  std::string bytes = encode_checkpoint(sample_state());
  bytes.push_back('\0');
  ShardState out;
  std::string err;
  EXPECT_FALSE(decode_checkpoint(bytes, &out, &err));
  EXPECT_NE(err.find("length mismatch"), std::string::npos) << err;
}

TEST(Checkpoint, FutureVersionRejectedEvenWithValidCrc) {
  // A version change alone (CRC recomputed to match) must still be
  // refused: the version gate fires before any payload interpretation. An
  // older version is refused the same way — only the current one loads.
  for (const std::uint32_t version :
       {kCheckpointVersion + 1, kCheckpointVersion - 1}) {
    std::string bytes = encode_checkpoint(sample_state());
    // Version u32 (little-endian) follows the 8-byte magic.
    bytes[8] = static_cast<char>(version);
    const std::uint32_t crc = util::crc32c(bytes.data(), bytes.size() - 4);
    for (int i = 0; i < 4; ++i)
      bytes[bytes.size() - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
    ShardState out;
    std::string err;
    EXPECT_FALSE(decode_checkpoint(bytes, &out, &err)) << version;
    EXPECT_NE(err.find("version"), std::string::npos) << err;
  }
}

// Semantically inconsistent states survive encoding (the encoder is a plain
// serializer) but must never survive decoding — each case below corrupts
// one invariant the decoder owns.
TEST(Checkpoint, SemanticValidationRejectsInconsistentStates) {
  const auto rejects = [](ShardState s, const char* what) {
    ShardState out;
    std::string err;
    EXPECT_FALSE(decode_checkpoint(encode_checkpoint(s), &out, &err)) << what;
    EXPECT_FALSE(err.empty()) << what;
  };

  {
    ShardState s = sample_state();
    s.useful_pool = {11, 3};  // out of order
    rejects(s, "non-increasing useful pool");
  }
  {
    ShardState s = sample_state();
    s.useful_pool = {3, 40};  // == pool_size
    rejects(s, "useful-pool index past the pool");
  }
  {
    ShardState s = sample_state();
    s.status.pop_back();  // no longer matches assigned_count
    rejects(s, "status size vs assigned partition");
  }
  {
    ShardState s = sample_state();
    s.phase = static_cast<ShardPhase>(9);
    rejects(s, "phase out of range");
  }
  {
    ShardState s = sample_state();
    s.shard_index = 3;  // == shard_count (also breaks status size)
    rejects(s, "shard index past shard count");
  }
  {
    ShardState s = sample_state();
    std::swap(s.det_tests[0], s.det_tests[1]);  // local_index out of order
    rejects(s, "det tests out of order");
  }
  {
    ShardState s = sample_state();
    s.det_tests[0].local_index = 6;  // status[6] is kRandomDetected
    rejects(s, "det test for a non-test-found fault");
  }
  {
    ShardState s = sample_state();
    s.det_tests[2].local_index = 25;  // status[25] is kSatUntestable
    rejects(s, "det test for a sat-untestable fault");
  }
  {
    ShardState s = sample_state();
    s.status[0] = static_cast<FaultStatus>(9);  // past kSatUnknown
    rejects(s, "status byte out of range");
  }
  {
    ShardState s = sample_state();
    s.local_matrix.covered_count += 1;
    rejects(s, "matrix covered-count mismatch");
  }
  {
    ShardState s = sample_state();
    s.local_matrix.words_per_row += 1;
    s.local_matrix.rows.resize(s.local_matrix.n_tests *
                               s.local_matrix.words_per_row);
    rejects(s, "words_per_row inconsistent with fault count");
  }
}

TEST(Checkpoint, AtomicSaveLoadRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "obd_ckpt_test";
  fs::create_directories(dir);
  const ShardState s = sample_state();
  const std::string path = checkpoint_path(dir.string(), 1);

  std::string err;
  ASSERT_TRUE(save_checkpoint(path, s, &err)) << err;
  // The atomic-write temp file must not linger after a successful commit.
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  ShardState back;
  ASSERT_TRUE(load_checkpoint(path, &back, &err)) << err;
  expect_states_equal(s, back);

  EXPECT_FALSE(load_checkpoint((dir / "absent.ckpt").string(), &back, &err));
  EXPECT_FALSE(err.empty());
  fs::remove_all(dir);
}

TEST(Checkpoint, PathIsStableAndZeroPadded) {
  EXPECT_EQ(checkpoint_path("/tmp/x", 0), "/tmp/x/shard-0000.ckpt");
  EXPECT_EQ(checkpoint_path("/tmp/x", 37), "/tmp/x/shard-0037.ckpt");
}

TEST(Checkpoint, AssignedCountCoversEveryFaultExactlyOnce) {
  for (const std::uint64_t n_reps : {0ull, 1ull, 7ull, 64ull, 1001ull}) {
    for (const std::uint32_t count : {1u, 2u, 3u, 8u, 13u}) {
      std::size_t total = 0;
      for (std::uint32_t i = 0; i < count; ++i)
        total += ShardState::assigned_count(n_reps, i, count);
      EXPECT_EQ(total, n_reps) << n_reps << " reps over " << count;
    }
  }
}

enum class Edit { kNone, kRewire, kSwapPis };

/// `c` rebuilt gate for gate, optionally with gate 0's first input moved
/// to another PI (kRewire) or the first two PIs declared in swapped order
/// (kSwapPis): same names, same size, different netlist.
logic::Circuit rebuilt(const logic::Circuit& c, Edit edit) {
  logic::Circuit out(c.name());
  std::vector<logic::NetId> ins = c.inputs();
  if (edit == Edit::kSwapPis) std::swap(ins[0], ins[1]);
  for (const logic::NetId n : ins) out.add_input(c.net_name(n));
  for (int g = 0; g < static_cast<int>(c.num_gates()); ++g) {
    const logic::Gate& gt = c.gate(g);
    std::vector<logic::NetId> fanin;
    for (const logic::NetId n : gt.inputs)
      fanin.push_back(out.net(c.net_name(n)));
    if (g == 0 && edit == Edit::kRewire) {
      const logic::NetId pi = gt.inputs[0] == c.inputs()[0] ? c.inputs()[1]
                                                            : c.inputs()[0];
      fanin[0] = out.net(c.net_name(pi));
    }
    out.add_gate(gt.type, gt.name, fanin, out.net(c.net_name(gt.output)));
  }
  for (const logic::NetId n : c.outputs())
    out.mark_output(out.net(c.net_name(n)));
  return out;
}

TEST(Checkpoint, FingerprintSeparatesResultChangingOptions) {
  CampaignOptions opt;
  const logic::Circuit view = logic::c17();
  const std::uint64_t base = options_fingerprint(opt, "c432", view, 4);

  CampaignOptions o1 = opt;
  o1.seed ^= 1;
  EXPECT_NE(options_fingerprint(o1, "c432", view, 4), base);
  CampaignOptions o2 = opt;
  o2.max_backtracks += 1;
  EXPECT_NE(options_fingerprint(o2, "c432", view, 4), base);
  CampaignOptions o3 = opt;
  o3.random_patterns += 1;
  EXPECT_NE(options_fingerprint(o3, "c432", view, 4), base);
  CampaignOptions o4 = opt;
  o4.podem_time_budget_s = 1.5;
  EXPECT_NE(options_fingerprint(o4, "c432", view, 4), base);
  EXPECT_NE(options_fingerprint(opt, "c499", view, 4), base);
  EXPECT_NE(options_fingerprint(opt, "c432", view, 8), base);

  // Netlist content, not just its name: an identical rebuild matches, a
  // rewired fan-in or a reordered PI list does not.
  for (const Edit e : {Edit::kNone, Edit::kRewire, Edit::kSwapPis}) {
    const std::uint64_t fp =
        options_fingerprint(opt, "c432", rebuilt(view, e), 4);
    if (e == Edit::kNone) EXPECT_EQ(fp, base);
    else EXPECT_NE(fp, base) << static_cast<int>(e);
  }

  // Execution-shape options are deliberately NOT fingerprinted: a
  // checkpoint taken at 1 thread must resume at 8 (results are
  // bit-identical by the scheduler's contract).
  CampaignOptions o5 = opt;
  o5.sim.threads = 8;
  o5.compact = false;
  EXPECT_EQ(options_fingerprint(o5, "c432", view, 4), base);

  // SAT escalation options are also excluded by design: a PODEM-only
  // checkpoint must resume with --sat-escalate as a pure top-off over its
  // recorded backtrack aborts.
  CampaignOptions o6 = opt;
  o6.sat_escalate = true;
  o6.sat_conflict_budget = 7;
  EXPECT_EQ(options_fingerprint(o6, "c432", view, 4), base);
}

TEST(Checkpoint, MatchesRejectsEveryIdentityMismatch) {
  CampaignOptions opt;
  const std::string circuit = "c432";
  const logic::Circuit view = logic::c17();
  ShardState s;
  s.circuit = circuit;
  s.shard_index = 1;
  s.shard_count = 4;
  s.n_reps_total = 500;
  s.pool_size = 2048;
  s.options_fp = options_fingerprint(opt, circuit, view, 4);
  s.prng_state = util::Prng(opt.seed).state();

  std::string err;
  EXPECT_TRUE(checkpoint_matches(s, opt, circuit, view, 1, 4, 500, 2048, &err))
      << err;

  const auto fails = [&](auto mutate, const char* what) {
    ShardState m = s;
    CampaignOptions o = opt;
    mutate(m, o);
    std::string e;
    EXPECT_FALSE(checkpoint_matches(m, o, circuit, view, 1, 4, 500, 2048, &e))
        << what;
    EXPECT_FALSE(e.empty()) << what;
  };
  fails([](ShardState& m, CampaignOptions&) { m.circuit = "c499"; },
        "wrong circuit");
  fails([](ShardState& m, CampaignOptions&) { m.shard_index = 2; },
        "wrong shard index");
  fails([](ShardState& m, CampaignOptions&) { m.shard_count = 8; },
        "wrong shard count");
  fails([](ShardState&, CampaignOptions& o) { o.seed ^= 0x10; },
        "different seed (fingerprint)");
  fails([](ShardState& m, CampaignOptions&) { m.n_reps_total = 501; },
        "wrong fault-list size");
  fails([](ShardState& m, CampaignOptions&) { m.pool_size = 1024; },
        "wrong pool size");
  fails([](ShardState& m, CampaignOptions&) { m.prng_state[2] ^= 1; },
        "tampered prng state");
}

}  // namespace
}  // namespace obd::flow
