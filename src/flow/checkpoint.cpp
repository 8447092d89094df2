#include "flow/checkpoint.hpp"

#include <bit>
#include <cstdio>
#include <cstring>

#include "flow/inject.hpp"
#include "util/crc32c.hpp"
#include "util/io.hpp"
#include "util/prng.hpp"

namespace obd::flow {
namespace {

using atpg::DetectionMatrix;
using logic::InputVec;

constexpr char kMagic[8] = {'O', 'B', 'D', 'C', 'K', 'P', 'T', '\n'};
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8;  // magic+version+flags+len
constexpr std::size_t kCrcSize = 4;

/// Hard sanity ceilings on decoded element counts. Every length is also
/// bounds-checked against the remaining payload bytes; these just keep a
/// hypothetical CRC-colliding forgery from requesting absurd allocations.
constexpr std::uint64_t kMaxElems = 1ull << 32;

// --- Little-endian encode/decode ----------------------------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/// Bounds-checked sequential reader: every accessor returns false instead
/// of reading past the end, and the caller turns that into a diagnostic.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : p_(bytes) {}

  std::size_t remaining() const { return p_.size() - pos_; }

  bool u8(std::uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<std::uint8_t>(p_[pos_++]);
    return true;
  }
  bool u32(std::uint32_t* v) {
    if (remaining() < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i)
      *v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p_[pos_++]))
            << (8 * i);
    return true;
  }
  bool u64(std::uint64_t* v) {
    if (remaining() < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i)
      *v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p_[pos_++]))
            << (8 * i);
    return true;
  }
  bool str(std::string* v) {
    std::uint32_t len = 0;
    if (!u32(&len) || remaining() < len) return false;
    v->assign(p_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  /// Reads `count` u64 words after verifying they fit the remaining bytes.
  bool words(std::uint64_t count, std::vector<std::uint64_t>* out) {
    if (count > kMaxElems || remaining() < count * 8) return false;
    out->resize(static_cast<std::size_t>(count));
    for (auto& w : *out)
      if (!u64(&w)) return false;
    return true;
  }

 private:
  std::string_view p_;
  std::size_t pos_ = 0;
};

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

void put_inputvec(std::string& out, const InputVec& v) {
  const std::size_t n = v.nwords();
  put_u32(out, static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n; ++i) put_u64(out, v.word(i));
}

bool get_inputvec(ByteReader& r, InputVec* v) {
  std::uint32_t n = 0;
  if (!r.u32(&n) || n == 0 || n > (1u << 20) || r.remaining() < n * 8ull)
    return false;
  *v = InputVec{};
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint64_t w = 0;
    if (!r.u64(&w)) return false;
    v->set_word(i, w);
  }
  return true;
}

void put_matrix(std::string& out, const DetectionMatrix& m) {
  put_u64(out, m.n_tests);
  put_u64(out, m.n_faults);
  put_u64(out, m.words_per_row);
  put_u64(out, static_cast<std::uint64_t>(m.covered_count));
  for (std::uint64_t w : m.rows) put_u64(out, w);
}

bool get_matrix(ByteReader& r, DetectionMatrix* m, std::string* err) {
  std::uint64_t n_tests = 0, n_faults = 0, wpr = 0, covered = 0;
  if (!r.u64(&n_tests) || !r.u64(&n_faults) || !r.u64(&wpr) ||
      !r.u64(&covered)) {
    *err = "matrix header truncated";
    return false;
  }
  if (wpr != (n_faults + 63) / 64) {
    *err = "matrix words_per_row inconsistent with fault count";
    return false;
  }
  if (n_tests > kMaxElems || wpr > kMaxElems || covered > n_faults) {
    *err = "matrix dimensions out of range";
    return false;
  }
  m->n_tests = static_cast<std::size_t>(n_tests);
  m->n_faults = static_cast<std::size_t>(n_faults);
  m->words_per_row = static_cast<std::size_t>(wpr);
  if (!r.words(n_tests * wpr, &m->rows)) {
    *err = "matrix rows truncated";
    return false;
  }
  // covered / covered_count are derived state: recompute and use the
  // stored count purely as one more integrity cross-check.
  m->covered.assign(m->n_faults, false);
  m->covered_count = 0;
  for (std::size_t f = 0; f < m->n_faults; ++f) {
    for (std::size_t t = 0; t < m->n_tests; ++t) {
      if (m->detects(t, f)) {
        m->covered[f] = true;
        ++m->covered_count;
        break;
      }
    }
  }
  if (static_cast<std::uint64_t>(m->covered_count) != covered) {
    *err = "matrix covered-count mismatch (stored " + std::to_string(covered) +
           ", recomputed " + std::to_string(m->covered_count) + ")";
    return false;
  }
  return true;
}

std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t v) {
  return fnv1a_bytes(h, &v, 8);
}

}  // namespace

const char* to_string(FaultStatus s) {
  switch (s) {
    case FaultStatus::kPending: return "pending";
    case FaultStatus::kRandomDetected: return "random-detected";
    case FaultStatus::kTestFound: return "test-found";
    case FaultStatus::kUntestable: return "untestable";
    case FaultStatus::kAbortedBacktracks: return "aborted-backtracks";
    case FaultStatus::kAbortedTime: return "aborted-time";
    case FaultStatus::kSatCube: return "sat-cube";
    case FaultStatus::kSatUntestable: return "sat-untestable";
    case FaultStatus::kSatUnknown: return "sat-unknown";
  }
  return "?";
}

std::string checkpoint_path(const std::string& dir, int shard_index) {
  char name[32];
  std::snprintf(name, sizeof name, "shard-%04d.ckpt", shard_index);
  return dir + "/" + name;
}

std::uint64_t options_fingerprint(const CampaignOptions& opt,
                                  const std::string& circuit,
                                  const logic::Circuit& view,
                                  std::uint32_t shard_count) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a_bytes(h, "obd-shard-fp-v2", 15);
  h = fnv1a_bytes(h, circuit.data(), circuit.size());
  const auto nets = [&h](const std::vector<logic::NetId>& ids) {
    h = fnv1a_u64(h, ids.size());
    for (const logic::NetId n : ids)
      h = fnv1a_u64(h, static_cast<std::uint64_t>(n));
  };
  nets(view.inputs());
  nets(view.outputs());
  h = fnv1a_u64(h, view.num_gates());
  for (const logic::Gate& g : view.gates()) {
    h = fnv1a_u64(h, static_cast<std::uint64_t>(g.type));
    nets(g.inputs);
    h = fnv1a_u64(h, static_cast<std::uint64_t>(g.output));
  }
  h = fnv1a_u64(h, static_cast<std::uint64_t>(opt.model));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(opt.scan_style));
  h = fnv1a_u64(h, static_cast<std::uint64_t>(opt.random_patterns));
  h = fnv1a_u64(h, opt.seed);
  h = fnv1a_u64(h, static_cast<std::uint64_t>(opt.max_backtracks));
  h = fnv1a_u64(h, std::bit_cast<std::uint64_t>(opt.podem_time_budget_s));
  h = fnv1a_u64(h, shard_count);
  return h;
}

std::string encode_checkpoint(const ShardState& s) {
  std::string payload;
  payload.reserve(256 + s.status.size() + 24 * s.det_tests.size() +
                  8 * s.local_matrix.rows.size());
  put_u64(payload, s.options_fp);
  put_str(payload, s.circuit);
  put_u32(payload, s.shard_index);
  put_u32(payload, s.shard_count);
  put_u64(payload, s.n_reps_total);
  put_u64(payload, s.pool_size);
  payload.push_back(static_cast<char>(s.phase));
  for (std::uint64_t w : s.prng_state) put_u64(payload, w);
  put_u64(payload, static_cast<std::uint64_t>(s.fault_block_evals));
  put_u64(payload, static_cast<std::uint64_t>(s.sat_conflicts));
  put_u64(payload, static_cast<std::uint64_t>(s.sat_decisions));
  put_u64(payload, static_cast<std::uint64_t>(s.sat_restarts));
  for (const std::uint64_t b : s.sat_hist) put_u64(payload, b);
  put_u64(payload, static_cast<std::uint64_t>(s.podem_implications));
  put_u64(payload, static_cast<std::uint64_t>(s.podem_backtracks));

  put_u32(payload, static_cast<std::uint32_t>(s.useful_pool.size()));
  for (std::uint32_t t : s.useful_pool) put_u32(payload, t);

  put_u32(payload, static_cast<std::uint32_t>(s.status.size()));
  for (FaultStatus st : s.status)
    payload.push_back(static_cast<char>(st));

  put_u32(payload, static_cast<std::uint32_t>(s.det_tests.size()));
  for (const ShardDetTest& t : s.det_tests) {
    put_u32(payload, t.local_index);
    put_inputvec(payload, t.test.v1);
    put_inputvec(payload, t.test.v2);
  }

  payload.push_back(s.has_matrix ? 1 : 0);
  if (s.has_matrix) put_matrix(payload, s.local_matrix);

  std::string out;
  out.reserve(kHeaderSize + payload.size() + kCrcSize);
  out.append(kMagic, sizeof kMagic);
  put_u32(out, kCheckpointVersion);
  put_u32(out, 0);  // flags
  put_u64(out, payload.size());
  out += payload;
  put_u32(out, util::crc32c(out));
  return out;
}

bool decode_checkpoint(std::string_view bytes, ShardState* out,
                       std::string* err) {
  std::string e;
  err = err ? err : &e;

  // --- Frame validation (size, magic, version, length, CRC) -------------
  if (bytes.size() < kHeaderSize + kCrcSize) {
    *err = "checkpoint too short (" + std::to_string(bytes.size()) +
           " bytes, header needs " + std::to_string(kHeaderSize + kCrcSize) +
           ")";
    return false;
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    *err = "bad checkpoint magic";
    return false;
  }
  ByteReader header(bytes.substr(sizeof kMagic));
  std::uint32_t version = 0, flags = 0;
  std::uint64_t payload_len = 0;
  header.u32(&version);
  header.u32(&flags);
  header.u64(&payload_len);
  if (version != kCheckpointVersion) {
    *err = "unsupported checkpoint version " + std::to_string(version) +
           " (this build reads version " +
           std::to_string(kCheckpointVersion) + ")";
    return false;
  }
  if (bytes.size() != kHeaderSize + payload_len + kCrcSize) {
    *err = "checkpoint length mismatch: header declares " +
           std::to_string(payload_len) + " payload bytes, file has " +
           std::to_string(bytes.size()) + " total (truncated or garbled)";
    return false;
  }
  const std::uint32_t stored_crc =
      static_cast<std::uint32_t>(
          static_cast<unsigned char>(bytes[bytes.size() - 4])) |
      static_cast<std::uint32_t>(
          static_cast<unsigned char>(bytes[bytes.size() - 3]))
          << 8 |
      static_cast<std::uint32_t>(
          static_cast<unsigned char>(bytes[bytes.size() - 2]))
          << 16 |
      static_cast<std::uint32_t>(
          static_cast<unsigned char>(bytes[bytes.size() - 1]))
          << 24;
  const std::uint32_t computed_crc =
      util::crc32c(bytes.data(), bytes.size() - kCrcSize);
  if (stored_crc != computed_crc) {
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "checkpoint crc mismatch (stored %08x, computed %08x)",
                  stored_crc, computed_crc);
    *err = buf;
    return false;
  }

  // --- Semantic decode (fully bounds-checked) ---------------------------
  ByteReader r(bytes.substr(kHeaderSize, payload_len));
  ShardState s;
  std::uint8_t phase = 0, has_matrix = 0;
  std::uint64_t evals = 0;
  std::uint32_t n_useful = 0, n_status = 0, n_det = 0;

  if (!r.u64(&s.options_fp) || !r.str(&s.circuit) || !r.u32(&s.shard_index) ||
      !r.u32(&s.shard_count) || !r.u64(&s.n_reps_total) ||
      !r.u64(&s.pool_size) || !r.u8(&phase)) {
    *err = "checkpoint payload truncated in header fields";
    return false;
  }
  for (auto& w : s.prng_state)
    if (!r.u64(&w)) {
      *err = "checkpoint payload truncated in prng state";
      return false;
    }
  if (!r.u64(&evals)) {
    *err = "checkpoint payload truncated";
    return false;
  }
  s.fault_block_evals = static_cast<long long>(evals);
  std::uint64_t sat_conflicts = 0;
  if (!r.u64(&sat_conflicts)) {
    *err = "checkpoint payload truncated in sat-conflicts field";
    return false;
  }
  s.sat_conflicts = static_cast<long long>(sat_conflicts);
  std::uint64_t sat_decisions = 0, sat_restarts = 0;
  if (!r.u64(&sat_decisions) || !r.u64(&sat_restarts)) {
    *err = "checkpoint payload truncated in sat-effort fields";
    return false;
  }
  s.sat_decisions = static_cast<long long>(sat_decisions);
  s.sat_restarts = static_cast<long long>(sat_restarts);
  for (auto& b : s.sat_hist)
    if (!r.u64(&b)) {
      *err = "checkpoint payload truncated in sat histogram";
      return false;
    }
  std::uint64_t implications = 0, backtracks = 0;
  if (!r.u64(&implications) || !r.u64(&backtracks)) {
    *err = "checkpoint payload truncated in podem-effort fields";
    return false;
  }
  s.podem_implications = static_cast<long long>(implications);
  s.podem_backtracks = static_cast<long long>(backtracks);
  if (phase < static_cast<std::uint8_t>(ShardPhase::kPrepassDone) ||
      phase > static_cast<std::uint8_t>(ShardPhase::kDone)) {
    *err = "invalid shard phase " + std::to_string(phase);
    return false;
  }
  s.phase = static_cast<ShardPhase>(phase);
  if (s.shard_count == 0 || s.shard_index >= s.shard_count) {
    *err = "invalid shard geometry " + std::to_string(s.shard_index) + "/" +
           std::to_string(s.shard_count);
    return false;
  }

  if (!r.u32(&n_useful) || r.remaining() < n_useful * 4ull) {
    *err = "useful-pool list truncated";
    return false;
  }
  s.useful_pool.resize(n_useful);
  for (std::uint32_t i = 0; i < n_useful; ++i) {
    r.u32(&s.useful_pool[i]);
    if (s.useful_pool[i] >= s.pool_size ||
        (i > 0 && s.useful_pool[i] <= s.useful_pool[i - 1])) {
      *err = "useful-pool list not strictly increasing within the pool";
      return false;
    }
  }

  if (!r.u32(&n_status) || r.remaining() < n_status) {
    *err = "status list truncated";
    return false;
  }
  const std::size_t expect_status = ShardState::assigned_count(
      s.n_reps_total, s.shard_index, s.shard_count);
  if (n_status != expect_status) {
    *err = "status list size " + std::to_string(n_status) +
           " does not match assigned partition size " +
           std::to_string(expect_status);
    return false;
  }
  s.status.resize(n_status);
  for (std::uint32_t i = 0; i < n_status; ++i) {
    std::uint8_t b = 0;
    r.u8(&b);
    if (b > static_cast<std::uint8_t>(FaultStatus::kSatUnknown)) {
      *err = "invalid fault status byte " + std::to_string(b);
      return false;
    }
    s.status[i] = static_cast<FaultStatus>(b);
  }

  if (!r.u32(&n_det) || n_det > n_status) {
    *err = "deterministic-test list truncated or oversized";
    return false;
  }
  s.det_tests.resize(n_det);
  for (std::uint32_t i = 0; i < n_det; ++i) {
    ShardDetTest& t = s.det_tests[i];
    if (!r.u32(&t.local_index) || !get_inputvec(r, &t.test.v1) ||
        !get_inputvec(r, &t.test.v2)) {
      *err = "deterministic test " + std::to_string(i) + " truncated";
      return false;
    }
    if (t.local_index >= n_status ||
        (i > 0 && t.local_index <= s.det_tests[i - 1].local_index)) {
      *err = "deterministic tests not strictly increasing in local index";
      return false;
    }
    if (s.status[t.local_index] != FaultStatus::kTestFound &&
        s.status[t.local_index] != FaultStatus::kSatCube) {
      *err = "deterministic test for fault whose status is not test-found "
             "or sat-cube";
      return false;
    }
  }

  if (!r.u8(&has_matrix) || has_matrix > 1) {
    *err = "invalid matrix-present flag";
    return false;
  }
  s.has_matrix = has_matrix != 0;
  if (s.has_matrix && !get_matrix(r, &s.local_matrix, err)) return false;
  if (r.remaining() != 0) {
    *err = std::to_string(r.remaining()) +
           " trailing payload bytes after checkpoint fields";
    return false;
  }
  *out = std::move(s);
  return true;
}

bool save_checkpoint(const std::string& path, const ShardState& s,
                     std::string* err) {
  FaultInjector& inj = FaultInjector::instance();
  inj.visit(CrashPoint::kCheckpointSave);

  std::string bytes = encode_checkpoint(s);
  if (inj.should_corrupt() && !bytes.empty()) {
    // Flip one payload byte *after* the CRC was computed: the file commits
    // (rename succeeds) but can never validate — the corrupt-output path.
    bytes[kHeaderSize + bytes.size() % (bytes.size() - kHeaderSize - kCrcSize)]
        ^= 0x5a;
  }

  util::AtomicWriteHooks hooks;
  hooks.mid_write = [&inj](std::size_t, std::size_t) {
    inj.visit(CrashPoint::kCheckpointMidWrite);
  };
  hooks.before_rename = [&inj] {
    inj.visit(CrashPoint::kCheckpointBeforeRename);
  };
  return util::write_file_atomic(path, bytes, err,
                                 inj.active() ? &hooks : nullptr);
}

bool load_checkpoint(const std::string& path, ShardState* out,
                     std::string* err) {
  std::string bytes;
  if (!util::read_file(path, &bytes, err)) return false;
  return decode_checkpoint(bytes, out, err);
}

bool checkpoint_matches(const ShardState& s, const CampaignOptions& opt,
                        const std::string& circuit, const logic::Circuit& view,
                        std::uint32_t shard_index,
                        std::uint32_t shard_count, std::uint64_t n_reps_total,
                        std::uint64_t pool_size, std::string* err) {
  if (s.circuit != circuit) {
    *err = "checkpoint is for circuit '" + s.circuit + "', campaign runs '" +
           circuit + "'";
    return false;
  }
  if (s.shard_index != shard_index || s.shard_count != shard_count) {
    *err = "checkpoint shard geometry " + std::to_string(s.shard_index) + "/" +
           std::to_string(s.shard_count) + " does not match requested " +
           std::to_string(shard_index) + "/" + std::to_string(shard_count);
    return false;
  }
  if (s.options_fp != options_fingerprint(opt, circuit, view, shard_count)) {
    *err = "checkpoint was taken under different campaign options or a "
           "different netlist (fingerprint mismatch)";
    return false;
  }
  if (s.n_reps_total != n_reps_total) {
    *err = "checkpoint fault-list size " + std::to_string(s.n_reps_total) +
           " does not match circuit's " + std::to_string(n_reps_total);
    return false;
  }
  if (s.pool_size != pool_size) {
    *err = "checkpoint prepass pool size " + std::to_string(s.pool_size) +
           " does not match campaign's " + std::to_string(pool_size);
    return false;
  }
  const auto prng = util::Prng(opt.seed).state();
  for (int i = 0; i < 4; ++i) {
    if (s.prng_state[i] != prng[i]) {
      *err = "checkpoint prng state does not match campaign seed";
      return false;
    }
  }
  return true;
}

}  // namespace obd::flow
