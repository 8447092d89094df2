// Shard checkpoints: the durable unit of a crash-tolerant campaign.
//
// A sharded campaign splits the collapsed fault list into `shard_count`
// strided partitions (global fault i belongs to shard i % shard_count) and
// runs each partition as an independent process. Everything a shard learns
// is captured in a ShardState and persisted after the random prepass,
// periodically during the PODEM top-off, and at completion — so a crash,
// OOM kill, or timeout loses at most `checkpoint_every` fault searches,
// and a resumed run replays to a bit-identical merged detection matrix
// (the fault-sim layer's determinism contract makes "resume == rerun" a
// checkable property via matrix_hash).
//
// On-disk format (version 4, little-endian; only the current version
// loads — older files fail the options fingerprint anyway, so a resume
// rejects them and the shard re-runs fresh):
//
//   magic   "OBDCKPT\n"          8 bytes
//   version u32                  kCheckpointVersion
//   flags   u32                  reserved, 0
//   length  u64                  payload byte count
//   payload length bytes         ShardState fields (ByteWriter encoding)
//   crc     u32                  CRC-32C over every preceding byte
//
// Validation is strict and layered: size/magic/version checks, exact
// declared-length match (rejects truncation and trailing garbage), CRC
// (rejects every single-byte corruption by construction), then a fully
// bounds-checked semantic decode (lengths re-validated against remaining
// bytes, enums range-checked, index lists checked strictly increasing,
// matrix covered-count recomputed and compared). A checkpoint that fails
// any step is reported with a diagnostic — never a crash, never a silent
// misparse.
//
// Writes are atomic (util::write_file_atomic: temp + fsync + rename) and
// carry the fault-injection crash points, so the torn/corrupt/stale cases
// are all reachable from tests.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "atpg/faultsim_engine.hpp"
#include "atpg/patterns.hpp"
#include "flow/campaign.hpp"

namespace obd::flow {

/// The only on-disk version decode_checkpoint accepts.
inline constexpr std::uint32_t kCheckpointVersion = 4;

/// Per-fault progress of a shard, in assigned-partition (local) order.
enum class FaultStatus : std::uint8_t {
  kPending = 0,          ///< not yet attempted
  kRandomDetected = 1,   ///< caught by the random prepass
  kTestFound = 2,        ///< PODEM produced a test (stored in det_tests)
  kUntestable = 3,       ///< PODEM proved untestable
  kAbortedBacktracks = 4,///< deterministic abort: backtrack limit
  kAbortedTime = 5,      ///< time-budget abort: re-attempted on resume
  kSatCube = 6,          ///< SAT escalation cube (stored in det_tests)
  kSatUntestable = 7,    ///< SAT escalation proved untestable
  kSatUnknown = 8,       ///< SAT conflict budget exhausted; re-escalated on
                         ///< resume when escalation is enabled
};

const char* to_string(FaultStatus s);

/// A deterministic-phase test, tagged with the local index of the assigned
/// fault it was generated for (global index = shard + local * shard_count),
/// which is what lets the merge reconstruct the one-shot test order.
struct ShardDetTest {
  std::uint32_t local_index = 0;
  atpg::TwoVectorTest test;
};

enum class ShardPhase : std::uint8_t {
  kPrepassDone = 1,   ///< random prepass committed, PODEM not started
  kPodemPartial = 2,  ///< some PODEM results committed
  kDone = 3,          ///< shard complete (local matrix included)
};

struct ShardState {
  std::string circuit;
  std::uint64_t options_fp = 0;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  std::uint64_t n_reps_total = 0;  ///< collapsed representatives, all shards
  std::uint64_t pool_size = 0;     ///< random-prepass pool size
  ShardPhase phase = ShardPhase::kPrepassDone;
  /// xoshiro state of Prng(seed) — a redundant witness of the seed beyond
  /// the options fingerprint (the pool itself is regenerated, not stored).
  std::array<std::uint64_t, 4> prng_state{};
  long long fault_block_evals = 0;
  /// CDCL effort spent by SAT escalation in this shard (merged into
  /// CampaignReport::sat_conflicts etc.).
  long long sat_conflicts = 0;
  long long sat_decisions = 0;
  long long sat_restarts = 0;
  /// Conflicts-per-escalated-fault log2 buckets (obs::log2_bucket).
  std::array<std::uint64_t, 32> sat_hist{};
  /// PODEM effort of this shard's committed top-off searches (merged into
  /// CampaignReport::podem_implications / podem_backtracks).
  long long podem_implications = 0;
  long long podem_backtracks = 0;
  /// Prepass pool indices that first-detected some assigned fault
  /// (strictly increasing).
  std::vector<std::uint32_t> useful_pool;
  /// One status per assigned fault, local order.
  std::vector<FaultStatus> status;
  /// PODEM tests, local_index strictly increasing.
  std::vector<ShardDetTest> det_tests;
  /// Shard-local detection matrix (shard tests x assigned faults); present
  /// only in kDone checkpoints.
  bool has_matrix = false;
  atpg::DetectionMatrix local_matrix;

  /// Assigned-partition size for a strided split.
  static std::size_t assigned_count(std::uint64_t n_reps, std::uint32_t index,
                                    std::uint32_t count) {
    if (index >= n_reps) return 0;
    return static_cast<std::size_t>((n_reps - index + count - 1) / count);
  }
};

/// Canonical checkpoint file path for a shard.
std::string checkpoint_path(const std::string& dir, int shard_index);

/// Fingerprint of everything that changes shard *results*: the netlist
/// the campaign runs on (`view`, the model-lowered full-scan or
/// combinational circuit: gate types, fan-in and output nets, PI and PO
/// order — flops are the view's trailing pseudo-PIs/POs), the circuit
/// name, and the options model, scan style, seed, prepass size, backtrack
/// and time budgets, and shard count. Deliberately excludes the fault-sim
/// options (threads, lanes: bit-identical by the scheduler's contract), merge-time options
/// (compact, ndetect), and the SAT escalation options: a checkpoint taken
/// at 1 thread resumes at 8, and a PODEM-only checkpoint resumes with
/// --sat-escalate as a pure top-off over its recorded aborts.
std::uint64_t options_fingerprint(const CampaignOptions& opt,
                                  const std::string& circuit,
                                  const logic::Circuit& view,
                                  std::uint32_t shard_count);

/// In-memory encode/decode — the unit the robustness property tests attack.
std::string encode_checkpoint(const ShardState& s);
bool decode_checkpoint(std::string_view bytes, ShardState* out,
                       std::string* err);

/// Atomic save (fault-injection crash points armed) / strict load.
bool save_checkpoint(const std::string& path, const ShardState& s,
                     std::string* err);
bool load_checkpoint(const std::string& path, ShardState* out,
                     std::string* err);

/// Does a loaded checkpoint belong to this campaign + shard? False with a
/// diagnostic on any mismatch (wrong options or netlist, wrong circuit
/// name, wrong shard geometry, wrong fault-list size).
bool checkpoint_matches(const ShardState& s, const CampaignOptions& opt,
                        const std::string& circuit, const logic::Circuit& view,
                        std::uint32_t shard_index,
                        std::uint32_t shard_count, std::uint64_t n_reps_total,
                        std::uint64_t pool_size, std::string* err);

}  // namespace obd::flow
