// Per-shard campaign runs: one strided fault partition, checkpointed.
//
// A shard owns the collapsed representatives with global index ≡ shard_index
// (mod shard_count). It runs the campaign executor (detail::run_executor in
// flow/campaign_detail.hpp — the same one a one-shot run_campaign uses on
// partition 0/1) over just those faults — random prepass, deterministic
// top-off, shard-local detection matrix — committing a checkpoint after the
// prepass, every `checkpoint_every` PODEM results, and at completion.
// Because first detections are independent of which other faults are
// co-simulated (the scheduler's determinism contract), the supervisor can
// merge shard checkpoints back into the exact one-shot campaign result.
//
// This is the unit of crash tolerance: run as a child process by the shard
// supervisor (obd_atpg --shard i/n) or in-process by tests. A SIGINT/
// SIGTERM stop flag interrupts between fault searches after flushing a
// valid checkpoint, so an interrupted shard loses no committed work.
#pragma once

#include <csignal>
#include <cstdint>
#include <string>

#include "flow/campaign.hpp"
#include "flow/checkpoint.hpp"
#include "logic/sequential.hpp"

namespace obd::flow {

struct ShardRunOptions {
  std::string checkpoint_dir;  ///< required; created by the supervisor/CLI
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Load an existing checkpoint and continue. A missing file starts
  /// fresh; an invalid or mismatched file (other options, other netlist
  /// content) is kBadCheckpoint (the supervisor deletes it and retries
  /// from scratch).
  bool resume = false;
  /// PODEM results between periodic checkpoint flushes — the most work a
  /// crash can lose.
  int checkpoint_every = 64;
  /// Polled between fault searches; set by a signal handler. When it goes
  /// nonzero the shard flushes a checkpoint and returns kInterrupted.
  const volatile std::sig_atomic_t* stop = nullptr;
  /// Heartbeat NDJSON file (append-only). Empty disables heartbeats. The
  /// supervisor points every child at progress-<i>.ndjson under the
  /// checkpoint dir and uses file growth as its liveness signal.
  std::string progress_path;
  /// Seconds between throttled heartbeats; <= 0 emits on every poll site.
  double progress_interval_s = 1.0;
};

enum class ShardRunStatus {
  kDone,           ///< shard complete, kDone checkpoint committed
  kInterrupted,    ///< stop flag seen; partial checkpoint committed
  kBadCheckpoint,  ///< resume requested but the checkpoint is invalid
  kError,          ///< preamble/configuration/I-O failure (see error)
};

struct ShardRunResult {
  ShardRunStatus status = ShardRunStatus::kError;
  std::string error;
  ShardState state;  ///< the final committed state (kDone / kInterrupted)
};

/// Runs (or resumes) one shard. Enhanced-scan / combinational campaigns
/// only: launch-on-capture styles and n-detect growth are whole-campaign
/// constructs and are rejected. Fault-injection crash points fire inside
/// (checkpoint saves, shard start) — in process mode this function may not
/// return; in in-process mode it may throw InjectedCrash.
ShardRunResult run_campaign_shard(const logic::SequentialCircuit& seq,
                                  const CampaignOptions& opt,
                                  const ShardRunOptions& sopt);

}  // namespace obd::flow
