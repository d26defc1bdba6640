// Crash-isolated multi-process campaign fleet (broker/worker sharding).
//
// RunFaultCampaign's thread pool survives a *misbehaving* pass (CHECK traps
// are caught, watchdogs cancel cooperatively) but not a *lethal* one: a guest
// that corrupts the heap, a checker that segfaults, or an operator's kill -9
// takes the whole campaign — and every completed pass — with it. The fleet
// puts each unit of work in a disposable OS process instead:
//
//   coordinator ──pipe──> worker 0   (own engine, own solver, own journal)
//               ──pipe──> worker 1
//               ──pipe──> ...
//
// The coordinator owns the schedule, derived by the same CampaignSchedule
// the in-process scheduler uses: it leases pass indices to workers over
// the wire protocol (src/fleet/wire.h), tracks liveness via heartbeats and
// waitpid, and merges RESULT records in plan order with the same
// CampaignMerger the in-process scheduler uses. A worker that dies — any
// signal, any exit, any corrupt byte stream — costs exactly its in-flight
// lease: the coordinator salvages completed records from the dead worker's
// shard journal, re-queues the lease (bounded retries, then the pass is
// quarantined with a deterministic failure), and spawns a replacement.
// Because execution is decoupled from merging and records are keyed by pass
// index (idempotent: first record for an index wins), the merged report's
// deterministic section is byte-identical to a single-process run at any
// worker count and any crash/reassignment history.
//
// The shared solver cache crosses the process boundary read-only: every
// worker warm-starts from `shared_cache_path`, accumulates privately, and
// writes its delta to a per-worker file at drain; the coordinator folds the
// deltas together and persists once (under the file lock SaveToFile takes,
// so concurrent independent campaigns elect a single writer).
//
// See DESIGN.md §7e for the full state machine.
#ifndef SRC_FLEET_FLEET_H_
#define SRC_FLEET_FLEET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/ddt.h"
#include "src/support/subprocess.h"

namespace ddt {
namespace fleet {

// Everything a worker process needs beyond the campaign config itself. In
// fork mode these are passed in memory; the fault_campaign example's exec
// mode reconstructs them from --fleet-* flags.
struct FleetWorkerOptions {
  int in_fd = kChildInFd;    // coordinator -> worker frames
  int out_fd = kChildOutFd;  // worker -> coordinator frames
  // Directory for this worker's shard journal and cache-delta file. The
  // coordinator owns the directory; slot+generation name the files so a
  // replacement worker never appends to its dead predecessor's journal.
  std::string shard_dir;
  uint32_t slot = 0;
  uint64_t generation = 0;
  uint32_t heartbeat_interval_ms = 200;
  // --- Test/CI fault hooks (off by default) ---
  // After appending the Nth executed pass to the shard journal but *before*
  // sending its RESULT frame, die via SIGKILL. Exercises the salvage path:
  // the record exists only in the shard journal.
  int64_t kill_after_journal_result = -1;  // 1-based count of executed passes
  // After sending the Nth RESULT frame, die via SIGKILL. Exercises
  // reassignment of the *next* lease mid-flight.
  int64_t kill_after_result = -1;  // 1-based
  // Send every RESULT frame twice. Exercises the coordinator's idempotent
  // merge (duplicate records for a pass index are dropped).
  bool duplicate_results = false;
};

// Worker entry point: speaks the wire protocol on in_fd/out_fd until BYE or
// pipe close. Returns the process exit code (0 = drained cleanly). Never
// throws; a CHECK trap inside a pass is handled by the executor (quarantined
// record), a CHECK trap outside one exits nonzero.
int RunFleetWorker(const FaultCampaignConfig& config, const DriverImage& image,
                   const PciDescriptor& descriptor, const FleetWorkerOptions& options);

struct FleetCampaignConfig {
  // Worker process count. The coordinator is elastic downward: it never keeps
  // more live workers than there is remaining work.
  uint32_t workers = 2;
  // Required. Per-worker shard journals and cache deltas live here; the
  // directory must exist and be writable.
  std::string shard_dir;
  uint32_t heartbeat_interval_ms = 200;
  // A worker that has sent no frame (heartbeat or otherwise) for this long is
  // declared lost: SIGKILLed, salvaged, its lease reassigned. Heartbeats come
  // from a dedicated thread, so this bounds worker *liveness*, not pass
  // duration — a pass may legitimately run far longer.
  uint32_t heartbeat_timeout_ms = 10000;
  // Times a pass may be reassigned after worker losses before it is
  // quarantined ("the pass kills whoever runs it").
  uint32_t max_lease_retries = 2;
  // 0 = unlimited. Otherwise a worker is drained and replaced after serving
  // this many leases — process recycling against slow leaks in long
  // campaigns (and a respawn-path workout for tests).
  uint32_t max_leases_per_worker = 0;
  // Spawn mode. Empty: fork mode — workers are forked from the coordinator
  // process and run RunFleetWorker on the in-memory config (do not combine
  // with other live threads in the calling process; see subprocess.h).
  // Non-empty: exec mode — this binary is spawned with worker_args plus the
  // coordinator-appended --fleet-worker identity flags (see the
  // fault_campaign example).
  std::string worker_exec;
  std::vector<std::string> worker_args;
  // Forwarded to fork-mode workers (fault hooks for tests; ignored in exec
  // mode, where the flags travel on the command line).
  FleetWorkerOptions worker_test;
  // --- Test hooks ---
  // Replaces the spawn path entirely (e.g. a hand-rolled child speaking a
  // perturbed protocol). Receives the worker options the coordinator built.
  std::function<Result<ChildProcess>(const FleetWorkerOptions&)> spawn_override;
  // Called after each RESULT is accepted: (slot, worker pid, pass index).
  // Runs on the coordinator thread; may kill(pid, ...) to inject crashes.
  std::function<void(uint32_t, pid_t, uint64_t)> on_result;
  // SIGKILL the assignee of the Nth LEASE (1-based, counting every LEASE
  // frame sent including reassignments) immediately after the lease is
  // written. The worker dies holding the lease, forcing the full loss path:
  // salvage, reassignment, respawn. -1 = off. Used by the CI determinism
  // harness (--fleet-kill-lease) and the crash tests.
  int64_t kill_lease_number = -1;
};

// Runs the campaign across a fleet of worker processes. The result's
// deterministic report (FormatReport with include_volatile=false) is
// byte-identical to RunFaultCampaign's for the same (config, image) at any
// worker count and any worker-crash history; the fleet_* tallies and the
// scheduler line land in the volatile section only.
//
// config.journal_path / config.resume work exactly as in-process: the
// coordinator keeps the main journal, and a killed coordinator resumes from
// it (completed passes are not re-leased).
Result<FaultCampaignResult> RunFleetCampaign(const FaultCampaignConfig& config,
                                             const DriverImage& image,
                                             const PciDescriptor& descriptor,
                                             const FleetCampaignConfig& fleet);

}  // namespace fleet
}  // namespace ddt

#endif  // SRC_FLEET_FLEET_H_
