// Fleet coordinator: lease scheduling, liveness, salvage, plan-order merge.
//
// The coordinator is a single-threaded event loop over the worker pipes plus
// waitpid. Per tick it (1) drains every readable pipe through a FrameDecoder
// and dispatches complete frames, (2) reaps exited workers, (3) declares
// heartbeat-silent workers lost, (4) hands pending pass indices to idle
// workers. A lost worker — exited, signaled, timed out, or speaking a corrupt
// stream — always takes the same path: kill with certainty, salvage every
// intact record from its shard journal, re-queue its in-flight lease (bounded
// by max_lease_retries, then the pass is quarantined), and respawn a
// replacement if work remains.
//
// Determinism: the coordinator never merges in arrival order. It accumulates
// records keyed by pass index (first record wins — a pass can legally be
// reported twice, once over the wire and once via salvage) and merges them in
// plan order at the end with the same CampaignMerger the in-process scheduler
// uses, so the deterministic report is byte-identical to a single-process run
// regardless of worker count, interleaving, or crash history.
#include "src/fleet/fleet.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "src/core/campaign_exec.h"
#include "src/core/campaign_journal.h"
#include "src/fleet/wire.h"
#include "src/solver/shared_cache.h"
#include "src/support/eintr.h"
#include "src/support/log.h"
#include "src/support/strings.h"

namespace ddt {
namespace fleet {
namespace {

using Clock = std::chrono::steady_clock;

// How a pass record reached the coordinator; drives journaling and tallies.
enum class RecordSource {
  kResume,   // restored from the main journal (counts into passes_loaded)
  kWire,     // RESULT frame (or synthesized quarantine)
  kSalvage,  // recovered from a dead worker's shard journal
};

struct Slot {
  uint32_t id = 0;
  uint64_t generation = 0;
  pid_t pid = -1;
  int to_fd = -1;
  int from_fd = -1;
  FrameDecoder decoder;
  bool helloed = false;
  bool draining = false;   // BYE sent; expecting the worker's BYE + exit
  bool recycling = false;  // draining specifically to respawn fresh
  bool got_bye = false;
  bool eof = false;
  bool reaped = false;   // exit status collected; the pid must not be signalled
  bool retired = false;  // never respawn (rejected HELLO or campaign drain)
  int64_t lease = -1;    // pass index in flight
  Clock::time_point last_heard;
  uint64_t leases_served = 0;
  std::string journal_path;
  std::string cache_delta_path;

  bool alive() const { return pid > 0; }
};

class Coordinator {
 public:
  Coordinator(const FaultCampaignConfig& config, const DriverImage& image,
              const PciDescriptor& descriptor, const FleetCampaignConfig& fleet)
      : config_(config), image_(image), descriptor_(descriptor), fleet_(fleet), schedule_(config) {}

  Result<FaultCampaignResult> Run() {
    auto campaign_start = Clock::now();
    Status st = Setup();
    if (st.ok()) {
      st = EventLoop();
    }
    if (!st.ok()) {
      Shutdown();
      return st;
    }
    st = MergeAll();
    if (!st.ok()) {
      return st;
    }
    FoldCaches();
    PublishTallies();
    result_.campaign_wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - campaign_start).count();
    return std::move(result_);
  }

 private:
  // --- Setup --------------------------------------------------------------

  Status Setup() {
    Status valid = ValidateCampaignConfig(config_);
    if (!valid.ok()) {
      return valid;
    }
    if (fleet_.workers == 0) {
      return Status::Error("fleet.workers must be >= 1");
    }
    if (fleet_.shard_dir.empty()) {
      return Status::Error("fleet.shard_dir is required (per-worker journals live there)");
    }
    if (config_.max_pass_wall_ms != 0 &&
        fleet_.heartbeat_timeout_ms <= config_.max_pass_wall_ms) {
      // Cross-field inversion caught up front rather than surfacing as
      // spurious "drain timeout" losses: the drain deadline reuses
      // heartbeat_timeout_ms, so it must outlast the watchdog budget a final
      // in-flight pass is still legitimately allowed to spend.
      return Status::Error(StrFormat(
          "fleet heartbeat/watchdog budget inversion: heartbeat_timeout_ms (%u) must exceed "
          "max_pass_wall_ms (%llu)",
          fleet_.heartbeat_timeout_ms,
          static_cast<unsigned long long>(config_.max_pass_wall_ms)));
    }
    if (config_.collect_metrics) {
      metrics_ = std::make_shared<obs::MetricsRegistry>();
    }

    // Main journal and schedule: exactly the in-process semantics. A restored
    // baseline (with its profiles) makes the whole schedule known before any
    // worker spawns.
    Status opened = schedule_.Open(image_, metrics_.get());
    if (!opened.ok()) {
      return opened;
    }
    if (std::optional<CampaignPassRecord> base = schedule_.TakeBaseline()) {
      Status accepted = AcceptRecord(std::move(*base), RecordSource::kResume);
      if (!accepted.ok()) {
        return accepted;
      }
    } else {
      pending_.push_back(0);
    }

    slots_.resize(fleet_.workers);
    for (uint32_t i = 0; i < fleet_.workers; ++i) {
      slots_[i].id = i;
      Status spawned = Spawn(slots_[i]);
      if (!spawned.ok()) {
        return spawned;
      }
    }
    return Status::Ok();
  }

  Status Spawn(Slot& slot) {
    slot.generation = ++generation_counter_;
    slot.journal_path = ShardJournalPath(fleet_.shard_dir, slot.id, slot.generation);
    slot.helloed = slot.draining = slot.recycling = slot.got_bye = slot.eof = slot.reaped = false;
    slot.decoder = FrameDecoder();
    slot.lease = -1;
    slot.cache_delta_path.clear();

    FleetWorkerOptions wopts = fleet_.worker_test;
    wopts.shard_dir = fleet_.shard_dir;
    wopts.slot = slot.id;
    wopts.generation = slot.generation;
    wopts.heartbeat_interval_ms = fleet_.heartbeat_interval_ms;

    Result<ChildProcess> child = [&]() -> Result<ChildProcess> {
      if (fleet_.spawn_override) {
        return fleet_.spawn_override(wopts);
      }
      if (!fleet_.worker_exec.empty()) {
        std::vector<std::string> args = fleet_.worker_args;
        args.push_back("--fleet-worker");
        args.push_back(StrFormat("--fleet-slot=%u", wopts.slot));
        args.push_back(StrFormat("--fleet-gen=%llu",
                                 static_cast<unsigned long long>(wopts.generation)));
        args.push_back(StrFormat("--fleet-shard-dir=%s", wopts.shard_dir.c_str()));
        args.push_back(StrFormat("--fleet-heartbeat-ms=%u", wopts.heartbeat_interval_ms));
        return SpawnChildExec(fleet_.worker_exec, args);
      }
      const FaultCampaignConfig& config = config_;
      const DriverImage& image = image_;
      const PciDescriptor& descriptor = descriptor_;
      return SpawnChild([&config, &image, &descriptor, wopts](int in_fd, int out_fd) {
        FleetWorkerOptions options = wopts;
        options.in_fd = in_fd;
        options.out_fd = out_fd;
        return RunFleetWorker(config, image, descriptor, options);
      });
    }();
    if (!child.ok()) {
      return child.status();
    }
    slot.pid = child.value().pid;
    slot.to_fd = child.value().to_child_fd;
    slot.from_fd = child.value().from_child_fd;
    ::fcntl(slot.from_fd, F_SETFL, O_NONBLOCK);
    slot.last_heard = Clock::now();
    ++result_.fleet_workers_spawned;
    return Status::Ok();
  }

  // --- Event loop ---------------------------------------------------------

  Status EventLoop() {
    for (;;) {
      if (AllSlotsDead()) {
        if (!WorkComplete()) {
          if (result_.fleet_workers_rejected > 0) {
            return Status::Error(
                "all fleet workers were rejected (campaign fingerprint mismatch); "
                "check that workers run the same configuration and driver image");
          }
          return Status::Error("fleet exhausted: no live workers and work remains");
        }
        return Status::Ok();
      }
      if (WorkComplete() && !drain_started_) {
        StartDrain();
      }

      Status st = PollOnce();
      if (!st.ok()) {
        return st;
      }
      st = ReapAndTimeout();
      if (!st.ok()) {
        return st;
      }
      st = AssignLeases();
      if (!st.ok()) {
        return st;
      }
    }
  }

  bool AllSlotsDead() const {
    for (const Slot& slot : slots_) {
      if (slot.alive()) {
        return false;
      }
    }
    return true;
  }

  bool WorkComplete() const {
    if (!have_plans_ || !pending_.empty()) {
      return false;
    }
    for (const Slot& slot : slots_) {
      if (slot.lease >= 0) {
        return false;
      }
    }
    return true;
  }

  void StartDrain() {
    drain_started_ = true;
    drain_deadline_ = Clock::now() + std::chrono::milliseconds(fleet_.heartbeat_timeout_ms);
    for (Slot& slot : slots_) {
      if (slot.alive() && !slot.draining) {
        slot.draining = true;
        slot.retired = true;
        WriteFrame(slot.to_fd, FrameType::kBye, EncodeBye(ByeBody{kByeDrain, ""}));
      }
    }
  }

  Status PollOnce() {
    std::vector<pollfd> fds;
    std::vector<uint32_t> owners;
    for (Slot& slot : slots_) {
      if (slot.alive() && slot.from_fd >= 0 && !slot.eof) {
        fds.push_back(pollfd{slot.from_fd, POLLIN, 0});
        owners.push_back(slot.id);
      }
    }
    int timeout_ms =
        std::max(10, std::min<int>(100, static_cast<int>(fleet_.heartbeat_interval_ms) / 2));
    for (const Slot& slot : slots_) {
      // A slot at EOF no longer has a pollable fd, so nothing would wake the
      // poll when its process becomes reapable — without this, a worker that
      // exits between two polls costs a full timeout of dead air (with one
      // worker, poll() degenerates into a plain sleep).
      if (slot.alive() && slot.eof) {
        timeout_ms = 1;
        break;
      }
    }
    int ready = RetryOnEintr(
        [&] { return ::poll(fds.empty() ? nullptr : fds.data(), fds.size(), timeout_ms); });
    if (ready < 0) {
      return Status::Error(StrFormat("fleet poll failed: %s", std::strerror(errno)));
    }
    if (ready <= 0) {
      return Status::Ok();
    }
    for (size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      Status st = DrainPipe(slots_[owners[i]]);
      if (!st.ok()) {
        return st;
      }
    }
    return Status::Ok();
  }

  Status DrainPipe(Slot& slot) {
    char chunk[16384];
    for (;;) {
      ssize_t n = RetryOnEintr([&] { return ::read(slot.from_fd, chunk, sizeof(chunk)); });
      if (n > 0) {
        slot.decoder.Feed(chunk, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      }
      slot.eof = true;  // worker closed its end (exit is reaped separately)
      break;
    }
    Frame frame;
    for (;;) {
      FrameDecoder::Next next = slot.decoder.Pop(&frame);
      if (next == FrameDecoder::Next::kNeedMore) {
        break;
      }
      if (next == FrameDecoder::Next::kCorrupt) {
        return HandleLoss(slot, "corrupt frame stream");
      }
      Status st = Dispatch(slot, frame);
      if (!st.ok() || !slot.alive()) {
        return st;
      }
    }
    if (slot.eof && slot.alive() && !slot.got_bye && !slot.reaped) {
      // Pipe closed without a clean BYE: the worker is dying or dead. (A
      // reaped worker's exit is judged by ReapAndTimeout.)
      return HandleLoss(slot, "pipe closed");
    }
    return Status::Ok();
  }

  Status Dispatch(Slot& slot, const Frame& frame) {
    auto now = Clock::now();
    // How long the worker went dark before this frame — the coordinator-side
    // view of heartbeat latency (pass execution never blocks it; heartbeats
    // come from a dedicated worker thread). Spikes approaching
    // heartbeat_timeout_ms mean loss declarations are running close to the
    // wire.
    if (metrics_ != nullptr) {
      metrics_
          ->histogram("fleet.frame_gap_ms", obs::Histogram::LatencyBucketsMs())
          ->Observe(std::chrono::duration<double, std::milli>(now - slot.last_heard).count());
    }
    slot.last_heard = now;
    switch (frame.type) {
      case FrameType::kHello: {
        HelloBody hello;
        if (!DecodeHello(frame.body, &hello)) {
          return HandleLoss(slot, "malformed HELLO");
        }
        if (hello.fingerprint != schedule_.fingerprint()) {
          // A mismatched worker is *rejected*, not quarantined: it is running
          // a different campaign (config or image skew), which is an
          // operator problem, not a pass problem. No salvage, no respawn.
          WriteFrame(slot.to_fd, FrameType::kBye,
                     EncodeBye(ByeBody{kByeRejected, "campaign fingerprint mismatch"}));
          slot.draining = true;
          slot.retired = true;
          ++result_.fleet_workers_rejected;
          return Status::Ok();
        }
        slot.helloed = true;
        return Status::Ok();
      }
      case FrameType::kHeartbeat:
        ++heartbeats_;
        return Status::Ok();
      case FrameType::kResult: {
        CampaignPassRecord record;
        if (!DecodeCampaignPassRecord(frame.body, &record)) {
          return HandleLoss(slot, "undecodable RESULT record");
        }
        uint64_t index = record.index;
        if (slot.lease >= 0 && static_cast<uint64_t>(slot.lease) == index) {
          slot.lease = -1;
          ++slot.leases_served;
        } else if (completed_.find(index) == completed_.end()) {
          return HandleLoss(slot, "RESULT for a pass this worker does not hold");
        }
        Status accepted = AcceptRecord(std::move(record), RecordSource::kWire);
        if (!accepted.ok()) {
          return accepted;
        }
        if (fleet_.on_result) {
          fleet_.on_result(slot.id, slot.pid, index);
        }
        if (fleet_.max_leases_per_worker > 0 &&
            slot.leases_served >= fleet_.max_leases_per_worker && !slot.draining) {
          slot.draining = true;
          slot.recycling = true;
          ++result_.fleet_workers_recycled;
          WriteFrame(slot.to_fd, FrameType::kBye, EncodeBye(ByeBody{kByeDrain, ""}));
        }
        return Status::Ok();
      }
      case FrameType::kBye: {
        ByeBody bye;
        // Only the delta this slot's worker was told to write is folded in.
        if (DecodeBye(frame.body, &bye) && slot.helloed &&
            bye.detail == CacheDeltaPath(fleet_.shard_dir, slot.id, slot.generation)) {
          slot.cache_delta_path = bye.detail;
        }
        slot.got_bye = true;
        return Status::Ok();
      }
      default:
        return HandleLoss(slot, "unexpected frame type");
    }
  }

  Status ReapAndTimeout() {
    auto now = Clock::now();
    auto timeout = std::chrono::milliseconds(fleet_.heartbeat_timeout_ms);
    for (Slot& slot : slots_) {
      if (!slot.alive()) {
        continue;
      }
      int status = 0;
      if (TryReap(slot.pid, &status)) {
        slot.reaped = true;
        // Frames the worker wrote before it exited may still be unread; its
        // BYE (which names its cache delta) is what makes the exit clean.
        Status st = DrainPipe(slot);
        if (st.ok() && slot.alive()) {
          st = slot.got_bye ? RetireCleanly(slot) : HandleLoss(slot, DescribeExit(status));
        }
        if (!st.ok()) {
          return st;
        }
        continue;
      }
      bool silent = now - slot.last_heard > timeout;
      bool drain_overdue = drain_started_ && now > drain_deadline_;
      if (silent || drain_overdue) {
        Status st = HandleLoss(slot, silent ? "heartbeat timeout" : "drain timeout");
        if (!st.ok()) {
          return st;
        }
      }
    }
    return Status::Ok();
  }

  Status RetireCleanly(Slot& slot) {
    CloseSlot(slot);
    if (slot.recycling && (!pending_.empty() || !have_plans_) && !drain_started_) {
      slot.retired = false;
      return Spawn(slot);
    }
    slot.retired = true;
    return Status::Ok();
  }

  // The one road out for every abnormal end: kill with certainty, salvage the
  // shard journal, requeue the in-flight lease, respawn if work remains.
  Status HandleLoss(Slot& slot, const std::string& reason) {
    if (!slot.alive()) {
      return Status::Ok();
    }
    DDT_LOG_WARN("fleet worker %u (pid %d, gen %llu) lost: %s", slot.id,
                 static_cast<int>(slot.pid), static_cast<unsigned long long>(slot.generation),
                 reason.c_str());
    if (!slot.reaped) {
      KillAndReap(slot.pid);  // no zombie writer may race the shard journal
    }
    bool was_rejected = slot.draining && slot.retired && !slot.recycling && !slot.helloed;
    CloseSlot(slot);
    if (was_rejected) {
      return Status::Ok();  // a rejected worker's exit is not a loss
    }
    ++result_.fleet_workers_lost;

    // Salvage: every intact record in the dead worker's journal is a
    // completed pass the campaign keeps — including, possibly, the in-flight
    // lease itself (died after journaling, before RESULT).
    Result<std::vector<CampaignPassRecord>> salvaged =
        LoadCampaignJournalRecords(slot.journal_path, image_.name, schedule_.fingerprint());
    if (salvaged.ok()) {
      for (CampaignPassRecord& rec : salvaged.value()) {
        Status accepted = AcceptRecord(std::move(rec), RecordSource::kSalvage);
        if (!accepted.ok()) {
          return accepted;
        }
      }
    } else {
      DDT_LOG_WARN("fleet worker %u: shard journal unsalvageable: %s", slot.id,
                   salvaged.status().message().c_str());
    }

    if (slot.lease >= 0) {
      uint64_t index = static_cast<uint64_t>(slot.lease);
      slot.lease = -1;
      if (completed_.find(index) == completed_.end()) {
        uint32_t losses = ++lease_losses_[index];
        if (losses > fleet_.max_lease_retries) {
          if (index == 0) {
            return Status::Error(StrFormat(
                "campaign baseline pass failed: worker process lost %u times executing it",
                losses));
          }
          // The pass kills whoever runs it. Quarantine it with a
          // deterministic failure string (no pids, no timing) so resumed or
          // re-run fleets produce the same record.
          CampaignPassRecord rec;
          rec.index = index;
          rec.plan = schedule_.plans()[index - 1];
          rec.quarantined = true;
          rec.failure =
              StrFormat("worker process lost %u times executing this pass", losses);
          Status accepted = AcceptRecord(std::move(rec), RecordSource::kWire);
          if (!accepted.ok()) {
            return accepted;
          }
        } else {
          pending_.push_front(index);
          ++result_.fleet_leases_reassigned;
        }
      }
    }

    if (!drain_started_ && (!pending_.empty() || !have_plans_)) {
      return Spawn(slot);
    }
    slot.retired = true;
    return Status::Ok();
  }

  void CloseSlot(Slot& slot) {
    if (slot.to_fd >= 0) {
      ::close(slot.to_fd);
      slot.to_fd = -1;
    }
    if (slot.from_fd >= 0) {
      ::close(slot.from_fd);
      slot.from_fd = -1;
    }
    if (!slot.cache_delta_path.empty()) {
      cache_delta_paths_.push_back(slot.cache_delta_path);
      slot.cache_delta_path.clear();
    }
    slot.pid = -1;
  }

  Status AssignLeases() {
    for (Slot& slot : slots_) {
      if (pending_.empty()) {
        return Status::Ok();
      }
      if (!slot.alive() || !slot.helloed || slot.draining || slot.lease >= 0) {
        continue;
      }
      uint64_t index = pending_.front();
      LeaseBody lease;
      lease.index = index;
      if (index > 0) {
        lease.plan = schedule_.plans()[index - 1];
      }
      Status written = WriteFrame(slot.to_fd, FrameType::kLease, EncodeLease(lease));
      if (!written.ok()) {
        Status st = HandleLoss(slot, "lease write failed");
        if (!st.ok()) {
          return st;
        }
        continue;
      }
      pending_.pop_front();
      slot.lease = static_cast<int64_t>(index);
      if (++leases_assigned_ == fleet_.kill_lease_number) {
        ::kill(slot.pid, SIGKILL);  // crash injection: dies holding the lease
      }
    }
    return Status::Ok();
  }

  // --- Record accounting ---------------------------------------------------

  Status AcceptRecord(CampaignPassRecord record, RecordSource source) {
    uint64_t index = record.index;
    if (completed_.find(index) != completed_.end()) {
      return Status::Ok();  // idempotent: wire + salvage may both report it
    }
    if (have_plans_ && index > schedule_.plans().size()) {
      return Status::Ok();  // stray record beyond the schedule
    }
    if (index == 0) {
      if (record.quarantined) {
        return Status::Error("campaign baseline pass failed: " + record.failure);
      }
      if (!record.has_profile) {
        return Status::Error(
            "fleet worker returned a baseline record without a fault-site profile");
      }
    }
    if (source != RecordSource::kResume && schedule_.journal() != nullptr) {
      Status appended = schedule_.journal()->Append(record);
      if (!appended.ok()) {
        return appended;
      }
    }
    if (source == RecordSource::kResume) {
      restored_.insert(index);
    }
    if (source == RecordSource::kSalvage) {
      ++result_.fleet_results_salvaged;
    }
    bool was_baseline = index == 0 && !have_plans_;
    FaultSiteProfile profile = record.profile;
    HwSiteProfile hw_profile = record.hw_profile;
    completed_.emplace(index, std::move(record));
    if (was_baseline) {
      return OnPlansReady(profile, hw_profile);
    }
    return Status::Ok();
  }

  Status OnPlansReady(const FaultSiteProfile& profile, const HwSiteProfile& hw_profile) {
    Result<CampaignSchedule::Passes> passes = schedule_.Derive(profile, hw_profile);
    if (!passes.ok()) {
      return passes.status();
    }
    have_plans_ = true;
    for (CampaignPassRecord& rec : passes.value().restored) {
      Status accepted = AcceptRecord(std::move(rec), RecordSource::kResume);
      if (!accepted.ok()) {
        return accepted;
      }
    }
    pending_.insert(pending_.end(), passes.value().pending.begin(),
                    passes.value().pending.end());
    return Status::Ok();
  }

  // --- Finalization --------------------------------------------------------

  Status MergeAll() {
    CampaignMerger merger(config_, &result_);
    auto merge_one = [this, &merger](uint64_t index, const FaultPlan& plan) -> Status {
      auto it = completed_.find(index);
      if (it == completed_.end()) {
        return Status::Error(StrFormat(
            "fleet internal error: pass %llu completed nowhere",
            static_cast<unsigned long long>(index)));
      }
      PassOutcome outcome = OutcomeFromRecord(
          std::move(it->second), /*restored_from_journal=*/restored_.count(index) != 0);
      merger.Merge(plan, outcome);
      return Status::Ok();
    };
    Status st = merge_one(0, FaultPlan{});
    if (!st.ok()) {
      return st;
    }
    for (size_t i = 0; i < schedule_.plans().size(); ++i) {
      st = merge_one(i + 1, schedule_.plans()[i]);
      if (!st.ok()) {
        return st;
      }
    }
    return Status::Ok();
  }

  void FoldCaches() {
    if (!config_.shared_cache && config_.shared_cache_path.empty()) {
      return;
    }
    result_.shared_cache_used = true;
    if (config_.shared_cache_path.empty()) {
      return;  // memory-only mode: each worker's cache died with it
    }
    SharedCacheConfig cache_config;
    cache_config.max_bytes = config_.shared_cache_max_bytes;
    SharedQueryCache cache(cache_config);
    cache.LoadFromFile(config_.shared_cache_path);
    for (const std::string& path : cache_delta_paths_) {
      cache.LoadFromFile(path);
    }
    Status saved = cache.SaveToFile(config_.shared_cache_path);
    if (!saved.ok()) {
      DDT_LOG_WARN("%s", saved.message().c_str());
    }
    SharedQueryCache::Stats stats = cache.stats();
    result_.shared_cache_entries = stats.entries;
    result_.shared_cache_bytes = stats.bytes;
    result_.shared_cache_evictions = stats.evictions;
    result_.shared_cache_load_errors = stats.load_errors;
    result_.shared_cache_loaded_entries = stats.loaded_entries;
    result_.shared_cache_saved_entries = stats.saved_entries;
  }

  void PublishTallies() {
    result_.fleet_mode = true;
    result_.fleet_workers = fleet_.workers;
    result_.threads_used = 1;
    result_.inline_scheduler = false;
    result_.searcher_name = SearchStrategyName(config_.base.engine.strategy);
    if (metrics_ != nullptr) {
      metrics_->counter("fleet.workers_spawned")->Add(result_.fleet_workers_spawned);
      metrics_->counter("fleet.workers_lost")->Add(result_.fleet_workers_lost);
      metrics_->counter("fleet.workers_rejected")->Add(result_.fleet_workers_rejected);
      metrics_->counter("fleet.workers_recycled")->Add(result_.fleet_workers_recycled);
      metrics_->counter("fleet.leases_reassigned")->Add(result_.fleet_leases_reassigned);
      metrics_->counter("fleet.results_salvaged")->Add(result_.fleet_results_salvaged);
      metrics_->counter("fleet.heartbeats")->Add(heartbeats_);
      metrics_->gauge("fleet.workers")->Set(static_cast<int64_t>(fleet_.workers));
      result_.metrics.Merge(metrics_->Snapshot());
    }
  }

  void Shutdown() {
    for (Slot& slot : slots_) {
      if (slot.alive()) {
        KillAndReap(slot.pid);
        CloseSlot(slot);
      }
    }
  }

  const FaultCampaignConfig& config_;
  const DriverImage& image_;
  const PciDescriptor& descriptor_;
  const FleetCampaignConfig& fleet_;

  CampaignSchedule schedule_;
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  FaultCampaignResult result_;

  std::vector<Slot> slots_;
  uint64_t generation_counter_ = 0;

  bool have_plans_ = false;
  std::deque<uint64_t> pending_;
  std::map<uint64_t, uint32_t> lease_losses_;
  std::map<uint64_t, CampaignPassRecord> completed_;
  std::set<uint64_t> restored_;

  bool drain_started_ = false;
  int64_t leases_assigned_ = 0;
  Clock::time_point drain_deadline_;
  std::vector<std::string> cache_delta_paths_;
  uint64_t heartbeats_ = 0;
};

}  // namespace

Result<FaultCampaignResult> RunFleetCampaign(const FaultCampaignConfig& config,
                                             const DriverImage& image,
                                             const PciDescriptor& descriptor,
                                             const FleetCampaignConfig& fleet) {
  ::signal(SIGPIPE, SIG_IGN);  // a dying worker's pipe must error, not kill us
  Coordinator coordinator(config, image, descriptor, fleet);
  return coordinator.Run();
}

}  // namespace fleet
}  // namespace ddt
