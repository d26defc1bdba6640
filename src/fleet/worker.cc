// Fleet worker process: lease -> execute -> journal -> RESULT, until BYE.
//
// A worker is the in-process scheduler's worker *thread* promoted to a
// process. It owns a private CampaignPassExecutor (so a pass runs under the
// exact same watchdog/retry/quarantine supervision), a private shard journal
// (so its completed passes survive its own death), and a private solver cache
// warm-started read-only from the shared persistence file. Ordering is the
// crash-safety contract: a pass is journaled *before* its RESULT frame is
// sent, so the coordinator can always salvage from the journal anything it
// never heard about — and a RESULT the coordinator did hear about may also be
// salvaged later, which is why the coordinator's merge is idempotent by pass
// index.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "src/core/campaign_exec.h"
#include "src/core/campaign_journal.h"
#include "src/fleet/fleet.h"
#include "src/fleet/wire.h"
#include "src/solver/shared_cache.h"
#include "src/support/log.h"
#include "src/support/strings.h"

namespace ddt {
namespace fleet {
namespace {

// Serializes the heartbeat thread and the lease loop onto one pipe: frames
// must never interleave.
class FrameWriter {
 public:
  explicit FrameWriter(int fd) : fd_(fd) {}

  Status Write(FrameType type, std::string_view body) {
    std::unique_lock<std::mutex> lock(mu_);
    return WriteFrame(fd_, type, body);
  }

 private:
  int fd_;
  std::mutex mu_;
};

// Periodic liveness beacon. Beats for the whole worker session — including
// while a pass executes — so the coordinator's heartbeat timeout bounds
// worker liveness, not pass duration. A failed beat means the coordinator is
// gone; the worker has nothing left to live for.
class HeartbeatThread {
 public:
  HeartbeatThread(FrameWriter* writer, uint32_t interval_ms)
      : writer_(writer), interval_ms_(interval_ms == 0 ? 200 : interval_ms) {
    thread_ = std::thread([this] { Loop(); });
  }

  ~HeartbeatThread() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void Loop() {
    uint64_t seq = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_), [this] { return stop_; });
      if (stop_) {
        return;
      }
      lock.unlock();
      Status st = writer_->Write(FrameType::kHeartbeat, EncodeHeartbeat(seq++));
      if (!st.ok()) {
        ::_exit(2);  // orphaned: the coordinator's pipe is gone
      }
      lock.lock();
    }
  }

  FrameWriter* writer_;
  uint32_t interval_ms_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace

std::string ShardJournalPath(const std::string& shard_dir, uint32_t slot, uint64_t generation) {
  return StrFormat("%s/worker-%u-%llu.journal", shard_dir.c_str(), slot,
                   static_cast<unsigned long long>(generation));
}

std::string CacheDeltaPath(const std::string& shard_dir, uint32_t slot, uint64_t generation) {
  return StrFormat("%s/cache-%u-%llu.bin", shard_dir.c_str(), slot,
                   static_cast<unsigned long long>(generation));
}

int RunFleetWorker(const FaultCampaignConfig& config, const DriverImage& image,
                   const PciDescriptor& descriptor, const FleetWorkerOptions& options) {
  ::signal(SIGPIPE, SIG_IGN);

  // The worker's config drops everything the coordinator owns: the main
  // journal (the shard journal replaces it) and the observability collectors
  // (volatile-only, and a record cannot carry live registries anyway). None
  // of these enter the campaign fingerprint, so the HELLO fingerprint still
  // matches the coordinator's.
  FaultCampaignConfig worker_config = config;
  worker_config.journal_path.clear();
  worker_config.resume = false;
  worker_config.collect_metrics = false;
  worker_config.collect_profile = false;

  uint64_t fingerprint = CampaignFingerprint(worker_config, image);

  // Private solver cache, warm-started read-only from the shared file. The
  // worker never writes the shared path — its accumulated entries go to a
  // per-worker delta file at drain, which the coordinator folds back.
  std::shared_ptr<SharedQueryCache> cache;
  if (worker_config.shared_cache || !worker_config.shared_cache_path.empty()) {
    SharedCacheConfig cache_config;
    cache_config.max_bytes = worker_config.shared_cache_max_bytes;
    cache = std::make_shared<SharedQueryCache>(cache_config);
    if (!worker_config.shared_cache_path.empty()) {
      cache->LoadFromFile(worker_config.shared_cache_path);
    }
  }

  std::string journal_path = ShardJournalPath(options.shard_dir, options.slot, options.generation);
  Result<std::unique_ptr<CampaignJournal>> journal =
      CampaignJournal::Create(journal_path, image.name, fingerprint);
  if (!journal.ok()) {
    DDT_LOG_WARN("fleet worker %u: %s", options.slot, journal.status().message().c_str());
    return 3;
  }

  CampaignPassExecutor executor(worker_config, image, descriptor, cache.get(),
                                /*campaign_metrics=*/nullptr);

  FrameWriter writer(options.out_fd);
  HelloBody hello;
  hello.fingerprint = fingerprint;
  hello.pid = static_cast<uint64_t>(::getpid());
  if (!writer.Write(FrameType::kHello, EncodeHello(hello)).ok()) {
    return 2;
  }
  HeartbeatThread heartbeat(&writer, options.heartbeat_interval_ms);

  FrameReader reader(options.in_fd);
  int64_t executed = 0;
  for (;;) {
    Result<Frame> frame = reader.Next();
    if (!frame.ok()) {
      return 2;  // coordinator died or the stream broke: nothing to clean up
    }
    switch (frame.value().type) {
      case FrameType::kLease: {
        LeaseBody lease;
        if (!DecodeLease(frame.value().body, &lease)) {
          return 2;
        }
        PassOutcome out = executor.Execute(lease.plan);
        FaultSiteProfile profile;
        HwSiteProfile hw_profile;
        const FaultSiteProfile* profile_ptr = nullptr;
        const HwSiteProfile* hw_profile_ptr = nullptr;
        if (lease.index == 0 && !out.quarantined) {
          profile = out.ddt->engine().fault_site_profile();
          profile_ptr = &profile;
          hw_profile = out.ddt->engine().hw_site_profile();
          hw_profile_ptr = &hw_profile;
        }
        CampaignPassRecord record =
            MakePassRecord(lease.index, lease.plan, out, profile_ptr, hw_profile_ptr);
        Status appended = journal.value()->Append(record);
        if (!appended.ok()) {
          DDT_LOG_WARN("fleet worker %u: %s", options.slot, appended.message().c_str());
          return 3;
        }
        ++executed;
        if (options.kill_after_journal_result == executed) {
          ::raise(SIGKILL);  // record durable, RESULT never sent: salvage path
        }
        std::string payload = EncodeCampaignPassRecord(record);
        if (!writer.Write(FrameType::kResult, payload).ok()) {
          return 2;
        }
        if (options.duplicate_results &&
            !writer.Write(FrameType::kResult, payload).ok()) {
          return 2;
        }
        if (options.kill_after_result == executed) {
          ::raise(SIGKILL);
        }
        break;
      }
      case FrameType::kBye: {
        std::string cache_path;
        if (cache != nullptr && !worker_config.shared_cache_path.empty()) {
          cache_path = CacheDeltaPath(options.shard_dir, options.slot, options.generation);
          Status saved = cache->SaveToFile(cache_path);
          if (!saved.ok()) {
            DDT_LOG_WARN("fleet worker %u: %s", options.slot, saved.message().c_str());
            cache_path.clear();
          }
        }
        ByeBody bye;
        bye.code = kByeDrain;
        bye.detail = cache_path;
        writer.Write(FrameType::kBye, EncodeBye(bye));
        return 0;
      }
      default:
        return 2;  // protocol violation; the coordinator treats exit as loss
    }
  }
}

}  // namespace fleet
}  // namespace ddt
