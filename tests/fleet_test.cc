// Fleet end-to-end: the multi-process campaign's deterministic report must be
// byte-identical to the in-process scheduler's — at any worker count, through
// SIGKILLed workers (salvage + lease reassignment), duplicate RESULT frames,
// worker recycling (every worker's solver-cache delta merged), and resume —
// and a worker whose HELLO fingerprint does not match is rejected (operator
// error), never quarantined (pass error).
// Both schedulers refuse a journal from another schedule with one error, and
// record-sourced passes publish the same counter metrics as live ones.
// Plus wire-protocol units: framing round-trip, pinned frame bytes,
// incremental decode, CRC and truncation detection, and a blocking reader
// that keeps every frame of one read().
#include "src/fleet/fleet.h"

#include <dirent.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/campaign_exec.h"
#include "src/drivers/corpus.h"
#include "src/fleet/wire.h"
#include "src/solver/shared_cache.h"
#include "src/support/record.h"
#include "src/support/strings.h"

namespace ddt {
namespace fleet {
namespace {

// --- Wire protocol units ---------------------------------------------------

TEST(FleetWireTest, BodyCodecsRoundTrip) {
  HelloBody hello{0xDEADBEEFCAFEF00Dull, 4242};
  HelloBody hello2;
  ASSERT_TRUE(DecodeHello(EncodeHello(hello), &hello2));
  EXPECT_EQ(hello2.fingerprint, hello.fingerprint);
  EXPECT_EQ(hello2.pid, hello.pid);

  LeaseBody lease;
  lease.index = 7;
  lease.plan.label = "alloc#1 + map-io-space#0";
  lease.plan.points = {FaultPoint{FaultClass::kAllocation, 1},
                       FaultPoint{FaultClass::kMapIoSpace, 0}};
  lease.plan.hw_points = {HwFaultPoint{HwFaultKind::kSurpriseRemoval, 12},
                          HwFaultPoint{HwFaultKind::kIrqStorm, 3}};
  LeaseBody lease2;
  ASSERT_TRUE(DecodeLease(EncodeLease(lease), &lease2));
  EXPECT_EQ(lease2.index, 7u);
  EXPECT_EQ(lease2.plan.label, lease.plan.label);
  ASSERT_EQ(lease2.plan.points.size(), 2u);
  EXPECT_TRUE(lease2.plan.points[0] == lease.plan.points[0]);
  EXPECT_TRUE(lease2.plan.points[1] == lease.plan.points[1]);
  ASSERT_EQ(lease2.plan.hw_points.size(), 2u);
  EXPECT_TRUE(lease2.plan.hw_points[0] == lease.plan.hw_points[0]);
  EXPECT_TRUE(lease2.plan.hw_points[1] == lease.plan.hw_points[1]);

  uint64_t seq = 0;
  ASSERT_TRUE(DecodeHeartbeat(EncodeHeartbeat(99), &seq));
  EXPECT_EQ(seq, 99u);

  ByeBody bye{kByeRejected, "campaign fingerprint mismatch"};
  ByeBody bye2;
  ASSERT_TRUE(DecodeBye(EncodeBye(bye), &bye2));
  EXPECT_EQ(bye2.code, kByeRejected);
  EXPECT_EQ(bye2.detail, bye.detail);

  // Truncated bodies must decode to false, not garbage.
  std::string enc = EncodeLease(lease);
  EXPECT_FALSE(DecodeLease(std::string_view(enc).substr(0, enc.size() - 1), &lease2));
  // So must a point count that claims more points than the body holds.
  LeaseBody empty;
  std::string lying = EncodeLease(empty);
  lying[lying.size() - 8] = '\xFF';  // the kernel-plane count's low byte
  EXPECT_FALSE(DecodeLease(lying, &lease2));
}

TEST(FleetWireTest, DecoderHandlesSplitFramesAndDetectsCorruption) {
  std::string stream = EncodeFrame(FrameType::kHeartbeat, EncodeHeartbeat(1)).value() +
                       EncodeFrame(FrameType::kBye, EncodeBye(ByeBody{0, "done"})).value();
  // Feed one byte at a time: frames must pop exactly when complete.
  FrameDecoder decoder;
  std::vector<Frame> frames;
  Frame frame;
  for (char c : stream) {
    decoder.Feed(&c, 1);
    while (decoder.Pop(&frame) == FrameDecoder::Next::kFrame) {
      frames.push_back(frame);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kHeartbeat);
  EXPECT_EQ(frames[1].type, FrameType::kBye);

  // A flipped payload byte fails the CRC and poisons the decoder.
  std::string bad = stream;
  bad[10] ^= 0x01;
  FrameDecoder corrupt;
  corrupt.Feed(bad.data(), bad.size());
  EXPECT_EQ(corrupt.Pop(&frame), FrameDecoder::Next::kCorrupt);
  EXPECT_EQ(corrupt.Pop(&frame), FrameDecoder::Next::kCorrupt);

  // An absurd length prefix is corruption, not a huge allocation.
  std::string huge(8, '\xFF');
  FrameDecoder hostile;
  hostile.Feed(huge.data(), huge.size());
  EXPECT_EQ(hostile.Pop(&frame), FrameDecoder::Next::kCorrupt);
}

std::string Hex(std::string_view bytes) {
  return HexBytes(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
}

std::string Unspaced(std::string hex) {
  hex.erase(std::remove(hex.begin(), hex.end(), ' '), hex.end());
  return hex;
}

// Workers and coordinators of older builds speak this protocol: the literals
// pin the bytes of one frame of every type.
TEST(FleetWireTest, FramesMatchThePinnedBytes) {
  LeaseBody lease;
  lease.index = 7;
  lease.plan.label = "alloc#1 + map-io-space#0";
  lease.plan.points = {FaultPoint{FaultClass::kAllocation, 1},
                       FaultPoint{FaultClass::kMapIoSpace, 0}};
  lease.plan.hw_points = {HwFaultPoint{HwFaultKind::kSurpriseRemoval, 12},
                          HwFaultPoint{HwFaultKind::kIrqStorm, 3}};
  FuzzExecResultBody result;
  result.index = 5;
  result.ok = 1;
  result.coverage_hex = "ff00";
  result.instructions = 1234;
  result.bugs_text = "ddt-bug-report v1\n";
  const std::pair<std::string, const char*> cases[] = {
      {EncodeFrame(FrameType::kHello, EncodeHello(HelloBody{0x0123456789ABCDEFull, 4242}))
           .value(),
       "11000000adf402b901efcdab89674523019210000000000000"},
      {EncodeFrame(FrameType::kLease, EncodeLease(lease)).value(),
       "4d0000001102752e02070000000000000018000000616c6c6f632331202b206d61702d696f2d737061636"
       "52330020000000000000001000000010000000000000002000000000000000c0000000300000003000000"},
      {EncodeFrame(FrameType::kHeartbeat, EncodeHeartbeat(99)).value(),
       "09000000338fe081036300000000000000"},
      {EncodeFrame(FrameType::kResult, "{\"i\":1}").value(),
       "0800000083e96f1a047b2269223a317d"},
      {EncodeFrame(FrameType::kBye,
                   EncodeBye(ByeBody{kByeRejected, "campaign fingerprint mismatch"})).value(),
       "23000000908ef2d505011d00000063616d706169676"
       "e2066696e6765727072696e74206d69736d61746368"},
      {EncodeFrame(FrameType::kFuzzExec,
                   EncodeFuzzExecLease(FuzzExecLease{3, "label x\nend\n"})).value(),
       "19000000dddd01480603000000000000000c0000006c6162656c20780a656e640a"},
      {EncodeFrame(FrameType::kFuzzExec, EncodeFuzzExecResult(result)).value(),
       "34000000225654fc06050000000000000001000000000400000066663030"
       "d204000000000000120000006464742d6275672d7265706f72742076310a"},
  };
  for (const auto& [frame, pinned] : cases) {
    EXPECT_EQ(Unspaced(Hex(frame)), pinned);
  }
}

// A worker's whole shard of leases, or two results, can land in one read():
// the reader must hand back every frame, in order, before reporting EOF.
TEST(FleetWireTest, ReaderReturnsEveryFrameOfOneWrite) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string two = EncodeFrame(FrameType::kHeartbeat, EncodeHeartbeat(1)).value() +
                    EncodeFrame(FrameType::kHeartbeat, EncodeHeartbeat(2)).value();
  ASSERT_EQ(::write(fds[1], two.data(), two.size()), static_cast<ssize_t>(two.size()));
  ::close(fds[1]);
  FrameReader reader(fds[0]);
  for (uint64_t want = 1; want <= 2; ++want) {
    Result<Frame> frame = reader.Next();
    ASSERT_TRUE(frame.ok()) << "frame " << want << ": " << frame.error();
    uint64_t seq = 0;
    ASSERT_TRUE(DecodeHeartbeat(frame.value().body, &seq));
    EXPECT_EQ(seq, want);
  }
  Result<Frame> eof = reader.Next();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.error(), "fleet pipe closed");
  ::close(fds[0]);
}

// --- End-to-end fleet campaigns -------------------------------------------

// Small but real campaign over the rtl8029 corpus driver: 1 baseline + up to
// 7 plans, including the map-io-space#0 single that exposes the driver's
// latent map-failure cleanup bug.
FaultCampaignConfig TestConfig() {
  FaultCampaignConfig config;
  config.base.engine.max_instructions = 2'000'000;
  config.base.engine.max_wall_ms = 120'000;
  config.max_passes = 8;
  config.max_occurrences_per_class = 2;
  config.escalation_rounds = 1;
  config.threads = 1;
  return config;
}

std::string ShardDir(const std::string& name) {
  std::string dir = testing::TempDir() + "fleet_" + name;
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

FleetCampaignConfig TestFleet(const std::string& name, uint32_t workers) {
  FleetCampaignConfig fleet;
  fleet.workers = workers;
  fleet.shard_dir = ShardDir(name);
  fleet.heartbeat_interval_ms = 50;
  return fleet;
}

// The in-process scheduler's deterministic report — the byte-identity oracle
// every fleet variant is diffed against. Computed once.
const std::string& ReferenceReport() {
  static const std::string* report = [] {
    const CorpusDriver& driver = CorpusDriverByName("rtl8029");
    Result<FaultCampaignResult> r = RunFaultCampaign(TestConfig(), driver.image, driver.pci);
    EXPECT_TRUE(r.ok()) << r.status().message();
    return new std::string(
        r.value().FormatReport(driver.name, /*include_volatile=*/false));
  }();
  return *report;
}

TEST(FleetCampaignTest, ByteIdenticalReportAtAnyWorkerCount) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  for (uint32_t workers : {1u, 3u}) {
    Result<FaultCampaignResult> r = RunFleetCampaign(
        TestConfig(), driver.image, driver.pci,
        TestFleet(StrFormat("w%u", workers), workers));
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().FormatReport(driver.name, false), ReferenceReport())
        << "workers=" << workers;
    EXPECT_TRUE(r.value().fleet_mode);
    EXPECT_EQ(r.value().fleet_workers, workers);
    EXPECT_EQ(r.value().fleet_workers_lost, 0u);

    // The latent rtl8029 map-failure cleanup bug — unreachable in plain runs
    // — must surface under fleet mode with a stable identity at every worker
    // count (it is part of the byte-identical report, but assert it directly
    // so a regression names the bug, not a diff).
    bool found_latent = false;
    for (const Bug& bug : r.value().bugs) {
      if (bug.title.find("MosMapIoSpace[map-io-space#0]") != std::string::npos) {
        found_latent = true;
      }
    }
    EXPECT_TRUE(found_latent) << "latent map-failure bug missing at workers=" << workers;
  }
}

TEST(FleetCampaignTest, HwFaultPlaneIsByteIdenticalToInProcess) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FaultCampaignConfig config = TestConfig();
  // Room for the hw leg: TestConfig's kernel plans alone fill an 8-pass
  // budget, and hw plans are only appended to spare capacity.
  config.max_passes = 24;
  config.hw_faults = true;
  config.hw_max_points_per_kind = 2;
  config.base.dma_checker = true;
  Result<FaultCampaignResult> in_process = RunFaultCampaign(config, driver.image, driver.pci);
  ASSERT_TRUE(in_process.ok()) << in_process.status().message();
  EXPECT_GT(in_process.value().total_stats.hw_faults_injected, 0u);

  Result<FaultCampaignResult> fleet = RunFleetCampaign(config, driver.image, driver.pci,
                                                       TestFleet("hwplane", 3));
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();
  EXPECT_EQ(fleet.value().FormatReport(driver.name, false),
            in_process.value().FormatReport(driver.name, false));
}

TEST(FleetCampaignTest, RejectsHeartbeatTimeoutInsideWatchdogBudget) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FaultCampaignConfig config = TestConfig();
  config.max_pass_wall_ms = 10'000;
  FleetCampaignConfig fleet = TestFleet("inversion", 1);
  fleet.heartbeat_timeout_ms = 10'000;  // == max_pass_wall_ms: inverted
  Result<FaultCampaignResult> r = RunFleetCampaign(config, driver.image, driver.pci, fleet);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("heartbeat/watchdog budget inversion"),
            std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("heartbeat_timeout_ms"), std::string::npos);

  // Strictly larger is fine again.
  fleet = TestFleet("inversion_ok", 1);
  fleet.heartbeat_timeout_ms = 10'001;
  Result<FaultCampaignResult> ok = RunFleetCampaign(config, driver.image, driver.pci, fleet);
  EXPECT_TRUE(ok.ok()) << ok.status().message();
}

TEST(FleetCampaignTest, SigkilledWorkerIsReassignedWithoutChangingTheReport) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  // Kill the holder of a different lease each run: the report must not care
  // where in the schedule the crash lands.
  for (int64_t kill_lease : {2, 4}) {
    FleetCampaignConfig fleet =
        TestFleet(StrFormat("kill%lld", static_cast<long long>(kill_lease)), 2);
    fleet.kill_lease_number = kill_lease;
    Result<FaultCampaignResult> r =
        RunFleetCampaign(TestConfig(), driver.image, driver.pci, fleet);
    ASSERT_TRUE(r.ok()) << r.status().message();
    EXPECT_EQ(r.value().FormatReport(driver.name, false), ReferenceReport())
        << "kill_lease=" << kill_lease;
    EXPECT_GE(r.value().fleet_workers_lost, 1u);
    EXPECT_GE(r.value().fleet_leases_reassigned, 1u);
    EXPECT_GT(r.value().fleet_workers_spawned, 2u);  // a replacement joined
    EXPECT_EQ(r.value().passes_quarantined, 0u);     // the pass itself is fine
  }
}

TEST(FleetCampaignTest, RecordsJournaledButNeverSentAreSalvagedNotDuplicated) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  // Every worker SIGKILLs itself after journaling its first pass but before
  // sending the RESULT frame: each pass reaches the coordinator only through
  // shard-journal salvage, and the merge must not duplicate or lose any.
  FleetCampaignConfig fleet = TestFleet("salvage", 1);
  fleet.worker_test.kill_after_journal_result = 1;
  Result<FaultCampaignResult> r =
      RunFleetCampaign(TestConfig(), driver.image, driver.pci, fleet);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().FormatReport(driver.name, false), ReferenceReport());
  EXPECT_GE(r.value().fleet_results_salvaged, r.value().passes.size());
  EXPECT_GE(r.value().fleet_workers_lost, r.value().passes.size());
  EXPECT_EQ(r.value().fleet_leases_reassigned, 0u);  // salvage made requeues moot
}

TEST(FleetCampaignTest, DuplicateResultFramesMergeIdempotently) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FleetCampaignConfig fleet = TestFleet("dup", 2);
  fleet.worker_test.duplicate_results = true;
  Result<FaultCampaignResult> r =
      RunFleetCampaign(TestConfig(), driver.image, driver.pci, fleet);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().FormatReport(driver.name, false), ReferenceReport());
  EXPECT_EQ(r.value().fleet_workers_lost, 0u);
}

TEST(FleetCampaignTest, MismatchedFingerprintIsRejectedNotQuarantined) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FleetCampaignConfig fleet = TestFleet("mismatch", 2);
  // Slot 0 is spawned with a *different* campaign (perturbed seed → different
  // fingerprint); slot 1 is correct. The impostor must be turned away at
  // HELLO — and because rejection is an operator problem, not a pass problem,
  // no pass may be quarantined over it.
  fleet.spawn_override = [&driver](const FleetWorkerOptions& options) {
    FaultCampaignConfig config = TestConfig();
    if (options.slot == 0) {
      config.seed ^= 1;
    }
    return SpawnChild([&driver, config, options](int in_fd, int out_fd) {
      FleetWorkerOptions opts = options;
      opts.in_fd = in_fd;
      opts.out_fd = out_fd;
      return RunFleetWorker(config, driver.image, driver.pci, opts);
    });
  };
  Result<FaultCampaignResult> r =
      RunFleetCampaign(TestConfig(), driver.image, driver.pci, fleet);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().FormatReport(driver.name, false), ReferenceReport());
  EXPECT_EQ(r.value().fleet_workers_rejected, 1u);
  EXPECT_EQ(r.value().fleet_workers_lost, 0u);
  EXPECT_EQ(r.value().passes_quarantined, 0u);

  // With *every* worker mismatched the fleet cannot make progress; that is a
  // campaign error naming the cause, not a hang or a quarantine cascade.
  FleetCampaignConfig all_bad = TestFleet("mismatch_all", 2);
  all_bad.spawn_override = [&driver](const FleetWorkerOptions& options) {
    FaultCampaignConfig config = TestConfig();
    config.seed ^= 1;
    return SpawnChild([&driver, config, options](int in_fd, int out_fd) {
      FleetWorkerOptions opts = options;
      opts.in_fd = in_fd;
      opts.out_fd = out_fd;
      return RunFleetWorker(config, driver.image, driver.pci, opts);
    });
  };
  Result<FaultCampaignResult> bad =
      RunFleetCampaign(TestConfig(), driver.image, driver.pci, all_bad);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("rejected"), std::string::npos)
      << bad.status().message();
}

TEST(FleetCampaignTest, WorkerRecyclingDrainsAndRespawns) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FleetCampaignConfig fleet = TestFleet("recycle", 2);
  fleet.max_leases_per_worker = 2;
  Result<FaultCampaignResult> r =
      RunFleetCampaign(TestConfig(), driver.image, driver.pci, fleet);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().FormatReport(driver.name, false), ReferenceReport());
  EXPECT_GE(r.value().fleet_workers_recycled, 1u);
  EXPECT_GT(r.value().fleet_workers_spawned, 2u);
  EXPECT_EQ(r.value().fleet_workers_lost, 0u);
}

// The solver-cache delta files ("cache-<slot>-<generation>.bin") in `dir`.
std::vector<std::string> CacheDeltas(const std::string& dir) {
  std::vector<std::string> paths;
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name.rfind("cache-", 0) == 0 && name.compare(name.size() - 4, 4, ".bin") == 0) {
        paths.push_back(dir + "/" + name);
      }
    }
    ::closedir(d);
  }
  return paths;
}

// A recycled worker can exit before the coordinator reads its BYE, which
// names its cache delta. Every delta must still be merged: the fold loads
// exactly the entries of every delta file the workers wrote.
TEST(FleetCampaignTest, EveryWorkersCacheDeltaIsMerged) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FleetCampaignConfig fleet = TestFleet("cache_deltas", 2);
  fleet.max_leases_per_worker = 1;
  FaultCampaignConfig config = TestConfig();
  config.shared_cache_path = fleet.shard_dir + "/shared.bin";
  std::remove(config.shared_cache_path.c_str());
  for (const std::string& stale : CacheDeltas(fleet.shard_dir)) {
    std::remove(stale.c_str());
  }
  Result<FaultCampaignResult> r = RunFleetCampaign(config, driver.image, driver.pci, fleet);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().FormatReport(driver.name, false), ReferenceReport());
  EXPECT_EQ(r.value().fleet_workers_lost, 0u);
  EXPECT_GE(r.value().fleet_workers_recycled, 1u);

  std::vector<std::string> deltas = CacheDeltas(fleet.shard_dir);
  EXPECT_EQ(deltas.size(), r.value().fleet_workers_spawned);
  uint64_t delta_entries = 0;
  for (const std::string& path : deltas) {
    SharedQueryCache delta;
    delta_entries += delta.LoadFromFile(path);
    EXPECT_EQ(delta.stats().load_errors, 0u) << path;
  }
  EXPECT_GT(delta_entries, 0u);
  EXPECT_EQ(r.value().shared_cache_loaded_entries, delta_entries);
  EXPECT_EQ(r.value().shared_cache_load_errors, 0u);
}

TEST(FleetCampaignTest, CoordinatorJournalResumesWithoutReleasing) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  std::string journal = testing::TempDir() + "fleet_resume.journal";

  FaultCampaignConfig config = TestConfig();
  config.journal_path = journal;
  Result<FaultCampaignResult> first = RunFleetCampaign(
      config, driver.image, driver.pci, TestFleet("resume_first", 2));
  ASSERT_TRUE(first.ok()) << first.status().message();

  // Resume from a complete journal: every pass restores, no lease is ever
  // issued, and the report is still byte-identical.
  config.resume = true;
  Result<FaultCampaignResult> second = RunFleetCampaign(
      config, driver.image, driver.pci, TestFleet("resume_second", 2));
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_EQ(second.value().FormatReport(driver.name, false), ReferenceReport());
  EXPECT_EQ(second.value().passes_loaded, second.value().passes.size());
}

// A journal whose pass 1 carries another label belongs to another schedule.
// It is rewritten through CampaignJournal, so every CRC holds and the
// fingerprint matches: only the schedule's label check can catch it, and
// both schedulers must refuse it with the same text.
TEST(FleetCampaignTest, BothSchedulersRefuseAJournalFromAnotherSchedule) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FaultCampaignConfig config = TestConfig();
  config.journal_path = testing::TempDir() + "fleet_relabelled.journal";
  Result<FaultCampaignResult> first = RunFaultCampaign(config, driver.image, driver.pci);
  ASSERT_TRUE(first.ok()) << first.status().message();

  uint64_t fingerprint = CampaignFingerprint(config, driver.image);
  Result<std::vector<CampaignPassRecord>> records =
      LoadCampaignJournalRecords(config.journal_path, driver.image.name, fingerprint);
  ASSERT_TRUE(records.ok()) << records.status().message();
  {
    Result<std::unique_ptr<CampaignJournal>> journal =
        CampaignJournal::Create(config.journal_path, driver.image.name, fingerprint);
    ASSERT_TRUE(journal.ok()) << journal.status().message();
    for (CampaignPassRecord& rec : records.value()) {
      if (rec.index == 1) {
        rec.label = "relabelled";
      }
      ASSERT_TRUE(journal.value()->Append(rec).ok());
    }
  }

  config.resume = true;
  Result<FaultCampaignResult> in_process = RunFaultCampaign(config, driver.image, driver.pci);
  Result<FaultCampaignResult> fleet =
      RunFleetCampaign(config, driver.image, driver.pci, TestFleet("relabelled", 2));
  ASSERT_FALSE(in_process.ok());
  ASSERT_FALSE(fleet.ok());
  EXPECT_NE(in_process.status().message().find(
                "does not match the campaign schedule: pass 1 is 'relabelled' in the journal"),
            std::string::npos)
      << in_process.status().message();
  EXPECT_EQ(fleet.status().message(), in_process.status().message());
}

// The table-row metrics of a snapshot: counters for kSum rows, gauge
// high-water marks for kMax rows. Rows a run did not publish stay absent.
std::map<std::string, uint64_t> CounterRowMetrics(const obs::MetricsSnapshot& snapshot) {
  std::map<std::string, uint64_t> out;
  auto collect = [&](const auto& rows) {
    for (const auto& row : rows) {
      if (row.merge == obs::CounterMerge::kMax) {
        auto it = snapshot.gauges.find(row.metric);
        if (it != snapshot.gauges.end()) {
          out[row.metric] = static_cast<uint64_t>(it->second.max);
        }
      } else {
        auto it = snapshot.counters.find(row.metric);
        if (it != snapshot.counters.end()) {
          out[row.metric] = it->second;
        }
      }
    }
  };
  collect(kEngineCounters);
  collect(kSolverCounters);
  return out;
}

// Passes merged from records — every fleet pass, every journal-restored pass
// — publish their counters from the record, so the metrics do not depend on
// who ran a pass. Without a shared cache every row is deterministic.
TEST(FleetCampaignTest, RecordSourcedPassesPublishTheSameCounterMetrics) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FaultCampaignConfig config = TestConfig();
  config.collect_metrics = true;
  Result<FaultCampaignResult> fleet =
      RunFleetCampaign(config, driver.image, driver.pci, TestFleet("metrics", 3));
  ASSERT_TRUE(fleet.ok()) << fleet.status().message();

  config.journal_path = testing::TempDir() + "fleet_metrics.journal";
  Result<FaultCampaignResult> reference = RunFaultCampaign(config, driver.image, driver.pci);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  std::map<std::string, uint64_t> want = CounterRowMetrics(reference.value().metrics);
  EXPECT_GT(want["engine.instructions"], 0u);
  EXPECT_EQ(want.count("hw.faults_injected"), 0u);  // no hw plan ran
  EXPECT_EQ(CounterRowMetrics(fleet.value().metrics), want);

  // Kill and resume: keep the header and the first three records (one
  // thread journals in plan order), as a campaign killed after pass 2
  // leaves its journal, then resume.
  Result<std::string> journal = ReadWholeFile(config.journal_path);
  ASSERT_TRUE(journal.ok()) << journal.error();
  size_t keep = 0;
  std::string_view payload;
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(ReadRecord(journal.value(), &keep, &payload), RecordRead::kRecord);
  }
  ASSERT_TRUE(WriteFileAtomic(config.journal_path, journal.value().substr(0, keep)).ok());
  config.resume = true;
  Result<FaultCampaignResult> resumed = RunFaultCampaign(config, driver.image, driver.pci);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed.value().passes_loaded, 3u);
  EXPECT_EQ(CounterRowMetrics(resumed.value().metrics), want);
}

}  // namespace
}  // namespace fleet
}  // namespace ddt
