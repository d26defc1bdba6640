#include "src/engine/engine.h"

#include <algorithm>
#include <string_view>

#include "src/expr/eval.h"
#include "src/kernel/kernel_api.h"
#include "src/kernel/kernel_context.h"
#include "src/obs/trace_events.h"
#include "src/support/check.h"
#include "src/support/log.h"
#include "src/support/strings.h"
#include "src/vm/block_cache.h"
#include "src/vm/layout.h"

namespace ddt {

void EngineStats::Accumulate(const EngineStats& other) {
  obs::AccumulateCounters(kEngineCounters, other, this);
  if (edge_rule_kills.size() < other.edge_rule_kills.size()) {
    edge_rule_kills.resize(other.edge_rule_kills.size(), 0);
  }
  for (size_t i = 0; i < other.edge_rule_kills.size(); ++i) {
    edge_rule_kills[i] += other.edge_rule_kills[i];
  }
  AccumulateForkSites(&fork_sites, other.fork_sites);
  wall_ms += other.wall_ms;
}

void PublishStatsMetrics(const EngineStats& stats, const SolverStats& solver_stats, bool hw_plan,
                         bool shared_cache, obs::MetricsRegistry* metrics) {
  auto publish = [&](const auto& rows, const auto& values) {
    for (const auto& row : rows) {
      std::string_view metric = row.metric;
      if ((!hw_plan && metric.starts_with("hw.")) ||
          (!shared_cache && metric.starts_with("solver.shared_cache."))) {
        continue;
      }
      if (row.merge == obs::CounterMerge::kMax) {
        metrics->gauge(row.metric)->Set(static_cast<int64_t>(values.*row.field));
      } else {
        metrics->counter(row.metric)->Add(values.*row.field);
      }
    }
  };
  publish(kEngineCounters, stats);
  publish(kSolverCounters, solver_stats);
  metrics->gauge("search.fork_sites")->Set(static_cast<int64_t>(stats.fork_sites.size()));
}

std::string OriginKeyString(const VarOrigin& origin) {
  return StrFormat("%d|%s|%llu|%llu", static_cast<int>(origin.source), origin.label.c_str(),
                   static_cast<unsigned long long>(origin.aux),
                   static_cast<unsigned long long>(origin.seq));
}

// ---------------------------------------------------------------------------
// KernelContext implementation bound to (engine, state, current call).
// ---------------------------------------------------------------------------

class EngineKernelContext : public KernelContext {
 public:
  EngineKernelContext(Engine* engine, ExecutionState* st) : engine_(engine), st_(st) {
    for (int i = 0; i < 4; ++i) {
      args_[static_cast<size_t>(i)] = st->Reg(i);
    }
  }

  ExprContext* expr() override { return &engine_->ctx_; }
  KernelState& kernel() override { return st_->kernel; }
  Rng& rng() override { return st_->rng; }
  DeviceModel& device() override { return *st_->device; }

  Value Arg(int index) override {
    if (index < 4) {
      return args_[static_cast<size_t>(index)];
    }
    uint32_t sp = engine_->ConcretizeValue(*st_, st_->Reg(kRegSp), "stack-arg-sp");
    return engine_->ReadMemValueRaw(*st_, sp + static_cast<uint32_t>(index - 4) * 4, 4);
  }

  void SetArg(int index, const Value& value) override {
    Value effective = engine_->MaybeGuide(value);
    if (index < 4) {
      args_[static_cast<size_t>(index)] = effective;
      st_->SetReg(index, effective);
    }
  }

  void SetReturn(const Value& value) override { st_->SetReg(0, engine_->MaybeGuide(value)); }
  Value GetReturn() override { return st_->Reg(0); }

  uint32_t Concretize(const Value& value, const std::string& reason) override {
    return engine_->ConcretizeValue(*st_, value, reason);
  }

  uint32_t ReadGuestU32(uint32_t addr) override {
    return engine_->ConcretizeValue(*st_, engine_->ReadMemValueRaw(*st_, addr, 4),
                                    "kernel-read-u32");
  }
  uint8_t ReadGuestU8(uint32_t addr) override {
    return static_cast<uint8_t>(engine_->ConcretizeValue(
        *st_, engine_->ReadMemValueRaw(*st_, addr, 1), "kernel-read-u8"));
  }
  void WriteGuestU32(uint32_t addr, uint32_t value) override {
    engine_->WriteMemValueRaw(*st_, addr, Value::Concrete(value), 4);
  }
  void WriteGuestU8(uint32_t addr, uint8_t value) override {
    engine_->WriteMemValueRaw(*st_, addr, Value::Concrete(value), 1);
  }
  std::string ReadGuestCString(uint32_t addr, size_t max_len) override {
    std::string out;
    for (size_t i = 0; i < max_len; ++i) {
      uint8_t c = ReadGuestU8(addr + static_cast<uint32_t>(i));
      if (c == 0) {
        break;
      }
      out.push_back(static_cast<char>(c));
    }
    return out;
  }

  Value ReadGuestValue(uint32_t addr, unsigned size) override {
    return engine_->ReadMemValueRaw(*st_, addr, size);
  }
  void WriteGuestValue(uint32_t addr, const Value& value, unsigned size) override {
    engine_->WriteMemValueRaw(*st_, addr, engine_->MaybeGuide(value), size);
  }

  void AddConstraint(ExprRef constraint) override {
    engine_->AddConstraintChecked(*st_, constraint);
  }

  ExecContextKind CurrentContext() const override { return st_->CurrentContext(); }

  void BugCheck(uint32_t code, const std::string& message) override {
    engine_->DoBugCheck(*st_, code, message);
  }

  void EmitEvent(const KernelEvent& event) override { engine_->EmitKernelEvent(*st_, event); }

  bool ShouldInjectFault(FaultClass cls, const char* api) override {
    return engine_->ShouldInjectFault(*st_, cls, api);
  }

  uint32_t CallSitePc() const override { return st_->pc; }

 private:
  Engine* engine_;
  ExecutionState* st_;
  std::array<Value, 4> args_;
};

// ---------------------------------------------------------------------------
// Engine setup
// ---------------------------------------------------------------------------

namespace {
// The engine-level obs sinks flow down into the solver unless the caller
// already wired the solver's own.
SolverConfig SolverConfigWithObs(const EngineConfig& config) {
  SolverConfig sc = config.solver;
  if (sc.metrics == nullptr) {
    sc.metrics = config.metrics;
  }
  if (sc.profile == nullptr) {
    sc.profile = config.profile;
  }
  return sc;
}
}  // namespace

Engine::Engine(const EngineConfig& config)
    : config_(config),
      abort_token_(config.abort_token != nullptr ? config.abort_token
                                                 : std::make_shared<std::atomic<bool>>(false)),
      solver_(&ctx_, SolverConfigWithObs(config)),
      rng_(config.seed) {
  // The same token that stops the run loop also unwinds in-flight SAT
  // queries, so cancellation latency is bounded by one propagation rather
  // than one (possibly pathological) solver query.
  solver_.SetAbortFlag(abort_token_.get());
#ifndef DDT_OBS_DISABLED
  if (config_.metrics != nullptr) {
    obs_live_states_ = config_.metrics->gauge("engine.live_states");
  }
#endif
}

Engine::~Engine() = default;

void Engine::AddChecker(std::unique_ptr<Checker> checker) {
  checkers_.push_back(std::move(checker));
}

Status EngineConfig::ValidateBudgets() const {
  if (max_states == 0) {
    return Status::Error("EngineConfig.max_states must be nonzero");
  }
  if (max_instructions == 0) {
    return Status::Error("EngineConfig.max_instructions must be nonzero");
  }
  if (max_wall_ms == 0) {
    return Status::Error("EngineConfig.max_wall_ms must be nonzero");
  }
  return Status::Ok();
}

Result<std::shared_ptr<const PreparedDriver>> PrepareDriver(const DriverImage& image) {
  auto driver = std::make_shared<PreparedDriver>();

  // Resolve imports up front: an unresolvable import is a load failure, like
  // an unlinkable SYS file.
  for (const std::string& name : image.imports) {
    KernelApiFn fn = FindKernelApi(name);
    if (fn == nullptr) {
      return Status::Error("unresolved driver import: " + name);
    }
    driver->import_table.push_back(fn);
  }

  driver->loaded = InstallImage(&driver->memory, image, kDriverImageBase);
  if (driver->loaded.code_end > kDriverImageLimit) {
    return Status::Error("driver image too large for the image window");
  }
  driver->code = image.code;
  driver->cfg = BuildCfg(image.code.data(), image.code.size(), driver->loaded.code_begin);
  driver->block_leader_slots.assign(image.code.size() / kInstructionSize, 0);
  for (const auto& [leader, block] : driver->cfg.blocks) {
    uint32_t offset = leader - driver->loaded.code_begin;
    if (offset % kInstructionSize == 0 &&
        offset / kInstructionSize < driver->block_leader_slots.size()) {
      driver->block_leader_slots[offset / kInstructionSize] = 1;
    }
  }
  return std::shared_ptr<const PreparedDriver>(std::move(driver));
}

Status Engine::LoadDriver(const DriverImage& image, const PciDescriptor& descriptor) {
  Status budgets = config_.ValidateBudgets();
  if (!budgets.ok()) {
    return budgets;
  }
  Result<std::shared_ptr<const PreparedDriver>> driver = PrepareDriver(image);
  if (!driver.ok()) {
    return driver.status();
  }
  return LoadDriver(driver.take(), descriptor);
}

Status Engine::LoadDriver(std::shared_ptr<const PreparedDriver> driver,
                          const PciDescriptor& descriptor) {
  DDT_CHECK_MSG(driver != nullptr, "LoadDriver needs a prepared driver");
  Status budgets = config_.ValidateBudgets();
  if (!budgets.ok()) {
    return budgets;
  }
  driver_ = std::move(driver);
  pci_ = descriptor;
  const LoadedDriver& loaded = driver_->loaded;

  auto initial = std::make_unique<ExecutionState>();
  initial->id = next_state_id_++;
  initial->mem = driver_->memory.ShareImage();
  initial->mem.set_stats(&mem_stats_);
  initial->mem.set_eager_fork(config_.eager_cow);

  // Translation cache over the code segment (immutable from here on — the
  // write barrier in WriteMemValueRaw enforces it).
  block_cache_.reset();
  if (config_.enable_block_cache) {
    block_cache_ = std::make_unique<BlockCache>(driver_->code.data(), driver_->code.size(),
                                                loaded.code_begin);
    block_cache_->SetProfile(config_.profile);
  }

  initial->kernel.driver = loaded;
  initial->kernel.pci = pci_;
  initial->kernel.registry = registry_;
  initial->kernel.workload = workload_;
  initial->pc = kIdlePc;
  initial->regs.fill(Value::Concrete(0));
  initial->SetReg(kRegSp, Value::Concrete(kDriverStackTop - 64));
  initial->rng = Rng(config_.seed ^ 0xABCDEF);
  initial->trace.set_max_tail_events(config_.max_trace_tail_events);
  initial->device = device_proto_ != nullptr ? device_proto_->Clone()
                                             : std::make_unique<SymbolicDevice>(loaded.name);
  for (const auto& checker : checkers_) {
    initial->checker_state.emplace(checker->name(), checker->MakeState());
  }
  AddState(std::move(initial));
  return Status::Ok();
}

void Engine::AddState(std::unique_ptr<ExecutionState> state) {
  ++stats_.states_created;
  // Fork profiler: attribute the new state to the fork site that spawned it
  // (the root state has no origin and stays unattributed).
  if (state->origin_fork_pc != 0) {
    ++stats_.fork_sites[{state->origin_fork_pc, state->origin_fault_site}].states_created;
  }
  states_.push_back(std::move(state));
  stats_.max_live_states = std::max<uint64_t>(stats_.max_live_states, states_.size());
}

std::unique_ptr<ExecutionState> Engine::CloneState(ExecutionState& st) {
  return st.Clone(next_state_id_++);
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

double Engine::ElapsedMs() const {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - run_start_)
      .count();
}

bool Engine::BudgetExceeded() const {
  if (abort_token_->load(std::memory_order_relaxed)) {
    return true;
  }
  if (stats_.instructions >= config_.max_instructions) {
    return true;
  }
  if (config_.max_wall_ms != 0 && ElapsedMs() >= static_cast<double>(config_.max_wall_ms)) {
    return true;
  }
  return false;
}

void Engine::Run() {
  obs::ScopedSpan run_span("engine.run");
  run_start_ = std::chrono::steady_clock::now();
  searcher_ = MakeSearcher(config_.strategy, this, config_.seed ^ 0x5EA4C4);

  std::vector<ExecutionState*> alive;
  while (!stop_requested_ && !BudgetExceeded()) {
    alive.clear();
    bool any_parked = false;
    for (const auto& state : states_) {
      if (!state->alive()) {
        continue;
      }
      // Parked states wait at a merge point for their diamond sibling; they
      // are alive but not schedulable.
      if (state->parked) {
        any_parked = true;
        continue;
      }
      alive.push_back(state.get());
    }
    if (alive.empty()) {
      if (!any_parked) {
        break;
      }
      // Every runnable state is parked: no partner can ever arrive, so the
      // groups can never complete. Dissolve them all and keep running.
      for (const auto& state : states_) {
        if (state->alive() && state->parked) {
          state->parked = false;
          state->sibling_group = 0;
          state->merge_pc = 0;
        }
      }
      continue;
    }
    size_t index = searcher_->Select(alive);
    // Fork profiler: SAT calls issued while stepping a state are attributed
    // to the fork site that spawned it. Capture the key before stepping (the
    // state may terminate and be destroyed mid-step).
    const uint32_t step_origin_pc = alive[index]->origin_fork_pc;
    const std::string step_origin_fault = alive[index]->origin_fault_site;
    const uint64_t sat_before = solver_.stats().sat_calls;
    StepState(*alive[index]);
    if (step_origin_pc != 0) {
      uint64_t sat_delta = solver_.stats().sat_calls - sat_before;
      if (sat_delta != 0) {
        stats_.fork_sites[{step_origin_pc, step_origin_fault}].sat_calls += sat_delta;
      }
    }

    // Periodic working-set sample (cheap: delta map sizes, not deep walks).
    if ((stats_.instructions & 0x3FFF) == 0) {
      uint64_t bytes = 0;
      for (const auto& state : states_) {
        bytes += state->mem.DeltaSize() * 16          // delta map entries
                 + state->constraints.size() * 8      // constraint refs
                 + sizeof(ExecutionState);
      }
      stats_.peak_state_bytes = std::max(stats_.peak_state_bytes, bytes);
      if (obs_live_states_ != nullptr) {
        obs_live_states_->Set(static_cast<int64_t>(states_.size()));
      }
      if (config_.max_state_bytes != 0 && bytes > config_.max_state_bytes) {
        EvictStatesOverMemoryBudget(bytes);
      }
    }

    // Prune terminated states (bugs and stats already captured).
    size_t before = states_.size();
    states_.erase(std::remove_if(states_.begin(), states_.end(),
                                 [](const std::unique_ptr<ExecutionState>& s) {
                                   return !s->alive();
                                 }),
                  states_.end());
    stats_.states_terminated += before - states_.size();
  }
  stats_.wall_ms = ElapsedMs();
  if (block_cache_ != nullptr) {
    stats_.blocks_decoded = block_cache_->stats().blocks_decoded;
    stats_.block_cache_hits = block_cache_->stats().hits;
    stats_.block_cache_fallback_fetches = block_cache_->stats().fallback_fetches;
  }
#ifndef DDT_OBS_DISABLED
  if (config_.profile != nullptr) {
    config_.profile->SetTotalAndDeriveInterpret(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             run_start_)
            .count()));
  }
  if (config_.metrics != nullptr) {
    // One shot at the end of Run: the per-pass registry is fresh per engine,
    // so adding the totals yields absolute values that merge across passes.
    PublishStatsMetrics(stats_, solver_.stats(), !config_.fault_plan.hw_points.empty(),
                        config_.solver.shared_cache != nullptr, config_.metrics);
  }
#endif
}

void Engine::StepState(ExecutionState& st) {
  if (!st.alive()) {
    return;
  }
  // Per-state instruction fuel: one runaway path must not starve the rest of
  // the exploration (or the whole run, under stop_after_first_bug).
  if (config_.max_instructions_per_state != 0 && st.steps >= config_.max_instructions_per_state) {
    ++stats_.states_evicted;
    NoteEvictedState(st);
    FinishState(st, "per-state instruction fuel exhausted");
    return;
  }
  if (st.frames.empty() || st.pc == kIdlePc) {
    ScheduleNext(st);
    return;
  }
  ExecuteBlock(st);
}

void Engine::FinishState(ExecutionState& st, const std::string& why) {
  if (!checkers_.empty()) {
    // Checker time is only attributed at state-end and kernel-event dispatch;
    // per-instruction checker hooks stay probe-free and count as interpret
    // time (the documented profiler trade-off).
    obs::ScopedPhase obs_phase(config_.profile, obs::Phase::kChecker);
    for (const auto& checker : checkers_) {
      checker->OnStateEnd(st, *this);
    }
  }
  MaybeCollectPathSeed(st, why);
  if (st.alive()) {
    st.Terminate(why);
  }
}

void Engine::MaybeCollectPathSeed(ExecutionState& st, const std::string& why) {
  // Seed derivation (src/fuzz): ask the solver for a concrete model of this
  // path — the paper's replayable concrete inputs, harvested as fuzz seeds.
  // Collection order follows state termination order, which is deterministic
  // for a single engine run; guided runs never derive seeds from themselves.
  if (config_.max_path_seeds == 0 || config_.guided ||
      path_seeds_.size() >= config_.max_path_seeds || st.constraints.empty()) {
    return;
  }
  std::vector<SolvedInput> inputs = SolveInputs(st);
  if (inputs.empty()) {
    return;
  }
  PathSeed seed;
  seed.inputs = std::move(inputs);
  seed.interrupt_schedule = st.interrupt_schedule;
  seed.alternatives = st.alternatives_taken;
  seed.workload_trail = st.workload_trail;
  seed.termination = st.alive() ? why : st.termination_reason;
  path_seeds_.push_back(std::move(seed));
}

void Engine::EvictStatesOverMemoryBudget(uint64_t current_bytes) {
  // Evict largest-delta states first; they are the most expensive to keep and
  // (being the deepest-forked) the most redundant with surviving siblings.
  // Always keep at least one live state so the run can still make progress.
  std::vector<ExecutionState*> alive;
  for (const auto& state : states_) {
    if (state->alive()) {
      alive.push_back(state.get());
    }
  }
  std::sort(alive.begin(), alive.end(), [](const ExecutionState* a, const ExecutionState* b) {
    return a->mem.DeltaSize() > b->mem.DeltaSize();
  });
  size_t remaining = alive.size();
  for (ExecutionState* st : alive) {
    if (remaining <= 1 || current_bytes <= config_.max_state_bytes) {
      break;
    }
    uint64_t bytes = st->mem.DeltaSize() * 16 + st->constraints.size() * 8 +
                     sizeof(ExecutionState);
    ++stats_.states_evicted;
    NoteEvictedState(*st);
    FinishState(*st, "evicted under memory pressure");
    --remaining;
    current_bytes -= std::min(current_bytes, bytes);
  }
}

bool Engine::ShouldInjectFault(ExecutionState& st, FaultClass cls, const char* api) {
  size_t idx = static_cast<size_t>(cls);
  // The occurrence index advances on EVERY query, injected or not — that is
  // what makes (class, occurrence) a stable coordinate across passes and
  // guided replay.
  uint32_t occurrence = st.kernel.fault_occurrences[idx]++;
  fault_site_profile_.max_occurrences[idx] =
      std::max(fault_site_profile_.max_occurrences[idx], occurrence + 1);
  if (!config_.fault_plan.ShouldFail(cls, occurrence)) {
    return false;
  }
  ++stats_.faults_injected;
  obs::TraceInstant("engine.fault_injected", "class", FaultClassName(cls));
  InjectedFault fault;
  fault.cls = cls;
  fault.occurrence = occurrence;
  fault.api = api;
  st.kernel.faults_injected.push_back(fault);
  KernelEvent ev;
  ev.kind = KernelEvent::Kind::kFaultInjected;
  ev.a = static_cast<uint32_t>(cls);
  ev.b = occurrence;
  ev.text = api;
  EmitKernelEvent(st, ev);
  return true;
}

void Engine::RecordHwFault(ExecutionState& st, HwFaultKind kind, uint32_t index) {
  ++stats_.hw_faults_injected;
  obs::TraceInstant("engine.hw_fault_injected", "kind", HwFaultKindName(kind));
  InjectedHwFault fault;
  fault.kind = kind;
  fault.index = index;
  st.kernel.hw_faults_injected.push_back(fault);
  KernelEvent ev;
  ev.kind = KernelEvent::Kind::kHwFaultInjected;
  ev.a = static_cast<uint32_t>(kind);
  ev.b = index;
  ev.text = HwFaultKindName(kind);
  EmitKernelEvent(st, ev);
}

void Engine::RemoveDevice(ExecutionState& st, HwFaultKind kind, uint32_t index) {
  ++stats_.hw_removals;
  st.kernel.device_removed = true;
  RecordHwFault(st, kind, index);
  if (!st.alive()) {
    return;
  }
  KernelEvent ev;
  ev.kind = KernelEvent::Kind::kDeviceRemoved;
  ev.a = index;
  EmitKernelEvent(st, ev);
}

// ---------------------------------------------------------------------------
// Scheduler: workload steps, DPCs, timers (§4.3)
// ---------------------------------------------------------------------------

namespace {

// Scratch allocation for request buffers handed into entry points.
// Request/playback buffers come from user space and are pageable; packet
// descriptors and payloads are non-paged (DMA-capable).
uint32_t AllocScratch(KernelState& ks, uint32_t size, int slot, bool pageable) {
  uint32_t aligned = (size + 15u) & ~15u;
  uint32_t addr = ks.scratch_cursor;
  if (addr + aligned > kKernelScratchLimit) {
    return 0;
  }
  ks.scratch_cursor += aligned;
  MemoryGrant grant;
  grant.begin = addr;
  grant.end = addr + size;
  grant.revoke_on_entry_exit = true;
  grant.granted_in_slot = slot;
  grant.pageable = pageable;
  ks.grants.push_back(grant);
  return addr;
}

}  // namespace

void Engine::ScheduleNext(ExecutionState& st) {
  KernelState& ks = st.kernel;
  if (ks.crashed) {
    st.Terminate("kernel crashed");
    return;
  }

  // PnP load: invoke the driver's load entry point (DriverEntry) first.
  if (!ks.driver_entry_invoked) {
    ks.driver_entry_invoked = true;
    InvokeGuestFunction(st, driver_->loaded.entry_point, {}, ExecContextKind::kEntryPoint, -1);
    return;
  }
  if (!ks.driver_registered) {
    FinishState(st, "driver did not register entry points");
    return;
  }

  // Pending DPCs run before new workload items (they fire "between" driver
  // invocations, at DISPATCH).
  if (!ks.dpc_queue.empty()) {
    auto [fn, ctx_arg] = ks.dpc_queue.front();
    ks.dpc_queue.erase(ks.dpc_queue.begin());
    InvokeGuestFunction(st, fn, {Value::Concrete(ctx_arg)}, ExecContextKind::kDpc, -1);
    return;
  }

  // Armed timers fire once.
  for (auto& [addr, timer] : ks.timers) {
    if (timer.armed && timer.initialized && timer.fn != 0) {
      timer.armed = false;
      InvokeGuestFunction(st, timer.fn, {Value::Concrete(timer.ctx_arg)},
                          ExecContextKind::kTimer, -1);
      return;
    }
  }

  // Surprise removal (hardware fault plane): the PnP event preempts the rest
  // of the exerciser script — the kernel tears the stack down by delivering
  // Halt exactly once, the same way a real bus driver would on hot-unplug.
  if (ks.device_removed && !ks.removal_halt_delivered) {
    ks.removal_halt_delivered = true;
    ks.workload_pos = ks.workload.size();
    uint32_t halt_fn = ks.entry_points[static_cast<size_t>(kEpHalt)];
    if (!ks.halt_invoked && halt_fn != 0 && ks.init_succeeded) {
      ++stats_.hw_removal_events;
      ks.halt_invoked = true;
      InvokeGuestFunction(st, halt_fn, {}, ExecContextKind::kEntryPoint, kEpHalt);
      return;
    }
  }

  // Next workload step.
  while (ks.workload_pos < ks.workload.size()) {
    const WorkloadStep step = ks.workload[ks.workload_pos++];
    if (step.only_if_init_ok && !ks.init_succeeded) {
      continue;
    }
    uint32_t fn = ks.entry_points[static_cast<size_t>(step.slot)];
    if (fn == 0) {
      continue;  // driver does not implement this entry
    }
    if (step.slot == kEpHalt) {
      ks.halt_invoked = true;
    }
    std::vector<Value> args;
    switch (step.plan) {
      case WorkloadStep::ArgPlan::kNone:
        break;
      case WorkloadStep::ArgPlan::kOidRequest: {
        uint32_t buf = AllocScratch(ks, step.buffer_len, step.slot, /*pageable=*/true);
        for (uint32_t i = 0; i < step.buffer_len; ++i) {
          WriteMemValueRaw(st, buf + i, Value::Concrete(0), 1);
        }
        args = {Value::Concrete(step.param), Value::Concrete(buf),
                Value::Concrete(step.buffer_len)};
        break;
      }
      case WorkloadStep::ArgPlan::kSendPacket: {
        uint32_t desc = AllocScratch(ks, 16 + step.buffer_len, step.slot, /*pageable=*/false);
        uint32_t payload = desc + 16;
        WriteMemValueRaw(st, desc + 0, Value::Concrete(payload), 4);
        WriteMemValueRaw(st, desc + 4, Value::Concrete(step.buffer_len), 4);
        WriteMemValueRaw(st, desc + 8, Value::Concrete(0), 4);
        WriteMemValueRaw(st, desc + 12, Value::Concrete(0), 4);
        for (uint32_t i = 0; i < step.buffer_len; ++i) {
          WriteMemValueRaw(st, payload + i, Value::Concrete(0x41), 1);
        }
        args = {Value::Concrete(desc), Value::Concrete(step.buffer_len)};
        break;
      }
      case WorkloadStep::ArgPlan::kWriteBuffer: {
        uint32_t buf = AllocScratch(ks, step.buffer_len, step.slot, /*pageable=*/true);
        for (uint32_t i = 0; i < step.buffer_len; ++i) {
          WriteMemValueRaw(st, buf + i, Value::Concrete(0x42), 1);
        }
        args = {Value::Concrete(buf), Value::Concrete(step.buffer_len)};
        break;
      }
      case WorkloadStep::ArgPlan::kDiagCode:
        args = {Value::Concrete(step.param)};
        break;
    }
    InvokeGuestFunction(st, fn, args, ExecContextKind::kEntryPoint, step.slot);
    return;
  }

  FinishState(st, "workload complete");
}

void Engine::InvokeGuestFunction(ExecutionState& st, uint32_t fn, const std::vector<Value>& args,
                                 ExecContextKind kind, int entry_slot) {
  DDT_CHECK(args.size() <= 4);
  ExecutionState::Frame frame;
  frame.kind = kind;
  frame.entry_slot = entry_slot;
  frame.saved_regs = st.regs;
  frame.saved_pc = st.pc;
  frame.saved_irql = st.kernel.irql;
  bool top_level = st.frames.empty();
  st.frames.push_back(frame);

  if (top_level) {
    // Fresh invocation from the scheduler: clean register file.
    st.regs.fill(Value::Concrete(0));
    st.SetReg(kRegSp, Value::Concrete(kDriverStackTop - 64));
  }
  for (size_t i = 0; i < args.size(); ++i) {
    st.SetReg(static_cast<int>(i), args[i]);
  }
  st.SetReg(kRegLr, Value::Concrete(kMagicReturnAddress));
  st.pc = fn;
  st.steps_in_frame = 0;

  switch (kind) {
    case ExecContextKind::kIsr:
      st.kernel.irql = Irql::kDevice;
      break;
    case ExecContextKind::kDpc:
    case ExecContextKind::kTimer:
      st.kernel.irql = Irql::kDispatch;
      break;
    default:
      break;
  }

  if (kind == ExecContextKind::kEntryPoint) {
    ++stats_.entry_invocations;
    st.kernel.current_entry_slot = entry_slot;
    st.workload_trail.push_back(static_cast<uint32_t>(entry_slot));
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kEntryEnter;
    ev.pc = fn;
    ev.a = static_cast<uint32_t>(entry_slot);
    st.trace.Append(ev);
    KernelEvent kev;
    kev.kind = KernelEvent::Kind::kEntryEnter;
    kev.a = static_cast<uint32_t>(entry_slot);
    EmitKernelEvent(st, kev);
    if (entry_slot >= 0) {
      RunEntryAnnotations(st, entry_slot);
    }
  }
  CrossBoundary(st);
}

void Engine::RunEntryAnnotations(ExecutionState& st, int slot) {
  const auto& annotations = annotations_.For(EntryAnnotationKey(slot));
  if (annotations.empty()) {
    return;
  }
  EngineKernelContext kc(this, &st);
  for (const auto& annotation : annotations) {
    annotation->OnCall(kc);
    if (!st.alive()) {
      return;
    }
  }
}

void Engine::HandleMagicReturn(ExecutionState& st) {
  DDT_CHECK(!st.frames.empty());
  ExecutionState::Frame frame = st.frames.back();

  if (frame.kind == ExecContextKind::kEntryPoint) {
    uint32_t status = ConcretizeValue(st, st.Reg(0), "entry-status");
    if (!st.alive()) {
      return;
    }
    st.kernel.last_entry_status = status;
    if (frame.entry_slot == kEpInitialize) {
      st.kernel.init_succeeded = status == kStatusSuccess;
    }
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kEntryExit;
    ev.a = static_cast<uint32_t>(frame.entry_slot);
    ev.b = status;
    st.trace.Append(ev);
    KernelEvent kev;
    kev.kind = KernelEvent::Kind::kEntryExit;
    kev.a = static_cast<uint32_t>(frame.entry_slot);
    kev.b = status;
    EmitKernelEvent(st, kev);
    if (!st.alive()) {
      return;  // a checker flagged something at entry exit
    }
    st.kernel.RevokeGrantsForSlot(frame.entry_slot);
    st.kernel.current_entry_slot = -1;
  }

  st.frames.pop_back();
  st.regs = frame.saved_regs;
  st.pc = frame.saved_pc;
  st.kernel.irql = frame.saved_irql;
  st.steps_in_frame = 0;
  CrossBoundary(st);
}

// ---------------------------------------------------------------------------
// Symbolic interrupts (§3.3)
// ---------------------------------------------------------------------------

void Engine::CrossBoundary(ExecutionState& st) {
  if (!st.alive()) {
    return;
  }
  uint32_t crossing = st.kernel.boundary_crossings++;
  hw_site_profile_.max_crossings = std::max(hw_site_profile_.max_crossings, crossing + 1);

  // Interrupt drought: from this crossing on, the device goes silent — every
  // delivery that would otherwise happen is withheld.
  if (!st.kernel.hw_irq_drought &&
      config_.fault_plan.ShouldTriggerHw(HwFaultKind::kIrqDrought, crossing)) {
    st.kernel.hw_irq_drought = true;
    RecordHwFault(st, HwFaultKind::kIrqDrought, crossing);
    if (!st.alive()) {
      return;
    }
  }
  bool hw_silent = st.kernel.device_removed || st.kernel.hw_irq_drought;

  if (!config_.enable_symbolic_interrupts) {
    // Concrete modes: deliver per the forced schedule.
    bool scheduled = std::find(config_.forced_interrupt_schedule.begin(),
                               config_.forced_interrupt_schedule.end(),
                               crossing) != config_.forced_interrupt_schedule.end();
    if (scheduled && st.kernel.isr_registered && !st.InContext(ExecContextKind::kIsr)) {
      if (hw_silent) {
        ++stats_.hw_irq_suppressed;
      } else {
        DeliverIsr(st, crossing);
      }
    }
    return;
  }

  // Interrupt storm: the device interrupts at this crossing whether the path
  // budget allows it or not — delivered in place (every path sees it), not as
  // a fork. Guided replays reproduce the delivery through the recorded
  // interrupt schedule instead, so storms are not re-forced there.
  if (!config_.guided && !hw_silent &&
      config_.fault_plan.ShouldTriggerHw(HwFaultKind::kIrqStorm, crossing) &&
      st.kernel.isr_registered && !st.InContext(ExecContextKind::kIsr)) {
    ++stats_.hw_irq_storms;
    RecordHwFault(st, HwFaultKind::kIrqStorm, crossing);
    if (st.alive()) {
      DeliverIsr(st, crossing);
    }
    return;
  }

  if (st.kernel.isr_registered && st.device->InterruptPossible() &&
      st.kernel.interrupts_injected < config_.max_interrupts_per_path &&
      !st.InContext(ExecContextKind::kIsr) && states_.size() < config_.max_states &&
      st.depth < config_.max_fork_depth) {
    if (hw_silent) {
      ++stats_.hw_irq_suppressed;
      return;
    }
    std::unique_ptr<ExecutionState> child = CloneState(st);
    ++stats_.forks;
    ++stats_.interrupts_injected;
    obs::TraceInstant("engine.fork", "kind", "isr");
    StampForkChild(st, *child);
    DeliverIsr(*child, crossing);
    AddState(std::move(child));
  }
}

void Engine::DeliverIsr(ExecutionState& st, uint32_t crossing_index) {
  uint32_t delivery_index = st.kernel.irq_deliveries++;
  hw_site_profile_.max_interrupts =
      std::max(hw_site_profile_.max_interrupts, delivery_index + 1);
  // The schedule records the crossing even when removal preempts the ISR:
  // replay re-enters DeliverIsr here and the replayed plan re-triggers the
  // removal at the same delivery index.
  st.interrupt_schedule.push_back(crossing_index);
  if (!st.kernel.device_removed &&
      config_.fault_plan.ShouldTriggerHw(HwFaultKind::kRemovalAtInterrupt, delivery_index)) {
    // Hot-unplug at the moment the interrupt would have fired: no ISR runs,
    // and the PnP removal event reaches the exerciser instead.
    RemoveDevice(st, HwFaultKind::kRemovalAtInterrupt, delivery_index);
    return;
  }
  st.kernel.interrupts_injected++;
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kInterrupt;
  ev.pc = st.pc;
  ev.a = crossing_index;
  st.trace.Append(ev);
  KernelEvent kev;
  kev.kind = KernelEvent::Kind::kInterruptInjected;
  kev.a = crossing_index;
  EmitKernelEvent(st, kev);
  InvokeGuestFunction(st, st.kernel.isr_fn, {Value::Concrete(st.kernel.isr_ctx)},
                      ExecContextKind::kIsr, -1);
}

// ---------------------------------------------------------------------------
// Interpreter
// ---------------------------------------------------------------------------

namespace {
constexpr int kQuantumInstructions = 64;
}  // namespace

void Engine::ExecuteBlock(ExecutionState& st) {
  for (int i = 0; i < kQuantumInstructions; ++i) {
    if (!st.alive() || stop_requested_) {
      return;
    }
    // Re-check the wall budget inside the quantum: a single instruction can
    // hide arbitrarily slow solver queries, and the governor promises the
    // run ends within a small factor of max_wall_ms.
    if ((i & 7) == 7 && BudgetExceeded()) {
      return;
    }
    // Diamond merge: this state reached the join PC its fork stamped on it.
    // It either merges with the parked sibling, parks to wait for it, or
    // dissolves the group — in the first two cases the quantum ends.
    if (st.sibling_group != 0 && st.pc == st.merge_pc && TryMergeAtPc(st)) {
      return;
    }
    if (st.pc == kMagicReturnAddress) {
      HandleMagicReturn(st);
      return;
    }
    if (st.pc == kIdlePc || st.frames.empty()) {
      return;  // back to the scheduler
    }
    if (!ExecuteInstruction(st)) {
      return;
    }
  }
}

Value Engine::ReadMemValueRaw(ExecutionState& st, uint32_t addr, unsigned size) {
  // Compose a value from bytes, least significant first. All-concrete is the
  // fast path; otherwise build a Concat chain (the simplifier reassembles
  // whole variables split by earlier writes).
  bool all_concrete = true;
  std::array<MemByte, 4> bytes;
  for (unsigned i = 0; i < size; ++i) {
    bytes[i] = st.mem.ReadByte(addr + i);
    all_concrete &= !bytes[i].IsSymbolic();
  }
  if (all_concrete) {
    uint32_t value = 0;
    for (unsigned i = 0; i < size; ++i) {
      value |= static_cast<uint32_t>(bytes[i].conc) << (8 * i);
    }
    return Value::Concrete(value);
  }
  ExprRef composed = nullptr;
  for (unsigned i = 0; i < size; ++i) {
    ExprRef byte =
        bytes[i].IsSymbolic() ? bytes[i].sym : ctx_.Const(bytes[i].conc, 8);
    composed = composed == nullptr ? byte : ctx_.Concat(byte, composed);
  }
  return Value::Symbolic(composed);
}

void Engine::WriteMemValueRaw(ExecutionState& st, uint32_t addr, const Value& value,
                              unsigned size) {
  // Write barrier enforcing the decode-once invariant: no store — from the
  // driver, an annotation, or a kernel API — may land in the code segment.
  // The memory checker usually reports driver stores first (with richer
  // provenance); this backstop holds even with checkers disabled, and
  // suppresses the write so cached and in-guest code bytes can never diverge.
  const LoadedDriver& loaded = driver_->loaded;
  if (static_cast<uint64_t>(addr) + size > loaded.code_begin && addr < loaded.code_end) {
    ReportBug(st, BugType::kMemoryCorruption,
              StrFormat("write barrier: %u-byte store into immutable driver code at 0x%08x",
                        size, addr),
              "driver code is decode-once immutable; the store was suppressed");
    return;
  }
  if (value.IsConcrete()) {
    uint32_t v = value.concrete();
    for (unsigned i = 0; i < size; ++i) {
      st.mem.WriteByte(addr + i, MemByte::Concrete(static_cast<uint8_t>((v >> (8 * i)) & 0xFF)));
    }
    return;
  }
  ExprRef e = value.symbolic();
  DDT_CHECK(e->width() >= size * 8 || e->width() == 8 || e->width() == 16);
  for (unsigned i = 0; i < size; ++i) {
    if (i * 8 >= e->width()) {
      st.mem.WriteByte(addr + i, MemByte::Concrete(0));
      continue;
    }
    ExprRef byte = ctx_.ExtractByte(e, i);
    if (byte->IsConst()) {
      st.mem.WriteByte(addr + i, MemByte::Concrete(static_cast<uint8_t>(byte->const_value())));
    } else {
      st.mem.WriteByte(addr + i, MemByte::Symbolic(byte));
    }
  }
}

Value Engine::MaybeGuide(const Value& value) {
  if (!config_.guided || value.IsConcrete()) {
    return value;
  }
  return Value::Concrete(GuidedEval(value.symbolic()));
}

uint32_t Engine::GuidedEval(ExprRef e) {
  Assignment assignment;
  std::vector<uint32_t> vars;
  CollectVars(e, &vars);
  for (uint32_t var : vars) {
    const VarInfo& info = ctx_.var_info(var);
    auto it = config_.guided_inputs.find(OriginKeyString(info.origin));
    assignment.Set(var, it != config_.guided_inputs.end() ? it->second : 0);
  }
  return static_cast<uint32_t>(EvalExpr(e, assignment));
}

uint32_t Engine::HintEval(ExprRef e) {
  Assignment assignment;
  std::vector<uint32_t> vars;
  CollectVars(e, &vars);
  for (uint32_t var : vars) {
    const VarInfo& info = ctx_.var_info(var);
    auto it = config_.concretization_hints.find(OriginKeyString(info.origin));
    assignment.Set(var, it != config_.concretization_hints.end() ? it->second : 0);
  }
  return static_cast<uint32_t>(EvalExpr(e, assignment));
}

std::optional<uint32_t> Engine::PickValue(ExecutionState& st, ExprRef e) {
  if (config_.guided) {
    return GuidedEval(e);
  }
  ++stats_.concretizations;
  // Promotion hints: prefer the promoted fuzz input's concrete value when it
  // is still feasible on this path, so the symbolic pass retraces the input's
  // route through concretization points. Soundness is unchanged — an
  // infeasible hint falls through to the solver's free choice.
  if (!config_.concretization_hints.empty()) {
    uint32_t hinted = HintEval(e);
    if (solver_.MayBeTrue(st.constraints, ctx_.Eq(e, ctx_.Const(hinted, e->width())))) {
      return hinted;
    }
  }
  std::optional<uint64_t> chosen = solver_.GetValue(st.constraints, e);
  if (!chosen.has_value()) {
    return std::nullopt;
  }
  return static_cast<uint32_t>(*chosen);
}

void Engine::BindConcretization(ExecutionState& st, ExprRef e, uint32_t value,
                                const std::string& reason) {
  if (config_.guided) {
    return;
  }
  ExprRef eq = ctx_.Eq(e, ctx_.Const(value, e->width()));
  st.constraints.push_back(eq);
  st.concretizations.push_back(ExecutionState::ConcretizationRecord{e, value, st.pc, reason});
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kConcretize;
  ev.pc = st.pc;
  ev.a = value;
  ev.expr = e;
  st.trace.Append(ev);
}

std::optional<uint32_t> Engine::ResolveSymbolicAddress(ExecutionState& st, ExprRef addr_expr,
                                                       unsigned size, bool is_write) {
  if (config_.guided) {
    return GuidedEval(addr_expr);
  }
  // "Accessible" is the union of: driver image, the stack at/above sp, the
  // MMIO window, live pool allocations, and kernel grants (§3.1.1's region
  // list). An N-byte access fits [lo, hi) iff lo <= a && a <= hi - N.
  const KernelState& ks = st.kernel;
  ExprRef valid = ctx_.False();
  auto add_region = [&](uint32_t lo, uint32_t hi) {
    if (hi <= lo || hi - lo < size) {
      return;
    }
    ExprRef in_region = ctx_.And(ctx_.Ule(ctx_.Const(lo, 32), addr_expr),
                                 ctx_.Ule(addr_expr, ctx_.Const(hi - size, 32)));
    valid = ctx_.Or(valid, in_region);
  };
  add_region(ks.driver.code_begin, ks.driver.code_end);
  add_region(ks.driver.data_begin, ks.driver.data_end);
  Value sp = st.Reg(kRegSp);
  if (sp.IsConcrete() && sp.concrete() >= kDriverStackBottom && sp.concrete() < kDriverStackTop) {
    add_region(sp.concrete(), kDriverStackTop);
  }
  add_region(kMmioBase, kMmioLimit);
  for (const auto& [base, alloc] : ks.pool) {
    if (alloc.alive) {
      add_region(alloc.addr, alloc.addr + alloc.size);
    }
  }
  for (const MemoryGrant& grant : ks.grants) {
    add_region(grant.begin, grant.end);
  }

  ExprRef invalid = ctx_.Not(valid);
  if (solver_.MayBeTrue(st.constraints, invalid)) {
    std::string expr_text = ExprToString(addr_expr);
    if (expr_text.size() > 160) {
      expr_text.resize(160);
      expr_text += "...";
    }
    std::string title =
        StrFormat("%s through unchecked symbolic address can leave all valid regions "
                  "(%u-byte access)",
                  is_write ? "write" : "read", size);
    std::string details = StrFormat(
        "address %s is device/input-controlled and not bounds-checked", expr_text.c_str());
    BugType type = is_write ? BugType::kMemoryCorruption : BugType::kSegfault;
    if (!solver_.MayBeTrue(st.constraints, valid)) {
      // The address is always out of bounds on this path.
      st.constraints.push_back(invalid);
      ReportBug(st, type, title, details);
      return std::nullopt;
    }
    // Report the escaping choice on a fork; this state continues in-bounds.
    if (states_.size() < config_.max_states) {
      std::unique_ptr<ExecutionState> child = CloneState(st);
      ++stats_.forks;
      StampForkChild(st, *child);
      child->constraints.push_back(invalid);
      ReportBug(*child, type, title, details);
      AddState(std::move(child));
    } else {
      ++stats_.dropped_forks;
      NoteDroppedFork(st);
      st.constraints.push_back(invalid);
      ReportBug(st, type, title, details);
      return std::nullopt;
    }
    st.constraints.push_back(valid);
  }

  std::optional<uint32_t> picked = PickValue(st, addr_expr);
  if (!picked.has_value()) {
    st.Terminate("infeasible path at address concretization");
    return std::nullopt;
  }
  BindConcretization(st, addr_expr, *picked, is_write ? "store-address" : "load-address");
  return picked;
}

uint32_t Engine::ConcretizeValue(ExecutionState& st, const Value& value,
                                 const std::string& reason) {
  if (value.IsConcrete()) {
    return value.concrete();
  }
  ExprRef e = value.symbolic();
  std::optional<uint32_t> chosen = PickValue(st, e);
  if (!chosen.has_value()) {
    st.Terminate("infeasible path at concretization");
    return 0;
  }
  BindConcretization(st, e, *chosen, reason);
  return *chosen;
}

void Engine::AddConstraintChecked(ExecutionState& st, ExprRef constraint) {
  if (config_.guided) {
    return;  // guided replays are fully concrete
  }
  if (constraint->IsFalse()) {
    st.Terminate("annotation constraint infeasible");
    return;
  }
  if (constraint->IsTrue()) {
    return;
  }
  st.constraints.push_back(constraint);
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kConstraint;
  ev.pc = st.pc;
  ev.expr = constraint;
  st.trace.Append(ev);
}

void Engine::NoteCoverage(ExecutionState& st, uint32_t pc) {
  // Callers guarantee pc is inside the code segment; leaders are always
  // instruction-aligned, so the dense bitmap fully replaces the map lookup.
  const std::vector<uint8_t>& leader_slots = driver_->block_leader_slots;
  uint32_t offset = pc - driver_->loaded.code_begin;
  if (offset % kInstructionSize != 0 || offset / kInstructionSize >= leader_slots.size() ||
      leader_slots[offset / kInstructionSize] == 0) {
    return;  // not a block leader
  }
  ++block_counts_[pc];
  if (covered_blocks_.insert(pc).second) {
    CoverageSample sample;
    sample.instructions = stats_.instructions;
    sample.wall_ms = ElapsedMs();
    sample.covered_blocks = covered_blocks_.size();
    coverage_samples_.push_back(sample);
  }
  // Loop/edge killer: fires on the (previous leader -> this leader) block
  // edge. May terminate `st`; both call sites re-check st.alive().
  uint32_t from = st.prev_leader;
  st.prev_leader = pc;
  if (from != 0 && config_.pathctl.enabled && !config_.guided) {
    MaybeKillOnEdge(st, from, pc);
  }
}

std::string Engine::CurrentFaultLabel(const ExecutionState& st) {
  if (st.kernel.faults_injected.empty()) {
    return "-";
  }
  const InjectedFault& f = st.kernel.faults_injected.back();
  return StrFormat("%s#%u", FaultClassName(f.cls), f.occurrence);
}

void Engine::StampForkChild(ExecutionState& parent, ExecutionState& child) {
  child.origin_fork_pc = parent.pc;
  child.origin_fault_site = CurrentFaultLabel(parent);
  // Non-branch forks (ISR injection, escape forks, divisor forks, kcall
  // alternatives, backtrack revivals) never form mergeable diamonds: the
  // child leaves any group it inherited from the parent.
  child.sibling_group = 0;
  child.merge_pc = 0;
  child.parked = false;
}

void Engine::NoteDroppedFork(ExecutionState& st) {
  ++stats_.fork_sites[{st.pc, CurrentFaultLabel(st)}].dropped_forks;
}

void Engine::NoteEvictedState(ExecutionState& st) {
  if (st.origin_fork_pc != 0) {
    ++stats_.fork_sites[{st.origin_fork_pc, st.origin_fault_site}].states_evicted;
  }
}

void Engine::MaybeKillOnEdge(ExecutionState& st, uint32_t from, uint32_t to) {
  const PathCtlConfig& pctl = config_.pathctl;
  // Explicit declarative rules first: any traversal of a listed edge kills.
  for (size_t i = 0; i < pctl.kill_edges.size(); ++i) {
    const EdgeKillRule& rule = pctl.kill_edges[i];
    if (rule.from == from && rule.to == to) {
      if (stats_.edge_rule_kills.size() < pctl.kill_edges.size()) {
        stats_.edge_rule_kills.resize(pctl.kill_edges.size(), 0);
      }
      ++stats_.edge_rule_kills[i];
      ++stats_.edge_kills;
      if (st.origin_fork_pc != 0) {
        ++stats_.fork_sites[{st.origin_fork_pc, st.origin_fault_site}].kills;
      }
      FinishState(st, StrFormat("edge-kill rule %08x->%08x", from, to));
      return;
    }
  }
  if (!pctl.loop_kill || to > from) {
    return;  // forward edge: never a polling loop's back-edge
  }
  // Coverage novelty anywhere in the run amnesties every counted back-edge
  // of this state: the loop may be making progress after all.
  if (covered_blocks_.size() > st.novelty_mark) {
    st.novelty_mark = covered_blocks_.size();
    st.backedge_counts.clear();
    return;
  }
  uint64_t key = (static_cast<uint64_t>(from) << 32) | to;
  uint32_t count = ++st.backedge_counts[key];
  if (count >= pctl.backedge_kill_threshold) {
    ++stats_.loop_kills;
    if (st.origin_fork_pc != 0) {
      ++stats_.fork_sites[{st.origin_fork_pc, st.origin_fault_site}].kills;
    }
    // FinishState (not plain Terminate): state-end checkers must still run,
    // exactly as they do for fuel eviction — a leaked allocation inside the
    // killed loop still becomes a bug.
    FinishState(st, StrFormat("loop-kill: back-edge %08x->%08x starved of coverage novelty",
                              from, to));
  }
}

bool Engine::MergeEligible(const ExecutionState& st) const {
  // A sibling may merge only when its fork suffix provably had no side
  // effects outside registers and pure path constraints: no guest-memory
  // access (reads matter too — RaceChecker records them into per-state
  // checker data), no kernel calls, boundary crossings, MMIO, interrupts,
  // annotation alternatives, concretizations, frame changes, workload
  // progress, or device reads since the fork, and nothing reportable
  // happened on the path.
  if (!st.alive() || st.bug_reported || st.kernel.crashed) {
    return false;
  }
  if (st.constraints.size() < st.merge_prefix_len) {
    return false;
  }
  for (size_t i = st.merge_prefix_len; i < st.constraints.size(); ++i) {
    if (st.constraints[i]->width() != 1) {
      return false;
    }
  }
  return st.mem.access_count() == st.merge_mem_accesses &&
         st.kernel.kcall_seq == st.merge_kcall_seq &&
         st.kernel.boundary_crossings == st.merge_crossings &&
         st.kernel.mmio_accesses == st.merge_mmio &&
         st.interrupt_schedule.size() == st.merge_interrupts &&
         st.alternatives_taken.size() == st.merge_alternatives &&
         st.concretizations.size() == st.merge_concretizations &&
         st.frames.size() == st.merge_frames &&
         st.workload_trail.size() == st.merge_workload &&
         st.device->reads_served() == st.merge_device_reads;
}

void Engine::DissolveSiblingGroup(uint64_t group) {
  if (group == 0) {
    return;
  }
  for (const auto& state : states_) {
    if (state->sibling_group == group) {
      state->sibling_group = 0;
      state->merge_pc = 0;
      state->parked = false;
    }
  }
}

bool Engine::TryMergeAtPc(ExecutionState& st) {
  const uint64_t group = st.sibling_group;
  ExecutionState* partner = nullptr;
  for (const auto& state : states_) {
    if (state.get() != &st && state->alive() && state->sibling_group == group) {
      partner = state.get();
      break;
    }
  }
  if (partner == nullptr) {
    // The sibling already terminated: nothing to wait for.
    st.sibling_group = 0;
    st.merge_pc = 0;
    st.parked = false;
    return false;
  }
  if (!MergeEligible(st)) {
    DissolveSiblingGroup(group);
    return false;
  }
  if (!partner->parked) {
    // First sibling to the join: park until the partner arrives (the run
    // loop skips parked states; the group dissolves if it never can).
    st.parked = true;
    return true;
  }
  if (partner->pc != st.pc || !MergeEligible(*partner) ||
      partner->merge_prefix_len != st.merge_prefix_len) {
    DissolveSiblingGroup(group);
    return false;
  }

  // Both siblings are at the join with side-effect-free suffixes: fold the
  // pair into the lower-id state (stable across exploration orders).
  ExecutionState* survivor = st.id < partner->id ? &st : partner;
  ExecutionState* retired = survivor == &st ? partner : &st;
  const size_t prefix = st.merge_prefix_len;

  auto suffix_conjunction = [this](const ExecutionState& s, size_t from) {
    ExprRef conj = nullptr;
    for (size_t i = from; i < s.constraints.size(); ++i) {
      conj = conj == nullptr ? s.constraints[i] : ctx_.And(conj, s.constraints[i]);
    }
    return conj == nullptr ? ctx_.True() : conj;
  };
  ExprRef keep_cond = suffix_conjunction(*survivor, prefix);
  ExprRef drop_cond = suffix_conjunction(*retired, prefix);

  // ite-merge diverged registers under the survivor's suffix condition.
  for (int r = 0; r < kNumRegisters; ++r) {
    const Value& a = survivor->regs[static_cast<size_t>(r)];
    const Value& b = retired->regs[static_cast<size_t>(r)];
    if (a == b) {
      continue;
    }
    survivor->regs[static_cast<size_t>(r)] =
        Value::Symbolic(ctx_.Ite(keep_cond, a.AsExpr(&ctx_), b.AsExpr(&ctx_)));
  }

  // Disjoin the suffixes. The dominant case is the trivial diamond — one
  // branch condition on each side, negations of each other — where the
  // disjunction is a tautology and simply disappears: that is where the
  // real SAT savings come from.
  survivor->constraints.resize(prefix);
  const bool tautology = keep_cond == ctx_.Not(drop_cond) || drop_cond == ctx_.Not(keep_cond);
  if (!tautology) {
    ExprRef merged = ctx_.Or(keep_cond, drop_cond);
    if (!merged->IsTrue()) {
      survivor->constraints.push_back(merged);
    }
  }

  survivor->steps = std::max(survivor->steps, retired->steps);
  survivor->steps_in_frame = std::max(survivor->steps_in_frame, retired->steps_in_frame);
  survivor->sibling_group = 0;
  survivor->merge_pc = 0;
  survivor->parked = false;

  ++stats_.states_merged;
  if (survivor->origin_fork_pc != 0) {
    ++stats_.fork_sites[{survivor->origin_fork_pc, survivor->origin_fault_site}].states_merged;
  }
  obs::TraceInstant("engine.merge", "kind", "diamond");
  retired->sibling_group = 0;
  retired->parked = false;
  // Plain Terminate, NOT FinishState: the path logically continues inside
  // the survivor, so state-end checkers (leak detection etc.) must not fire
  // on the retired half.
  retired->Terminate("merged into sibling at join pc");
  return retired == &st;
}

CoverageBitmap Engine::CoverageSnapshot() const {
  CoverageBitmap bitmap(driver_->block_leader_slots.size());
  for (uint32_t pc : covered_blocks_) {
    bitmap.Set((pc - driver_->loaded.code_begin) / kInstructionSize);
  }
  return bitmap;
}

uint64_t Engine::BlockCountAt(uint32_t pc) const {
  uint32_t leader = driver_->cfg.BlockLeaderFor(pc);
  if (leader == 0) {
    return 0;
  }
  auto it = block_counts_.find(leader);
  return it == block_counts_.end() ? 0 : it->second;
}

Value Engine::ReadMem(ExecutionState& st, uint32_t addr, unsigned size, uint32_t pc,
                      bool addr_was_sym, ExprRef addr_expr, bool* ok) {
  *ok = true;
  if (IsMmioAddr(addr)) {
    // Hardware fault plane: interaction indices advance on EVERY access,
    // injected or not, so HwFaultPoints are stable coordinates across passes
    // and guided replay (same contract as fault_occurrences).
    uint32_t access_index = st.kernel.mmio_accesses++;
    uint32_t read_index = st.kernel.mmio_reads++;
    hw_site_profile_.max_mmio_accesses =
        std::max(hw_site_profile_.max_mmio_accesses, access_index + 1);
    hw_site_profile_.max_mmio_reads =
        std::max(hw_site_profile_.max_mmio_reads, read_index + 1);
    if (!st.kernel.device_removed &&
        config_.fault_plan.ShouldTriggerHw(HwFaultKind::kSurpriseRemoval, access_index)) {
      RemoveDevice(st, HwFaultKind::kSurpriseRemoval, access_index);
    }
    if (st.alive() && !st.kernel.hw_sticky_error &&
        config_.fault_plan.ShouldTriggerHw(HwFaultKind::kStickyError, read_index)) {
      ++stats_.hw_sticky_faults;
      st.kernel.hw_sticky_error = true;
      RecordHwFault(st, HwFaultKind::kStickyError, read_index);
    }
    if (!st.alive()) {
      *ok = false;
      return Value::Concrete(0);
    }
    if (st.kernel.device_removed || st.kernel.hw_sticky_error) {
      // A removed (or error-latched) device floats the bus: reads return
      // all-ones concretely, exactly what hot-unplugged PCI hardware does.
      ++stats_.hw_reads_floated;
      Value v = Value::Concrete(HwRemovedReadBits(size));
      TraceEvent ev;
      ev.kind = TraceEvent::Kind::kMemRead;
      ev.pc = pc;
      ev.addr = addr;
      ev.size = static_cast<uint8_t>(size);
      ev.value_symbolic = false;
      ev.value = v.concrete();
      st.trace.Append(ev);
      return v;
    }
    Value v = st.device->Read(addr - kMmioBase, size, &ctx_);
    if (v.IsSymbolic()) {
      std::vector<uint32_t> vars;
      CollectVars(v.symbolic(), &vars);
      for (uint32_t var : vars) {
        TraceEvent sev;
        sev.kind = TraceEvent::Kind::kSymCreate;
        sev.pc = pc;
        sev.a = var;
        st.trace.Append(sev);
      }
      if (config_.guided) {
        v = Value::Concrete(GuidedEval(v.symbolic()));
      }
    }
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kMemRead;
    ev.pc = pc;
    ev.addr = addr;
    ev.size = static_cast<uint8_t>(size);
    ev.value_symbolic = v.IsSymbolic();
    ev.value = v.IsConcrete() ? v.concrete() : 0;
    st.trace.Append(ev);
    return v;
  }

  MemAccessEvent access;
  access.pc = pc;
  access.addr = addr;
  access.size = size;
  access.is_write = false;
  access.addr_was_symbolic = addr_was_sym;
  access.addr_expr = addr_expr;
  for (const auto& checker : checkers_) {
    checker->OnMemAccess(st, access, *this);
    if (!st.alive()) {
      *ok = false;
      return Value::Concrete(0);
    }
  }
  Value v = ReadMemValueRaw(st, addr, size);
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kMemRead;
  ev.pc = pc;
  ev.addr = addr;
  ev.size = static_cast<uint8_t>(size);
  ev.value_symbolic = v.IsSymbolic();
  ev.value = v.IsConcrete() ? v.concrete() : 0;
  st.trace.Append(ev);
  return v;
}

bool Engine::WriteMem(ExecutionState& st, uint32_t addr, unsigned size, const Value& value,
                      uint32_t pc, bool addr_was_sym, ExprRef addr_expr) {
  if (IsMmioAddr(addr)) {
    uint32_t access_index = st.kernel.mmio_accesses++;
    uint32_t write_index = st.kernel.mmio_writes++;
    hw_site_profile_.max_mmio_accesses =
        std::max(hw_site_profile_.max_mmio_accesses, access_index + 1);
    hw_site_profile_.max_mmio_writes =
        std::max(hw_site_profile_.max_mmio_writes, write_index + 1);
    if (!st.kernel.device_removed &&
        config_.fault_plan.ShouldTriggerHw(HwFaultKind::kSurpriseRemoval, access_index)) {
      RemoveDevice(st, HwFaultKind::kSurpriseRemoval, access_index);
    }
    bool dropped = st.kernel.device_removed;
    if (dropped) {
      ++stats_.hw_writes_dropped;
    } else if (st.alive() &&
               config_.fault_plan.ShouldTriggerHw(HwFaultKind::kDoorbellDrop, write_index)) {
      ++stats_.hw_doorbells_dropped;
      RecordHwFault(st, HwFaultKind::kDoorbellDrop, write_index);
      dropped = true;
    }
    if (!st.alive()) {
      return false;
    }
    if (!dropped) {
      st.device->Write(addr - kMmioBase, size, value);
      // The device actually saw this write — let checkers validate the
      // driver↔device contract (dropped writes never reach the device, so
      // the DMA checker must not observe them either).
      if (!checkers_.empty()) {
        MmioWriteEvent mmio;
        mmio.pc = pc;
        mmio.offset = addr - kMmioBase;
        mmio.size = size;
        mmio.value_concrete = value.IsConcrete();
        mmio.value = value.IsConcrete() ? value.concrete() : 0;
        obs::ScopedPhase obs_phase(config_.profile, obs::Phase::kChecker);
        for (const auto& checker : checkers_) {
          checker->OnMmioWrite(st, mmio, *this);
          if (!st.alive()) {
            return false;
          }
        }
      }
    }
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kMemWrite;
    ev.pc = pc;
    ev.addr = addr;
    ev.size = static_cast<uint8_t>(size);
    ev.value_symbolic = value.IsSymbolic();
    ev.value = value.IsConcrete() ? value.concrete() : 0;
    st.trace.Append(ev);
    return true;
  }
  MemAccessEvent access;
  access.pc = pc;
  access.addr = addr;
  access.size = size;
  access.is_write = true;
  access.value_symbolic = value.IsSymbolic();
  access.addr_was_symbolic = addr_was_sym;
  access.addr_expr = addr_expr;
  for (const auto& checker : checkers_) {
    checker->OnMemAccess(st, access, *this);
    if (!st.alive()) {
      return false;
    }
  }
  WriteMemValueRaw(st, addr, value, size);
  TraceEvent ev;
  ev.kind = TraceEvent::Kind::kMemWrite;
  ev.pc = pc;
  ev.addr = addr;
  ev.size = static_cast<uint8_t>(size);
  ev.value_symbolic = value.IsSymbolic();
  ev.value = value.IsConcrete() ? value.concrete() : 0;
  st.trace.Append(ev);
  return true;
}

void Engine::HandleBranch(ExecutionState& st, ExprRef cond, uint32_t taken_pc,
                          uint32_t fall_pc) {
  auto record = [&st](uint32_t target, bool forked) {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kBranch;
    ev.pc = st.pc;
    ev.a = target;
    ev.b = forked ? 1 : 0;
    st.trace.Append(ev);
  };

  if (config_.guided) {
    // Guided replays never carry symbolic conditions this far, but be safe.
    bool taken = GuidedEval(cond) != 0;
    record(taken ? taken_pc : fall_pc, false);
    st.pc = taken ? taken_pc : fall_pc;
    return;
  }

  bool may_true = solver_.MayBeTrue(st.constraints, cond);
  bool may_false = solver_.MayBeFalse(st.constraints, cond);
  if (may_true && may_false) {
    if (states_.size() >= config_.max_states || st.depth >= config_.max_fork_depth) {
      ++stats_.dropped_forks;
      NoteDroppedFork(st);
      // Promotion hints: a dropped fork historically always followed the
      // taken edge; with a promoted fuzz input installed, follow the edge
      // that input's concrete values take instead — both directions are
      // feasible here, so this only redirects the search, never unsounds it.
      if (!config_.concretization_hints.empty() && HintEval(cond) == 0) {
        st.constraints.push_back(ctx_.Not(cond));
        record(fall_pc, false);
        st.pc = fall_pc;
        return;
      }
      st.constraints.push_back(cond);
      record(taken_pc, false);
      st.pc = taken_pc;
      return;
    }
    std::unique_ptr<ExecutionState> child = CloneState(st);
    ++stats_.forks;
    obs::TraceInstant("engine.fork", "kind", "branch");
    // Fork profiler: the child is attributed to this branch PC; a branch
    // fork always rewrites both siblings' diamond bookkeeping (any older
    // group the parent was in is abandoned and later dissolves).
    child->origin_fork_pc = st.pc;
    child->origin_fault_site = CurrentFaultLabel(st);
    // Diamond merge: both targets ahead of the branch means if-then(-else)
    // shaped control flow whose static join is the farther target. Snapshot
    // the side-effect odometers now; at the join, identical snapshots prove
    // the suffixes were side-effect-free and the pair can merge.
    const bool diamond = config_.pathctl.enabled && config_.pathctl.merge &&
                         taken_pc > st.pc && fall_pc > st.pc;
    const uint64_t group = diamond ? next_sibling_group_++ : 0;
    const uint32_t join_pc = diamond ? std::max(taken_pc, fall_pc) : 0;
    for (ExecutionState* s : {&st, child.get()}) {
      s->sibling_group = group;
      s->merge_pc = join_pc;
      s->parked = false;
      if (diamond) {
        s->merge_prefix_len = st.constraints.size();
        s->merge_mem_accesses = s->mem.access_count();
        s->merge_kcall_seq = s->kernel.kcall_seq;
        s->merge_crossings = s->kernel.boundary_crossings;
        s->merge_mmio = s->kernel.mmio_accesses;
        s->merge_interrupts = s->interrupt_schedule.size();
        s->merge_alternatives = s->alternatives_taken.size();
        s->merge_concretizations = s->concretizations.size();
        s->merge_frames = s->frames.size();
        s->merge_workload = s->workload_trail.size();
        s->merge_device_reads = s->device->reads_served();
      }
    }
    child->constraints.push_back(ctx_.Not(cond));
    {
      TraceEvent ev;
      ev.kind = TraceEvent::Kind::kBranch;
      ev.pc = child->pc;
      ev.a = fall_pc;
      ev.b = 1;
      child->trace.Append(ev);
    }
    child->pc = fall_pc;
    AddState(std::move(child));
    st.constraints.push_back(cond);
    record(taken_pc, true);
    st.pc = taken_pc;
    return;
  }
  if (may_true) {
    MaybeBacktrackConcretization(st, ctx_.Not(cond));
    st.constraints.push_back(cond);
    record(taken_pc, false);
    st.pc = taken_pc;
    return;
  }
  if (may_false) {
    MaybeBacktrackConcretization(st, cond);
    st.constraints.push_back(ctx_.Not(cond));
    record(fall_pc, false);
    st.pc = fall_pc;
    return;
  }
  st.Terminate("infeasible branch (path constraints unsatisfiable)");
}

bool Engine::MaybeBacktrackConcretization(ExecutionState& st, ExprRef blocked_cond) {
  if (!config_.enable_concretization_backtracking || config_.guided ||
      st.kcall_checkpoints.empty() ||
      stats_.concretization_backtracks >= config_.max_concretization_backtracks ||
      states_.size() >= config_.max_states) {
    return false;
  }
  // Only worth backtracking when the blocked direction actually depends on
  // something a kernel call concretized on this path.
  std::unordered_set<uint32_t> cond_vars;
  CollectVars(blocked_cond, &cond_vars);
  bool depends_on_concretization = false;
  for (const ExecutionState::ConcretizationRecord& record : st.concretizations) {
    std::unordered_set<uint32_t> rec_vars;
    CollectVars(record.expr, &rec_vars);
    for (uint32_t var : rec_vars) {
      if (cond_vars.count(var) != 0) {
        depends_on_concretization = true;
        break;
      }
    }
    if (depends_on_concretization) {
      break;
    }
  }
  if (!depends_on_concretization) {
    return false;
  }
  // Find the most recent checkpoint at which the blocked direction is still
  // feasible: the concretization happened after it, so dropping the path
  // suffix re-enables the choice.
  for (auto it = st.kcall_checkpoints.rbegin(); it != st.kcall_checkpoints.rend(); ++it) {
    ExecutionState& snapshot = *it->snapshot;
    if (!backtrack_memo_.insert({snapshot.id, blocked_cond}).second) {
      continue;  // already revived this snapshot for this condition
    }
    if (!solver_.IsSatisfiable(snapshot.constraints, blocked_cond)) {
      continue;
    }
    std::unique_ptr<ExecutionState> revived = CloneState(snapshot);
    StampForkChild(st, *revived);
    // Steer every future concretization toward the blocked direction: the
    // condition is a predicate over input variables that all exist already.
    revived->constraints.push_back(blocked_cond);
    // The revived state restarts the kernel call and must not re-backtrack
    // to the same snapshot forever.
    revived->kcall_checkpoints.clear();
    ++stats_.forks;
    ++stats_.concretization_backtracks;
    AddState(std::move(revived));
    return true;
  }
  return false;
}

bool Engine::ExecuteInstruction(ExecutionState& st) {
  uint32_t pc = st.pc;
  const LoadedDriver& layout = driver_->loaded;
  if (!layout.ContainsCode(pc)) {
    ReportBug(st, BugType::kSegfault,
              StrFormat("execution reached invalid address 0x%08x", pc),
              "control flow left the driver's code segment");
    return false;
  }

  // Fetch: the translation cache serves decoded instructions in O(1) after
  // the enclosing block's first entry. The byte-wise path remains for the
  // cache-off ablation, misaligned pcs (hostile entry tables), and
  // undecodable slots — whose bug reports it reproduces identically, since
  // the write barrier guarantees the cached and in-guest bytes agree.
  std::optional<Instruction> decoded;
  const Instruction* fetched =
      block_cache_ != nullptr ? block_cache_->Lookup(pc) : nullptr;
  if (fetched == nullptr) {
    uint8_t raw[kInstructionSize];
    if (!st.mem.TryReadConcrete(pc, raw, kInstructionSize)) {
      ReportBug(st, BugType::kMemoryCorruption,
                StrFormat("executing symbolic/corrupted code at 0x%08x", pc),
                "driver code bytes were overwritten with symbolic data");
      return false;
    }
    decoded = DecodeInstruction(raw);
    if (!decoded.has_value()) {
      ReportBug(st, BugType::kSegfault,
                StrFormat("invalid instruction at 0x%08x", pc),
                "undecodable opcode (corrupted code or bad jump)");
      return false;
    }
    fetched = &*decoded;
  }
  const Instruction insn = *fetched;

  ++stats_.instructions;
  ++st.steps;
  ++st.steps_in_frame;
  NoteCoverage(st, pc);
  if (!st.alive()) {
    return false;  // edge/loop killer fired
  }
  st.trace.AppendExec(pc);
  for (const auto& checker : checkers_) {
    checker->OnInstruction(st, pc, *this);
    if (!st.alive()) {
      return false;
    }
  }

  uint32_t next_pc = pc + kInstructionSize;

  auto alu2 = [&](auto concrete_op, ExprRef (ExprContext::*sym_op)(ExprRef, ExprRef), Value a,
                  Value b) -> Value {
    if (a.IsConcrete() && b.IsConcrete()) {
      return Value::Concrete(concrete_op(a.concrete(), b.concrete()));
    }
    return Value::Symbolic((ctx_.*sym_op)(a.AsExpr(&ctx_), b.AsExpr(&ctx_)));
  };
  auto cmp2 = [&](auto concrete_op, ExprRef (ExprContext::*sym_op)(ExprRef, ExprRef), Value a,
                  Value b) -> Value {
    if (a.IsConcrete() && b.IsConcrete()) {
      return Value::Concrete(concrete_op(a.concrete(), b.concrete()) ? 1 : 0);
    }
    return Value::Symbolic(ctx_.ZExt((ctx_.*sym_op)(a.AsExpr(&ctx_), b.AsExpr(&ctx_)), 32));
  };

  // Guards division: handles the zero-divisor cases (report a crash bug on
  // feasible division by zero) and returns false if the state terminated.
  auto guard_divisor = [&](Value& divisor) -> bool {
    if (divisor.IsConcrete()) {
      if (divisor.concrete() == 0) {
        ReportBug(st, BugType::kKernelCrash,
                  StrFormat("integer division by zero at 0x%08x", pc),
                  "divide fault in kernel mode crashes the machine");
        return false;
      }
      return true;
    }
    ExprRef is_zero = ctx_.Eq(divisor.AsExpr(&ctx_), ctx_.Const(0, 32));
    if (config_.guided) {
      if (GuidedEval(is_zero) != 0) {
        ReportBug(st, BugType::kKernelCrash,
                  StrFormat("integer division by zero at 0x%08x", pc),
                  "divide fault in kernel mode crashes the machine");
        return false;
      }
      return true;
    }
    bool may_zero = solver_.MayBeTrue(st.constraints, is_zero);
    bool may_nonzero = solver_.MayBeFalse(st.constraints, is_zero);
    if (may_zero) {
      if (may_nonzero && states_.size() < config_.max_states) {
        // Fork a state that takes the faulting choice; report there.
        std::unique_ptr<ExecutionState> child = CloneState(st);
        ++stats_.forks;
        StampForkChild(st, *child);
        child->constraints.push_back(is_zero);
        ReportBug(*child, BugType::kKernelCrash,
                  StrFormat("integer division by zero at 0x%08x", pc),
                  "a feasible input makes the divisor zero; divide fault in kernel mode");
        AddState(std::move(child));
      } else if (!may_nonzero) {
        ReportBug(st, BugType::kKernelCrash,
                  StrFormat("integer division by zero at 0x%08x", pc),
                  "divisor is always zero on this path");
        return false;
      }
    }
    st.constraints.push_back(ctx_.Not(is_zero));
    return true;
  };

  Value ra = st.Reg(insn.ra);
  Value rb = st.Reg(insn.rb);
  Value imm = Value::Concrete(insn.imm);

  switch (insn.opcode) {
    case Opcode::kNop:
      break;
    case Opcode::kHalt:
      ReportBug(st, BugType::kApiMisuse,
                StrFormat("driver executed HALT at 0x%08x", pc),
                "drivers must never halt the CPU");
      return false;
    case Opcode::kMov:
      st.SetReg(insn.rd, ra);
      break;
    case Opcode::kMovI:
      st.SetReg(insn.rd, imm);
      break;

    case Opcode::kAdd:
    case Opcode::kAddI: {
      Value b = insn.opcode == Opcode::kAdd ? rb : imm;
      st.SetReg(insn.rd, alu2([](uint32_t x, uint32_t y) { return x + y; }, &ExprContext::Add,
                              ra, b));
      break;
    }
    case Opcode::kSub:
    case Opcode::kSubI: {
      Value b = insn.opcode == Opcode::kSub ? rb : imm;
      st.SetReg(insn.rd, alu2([](uint32_t x, uint32_t y) { return x - y; }, &ExprContext::Sub,
                              ra, b));
      break;
    }
    case Opcode::kMul:
    case Opcode::kMulI: {
      Value b = insn.opcode == Opcode::kMul ? rb : imm;
      st.SetReg(insn.rd, alu2([](uint32_t x, uint32_t y) { return x * y; }, &ExprContext::Mul,
                              ra, b));
      break;
    }
    case Opcode::kUDiv:
    case Opcode::kUDivI: {
      Value b = insn.opcode == Opcode::kUDiv ? rb : imm;
      if (!guard_divisor(b)) {
        return false;
      }
      st.SetReg(insn.rd, alu2([](uint32_t x, uint32_t y) { return x / y; }, &ExprContext::UDiv,
                              ra, b));
      break;
    }
    case Opcode::kSDiv: {
      Value b = rb;
      if (!guard_divisor(b)) {
        return false;
      }
      st.SetReg(insn.rd,
                alu2(
                    [](uint32_t x, uint32_t y) {
                      int32_t sx = static_cast<int32_t>(x);
                      int32_t sy = static_cast<int32_t>(y);
                      if (sx == INT32_MIN && sy == -1) {
                        return x;
                      }
                      return static_cast<uint32_t>(sx / sy);
                    },
                    &ExprContext::SDiv, ra, b));
      break;
    }
    case Opcode::kURem: {
      Value b = rb;
      if (!guard_divisor(b)) {
        return false;
      }
      st.SetReg(insn.rd, alu2([](uint32_t x, uint32_t y) { return x % y; }, &ExprContext::URem,
                              ra, b));
      break;
    }
    case Opcode::kAnd:
    case Opcode::kAndI: {
      Value b = insn.opcode == Opcode::kAnd ? rb : imm;
      st.SetReg(insn.rd, alu2([](uint32_t x, uint32_t y) { return x & y; }, &ExprContext::And,
                              ra, b));
      break;
    }
    case Opcode::kOr:
    case Opcode::kOrI: {
      Value b = insn.opcode == Opcode::kOr ? rb : imm;
      st.SetReg(insn.rd,
                alu2([](uint32_t x, uint32_t y) { return x | y; }, &ExprContext::Or, ra, b));
      break;
    }
    case Opcode::kXor:
    case Opcode::kXorI: {
      Value b = insn.opcode == Opcode::kXor ? rb : imm;
      st.SetReg(insn.rd, alu2([](uint32_t x, uint32_t y) { return x ^ y; }, &ExprContext::Xor,
                              ra, b));
      break;
    }
    case Opcode::kShl:
    case Opcode::kShlI: {
      Value b = insn.opcode == Opcode::kShl ? rb : imm;
      st.SetReg(insn.rd, alu2([](uint32_t x, uint32_t y) { return y >= 32 ? 0 : x << y; },
                              &ExprContext::Shl, ra, b));
      break;
    }
    case Opcode::kLShr:
    case Opcode::kLShrI: {
      Value b = insn.opcode == Opcode::kLShr ? rb : imm;
      st.SetReg(insn.rd, alu2([](uint32_t x, uint32_t y) { return y >= 32 ? 0 : x >> y; },
                              &ExprContext::LShr, ra, b));
      break;
    }
    case Opcode::kAShr:
    case Opcode::kAShrI: {
      Value b = insn.opcode == Opcode::kAShr ? rb : imm;
      st.SetReg(insn.rd,
                alu2(
                    [](uint32_t x, uint32_t y) {
                      int32_t sx = static_cast<int32_t>(x);
                      return static_cast<uint32_t>(sx >> (y >= 32 ? 31 : y));
                    },
                    &ExprContext::AShr, ra, b));
      break;
    }
    case Opcode::kNot:
      st.SetReg(insn.rd, ra.IsConcrete() ? Value::Concrete(~ra.concrete())
                                         : Value::Symbolic(ctx_.Not(ra.AsExpr(&ctx_))));
      break;
    case Opcode::kNeg:
      st.SetReg(insn.rd, ra.IsConcrete() ? Value::Concrete(0 - ra.concrete())
                                         : Value::Symbolic(ctx_.Neg(ra.AsExpr(&ctx_))));
      break;

    case Opcode::kSeq:
    case Opcode::kSeqI: {
      Value b = insn.opcode == Opcode::kSeq ? rb : imm;
      st.SetReg(insn.rd, cmp2([](uint32_t x, uint32_t y) { return x == y; }, &ExprContext::Eq,
                              ra, b));
      break;
    }
    case Opcode::kSne:
    case Opcode::kSneI: {
      Value b = insn.opcode == Opcode::kSne ? rb : imm;
      st.SetReg(insn.rd, cmp2([](uint32_t x, uint32_t y) { return x != y; }, &ExprContext::Ne,
                              ra, b));
      break;
    }
    case Opcode::kSltU:
    case Opcode::kSltUI: {
      Value b = insn.opcode == Opcode::kSltU ? rb : imm;
      st.SetReg(insn.rd, cmp2([](uint32_t x, uint32_t y) { return x < y; }, &ExprContext::Ult,
                              ra, b));
      break;
    }
    case Opcode::kSltS:
    case Opcode::kSltSI: {
      Value b = insn.opcode == Opcode::kSltS ? rb : imm;
      st.SetReg(insn.rd,
                cmp2(
                    [](uint32_t x, uint32_t y) {
                      return static_cast<int32_t>(x) < static_cast<int32_t>(y);
                    },
                    &ExprContext::Slt, ra, b));
      break;
    }
    case Opcode::kSleU:
    case Opcode::kSleUI: {
      Value b = insn.opcode == Opcode::kSleU ? rb : imm;
      st.SetReg(insn.rd, cmp2([](uint32_t x, uint32_t y) { return x <= y; }, &ExprContext::Ule,
                              ra, b));
      break;
    }
    case Opcode::kSleS:
    case Opcode::kSleSI: {
      Value b = insn.opcode == Opcode::kSleS ? rb : imm;
      st.SetReg(insn.rd,
                cmp2(
                    [](uint32_t x, uint32_t y) {
                      return static_cast<int32_t>(x) <= static_cast<int32_t>(y);
                    },
                    &ExprContext::Sle, ra, b));
      break;
    }

    case Opcode::kLd8U:
    case Opcode::kLd8S:
    case Opcode::kLd16U:
    case Opcode::kLd16S:
    case Opcode::kLd32: {
      Value addr_v = alu2([](uint32_t x, uint32_t y) { return x + y; }, &ExprContext::Add, ra,
                          imm);
      bool addr_sym = addr_v.IsSymbolic();
      ExprRef addr_expr = addr_sym ? addr_v.symbolic() : nullptr;
      unsigned size = insn.opcode == Opcode::kLd32
                          ? 4
                          : (insn.opcode == Opcode::kLd16U || insn.opcode == Opcode::kLd16S ? 2
                                                                                            : 1);
      uint32_t addr;
      if (addr_sym) {
        std::optional<uint32_t> resolved =
            ResolveSymbolicAddress(st, addr_expr, size, /*is_write=*/false);
        if (!resolved.has_value()) {
          return false;
        }
        addr = *resolved;
      } else {
        addr = addr_v.concrete();
      }
      bool ok;
      Value loaded = ReadMem(st, addr, size, pc, addr_sym, addr_expr, &ok);
      if (!ok) {
        return false;
      }
      if (size < 4) {
        bool sign = insn.opcode == Opcode::kLd8S || insn.opcode == Opcode::kLd16S;
        if (loaded.IsConcrete()) {
          uint32_t v = loaded.concrete();
          if (sign) {
            v = static_cast<uint32_t>(
                SignExtend(v, static_cast<uint8_t>(size * 8)));
          }
          loaded = Value::Concrete(v);
        } else {
          ExprRef e = loaded.symbolic();
          loaded = Value::Symbolic(sign ? ctx_.SExt(e, 32) : ctx_.ZExt(e, 32));
        }
      }
      st.SetReg(insn.rd, loaded);
      break;
    }

    case Opcode::kSt8:
    case Opcode::kSt16:
    case Opcode::kSt32: {
      Value addr_v = alu2([](uint32_t x, uint32_t y) { return x + y; }, &ExprContext::Add, ra,
                          imm);
      bool addr_sym = addr_v.IsSymbolic();
      ExprRef addr_expr = addr_sym ? addr_v.symbolic() : nullptr;
      unsigned size =
          insn.opcode == Opcode::kSt32 ? 4 : (insn.opcode == Opcode::kSt16 ? 2 : 1);
      uint32_t addr;
      if (addr_sym) {
        std::optional<uint32_t> resolved =
            ResolveSymbolicAddress(st, addr_expr, size, /*is_write=*/true);
        if (!resolved.has_value()) {
          return false;
        }
        addr = *resolved;
      } else {
        addr = addr_v.concrete();
      }
      if (!WriteMem(st, addr, size, rb, pc, addr_sym, addr_expr)) {
        return false;
      }
      break;
    }

    case Opcode::kBr:
      if (!layout.ContainsCode(insn.imm)) {
        ReportBug(st, BugType::kSegfault,
                  StrFormat("jump to invalid address 0x%08x", insn.imm), "branch leaves code");
        return false;
      }
      st.pc = insn.imm;
      return true;

    case Opcode::kBz:
    case Opcode::kBnz: {
      if (!layout.ContainsCode(insn.imm)) {
        ReportBug(st, BugType::kSegfault,
                  StrFormat("branch to invalid address 0x%08x", insn.imm), "branch leaves code");
        return false;
      }
      if (ra.IsConcrete()) {
        bool zero = ra.concrete() == 0;
        bool take = insn.opcode == Opcode::kBz ? zero : !zero;
        st.pc = take ? insn.imm : next_pc;
        return true;
      }
      ExprRef zero_cond = ctx_.Eq(ra.AsExpr(&ctx_), ctx_.Const(0, 32));
      ExprRef cond = insn.opcode == Opcode::kBz ? zero_cond : ctx_.Not(zero_cond);
      HandleBranch(st, cond, insn.imm, next_pc);
      return st.alive();
    }

    case Opcode::kJr:
    case Opcode::kCallR: {
      uint32_t target = ConcretizeValue(st, ra, "indirect-jump-target");
      if (!st.alive()) {
        return false;
      }
      if (insn.opcode == Opcode::kCallR) {
        st.SetReg(kRegLr, Value::Concrete(next_pc));
      }
      if (target == kMagicReturnAddress) {
        st.pc = target;
        return true;  // handled next iteration
      }
      if (!layout.ContainsCode(target) || (target - layout.code_begin) % kInstructionSize != 0) {
        ReportBug(st, BugType::kSegfault,
                  StrFormat("indirect jump to invalid address 0x%08x", target),
                  "computed jump target is outside the driver's code");
        return false;
      }
      st.pc = target;
      return true;
    }

    case Opcode::kCall:
      if (!layout.ContainsCode(insn.imm)) {
        ReportBug(st, BugType::kSegfault,
                  StrFormat("call to invalid address 0x%08x", insn.imm), "call leaves code");
        return false;
      }
      st.SetReg(kRegLr, Value::Concrete(next_pc));
      st.pc = insn.imm;
      return true;

    case Opcode::kRet: {
      uint32_t target = ConcretizeValue(st, st.Reg(kRegLr), "return-address");
      if (!st.alive()) {
        return false;
      }
      if (target == kMagicReturnAddress) {
        st.pc = target;
        return true;
      }
      if (!layout.ContainsCode(target) || (target - layout.code_begin) % kInstructionSize != 0) {
        ReportBug(st, BugType::kSegfault,
                  StrFormat("return to invalid address 0x%08x", target),
                  "clobbered return address (stack corruption?)");
        return false;
      }
      st.pc = target;
      return true;
    }

    case Opcode::kPush: {
      uint32_t sp = ConcretizeValue(st, st.Reg(kRegSp), "push-sp");
      if (!st.alive()) {
        return false;
      }
      uint32_t new_sp = sp - 4;
      st.SetReg(kRegSp, Value::Concrete(new_sp));
      if (!WriteMem(st, new_sp, 4, rb, pc, false, nullptr)) {
        return false;
      }
      break;
    }
    case Opcode::kPop: {
      uint32_t sp = ConcretizeValue(st, st.Reg(kRegSp), "pop-sp");
      if (!st.alive()) {
        return false;
      }
      bool ok;
      Value v = ReadMem(st, sp, 4, pc, false, nullptr, &ok);
      if (!ok) {
        return false;
      }
      st.SetReg(insn.rd, v);
      st.SetReg(kRegSp, Value::Concrete(sp + 4));
      break;
    }

    case Opcode::kKCall:
      HandleKCall(st, insn);
      return false;  // quantum ends at the boundary

    default:
      ReportBug(st, BugType::kSegfault,
                StrFormat("unimplemented opcode %u at 0x%08x",
                          static_cast<unsigned>(insn.opcode), pc),
                "decoder/interpreter mismatch");
      return false;
  }

  st.pc = next_pc;
  return true;
}

// ---------------------------------------------------------------------------
// Kernel calls: annotations + implementation + alternatives (§3.2, §3.4)
// ---------------------------------------------------------------------------

void Engine::HandleKCall(ExecutionState& st, const Instruction& insn) {
  uint32_t index = insn.imm;
  if (index >= driver_->import_table.size()) {
    ReportBug(st, BugType::kApiMisuse,
              StrFormat("kcall with invalid import index %u at 0x%08x", index, st.pc),
              "import table bounds violation");
    return;
  }
  const std::string& name = driver_->loaded.imports[index];
  uint32_t kcall_seq = st.kernel.kcall_seq++;
  ++stats_.kernel_calls;

  // §3.2 backtracking support: snapshot the state at the call boundary when
  // a symbolic argument may get concretized inside, so the call can be
  // repeated later with a different feasible value.
  if (config_.enable_concretization_backtracking && !config_.guided) {
    bool any_symbolic_arg = false;
    for (int i = 0; i < 4; ++i) {
      any_symbolic_arg |= st.Reg(i).IsSymbolic();
    }
    if (any_symbolic_arg) {
      ExecutionState::KCallCheckpoint checkpoint;
      checkpoint.kcall_pc = st.pc;
      std::unique_ptr<ExecutionState> snapshot = CloneState(st);
      snapshot->kcall_checkpoints.clear();
      checkpoint.snapshot = std::move(snapshot);
      st.kcall_checkpoints.push_back(std::move(checkpoint));
      if (st.kcall_checkpoints.size() > config_.max_kcall_checkpoints_per_state) {
        st.kcall_checkpoints.erase(st.kcall_checkpoints.begin());
      }
    }
  }

  {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kKCall;
    ev.pc = st.pc;
    ev.a = index;
    st.trace.Append(ev);
  }

  CrossBoundary(st);
  if (!st.alive()) {
    return;
  }

  EngineKernelContext kc(this, &st);
  {
    KernelEvent ev;
    ev.kind = KernelEvent::Kind::kApiEnter;
    ev.text = name;
    EmitKernelEvent(st, ev);
  }

  const auto& annotations = annotations_.For(name);
  for (const auto& annotation : annotations) {
    annotation->OnCall(kc);
    if (!st.alive()) {
      return;
    }
  }

  driver_->import_table[index](kc);
  if (!st.alive()) {
    return;
  }

  uint32_t return_pc = st.pc + kInstructionSize;

  // Annotation return hooks: may rewrite results and fork alternatives.
  for (const auto& annotation : annotations) {
    AnnotationOutcome outcome = annotation->OnReturn(kc);
    if (!st.alive()) {
      return;
    }
    for (const AnnotationAlternative& alternative : outcome.alternatives) {
      bool forced = false;
      if (config_.guided) {
        // Apply in place when the recorded schedule says this alternative was
        // taken on the buggy path.
        for (const auto& [seq, label] : config_.forced_alternatives) {
          if (seq == kcall_seq && label == alternative.label) {
            forced = true;
            break;
          }
        }
        if (forced) {
          alternative.apply(kc);
          st.alternatives_taken.emplace_back(kcall_seq, alternative.label);
        }
        continue;
      }
      if (states_.size() >= config_.max_states || st.depth >= config_.max_fork_depth) {
        ++stats_.dropped_forks;
        NoteDroppedFork(st);
        continue;
      }
      std::unique_ptr<ExecutionState> child = CloneState(st);
      ++stats_.forks;
      StampForkChild(st, *child);
      EngineKernelContext child_kc(this, child.get());
      alternative.apply(child_kc);
      child->alternatives_taken.emplace_back(kcall_seq, alternative.label);
      if (child->alive()) {
        child->pc = return_pc;
        // Mirror the post-call boundary crossing the parent is about to take,
        // keeping crossing indices aligned for replay.
        child->kernel.boundary_crossings++;
        AddState(std::move(child));
      }
    }
  }

  {
    Value r0 = st.Reg(0);
    KernelEvent ev;
    ev.kind = KernelEvent::Kind::kApiExit;
    ev.a = r0.IsConcrete() ? r0.concrete() : 0;
    ev.text = name;
    EmitKernelEvent(st, ev);
    TraceEvent tev;
    tev.kind = TraceEvent::Kind::kKRet;
    tev.a = index;
    tev.b = r0.IsConcrete() ? r0.concrete() : 0;
    st.trace.Append(tev);
  }

  // Advance past the kcall *before* the post-call crossing so interrupt
  // forks resume at the next instruction rather than re-issuing the call.
  st.pc = return_pc;
  CrossBoundary(st);
}

// ---------------------------------------------------------------------------
// Events, bugchecks, bug reports
// ---------------------------------------------------------------------------

void Engine::EmitKernelEvent(ExecutionState& st, const KernelEvent& event) {
  if (checkers_.empty()) {
    return;
  }
  obs::ScopedPhase obs_phase(config_.profile, obs::Phase::kChecker);
  for (const auto& checker : checkers_) {
    checker->OnKernelEvent(st, event, *this);
    if (!st.alive()) {
      return;
    }
  }
}

void Engine::DoBugCheck(ExecutionState& st, uint32_t code, const std::string& message) {
  if (st.kernel.crashed) {
    return;  // one crash per path
  }
  st.kernel.crashed = true;
  st.kernel.bugcheck_code = code;
  st.kernel.bugcheck_message = message;
  KernelEvent ev;
  ev.kind = KernelEvent::Kind::kBugCheck;
  ev.a = code;
  ev.text = message;
  EmitKernelEvent(st, ev);

  // DDT's crash-handler hook: intercept the BSOD and produce a bug report.
  BugType type = BugType::kKernelCrash;
  if (code == kBugcheckDeadlock) {
    type = BugType::kDeadlock;
  }
  ReportBug(st, type, StrFormat("BSOD 0x%02X: %s", code, message.c_str()),
            "kernel bugcheck intercepted by DDT's crash-handler hook");
}

std::vector<SolvedInput> Engine::SolveInputs(ExecutionState& st) {
  std::vector<SolvedInput> inputs;
  std::unordered_set<uint32_t> var_set;
  for (ExprRef c : st.constraints) {
    CollectVars(c, &var_set);
  }
  if (var_set.empty()) {
    return inputs;
  }
  Assignment model;
  if (!solver_.GetInitialValues(st.constraints, &model)) {
    return inputs;
  }
  // Variables referenced by the last few constraints are the proximate
  // cause: the branch/bounds decisions immediately preceding the report.
  std::unordered_set<uint32_t> proximate_vars;
  constexpr size_t kProximateWindow = 2;
  size_t start = st.constraints.size() > kProximateWindow
                     ? st.constraints.size() - kProximateWindow
                     : 0;
  for (size_t i = start; i < st.constraints.size(); ++i) {
    CollectVars(st.constraints[i], &proximate_vars);
  }

  std::vector<uint32_t> vars(var_set.begin(), var_set.end());
  std::sort(vars.begin(), vars.end());
  for (uint32_t var : vars) {
    const VarInfo& info = ctx_.var_info(var);
    SolvedInput input;
    input.var_name = info.name;
    input.origin = info.origin;
    input.width = info.width;
    input.value = MaskToWidth(model.Get(var), info.width);
    input.proximate = proximate_vars.count(var) != 0;
    inputs.push_back(input);
  }
  return inputs;
}

void Engine::ReportBug(ExecutionState& st, BugType type, const std::string& title,
                       const std::string& details) {
  // Race classification: a crash or memory error that fires in interrupt
  // context (or in code racing with an injected interrupt) is reported as a
  // race condition — it only occurs under that interleaving.
  BugType effective = type;
  std::string effective_details = details;
  if ((type == BugType::kKernelCrash || type == BugType::kSegfault ||
       type == BugType::kMemoryCorruption) &&
      st.InContext(ExecContextKind::kIsr)) {
    effective = BugType::kRaceCondition;
    effective_details += effective_details.empty() ? "" : "; ";
    effective_details +=
        "fires only under a specific interrupt interleaving (symbolic interrupt injected)";
  }

  std::string key = StrFormat("%d|%s", static_cast<int>(effective), title.c_str());
  bool fresh = bug_dedupe_.insert(key).second;

  {
    TraceEvent ev;
    ev.kind = TraceEvent::Kind::kBugMark;
    ev.pc = st.pc;
    ev.a = static_cast<uint32_t>(bugs_.size());
    st.trace.Append(ev);
  }

  if (fresh) {
    Bug bug;
    bug.type = effective;
    bug.title = title;
    bug.details = effective_details;
    bug.driver = driver_->loaded.name;
    bug.checker = "engine";
    bug.pc = st.pc;
    bug.state_id = st.id;
    bug.context = st.CurrentContext();
    bug.trace = st.trace.Reconstruct();
    bug.inputs = SolveInputs(st);
    bug.interrupt_schedule = st.interrupt_schedule;
    bug.workload_trail = st.workload_trail;
    bug.alternatives = st.alternatives_taken;
    bug.fault_plan = config_.fault_plan;
    bug.fault_schedule = st.kernel.faults_injected;
    bug.hw_fault_schedule = st.kernel.hw_faults_injected;
    bug.constraints = st.constraints;
    bugs_.push_back(std::move(bug));
    DDT_LOG_INFO("bug found: %s", bugs_.back().Row().c_str());
  }

  st.bug_reported = true;
  // Lockset race reports are warnings — the interleaving *could* corrupt
  // state but this execution did not — so the path keeps running (and can
  // expose further bugs). Everything else (crashes, memory violations,
  // leaks at a terminal checkpoint) ends the path, as in §4.3.
  bool fatal = type != BugType::kRaceCondition;
  if (fatal) {
    st.Terminate(StrFormat("bug: %s", title.c_str()));
  }
  if (config_.stop_after_first_bug) {
    stop_requested_ = true;
  }
}

}  // namespace ddt
