// The DDT engine: selective symbolic execution of a driver binary against a
// concretely-executing MiniOS kernel and fully symbolic hardware.
//
// One Engine instance = one testing run of one driver. The engine owns the
// state pool, the interpreter, the scheduler (workload steps, DPCs, timers),
// symbolic interrupt injection at kernel/driver boundary crossings (§3.3),
// annotation dispatch at API boundaries (§3.4), checker dispatch, coverage
// accounting (Figures 2/3), and bug collection.
//
// The same engine also runs fully concretely (scripted device, no
// annotations, no symbolic interrupts, forced interrupt schedule) — that
// mode implements both trace replay (§3.5) and the Driver Verifier stress
// baseline.
#ifndef SRC_ENGINE_ENGINE_H_
#define SRC_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/annotations/annotation.h"
#include "src/engine/bug_report.h"
#include "src/engine/checker.h"
#include "src/engine/execution_state.h"
#include "src/engine/fault_injection.h"
#include "src/engine/pathctl.h"
#include "src/engine/searcher.h"
#include "src/hw/pci.h"
#include "src/kernel/exerciser.h"
#include "src/kernel/kernel_api.h"
#include "src/obs/counter_table.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/solver/solver.h"
#include "src/support/status.h"
#include "src/vm/coverage_map.h"
#include "src/vm/disasm.h"
#include "src/vm/guest_memory.h"
#include "src/vm/image.h"

namespace ddt {

class BlockCache;

struct EngineConfig {
  // Budgets.
  uint64_t max_instructions = 3'000'000;
  uint64_t max_states = 512;
  uint64_t max_wall_ms = 60'000;
  uint32_t max_fork_depth = 64;
  // --- Resource governor ---
  // Per-state instruction fuel: a single path exceeding this is evicted
  // (counted in EngineStats::states_evicted) so one runaway loop cannot
  // starve the rest of the exploration. 0 = unlimited.
  uint64_t max_instructions_per_state = 0;
  // Soft ceiling on the approximate working set across live states (same
  // accounting as EngineStats::peak_state_bytes). When exceeded, the engine
  // evicts the largest states until back under the ceiling, always keeping
  // at least one state alive. 0 = unlimited.
  uint64_t max_state_bytes = 0;
  // Per-path symbolic interrupt budget (§3.3: simplified model injects at
  // boundary crossings; one injection usually suffices to expose races).
  uint32_t max_interrupts_per_path = 1;
  // Concretization backtracking (§3.2): when a concretization performed
  // during a kernel call later blocks a branch direction, revive a snapshot
  // taken at the call boundary, constrain it toward the blocked direction,
  // and re-execute the call with a compatible concrete value.
  bool enable_concretization_backtracking = true;
  uint32_t max_kcall_checkpoints_per_state = 4;
  uint32_t max_concretization_backtracks = 32;  // engine-wide budget
  bool enable_symbolic_interrupts = true;
  // Forced concrete interrupt schedule (replay / stress modes): deliver the
  // ISR at exactly these boundary-crossing indices.
  std::vector<uint32_t> forced_interrupt_schedule;
  // Terminate a path when an entry point returns failure (§4.3).
  bool terminate_on_entry_failure = true;
  SearchStrategy strategy = SearchStrategy::kCoverageGreedy;
  // Path-explosion control (src/engine/pathctl.h): loop/edge killers and
  // diamond state merging. Off by default; the fork profiler (per-fork-site
  // attribution in EngineStats::fork_sites) runs regardless because it is
  // pure accounting.
  PathCtlConfig pathctl;
  uint64_t seed = 0xDD7;
  // Memory-model ablation: eager full-copy forking instead of chained COW.
  bool eager_cow = false;
  // Decoded basic-block translation cache (src/vm/block_cache.h): decode each
  // straight-line block once on first entry and fetch from the cached form
  // afterwards, instead of re-reading and re-decoding 8 code bytes per step.
  // Sound because driver code is immutable after LoadDriver — enforced by a
  // write barrier that reports (and suppresses) any store landing in the code
  // segment. Off = the original byte-wise interpreter (ablation/benchmarks).
  bool enable_block_cache = true;
  // Stop the whole run at the first bug (Driver Verifier semantics; DDT's
  // default keeps going and finds multiple bugs in one run, §5.1).
  bool stop_after_first_bug = false;
  size_t max_trace_tail_events = 1 << 18;
  SolverConfig solver;

  // Fault-injection plan for this pass (§3.4 campaigns). Empty = plain run.
  // Kernel API handlers consult the plan through the engine at each
  // fault-eligible site; matching (class, occurrence) points fail
  // deterministically on every path. Recorded into bugs for replay.
  FaultPlan fault_plan;

  // --- Guided replay (§3.5): re-execute a recorded buggy path concretely ---
  // When guided is true, every symbolic value is immediately resolved to a
  // concrete one by looking up its origin in guided_inputs; no forking
  // happens; annotation alternatives are applied in-place per the recorded
  // schedule; interrupts fire per forced_interrupt_schedule.
  bool guided = false;
  std::map<std::string, uint64_t> guided_inputs;  // OriginKeyString -> value
  std::vector<std::pair<uint32_t, std::string>> forced_alternatives;  // (kcall seq, label)

  // --- Concolic seed derivation (src/fuzz) ---
  // When nonzero, every terminated path with constraints asks the solver for
  // a concrete model (the paper's replayable concrete inputs) and records it
  // as a PathSeed, up to this cap. 0 = off (no extra solver work, no
  // behavior change).
  uint32_t max_path_seeds = 0;

  // --- Promotion hints (src/fuzz promotion channel) ---
  // A coverage-novel fuzz input promoted back to symbolic exploration:
  // OriginKeyString -> concrete value. During a (non-guided) symbolic run,
  // concretization picks the hinted evaluation when it is feasible under the
  // current path constraints, and a branch whose fork would be dropped (state
  // or depth cap) follows the hint-evaluated direction instead of defaulting
  // to taken — biasing exploration toward the fuzz input's concrete path
  // while remaining sound (every choice is constraint-checked). Empty = no
  // effect anywhere.
  std::map<std::string, uint64_t> concretization_hints;

  // Cooperative cancellation token shared with a supervisor (the campaign
  // watchdog): when it becomes true the run loop stops at the next budget
  // check and any in-flight SAT query unwinds within one propagation. When
  // null the engine allocates a private token so RequestAbort() always works.
  std::shared_ptr<std::atomic<bool>> abort_token;

  // --- Observability (src/obs); both null = disabled, the runtime kill
  // switch. Non-owning: must outlive the engine. The engine propagates them
  // into its solver and block cache, publishes its stats as named metrics at
  // the end of Run(), and attributes run wall time to phases. Observation
  // only — they never influence exploration, bug sets, or reports.
  obs::MetricsRegistry* metrics = nullptr;
  obs::PassProfile* profile = nullptr;

  // Rejects a zero max_states, max_instructions or max_wall_ms: a zero
  // budget would silently run forever (or not at all, depending on the
  // check's direction), so LoadDriver refuses it rather than guess intent.
  Status ValidateBudgets() const;
};

// The per-image half of a driver load: everything LoadDriver derives from the
// image alone. PrepareDriver builds it once; any number of engines then load
// it, on any threads, because nothing in it changes after PrepareDriver
// returns.
struct PreparedDriver {
  LoadedDriver loaded;                    // layout, name and import names
  std::vector<KernelApiFn> import_table;  // resolved import handlers
  std::vector<uint8_t> code;              // source of each engine's block cache
  Cfg cfg;
  // Dense block-leader bitmap (one slot per aligned instruction) replacing
  // the per-instruction std::map lookup on the coverage path.
  std::vector<uint8_t> block_leader_slots;
  // Root holding the installed code and data. Each engine's initial state
  // starts from a copy-on-write share of it (GuestMemory::ShareImage).
  GuestMemory memory;
};

// Resolves the image's imports, installs code and data behind the image
// window, recovers the CFG and builds the leader bitmap. Fails on an
// unresolvable import or an image too large for the window.
Result<std::shared_ptr<const PreparedDriver>> PrepareDriver(const DriverImage& image);

// Stable string key identifying a symbolic variable's origin across runs
// (used to map solved inputs onto replay inputs).
std::string OriginKeyString(const VarOrigin& origin);

// Every uint64_t counter of EngineStats, declared once as
//   X(field, merge, journal_key, metric)
// merge: kSum, or kMax for a high-water mark (published as a gauge).
// journal_key: the counter's key in a campaign-journal record (never rename:
// journals written by older builds must keep resuming). metric: its name in
// the per-pass MetricsRegistry; hw.* rows publish only for passes whose plan
// carries hardware fault points. The struct fields, Accumulate, the journal
// codec and metric publishing are all generated from this list.
#define DDT_ENGINE_COUNTERS(X)                                                           \
  X(instructions, kSum, "e_instructions", "engine.instructions")                         \
  X(forks, kSum, "e_forks", "engine.forks")                                              \
  /* Suppressed by max_states. */                                                        \
  X(dropped_forks, kSum, "e_dropped_forks", "engine.dropped_forks")                      \
  X(states_created, kSum, "e_states_created", "engine.states_created")                   \
  X(states_terminated, kSum, "e_states_terminated", "engine.states_terminated")          \
  X(max_live_states, kMax, "e_max_live_states", "engine.max_live_states")                \
  X(kernel_calls, kSum, "e_kernel_calls", "engine.kernel_calls")                         \
  X(interrupts_injected, kSum, "e_interrupts_injected", "engine.interrupts_injected")    \
  X(entry_invocations, kSum, "e_entry_invocations", "engine.entry_invocations")          \
  X(concretizations, kSum, "e_concretizations", "engine.concretizations")                \
  X(concretization_backtracks, kSum, "e_concretization_backtracks",                      \
    "engine.concretization_backtracks")                                                  \
  /* Deliberate kernel-API failures delivered by the active FaultPlan. */                \
  X(faults_injected, kSum, "e_faults_injected", "engine.faults_injected")                \
  /* Hardware fault plane (device-level schedules in the same FaultPlan): */             \
  /* total points triggered, plus per-behavior tallies. */                               \
  X(hw_faults_injected, kSum, "e_hw_faults", "hw.faults_injected")                       \
  /* Surprise removals (MMIO- or IRQ-indexed). */                                        \
  X(hw_removals, kSum, "e_hw_removals", "hw.removals")                                   \
  /* Sticky all-ones error states latched. */                                            \
  X(hw_sticky_faults, kSum, "e_hw_sticky", "hw.sticky_faults")                           \
  /* Interrupts forced past the path budget. */                                          \
  X(hw_irq_storms, kSum, "e_hw_storms", "hw.irq_storms")                                 \
  /* Deliveries withheld (drought/removal). */                                           \
  X(hw_irq_suppressed, kSum, "e_hw_suppressed", "hw.irq_suppressed")                     \
  /* Single writes silently dropped. */                                                  \
  X(hw_doorbells_dropped, kSum, "e_hw_doorbells_dropped", "hw.doorbells_dropped")        \
  /* Reads served all-ones (removed/sticky). */                                          \
  X(hw_reads_floated, kSum, "e_hw_reads_floated", "hw.reads_floated")                    \
  /* Writes dropped after removal. */                                                    \
  X(hw_writes_dropped, kSum, "e_hw_writes_dropped", "hw.writes_dropped")                 \
  /* PnP removal deliveries to the exerciser. */                                         \
  X(hw_removal_events, kSum, "e_hw_removal_events", "hw.removal_events")                 \
  /* States killed by the resource governor (per-state fuel or memory */                 \
  /* pressure), as opposed to normal termination. */                                     \
  X(states_evicted, kSum, "e_states_evicted", "engine.states_evicted")                   \
  /* Peak approximate working-set across live states: COW delta bytes plus */            \
  /* path-constraint counts (the §5.2 "DDT used at most 4 GB" accounting, */             \
  /* scaled to this reproduction). */                                                    \
  X(peak_state_bytes, kMax, "e_peak_state_bytes", "engine.peak_state_bytes")             \
  /* Translation-cache accounting: straight-line blocks decoded once, and */             \
  /* instruction fetches served from already-decoded slots. */                           \
  X(blocks_decoded, kSum, "e_blocks_decoded", "vm.block_cache.blocks_decoded")           \
  X(block_cache_hits, kSum, "e_block_cache_hits", "vm.block_cache.hits")                 \
  /* Probes the cache could not serve (misaligned pc or undecodable slot) */             \
  /* that fell back to byte-wise fetch. */                                               \
  X(block_cache_fallback_fetches, kSum, "e_bc_fallback_fetches",                         \
    "vm.block_cache.fallback_fetches")                                                   \
  /* Path-explosion control (volatile: never in deterministic reports). */               \
  /* Diamond merges performed (one per pair). */                                         \
  X(states_merged, kSum, "e_states_merged", "search.states_merged")                      \
  /* Back-edge-starvation kills. */                                                      \
  X(loop_kills, kSum, "e_loop_kills", "search.loop_kills")                               \
  /* Explicit edge-rule kills (sum of per-rule). */                                      \
  X(edge_kills, kSum, "e_edge_kills", "search.edge_kills")

struct EngineStats {
  DDT_ENGINE_COUNTERS(DDT_COUNTER_FIELD)
  // Per-rule kill counts, index-aligned with PathCtlConfig::kill_edges.
  std::vector<uint64_t> edge_rule_kills;
  // Fork profiler: per-(fork-site pc, fault-site) attribution of the state
  // churn counters above. Always populated (pathctl on or off).
  ForkSiteTable fork_sites;
  double wall_ms = 0;

  // Adds `other`'s counters into this, each by its table merge rule. Used to
  // aggregate per-pass stats across a campaign.
  void Accumulate(const EngineStats& other);
};

#define DDT_ENGINE_ROW(...) DDT_COUNTER_ROW(EngineStats, __VA_ARGS__)
inline constexpr obs::CounterRow<EngineStats> kEngineCounters[] = {
    DDT_ENGINE_COUNTERS(DDT_ENGINE_ROW)};
#undef DDT_ENGINE_ROW

// Publishes every EngineStats and SolverStats row into `metrics`, plus the
// search.fork_sites gauge. hw.* rows publish only when `hw_plan` (the pass's
// plan carries hardware fault points), solver.shared_cache.* rows only when
// `shared_cache` (the pass ran against a shared query cache). A live engine
// calls it at the end of Run; the campaign merger calls it for passes it
// merges from records, so every pass publishes the same names whichever
// scheduler ran it.
void PublishStatsMetrics(const EngineStats& stats, const SolverStats& solver_stats, bool hw_plan,
                         bool shared_cache, obs::MetricsRegistry* metrics);

// One coverage datapoint, taken whenever a new basic block is first covered.
struct CoverageSample {
  uint64_t instructions = 0;
  double wall_ms = 0;
  size_t covered_blocks = 0;
};

// A solver-derived concrete model of one explored symbolic path (§3.5's
// replayable concrete inputs, packaged for the fuzz subsystem): everything a
// guided concrete re-execution needs to retrace the path. Collected when
// EngineConfig::max_path_seeds is nonzero.
struct PathSeed {
  std::vector<SolvedInput> inputs;
  std::vector<uint32_t> interrupt_schedule;  // boundary-crossing indices
  std::vector<std::pair<uint32_t, std::string>> alternatives;  // (kcall seq, label)
  std::vector<uint32_t> workload_trail;  // entry slots invoked, in order
  std::string termination;               // why the path ended
};

class Engine : public CheckerHost, private BlockCountOracle {
 public:
  explicit Engine(const EngineConfig& config = EngineConfig());
  ~Engine() override;

  // --- setup ---
  void AddChecker(std::unique_ptr<Checker> checker);
  void SetAnnotations(AnnotationSet annotations) { annotations_ = std::move(annotations); }
  // Registry contents the kernel serves to MosReadConfiguration.
  void SetRegistry(std::map<std::string, uint32_t> registry) { registry_ = std::move(registry); }
  void SetWorkload(std::vector<WorkloadStep> workload) { workload_ = std::move(workload); }
  // Device model prototype for the initial state (SymbolicDevice by default).
  void SetDevice(std::unique_ptr<DeviceModel> device) { device_proto_ = std::move(device); }

  // Loads a prepared driver behind the PCI shell and builds the initial state
  // over a copy-on-write share of its installed image (but does not run).
  // Fails on a zero budget. The engine keeps `driver` alive.
  Status LoadDriver(std::shared_ptr<const PreparedDriver> driver,
                    const PciDescriptor& descriptor);
  // PrepareDriver + the overload above. A zero budget is reported ahead of
  // an unresolvable import or an oversized image.
  Status LoadDriver(const DriverImage& image, const PciDescriptor& descriptor);

  // Explores until budgets are exhausted or every state terminated.
  void Run();

  // Cooperative cancellation: may be called from any thread (typically a
  // watchdog). The engine winds down at the next budget check; partial
  // results (bugs, stats, coverage) remain valid.
  void RequestAbort() { abort_token_->store(true, std::memory_order_relaxed); }
  bool AbortRequested() const { return abort_token_->load(std::memory_order_relaxed); }

  // --- results ---
  const std::vector<Bug>& bugs() const { return bugs_; }
  const EngineStats& stats() const { return stats_; }
  const std::vector<CoverageSample>& coverage_samples() const { return coverage_samples_; }
  size_t covered_blocks() const { return covered_blocks_.size(); }
  size_t total_blocks() const { return driver_ != nullptr ? driver_->cfg.NumBlocks() : 0; }
  const std::unordered_set<uint32_t>& covered_block_leaders() const { return covered_blocks_; }
  // Covered block leaders as a dense instruction-slot bitmap (the stable
  // coverage-novelty API; see src/vm/coverage_map.h). Slot i = the aligned
  // instruction at code_begin + i * kInstructionSize.
  CoverageBitmap CoverageSnapshot() const;
  // Path seeds collected this run (empty unless config.max_path_seeds > 0).
  const std::vector<PathSeed>& path_seeds() const { return path_seeds_; }
  // The loaded driver's CFG and layout; valid after a successful LoadDriver.
  const Cfg& cfg() const { return driver_->cfg; }
  const LoadedDriver& loaded_driver() const { return driver_->loaded; }
  const MemStats& mem_stats() const { return mem_stats_; }
  // The decoded-block translation cache; null when enable_block_cache is off
  // or LoadDriver has not run.
  BlockCache* block_cache() { return block_cache_.get(); }
  // Fault-eligible call sites observed across all paths of this run; a
  // campaign uses the baseline pass's profile to enumerate injection plans.
  const FaultSiteProfile& fault_site_profile() const { return fault_site_profile_; }
  // Device-interaction high-water marks (MMIO accesses, crossings, interrupt
  // deliveries) — the index spaces hardware fault plans are placed in.
  const HwSiteProfile& hw_site_profile() const { return hw_site_profile_; }
  Solver& solver() { return solver_; }
  ExprContext* expr() override { return &ctx_; }

  // --- CheckerHost ---
  void ReportBug(ExecutionState& st, BugType type, const std::string& title,
                 const std::string& details) override;
  Solver& checker_solver() override { return solver_; }

 private:
  friend class EngineKernelContext;

  // --- BlockCountOracle ---
  uint64_t BlockCountAt(uint32_t pc) const override;

  // State pool helpers.
  void AddState(std::unique_ptr<ExecutionState> state);
  std::unique_ptr<ExecutionState> CloneState(ExecutionState& st);

  // One scheduling quantum for `st`: either execute driver code or let the
  // scheduler pick the next workload item / pending callback.
  void StepState(ExecutionState& st);
  void ScheduleNext(ExecutionState& st);
  void FinishState(ExecutionState& st, const std::string& why);

  // Interpreter.
  void ExecuteBlock(ExecutionState& st);
  // Executes one instruction; returns false if the quantum must end
  // (boundary, fault, fork preference, frame switch).
  bool ExecuteInstruction(ExecutionState& st);
  void HandleKCall(ExecutionState& st, const Instruction& insn);
  void HandleMagicReturn(ExecutionState& st);
  void HandleBranch(ExecutionState& st, ExprRef cond, uint32_t taken_pc, uint32_t fall_pc);
  // A branch direction proved infeasible under the current constraints; if a
  // kernel-call concretization caused that, revive the checkpoint constrained
  // toward `blocked_cond` (§3.2 backtracking). Returns true if revived.
  bool MaybeBacktrackConcretization(ExecutionState& st, ExprRef blocked_cond);

  // Memory access paths (after address concretization).
  Value ReadMem(ExecutionState& st, uint32_t addr, unsigned size, uint32_t pc, bool addr_was_sym,
                ExprRef addr_expr, bool* ok);
  bool WriteMem(ExecutionState& st, uint32_t addr, unsigned size, const Value& value, uint32_t pc,
                bool addr_was_sym, ExprRef addr_expr);

  // Driver invocation machinery.
  void InvokeGuestFunction(ExecutionState& st, uint32_t fn, const std::vector<Value>& args,
                           ExecContextKind kind, int entry_slot);
  void RunEntryAnnotations(ExecutionState& st, int slot);

  // Kernel/driver boundary crossing: counts the crossing and (maybe) injects
  // a symbolic interrupt by forking.
  void CrossBoundary(ExecutionState& st);
  void DeliverIsr(ExecutionState& st, uint32_t crossing_index);

  // Helpers shared with EngineKernelContext.
  uint32_t ConcretizeValue(ExecutionState& st, const Value& value, const std::string& reason);
  // Two-phase concretization for memory addresses: pick a feasible value
  // WITHOUT binding it (so checkers can still reason about the symbolic
  // address), then bind once the access is approved.
  std::optional<uint32_t> PickValue(ExecutionState& st, ExprRef e);
  void BindConcretization(ExecutionState& st, ExprRef e, uint32_t value,
                          const std::string& reason);
  // Resolves a symbolic memory address: if it can escape every region the
  // driver may touch, fork a state taking that choice and report the bug
  // there; constrain this state in-bounds; pick and bind a concrete address.
  // Returns nullopt if this state terminated.
  std::optional<uint32_t> ResolveSymbolicAddress(ExecutionState& st, ExprRef addr_expr,
                                                 unsigned size, bool is_write);
  // Guided replay: resolve a symbolic value to the recorded concrete input.
  Value MaybeGuide(const Value& value);
  uint32_t GuidedEval(ExprRef e);
  // Promotion hints: evaluate `e` under concretization_hints (unhinted
  // origins default to 0). Only meaningful when hints are non-empty.
  uint32_t HintEval(ExprRef e);
  // Records a PathSeed for a finished path when seed derivation is on.
  void MaybeCollectPathSeed(ExecutionState& st, const std::string& why);
  Value ReadMemValueRaw(ExecutionState& st, uint32_t addr, unsigned size);
  void WriteMemValueRaw(ExecutionState& st, uint32_t addr, const Value& value, unsigned size);
  void EmitKernelEvent(ExecutionState& st, const KernelEvent& event);
  // Fault-eligible site hit in `st`: bumps the per-path occurrence counter
  // (always — occurrence indices must be deterministic whether or not a plan
  // is active), updates the engine-wide site profile, and consults the
  // configured FaultPlan. True = the kernel call must fail now.
  bool ShouldInjectFault(ExecutionState& st, FaultClass cls, const char* api);
  // Hardware fault plane: records a triggered device-level fault (schedule
  // entry, stats, trace instant, kernel event). RemoveDevice additionally
  // latches the hot-unplug condition and emits the PnP removal event.
  void RecordHwFault(ExecutionState& st, HwFaultKind kind, uint32_t index);
  void RemoveDevice(ExecutionState& st, HwFaultKind kind, uint32_t index);
  // Memory-pressure eviction: terminates the largest states until the
  // approximate working set is back under max_state_bytes.
  void EvictStatesOverMemoryBudget(uint64_t current_bytes);
  void DoBugCheck(ExecutionState& st, uint32_t code, const std::string& message);
  void AddConstraintChecked(ExecutionState& st, ExprRef constraint);

  void NoteCoverage(ExecutionState& st, uint32_t pc);
  // --- path-explosion control (src/engine/pathctl.h) ---
  // The fault-site label for profiler attribution: the spawning path's most
  // recent injected fault as "class#occurrence", or "-".
  static std::string CurrentFaultLabel(const ExecutionState& st);
  // Stamps fork-profiler lineage onto a fresh fork child spawned at `st`'s
  // current position, and clears any diamond-merge group inherited from the
  // parent (non-branch forks never form mergeable diamonds).
  void StampForkChild(ExecutionState& parent, ExecutionState& child);
  // Attributes a suppressed fork / governor eviction at `st`'s position.
  void NoteDroppedFork(ExecutionState& st);
  void NoteEvictedState(ExecutionState& st);
  // Loop/edge killer, called from NoteCoverage on each block-leader entry.
  // May terminate `st` (callers must re-check st.alive()).
  void MaybeKillOnEdge(ExecutionState& st, uint32_t from_leader, uint32_t to_leader);
  // Diamond merge: `st` arrived at its merge_pc. Merges with the parked
  // sibling if present (terminating `st`), parks `st` if the sibling is
  // still en route, or dissolves the group when the sibling is gone.
  // Returns true if `st` stopped (merged away or parked).
  bool TryMergeAtPc(ExecutionState& st);
  // Clears diamond bookkeeping on every state of `group` (0 = no-op).
  void DissolveSiblingGroup(uint64_t group);
  bool MergeEligible(const ExecutionState& st) const;
  bool BudgetExceeded() const;
  double ElapsedMs() const;

  std::vector<SolvedInput> SolveInputs(ExecutionState& st);

  EngineConfig config_;
  std::shared_ptr<std::atomic<bool>> abort_token_;  // never null after ctor
  ExprContext ctx_;
  Solver solver_;
  Rng rng_;

  // Driver under test (shared, read-only; null until LoadDriver succeeds).
  std::shared_ptr<const PreparedDriver> driver_;
  PciDescriptor pci_;
  // Decode-once translation cache over the immutable code segment.
  std::unique_ptr<BlockCache> block_cache_;
  std::map<std::string, uint32_t> registry_;
  std::vector<WorkloadStep> workload_;
  std::unique_ptr<DeviceModel> device_proto_;
  AnnotationSet annotations_;

  // State pool.
  std::vector<std::unique_ptr<ExecutionState>> states_;
  std::unique_ptr<Searcher> searcher_;
  uint64_t next_state_id_ = 1;
  // Diamond-merge group ids (0 = not in a group).
  uint64_t next_sibling_group_ = 1;

  // Checkers.
  std::vector<std::unique_ptr<Checker>> checkers_;

  // Results.
  std::vector<Bug> bugs_;
  std::set<std::string> bug_dedupe_;
  // (snapshot id, blocked condition) pairs already revived once.
  std::set<std::pair<uint64_t, ExprRef>> backtrack_memo_;
  EngineStats stats_;
  MemStats mem_stats_;
  FaultSiteProfile fault_site_profile_;
  HwSiteProfile hw_site_profile_;
  std::vector<PathSeed> path_seeds_;

  // Coverage.
  std::unordered_map<uint32_t, uint64_t> block_counts_;  // leader -> executions
  std::unordered_set<uint32_t> covered_blocks_;
  std::vector<CoverageSample> coverage_samples_;

  std::chrono::steady_clock::time_point run_start_;
  bool stop_requested_ = false;

  // Cached metrics handle for the periodic live-state sample (registration
  // takes a lock; updates do not). Null when metrics are off.
  obs::Gauge* obs_live_states_ = nullptr;
};

}  // namespace ddt

#endif  // SRC_ENGINE_ENGINE_H_
