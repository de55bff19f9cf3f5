// Machine simulator for the x86-flavoured ISA — the "hardware + PIN" that
// PINFI instruments. Executes a Program against the shared memory model,
// with a hook interface that can observe every dynamic instruction and
// mutate machine state after an instruction retires (fault injection).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "machine/memory.h"
#include "machine/runtime.h"
#include "x86/program.h"

namespace faultlab::x86 {

/// Full architectural state, exposed to hooks so injectors can flip bits in
/// destination registers, XMM lanes, or EFLAGS.
struct MachineState {
  std::uint64_t gpr[kNumGprs] = {};
  std::uint64_t xmm[kNumXmms][2] = {};  // [0] = low 64 bits, [1] = high
  std::uint64_t rflags = 0;
  std::uint64_t rip_index = 0;  // instruction index, not byte address
  bool operator==(const MachineState&) const = default;
};

class SimHook {
 public:
  virtual ~SimHook() = default;
  /// True once the hook has nothing left to observe right now. The
  /// simulator checks this at instruction boundaries; when `rearm_at()` is
  /// zero it drops the hook for the rest of the run (the transient fast
  /// path), so an injection hook done tracking activation stops taxing
  /// every remaining instruction with virtual calls. With a nonzero
  /// `rearm_at()` the hook merely goes dormant: callbacks are suppressed
  /// until the executed-instruction count reaches the re-arm point, then
  /// the simulator calls `rearm()` and resumes delivery. The hook object
  /// stays alive and queryable either way.
  bool detached() const noexcept { return detached_; }
  /// Absolute executed-instruction count at which a dormant hook wants
  /// callbacks again; zero means detachment is final.
  std::uint64_t rearm_at() const noexcept { return rearm_at_; }
  /// Reactivates a dormant hook. Called by the simulator when the re-arm
  /// point is reached; not for subclass use.
  void rearm() noexcept {
    detached_ = false;
    rearm_at_ = 0;
  }
  /// Called before executing instruction `code[index]`.
  virtual void on_before(std::size_t index, const Inst& inst) {
    (void)index;
    (void)inst;
  }
  /// Called between on_before and execution for each memory access the
  /// instruction is about to make, with the exact effective address
  /// computed from pre-execution register state. Covers explicit memory
  /// operands (loads, stores) and the implicit stack accesses of
  /// push/pop/call/ret; builtin-call argument reads are not reported.
  virtual void on_memory(std::size_t index, const Inst& inst,
                         std::uint64_t address, unsigned size,
                         bool is_store) {
    (void)index;
    (void)inst;
    (void)address;
    (void)size;
    (void)is_store;
  }
  /// Called after the instruction retires; the hook may mutate `state`
  /// (this is where PINFI's bit flips land).
  virtual void on_after(std::size_t index, const Inst& inst,
                        MachineState& state) {
    (void)index;
    (void)inst;
    (void)state;
  }

 protected:
  /// For subclasses whose instrumentation completes mid-run. Passing a
  /// nonzero `rearm_at` requests dormancy instead of final detachment:
  /// the simulator suppresses callbacks until that many instructions have
  /// executed (absolute count, including any restored prefix), then
  /// re-arms the hook. Time-triggered and persistent fault models use
  /// this to sleep through uninteresting stretches without giving up the
  /// hook pointer.
  void detach(std::uint64_t rearm_at = 0) noexcept {
    detached_ = true;
    rearm_at_ = rearm_at;
  }

 private:
  bool detached_ = false;
  std::uint64_t rearm_at_ = 0;
};

/// Resumable machine state captured between two retired instructions:
/// architectural registers plus copy-on-write memory and runtime state.
/// `executed == n` means the snapshot resumes exactly before dynamic
/// instruction n+1. Any simulator over the same program can run_from() it,
/// including several concurrently (each gets its own copy-on-write view).
struct SimSnapshot {
  MachineState state;
  std::uint64_t executed = 0;
  machine::Memory::Snapshot memory;
  machine::Runtime::State runtime;
};

struct SimLimits {
  /// Budget on *total* dynamic instructions, including any golden prefix a
  /// resumed run skipped: run_from() keeps counting from the snapshot's
  /// `executed`, so a restored trial times out exactly where a full run
  /// would.
  std::uint64_t max_instructions = 400'000'000;
  /// When nonzero, capture a SimSnapshot every `snapshot_stride` retired
  /// instructions and hand it to `snapshot_sink`.
  std::uint64_t snapshot_stride = 0;
  std::function<void(SimSnapshot&&)> snapshot_sink;
  /// Golden-run snapshots in execution order (non-owning), or null: the
  /// early-exit points of vm::RunLimits::rejoin. Once the hook has finally
  /// detached, the run compares MachineState, runtime and memory with the
  /// snapshot at the same `executed` count and stops on a match (see
  /// SimResult::rejoin_boundary). Ignored inside lockstep packs.
  const std::vector<const SimSnapshot*>* rejoin = nullptr;
};

struct SimResult {
  bool trapped = false;
  machine::TrapKind trap = machine::TrapKind::UnmappedAccess;
  /// Static location of the trap when `trapped`: the instruction index
  /// (rip) that was executing — the same id space as PINFI's static_site.
  /// Zero otherwise.
  std::uint64_t trap_pc = 0;
  /// Faulting address carried by the trap (memory address, divisor site,
  /// or jump target).
  std::uint64_t trap_address = 0;
  bool timed_out = false;
  std::int64_t exit_value = 0;
  std::uint64_t dynamic_instructions = 0;
  std::string output;
  /// Page-table entries rewritten by run_from()'s restore, and whether it
  /// took the O(dirty) delta path (checkpoint observability; both 0/false
  /// for run()).
  std::uint64_t restored_pages = 0;
  bool delta_restored = false;
  /// Nonzero when the run stopped at a SimLimits::rejoin point; same
  /// contract as vm::RunResult::rejoin_boundary.
  std::uint64_t rejoin_boundary = 0;

  bool completed() const noexcept { return !trapped && !timed_out; }
  bool rejoined() const noexcept { return rejoin_boundary != 0; }
};

class Machine;

class Simulator {
 public:
  explicit Simulator(const Program& program, SimHook* hook = nullptr);
  ~Simulator();
  // The resident machine (machine_) holds references into this object;
  // moving or copying would leave them dangling.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Swaps the instrumentation hook for subsequent runs. A resident
  /// simulator serves many trials, each with its own injection hook.
  void set_hook(SimHook* hook) noexcept { hook_ = hook; }

  /// Runs the program's entry function to completion on a fresh machine
  /// image.
  SimResult run(const SimLimits& limits = {});

  /// Resumes execution from `snapshot` (captured on this program) and runs
  /// to completion. `dynamic_instructions` and `output` report whole-run
  /// totals including the skipped prefix, so outcome classification matches
  /// a from-scratch run.
  ///
  /// The machine is resident: it persists across calls, so resuming the
  /// same snapshot repeatedly rides Memory::restore_delta()'s O(pages the
  /// previous trial touched) path instead of rebuilding the page table.
  SimResult run_from(const SimSnapshot& snapshot, const SimLimits& limits = {});

  /// Resumes `count` simulators (lanes) from the same snapshot and runs
  /// them to completion in lockstep: one decoded micro-op fetch drives
  /// every active lane, and a lane whose fault diverges control flow
  /// (branch target, trap, or halt differs from the pack leader) masks off
  /// and finishes on the existing single-lane path. results[i] is
  /// byte-identical to what `lanes[i]->run_from(snapshot, limits)` would
  /// produce — the pack only amortizes fetch/dispatch, never semantics.
  /// Falls back to sequential run_from calls when packing cannot apply
  /// (one lane, switch dispatch mode, a snapshot sink armed, mismatched
  /// programs, or more than machine::kMaxLanes lanes).
  static void run_lockstep(Simulator* const* lanes, std::size_t count,
                           const SimSnapshot& snapshot,
                           const SimLimits& limits, SimResult* results);

 private:
  const Program& program_;
  SimHook* hook_;
  std::unique_ptr<Machine> machine_;  // lazily created, reused across runs
};

}  // namespace faultlab::x86
