// PINFI analog: fault injection at the assembly level through the machine
// simulator, playing the role Intel PIN plays in the paper.
//
// Target selection follows the paper's PINFI (Section IV):
//  * static candidates are instructions with a register destination in the
//    requested Table III category, plus flag-writing compares whose next
//    instruction is a conditional jump,
//  * one dynamic instance is chosen uniformly from the profiled count,
//  * a single bit of the destination register is flipped after the
//    instruction retires; for compares, only the EFLAGS bit(s) the
//    following jcc reads (heuristic 1); for double-precision results, only
//    the low 64 XMM bits (heuristic 2),
//  * activation is tracked architecturally: the corrupted register (or
//    flag bit) must be read before being overwritten.
//
// Trials run on the checkpointed trial loop LLFI shares
// (fault/checkpointed_engine.h), resuming from copy-on-write simulator
// snapshots. This engine supplies only its traits (the simulator, the
// [0, 128) draw space) and, in pinfi.cc, its hooks and target predicate.
#pragma once

#include "fault/checkpointed_engine.h"
#include "x86/program.h"
#include "x86/simulator.h"

namespace faultlab::fault {

/// What PINFI supplies to CheckpointedEngine (see its file comment).
struct PinfiTraits {
  using Code = x86::Program;
  using Machine = x86::Simulator;
  using Snapshot = x86::SimSnapshot;
  using Limits = x86::SimLimits;
  using Result = x86::SimResult;

  static constexpr const char* kTool = "PINFI";
  /// PINFI's historical draw space is [0, 128): the widest destination
  /// (an unpruned XMM register).
  static constexpr unsigned kDrawSpace = 128;
  static constexpr const char* kMemoryCellRejection =
      "architectural registers only";

  static Result run(Machine& sim, const Limits& limits) {
    return sim.run(limits);
  }

  // Defined in pinfi.cc.
  class InjectHook;
  class ProfileHook;
  class ProfileAllHook;
  class JournalHook;
};

extern template class CheckpointedEngine<PinfiTraits>;

class PinfiEngine final : public CheckpointedEngine<PinfiTraits> {
 public:
  /// The program must outlive the engine. `fault_model` selects the
  /// hardware fault model (fault::Model — kind/mask/trigger); `model`
  /// keeps the tool-heuristic knobs. Memory-cell targets are rejected
  /// here with std::runtime_error: PINFI corrupts architectural registers
  /// only.
  PinfiEngine(const x86::Program& program, FaultModel model = {},
              CheckpointPolicy checkpoints = CheckpointPolicy::from_env(),
              Model fault_model = Model::from_env())
      : CheckpointedEngine(program, model, checkpoints, fault_model) {}

  /// Static PINFI target predicate (exposed for tests/benches).
  static bool is_target(const x86::Inst& inst, const x86::Inst* next,
                        ir::Category category);
};

}  // namespace faultlab::fault
