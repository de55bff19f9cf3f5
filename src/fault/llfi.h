// LLFI analog: fault injection at the IR level through the interpreter.
//
// Target selection follows the paper's LLFI (Section III):
//  * static candidates are instructions in the requested Table III category
//    that have a destination register AND at least one user (the def-use
//    filter that guarantees high activation),
//  * one dynamic instance is chosen uniformly from the profiled count,
//  * a single bit of the destination value is flipped, within the
//    destination type's width,
//  * activation is tracked exactly: the corrupted SSA value must be read
//    by some instruction.
//
// Trials run on the checkpointed trial loop PINFI shares
// (fault/checkpointed_engine.h), resuming from copy-on-write interpreter
// snapshots. This engine supplies only its traits (the interpreter, the
// [0, 64) draw space) and, in llfi.cc, its hooks and target predicate.
#pragma once

#include "fault/checkpointed_engine.h"
#include "ir/module.h"
#include "vm/interpreter.h"

namespace faultlab::fault {

/// What LLFI supplies to CheckpointedEngine (see its file comment).
struct LlfiTraits {
  using Code = ir::Module;
  using Machine = vm::Interpreter;
  using Snapshot = vm::Snapshot;
  using Limits = vm::RunLimits;
  using Result = vm::RunResult;

  static constexpr const char* kTool = "LLFI";
  /// LLFI's historical draw space is [0, 64): the full register width.
  static constexpr unsigned kDrawSpace = 64;
  static constexpr const char* kMemoryCellRejection =
      "register destinations only";

  static Result run(Machine& interp, const Limits& limits) {
    return interp.run("main", limits);
  }

  // Defined in llfi.cc.
  class InjectHook;
  class ProfileHook;
  class ProfileAllHook;
  class JournalHook;
};

extern template class CheckpointedEngine<LlfiTraits>;

class LlfiEngine final : public CheckpointedEngine<LlfiTraits> {
 public:
  /// The module must outlive the engine. `fault_model` selects the
  /// hardware fault model (fault::Model — kind/mask/trigger); `model`
  /// keeps the tool-heuristic knobs. Memory-cell targets are rejected
  /// here with std::runtime_error: LLFI corrupts SSA destinations only.
  explicit LlfiEngine(const ir::Module& module, FaultModel model = {},
                      CheckpointPolicy checkpoints = CheckpointPolicy::from_env(),
                      Model fault_model = Model::from_env())
      : CheckpointedEngine(module, model, checkpoints, fault_model) {}

  /// Static LLFI target predicate (exposed for tests/benches).
  static bool is_target(const ir::Instruction& instr, ir::Category category,
                        const FaultModel& model = {});
};

}  // namespace faultlab::fault
