// Shared runtime for both execution engines: global placement, heap
// allocator, and the builtin functions (print/malloc/math). Keeping one
// implementation guarantees the VM and the x86 simulator produce
// byte-identical golden outputs for the same program.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/module.h"
#include "machine/memory.h"

namespace faultlab::machine {

/// Assigns every module global a fixed address starting at
/// Layout::kGlobalBase and can materialize the initializers into a Memory.
class GlobalLayout {
 public:
  explicit GlobalLayout(const ir::Module& module);

  std::uint64_t address_of(const ir::GlobalVariable* g) const;
  std::uint64_t total_size() const noexcept { return total_size_; }

  /// Maps the global region and copies all initializers.
  void materialize(Memory& memory) const;

 private:
  const ir::Module& module_;
  std::map<const ir::GlobalVariable*, std::uint64_t> addresses_;
  std::uint64_t total_size_ = 0;
};

/// Heap + builtins. Argument and result values are raw 64-bit patterns
/// (doubles bit-cast), matching how both engines hold runtime values.
class Runtime {
 public:
  /// Snapshotable runtime state: program output so far plus the heap
  /// allocator's bookkeeping. Captured/restored together with a
  /// Memory::Snapshot so a trial resumed mid-run prints and allocates
  /// exactly as the golden run would from that point.
  struct State {
    std::string output;
    std::uint64_t heap_next = Layout::kHeapBase;
    std::map<std::uint64_t, std::uint64_t> live_allocations;
  };

  explicit Runtime(Memory& memory) : memory_(&memory) {}

  /// Releases heap state and output (memory mappings are reset separately).
  void reset();

  State save() const { return {output_, heap_next_, live_allocations_}; }
  void restore(const State& state) {
    output_ = state.output;
    heap_next_ = state.heap_next;
    live_allocations_ = state.live_allocations;
  }
  /// True when the live runtime equals `state` (output so far, heap
  /// cursor and live allocations) — the runtime half of the golden-rejoin
  /// check.
  bool same_as(const State& state) const {
    return heap_next_ == state.heap_next && output_ == state.output &&
           live_allocations_ == state.live_allocations;
  }

  /// Bump allocation with 16-byte alignment; returns 0 when the request
  /// cannot be satisfied (mirroring malloc's null return).
  std::uint64_t heap_alloc(std::uint64_t size);
  /// Traps with BadFree when `addr` was never returned by heap_alloc
  /// (or already freed). Null is ignored, as in C.
  void heap_free(std::uint64_t addr);

  static bool is_builtin(const std::string& name);
  /// Invokes builtin `name`; returns the raw result (0 for void builtins).
  std::uint64_t call_builtin(const std::string& name,
                             const std::vector<std::uint64_t>& args);

  const std::string& output() const noexcept { return output_; }
  std::uint64_t heap_bytes_allocated() const noexcept { return heap_next_ - Layout::kHeapBase; }

 private:
  Memory* memory_;
  std::string output_;
  std::uint64_t heap_next_ = Layout::kHeapBase;
  std::map<std::uint64_t, std::uint64_t> live_allocations_;  // addr -> size
};

}  // namespace faultlab::machine
