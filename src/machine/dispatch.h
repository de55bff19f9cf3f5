// Dispatch-mode selection and trace-cache counters shared by both
// execution engines (vm::Interpreter and x86::Simulator).
//
// Each engine owns two execution paths over the same semantics:
//
//  * the *slow* path — the original per-instruction switch loop with fault
//    hooks, snapshot capture, and timeout checks woven into every step;
//  * the *fast* path — pre-decoded micro-op traces run by a threaded
//    (computed-goto) dispatch loop with no hook callouts at all. The
//    engine enters it only while no hook can observe execution (hook
//    detached with its re-arm point out of reach) and side-exits back to
//    the slow path at window boundaries.
//
// `DispatchMode::Switch` disables the fast path entirely, pinning the
// engines to the historical loop: equivalence fixtures A/B the two modes
// and require byte-identical campaign results.
//
// The counters here are always-on relaxed atomics (they are touched once
// per trace entry / decode, not per instruction, so gating them behind
// FAULTLAB_METRICS buys nothing); `publish_dispatch_metrics()` mirrors
// them into the obs registry for exporters, and the scheduler diffs
// `dispatch_counters_snapshot()` around a run for the manifest CSV.
#pragma once

#include <atomic>
#include <cstdint>

namespace faultlab::machine {

enum class DispatchMode : int {
  Threaded = 0,  ///< pre-decoded micro-op traces + slow path for armed windows
  Switch = 1,    ///< original hooked switch loop only
};

/// Process-wide dispatch mode. First call reads FAULTLAB_DISPATCH
/// ("threaded" | "switch", default threaded, unknown values warn); later
/// calls return the cached or programmatically overridden value.
DispatchMode dispatch_mode() noexcept;

/// Overrides the dispatch mode for the rest of the process (or until the
/// next override). Benches use this to run interleaved A/B pairs in one
/// process; it affects runs started after the call.
void set_dispatch_mode(DispatchMode mode) noexcept;

/// Canonical spelling, matching the FAULTLAB_DISPATCH values.
const char* dispatch_mode_name(DispatchMode mode) noexcept;

/// Hard ceiling on lockstep lanes per pack: one snapshot window's chunk is
/// at most 64 trials (the scheduler's kMaxChunk), so more lanes could
/// never fill.
inline constexpr std::size_t kMaxLanes = 64;

/// Process-wide lockstep lane count. First call reads FAULTLAB_LANES
/// (default 1, clamped to 1..kMaxLanes with a stderr warning); later calls
/// return the cached or programmatically overridden value. A count of 1
/// disables lane packing entirely — the scheduler and both engines then
/// take exactly the single-trial path, the only one where a trial can stop
/// early on rejoining the golden run (vm::RunLimits::rejoin), which is why
/// packing is opt-in.
std::size_t lane_count() noexcept;

/// Overrides the lane count for the rest of the process (or until the next
/// override). Benches use this to run interleaved lanes-on/off A/B pairs
/// in one process; it affects runs started after the call. Values are
/// clamped to 1..kMaxLanes.
void set_lane_count(std::size_t lanes) noexcept;

/// Trace-cache counters, accumulated process-wide across both engines.
struct DispatchCounters {
  /// Basic blocks (VM) / instruction slots (x86) decoded into micro-ops.
  std::atomic<std::uint64_t> trace_decodes{0};
  /// Fast-path entries served entirely from already-decoded traces.
  std::atomic<std::uint64_t> trace_hits{0};
  /// Fast-to-slow side exits forced by an armed/armable hook window,
  /// an imminent snapshot point, or a non-traceable program state.
  std::atomic<std::uint64_t> trace_invalidations{0};
  /// Decoded blocks currently resident across live trace caches.
  std::atomic<std::uint64_t> decoded_blocks{0};
};

DispatchCounters& dispatch_counters() noexcept;

/// Plain-value copy for manifest deltas and tests.
struct DispatchCountersSnapshot {
  std::uint64_t trace_decodes = 0;
  std::uint64_t trace_hits = 0;
  std::uint64_t trace_invalidations = 0;
  std::uint64_t decoded_blocks = 0;
};

DispatchCountersSnapshot dispatch_counters_snapshot() noexcept;

/// Lockstep lane-pack counters, accumulated process-wide across both
/// engines. Touched once per pack entry / lane exit (the hot loops
/// accumulate locally and flush on exit), so they stay always-on like the
/// trace counters above.
struct PackCounters {
  /// Lane groups that entered a lockstep pack (≥2 lanes).
  std::atomic<std::uint64_t> groups{0};
  /// Lanes summed over those groups (groups ? lanes / groups : 0 is the
  /// mean group size).
  std::atomic<std::uint64_t> lanes{0};
  /// Micro-ops fetched + dispatched by pack fast loops (one fetch serves
  /// every active lane).
  std::atomic<std::uint64_t> uops{0};
  /// Per-lane executions those dispatches drove; lane_uops / uops is the
  /// mean number of active lanes per dispatched micro-op.
  std::atomic<std::uint64_t> lane_uops{0};
  /// Lanes masked off a pack because their control flow diverged from the
  /// leader (each finishes on the single-lane slow path).
  std::atomic<std::uint64_t> divergences{0};
};

PackCounters& pack_counters() noexcept;

/// Plain-value copy for manifest deltas, benches, and tests.
struct PackCountersSnapshot {
  std::uint64_t groups = 0;
  std::uint64_t lanes = 0;
  std::uint64_t uops = 0;
  std::uint64_t lane_uops = 0;
  std::uint64_t divergences = 0;
};

PackCountersSnapshot pack_counters_snapshot() noexcept;

/// Records the in-pack position (executed instructions past the shared
/// snapshot) at which a lane's control flow left the pack. Feeds the
/// pack.divergence_offset histogram; no-op while FAULTLAB_METRICS is off.
void record_pack_divergence_offset(std::uint64_t offset);

/// Mirrors the counters into the global obs registry
/// (dispatch.trace_hits / trace_decodes / trace_invalidations counters,
/// the dispatch.decoded_blocks gauge, and the pack.* lane counters).
/// Publishes deltas since the previous publish, so repeated calls — one
/// per scheduler run — stay cumulative. No-op while FAULTLAB_METRICS is
/// off.
void publish_dispatch_metrics();

}  // namespace faultlab::machine
