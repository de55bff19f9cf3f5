#include "machine/dispatch.h"

#include <cstdio>
#include <mutex>

#include "obs/metrics.h"
#include "support/env.h"

namespace faultlab::machine {

namespace {

std::atomic<int>& mode_cell() noexcept {
  static std::atomic<int> cell{[] {
    static const char* const kChoices[] = {"threaded", "switch"};
    const std::size_t picked =
        support::parse_env_choice("FAULTLAB_DISPATCH", kChoices, 2, 0);
    return picked == 1 ? static_cast<int>(DispatchMode::Switch)
                       : static_cast<int>(DispatchMode::Threaded);
  }()};
  return cell;
}

std::size_t clamp_lanes(std::uint64_t lanes, const char* origin) noexcept {
  if (lanes < 1) {
    std::fprintf(stderr,
                 "faultlab: %s value %llu below 1; clamping to 1 lane\n",
                 origin, static_cast<unsigned long long>(lanes));
    return 1;
  }
  if (lanes > kMaxLanes) {
    std::fprintf(stderr,
                 "faultlab: %s value %llu above %zu; clamping to %zu lanes\n",
                 origin, static_cast<unsigned long long>(lanes), kMaxLanes,
                 kMaxLanes);
    return kMaxLanes;
  }
  return static_cast<std::size_t>(lanes);
}

std::atomic<std::size_t>& lanes_cell() noexcept {
  static std::atomic<std::size_t> cell{clamp_lanes(
      support::parse_env_u64("FAULTLAB_LANES", 1), "FAULTLAB_LANES")};
  return cell;
}

}  // namespace

std::size_t lane_count() noexcept {
  return lanes_cell().load(std::memory_order_relaxed);
}

void set_lane_count(std::size_t lanes) noexcept {
  lanes_cell().store(clamp_lanes(lanes, "set_lane_count"),
                     std::memory_order_relaxed);
}

DispatchMode dispatch_mode() noexcept {
  return static_cast<DispatchMode>(
      mode_cell().load(std::memory_order_relaxed));
}

void set_dispatch_mode(DispatchMode mode) noexcept {
  mode_cell().store(static_cast<int>(mode), std::memory_order_relaxed);
}

const char* dispatch_mode_name(DispatchMode mode) noexcept {
  return mode == DispatchMode::Switch ? "switch" : "threaded";
}

DispatchCounters& dispatch_counters() noexcept {
  static DispatchCounters counters;
  return counters;
}

DispatchCountersSnapshot dispatch_counters_snapshot() noexcept {
  const DispatchCounters& c = dispatch_counters();
  DispatchCountersSnapshot out;
  out.trace_decodes = c.trace_decodes.load(std::memory_order_relaxed);
  out.trace_hits = c.trace_hits.load(std::memory_order_relaxed);
  out.trace_invalidations =
      c.trace_invalidations.load(std::memory_order_relaxed);
  out.decoded_blocks = c.decoded_blocks.load(std::memory_order_relaxed);
  return out;
}

PackCounters& pack_counters() noexcept {
  static PackCounters counters;
  return counters;
}

PackCountersSnapshot pack_counters_snapshot() noexcept {
  const PackCounters& c = pack_counters();
  PackCountersSnapshot out;
  out.groups = c.groups.load(std::memory_order_relaxed);
  out.lanes = c.lanes.load(std::memory_order_relaxed);
  out.uops = c.uops.load(std::memory_order_relaxed);
  out.lane_uops = c.lane_uops.load(std::memory_order_relaxed);
  out.divergences = c.divergences.load(std::memory_order_relaxed);
  return out;
}

void record_pack_divergence_offset(std::uint64_t offset) {
  if (!obs::metrics_enabled()) return;
  static obs::Histogram histogram =
      obs::Registry::global().histogram("pack.divergence_offset");
  histogram.record(offset);
}

void publish_dispatch_metrics() {
  if (!obs::metrics_enabled()) return;
  // The registry's counters are cumulative sums of add() calls; publish
  // the delta since the last publish so the mirror tracks the atomics.
  static std::mutex mutex;
  static DispatchCountersSnapshot last;
  static PackCountersSnapshot last_pack;
  const DispatchCountersSnapshot now = dispatch_counters_snapshot();
  const PackCountersSnapshot now_pack = pack_counters_snapshot();
  std::lock_guard<std::mutex> lock(mutex);
  obs::Registry& registry = obs::Registry::global();
  registry.counter("dispatch.trace_decodes")
      .add(now.trace_decodes - last.trace_decodes);
  registry.counter("dispatch.trace_hits")
      .add(now.trace_hits - last.trace_hits);
  registry.counter("dispatch.trace_invalidations")
      .add(now.trace_invalidations - last.trace_invalidations);
  registry.gauge("dispatch.decoded_blocks")
      .set(static_cast<std::int64_t>(now.decoded_blocks));
  registry.counter("pack.groups").add(now_pack.groups - last_pack.groups);
  registry.counter("pack.lanes").add(now_pack.lanes - last_pack.lanes);
  registry.counter("pack.uops").add(now_pack.uops - last_pack.uops);
  registry.counter("pack.lane_uops")
      .add(now_pack.lane_uops - last_pack.lane_uops);
  registry.counter("pack.divergences")
      .add(now_pack.divergences - last_pack.divergences);
  last = now;
  last_pack = now_pack;
}

}  // namespace faultlab::machine
