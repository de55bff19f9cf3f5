// CheckpointPolicy: stride selection and environment overrides for the
// checkpoint/restore trial layer (see engine.h).
#include "fault/engine.h"
#include "support/env.h"

namespace faultlab::fault {

CheckpointMetrics& checkpoint_metrics() {
  static CheckpointMetrics metrics = [] {
    obs::Registry& registry = obs::Registry::global();
    return CheckpointMetrics{
        registry.counter("checkpoint.snapshots"),
        registry.counter("checkpoint.restores"),
        registry.counter("checkpoint.restored_pages"),
        registry.counter("checkpoint.skipped_instructions"),
        registry.counter("checkpoint.delta_restores"),
        registry.counter("checkpoint.delta_pages"),
        registry.counter("checkpoint.evictions"),
        registry.counter("checkpoint.rejoins"),
        registry.counter("checkpoint.rejoin_skipped_instructions"),
        registry.histogram("checkpoint.dirty_pages"),
        registry.histogram("checkpoint.rejoin_boundary"),
    };
  }();
  return metrics;
}

CheckpointPolicy CheckpointPolicy::from_env() {
  CheckpointPolicy policy;
  policy.enabled = support::parse_env_u64("FAULTLAB_CHECKPOINTS", 1) != 0;
  policy.stride = support::parse_env_u64("FAULTLAB_SNAPSHOT_STRIDE", 0);
  policy.budget_pages = support::parse_env_u64("FAULTLAB_SNAPSHOT_BUDGET", 0);
  return policy;
}

std::uint64_t CheckpointPolicy::effective_stride(
    std::uint64_t golden_instructions) const {
  if (!enabled) return 0;
  if (stride != 0) return stride;
  return std::max<std::uint64_t>(golden_instructions / kAutoWindows,
                                 kMinStride);
}

}  // namespace faultlab::fault
