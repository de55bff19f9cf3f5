// Metric derivation: end-to-end metrics of one grid run and the per-layer
// counters read from the library's public accessors (phase_stats,
// checkpoint_stats, the run manifest and the returned TrialRecords).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "grid.h"

namespace faultlab::perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// num / base, or 0 when the base is 0. Every share and ratio below
/// names its base in README.md.
double ratio(double num, double base) noexcept;

/// The highest of the percentiles 99, 95 and 50 that leaves at least
/// `beyond` of `n` samples above it (n * (1 - p/100) >= beyond); 0 when
/// even the median does not.
double supported_percentile(std::size_t n, std::size_t beyond = 10) noexcept;

/// Trials that came back with a record (a CampaignError loses them all).
std::size_t completed_trials(const GridRun& run) noexcept;

/// wall_s, setup_s, trials_per_s and completion_share. peak_rss_mb is
/// measured by the caller.
std::vector<Metric> end_to_end_metrics(const GridRun& run);

/// Set-up time: compile + engine construction + the scheduler's profiling
/// phase, i.e. everything before the first trial.
double setup_seconds(const GridRun& run) noexcept;

/// opt, backend, fault, checkpoint, machine and sched layer metrics.
std::vector<Metric> layer_metrics(const GridRun& run);

}  // namespace faultlab::perfbench
