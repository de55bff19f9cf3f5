// Replay check: re-run a seeded sample of a grid's trials through plain
// InjectorEngine::inject() on fresh engines with checkpointing off (no
// snapshot, delta restore, lanes or scheduler) and require each to match
// the scheduler's TrialRecord.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/campaign.h"
#include "fault/outcome.h"
#include "grid.h"
#include "support/rng.h"

namespace faultlab::perfbench {

struct Draw {
  std::uint64_t k = 0;
  Rng rng;
};

/// The scheduler's draw sequence for one campaign: Rng(seed ^ category<<32),
/// then per trial k = range(1, profiled) and the trial's fork().
std::vector<Draw> redraw(std::uint64_t seed, ir::Category category,
                         std::size_t trials, std::uint64_t profiled);

/// `count` distinct trial indices in [0, trials), ascending, drawn from
/// `seed` (all of them when count >= trials).
std::vector<std::size_t> sample_trials(std::size_t trials, std::size_t count,
                                       std::uint64_t seed);

/// Equal on outcome, bit, static site, trap and total instructions.
bool same_trial(const fault::TrialRecord& a, const fault::TrialRecord& b);

struct ReplayReport {
  std::size_t checked = 0;
  std::size_t mismatched = 0;
  std::string first_mismatch;  ///< human-readable, empty when all match
};

/// Replays `per_cell` sampled trials of every non-empty campaign in
/// `results` (compiled programs from `apps`) on `threads` workers.
/// `seeds[c]` is the campaign seed `results[c]` ran with.
ReplayReport replay_check(const std::vector<App>& apps,
                          const fault::Model& model,
                          const std::vector<fault::CampaignResult>& results,
                          const std::vector<std::uint64_t>& seeds,
                          std::size_t per_cell, std::size_t threads);

}  // namespace faultlab::perfbench
