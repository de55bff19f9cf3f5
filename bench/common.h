// Shared helpers for the experiment harnesses (one binary per paper
// table/figure). Each binary is self-contained: it compiles the six
// benchmarks, runs the campaigns it needs, prints the paper-shaped table,
// and drops a CSV (plus a run manifest) next to the binary for downstream
// tooling.
#pragma once

#include <string>
#include <vector>

#include "apps/apps.h"
#include "driver/pipeline.h"
#include "fault/campaign.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "fault/report.h"
#include "fault/scheduler.h"

namespace faultlab::benchx {

struct CompiledApp {
  std::string name;
  driver::CompiledProgram program;
};

/// Compiles all six benchmarks through the full pipeline.
std::vector<CompiledApp> compile_all_apps();

/// Results plus the scheduler's run manifest (timings, counters, config).
struct ExperimentRun {
  fault::ResultSet results;
  fault::RunManifest manifest;
};

/// Scheduler options shared by every bench binary: FAULTLAB_THREADS pins
/// the worker count, and a per-campaign completion line goes to stderr
/// unless the FAULTLAB_PROGRESS heartbeat (obs::CampaignMonitor) is on,
/// whose lines would interleave with it.
fault::SchedulerOptions default_scheduler_options(
    const fault::FaultModel& model = {});

/// Runs LLFI+PINFI campaigns for the given categories over all apps on one
/// shared CampaignScheduler: each engine is profiled once for all
/// categories, and every trial of the grid goes through one worker pool.
/// `fault_model` selects the hardware fault model both engines inject
/// (defaults to FAULTLAB_FAULT_MODEL, i.e. the transient baseline).
ExperimentRun run_experiment(const std::vector<CompiledApp>& apps,
                             const std::vector<ir::Category>& categories,
                             std::size_t trials,
                             const fault::FaultModel& model = {},
                             const fault::Model& fault_model =
                                 fault::Model::from_env(),
                             std::uint64_t seed = 0xDA7A5EED);

/// Prints a standard experiment banner (paper reference + trial count).
void print_banner(const std::string& what, std::size_t trials);

/// Saves a CSV beside the current working directory, reporting the path.
void save_results(const fault::ResultSet& rs, const std::string& filename);

/// Saves the results CSV plus the run manifest (<stem>.manifest.csv).
void save_results(const ExperimentRun& run, const std::string& filename);

}  // namespace faultlab::benchx
