// The benchmark's workloads and the one code path that runs them: compile
// the six mini apps, build an LLFI and a PINFI engine per app, and run the
// workload's whole (app × tool × category) grid through one
// fault::CampaignScheduler::run() call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "driver/pipeline.h"
#include "fault/engine.h"
#include "fault/model.h"
#include "fault/scheduler.h"
#include "ir/category.h"

namespace faultlab::perfbench {

class SpanLog;

struct Workload {
  std::string name;
  std::vector<ir::Category> categories;
  std::size_t trials_per_cell = 0;
  /// Event log, campaign status monitor and propagation tracing all on.
  bool observed = false;
  /// Trials per cell re-run through plain inject() by the replay check.
  std::size_t replay_per_cell = 0;
};

/// fig3-paper, grid-sparse and prop-observed (see README.md for why).
const std::vector<Workload>& workloads();
/// Null for an unknown name.
const Workload* find_workload(const std::string& name);

struct App {
  std::string name;
  driver::CompiledProgram program;
};

/// Where an observed workload's event log and status snapshots go.
struct ObsFiles {
  std::string events;
  std::string status;
};

/// One grid from the first compile to the results in hand.
struct GridRun {
  std::vector<App> apps;  ///< kept alive: records borrow their storage
  double compile_s = 0.0;
  double engines_s = 0.0;  ///< engine construction (each runs golden once)
  double wall_s = 0.0;     ///< compile start -> scheduler.run() returned
  double run_s = 0.0;      ///< scheduler.run() alone
  std::size_t scheduled = 0;  ///< trials queued across all cells
  /// Campaign seed of each cell, in the order the cells were added (the
  /// order of `results`).
  std::vector<std::uint64_t> cell_seeds;
  fault::RunManifest manifest;
  std::vector<fault::CampaignResult> results;  ///< empty when run() threw
  std::string error;  ///< CampaignError text; empty on success
  /// Engine counters summed per tool (index 0 = LLFI, 1 = PINFI).
  fault::CheckpointStats checkpoints[2];
  fault::PhaseStats phases[2];
};

/// Campaign seed of the grid's cell number `index` (cells counted in the
/// order they are added). Cells that shared one seed would draw the same
/// uniform sequence, each scaled to its own N, so every cell's injection
/// points would sit early or late together and the grid's work would swing
/// with the seed; a seed per cell lets their draws average out.
std::uint64_t cell_seed(std::uint64_t seed, std::size_t index);

/// Compiles the six apps (one span per app when `spans` is set).
std::vector<App> compile_apps(SpanLog* spans, double* seconds);

/// Fresh engine for `app` (tool 0 = LLFI, 1 = PINFI).
std::unique_ptr<fault::InjectorEngine> make_engine(
    const App& app, int tool, const fault::Model& model,
    const fault::CheckpointPolicy& checkpoints);

/// Runs the workload's grid. `trials_per_cell` overrides the workload's
/// (0 trials gives a set-up-only run: compile, engines and profiling).
GridRun run_grid(const Workload& workload, std::uint64_t seed,
                 std::size_t threads, std::size_t trials_per_cell,
                 const ObsFiles* obs, SpanLog* spans);

}  // namespace faultlab::perfbench
