#include "grid.h"

#include <chrono>
#include <exception>
#include <utility>

#include "apps/apps.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "spans.h"
#include "support/rng.h"

namespace faultlab::perfbench {

namespace {

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"fig3-paper", {ir::Category::All}, 1000, false, 5},
      {"grid-sparse",
       {ir::Category::Arithmetic, ir::Category::Cast, ir::Category::Cmp,
        ir::Category::Load, ir::Category::All},
       40, false, 1},
      {"prop-observed", {ir::Category::All}, 30, true, 4},
  };
  return kWorkloads;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::uint64_t cell_seed(std::uint64_t seed, std::size_t index) {
  std::uint64_t state = seed ^ (static_cast<std::uint64_t>(index) << 40);
  return split_mix64(state);
}

std::vector<App> compile_apps(SpanLog* spans, double* seconds) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<App> apps;
  for (const apps::Benchmark& b : apps::all_benchmarks()) {
    Span span(spans, "driver.compile");
    apps.push_back({b.name, driver::compile(b.source, b.name)});
  }
  if (seconds != nullptr) *seconds = since(t0);
  return apps;
}

std::unique_ptr<fault::InjectorEngine> make_engine(
    const App& app, int tool, const fault::Model& model,
    const fault::CheckpointPolicy& checkpoints) {
  if (tool == 0)
    return std::make_unique<fault::LlfiEngine>(
        app.program.module(), fault::FaultModel{}, checkpoints, model);
  return std::make_unique<fault::PinfiEngine>(
      app.program.program(), fault::FaultModel{}, checkpoints, model);
}

GridRun run_grid(const Workload& workload, std::uint64_t seed,
                 std::size_t threads, std::size_t trials_per_cell,
                 const ObsFiles* obs, SpanLog* spans) {
  GridRun out;
  const auto t0 = std::chrono::steady_clock::now();
  out.apps = compile_apps(spans, &out.compile_s);

  const auto t_engines = std::chrono::steady_clock::now();
  std::vector<std::unique_ptr<fault::InjectorEngine>> engines;
  {
    Span span(spans, "fault.engines");
    for (const App& app : out.apps)
      for (int tool = 0; tool < 2; ++tool)
        engines.push_back(
            make_engine(app, tool, fault::Model{}, fault::CheckpointPolicy{}));
  }
  out.engines_s = since(t_engines);

  fault::SchedulerOptions options;
  options.threads = threads;
  if (obs != nullptr) {
    obs::MonitorOptions monitor;
    monitor.status_path = obs->status;
    options.monitor = monitor;
  }
  fault::CampaignScheduler scheduler(std::move(options));
  for (std::size_t a = 0; a < out.apps.size(); ++a)
    for (ir::Category category : workload.categories)
      for (int tool = 0; tool < 2; ++tool) {
        fault::CampaignConfig config;
        config.app = out.apps[a].name;
        config.category = category;
        config.trials = trials_per_cell;
        config.seed = cell_seed(seed, out.cell_seeds.size());
        out.cell_seeds.push_back(config.seed);
        scheduler.add(*engines[2 * a + static_cast<std::size_t>(tool)],
                      config);
        out.scheduled += trials_per_cell;
      }

  const auto t_run = std::chrono::steady_clock::now();
  try {
    Span span(spans, "sched.run");
    out.results = scheduler.run();
  } catch (const fault::CampaignError& e) {
    out.error = e.what();
  }
  out.run_s = since(t_run);
  out.wall_s = since(t0);
  out.manifest = scheduler.manifest();

  for (std::size_t i = 0; i < engines.size(); ++i) {
    out.checkpoints[i % 2] += engines[i]->checkpoint_stats();
    out.phases[i % 2] += engines[i]->phase_stats();
  }
  // Cells whose category never occurs in an app have no draws: they are
  // not scheduled work.
  for (const fault::CampaignTiming& t : out.manifest.campaigns)
    if (t.profiled_count == 0) out.scheduled -= trials_per_cell;
  return out;
}

}  // namespace faultlab::perfbench
