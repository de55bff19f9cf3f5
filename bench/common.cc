#include "common.h"

#include <cstdio>
#include <iostream>
#include <memory>

#include "obs/metrics.h"
#include "support/env.h"

namespace faultlab::benchx {

std::vector<CompiledApp> compile_all_apps() {
  std::vector<CompiledApp> out;
  for (const auto& b : apps::all_benchmarks())
    out.push_back({b.name, driver::compile(b.source, b.name)});
  return out;
}

fault::SchedulerOptions default_scheduler_options(
    const fault::FaultModel& model) {
  fault::SchedulerOptions options;
  options.model = model;
  // FAULTLAB_THREADS pins the worker count (results are identical either
  // way; this exists so perf runs and CSV-diff checks are reproducible).
  options.threads = static_cast<std::size_t>(
      support::parse_env_u64("FAULTLAB_THREADS", 0));
  // With FAULTLAB_PROGRESS=1 the campaign monitor prints its own heartbeat
  // lines; these per-campaign lines yield to it.
  if (!obs::progress_enabled()) {
    options.progress = [](const fault::SchedulerProgress& p) {
      if (p.completed == nullptr) return;
      char rate[32];
      std::snprintf(rate, sizeof rate, "%.0f",
                    p.completed->wall_seconds > 0.0
                        ? static_cast<double>(p.completed->trials.size()) /
                              p.completed->wall_seconds
                        : 0.0);
      std::cerr << "  [" << p.completed->app << " / " << p.completed->tool
                << " / " << ir::category_name(p.completed->category) << "] "
                << p.campaigns_done << "/" << p.campaigns_total
                << " campaigns (" << rate << " trials/s)\n";
    };
  }
  return options;
}

ExperimentRun run_experiment(const std::vector<CompiledApp>& apps,
                             const std::vector<ir::Category>& categories,
                             std::size_t trials,
                             const fault::FaultModel& model,
                             const fault::Model& fault_model,
                             std::uint64_t seed) {
  fault::CampaignScheduler scheduler(default_scheduler_options(model));
  std::vector<std::unique_ptr<fault::InjectorEngine>> engines;
  for (const CompiledApp& app : apps) {
    engines.push_back(std::make_unique<fault::LlfiEngine>(
        app.program.module(), model, fault::CheckpointPolicy::from_env(),
        fault_model));
    fault::InjectorEngine& llfi = *engines.back();
    engines.push_back(std::make_unique<fault::PinfiEngine>(
        app.program.program(), model, fault::CheckpointPolicy::from_env(),
        fault_model));
    fault::InjectorEngine& pinfi = *engines.back();
    for (ir::Category category : categories) {
      fault::CampaignConfig cfg;
      cfg.app = app.name;
      cfg.category = category;
      cfg.trials = trials;
      cfg.seed = seed;
      scheduler.add(llfi, cfg);
      scheduler.add(pinfi, cfg);
    }
  }

  ExperimentRun out;
  for (fault::CampaignResult& r : scheduler.run())
    out.results.add(std::move(r));
  out.manifest = scheduler.manifest();
  return out;
}

void print_banner(const std::string& what, std::size_t trials) {
  std::cout
      << "================================================================\n"
      << what << "\n"
      << "Reproduction of Wei et al., \"Quantifying the Accuracy of "
         "High-Level\nFault Injection Techniques for Hardware Faults\" "
         "(DSN 2014)\n"
      << "Trials per (app x tool x category): " << trials
      << "  (set FAULTLAB_TRIALS to change; the paper uses 1000)\n"
      << "================================================================\n";
}

void save_results(const fault::ResultSet& rs, const std::string& filename) {
  fault::results_csv(rs).save(filename);
  std::cout << "\n[results written to ./" << filename << "]\n";
}

void save_results(const ExperimentRun& run, const std::string& filename) {
  save_results(run.results, filename);
  std::string stem = filename;
  if (stem.size() > 4 && stem.compare(stem.size() - 4, 4, ".csv") == 0)
    stem.resize(stem.size() - 4);
  const std::string manifest_path = stem + ".manifest.csv";
  fault::manifest_csv(run.manifest).save(manifest_path);
  std::cout << "[run manifest written to ./" << manifest_path << "]\n";
}

}  // namespace faultlab::benchx
