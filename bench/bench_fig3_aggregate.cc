// Figure 3: aggregated fault-injection outcomes (crash / SDC / benign) for
// both tools, 'all' instruction category, across the six benchmarks.
//
// The experiment runs twice in this process — once per dispatch mode — so
// every run reports a threaded/switch wall-time pair measured on the same
// machine state, and the binary itself re-checks that the two modes
// produce byte-identical results.
#include <cstdlib>
#include <iostream>

#include "common.h"
#include "machine/dispatch.h"

int main() {
  using namespace faultlab;
  const std::size_t trials = fault::default_trials();
  benchx::print_banner("Figure 3: aggregated fault injection results", trials);

  auto apps = benchx::compile_all_apps();
  const machine::DispatchMode env_mode = machine::dispatch_mode();
  machine::set_dispatch_mode(machine::DispatchMode::Threaded);
  benchx::ExperimentRun run =
      benchx::run_experiment(apps, {ir::Category::All}, trials);
  const fault::ResultSet& rs = run.results;

  std::cout << "\n" << fault::render_figure3(rs);

  // Paper's reading of this figure: crash ~30%, SDC ~10% on average, hangs
  // negligible, and LLFI/PINFI SDC percentages close.
  double crash_avg = 0, sdc_avg = 0, hang_total = 0;
  int cells = 0;
  for (const auto& r : rs.all()) {
    if (r.activated() == 0) continue;
    crash_avg += r.crash_rate().percent();
    sdc_avg += r.sdc_rate().percent();
    hang_total += r.hang_rate().percent();
    ++cells;
  }
  if (cells > 0) {
    std::cout << "\nAverages over all cells: crash " << crash_avg / cells
              << "%, SDC " << sdc_avg / cells << "%, hang "
              << hang_total / cells << "% (paper: ~30% / ~10% / ~0%)\n";
  }
  benchx::save_results(run, "fig3_aggregate.csv");

  // The switch-dispatch leg of the A/B pair: identical grid, seed, and
  // draws.
  machine::set_dispatch_mode(machine::DispatchMode::Switch);
  const benchx::ExperimentRun ab =
      benchx::run_experiment(apps, {ir::Category::All}, trials);
  machine::set_dispatch_mode(env_mode);
  const bool identical = fault::results_csv(ab.results).to_string() ==
                         fault::results_csv(run.results).to_string();
  std::cout << "[dispatch A/B: threaded " << run.manifest.wall_seconds
            << "s vs switch " << ab.manifest.wall_seconds << "s, results "
            << (identical ? "byte-identical" : "DIVERGED") << "]\n";
  if (!identical) return EXIT_FAILURE;
  return 0;
}
