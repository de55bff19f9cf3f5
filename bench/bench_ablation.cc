// Ablations of the paper's design choices (Sections IV and VII):
//   1. PINFI flag heuristic off  -> cmp-category activation collapses
//   2. PINFI XMM pruning off     -> double-arithmetic activation drops
//   3. LLFI full-64-bit flips    -> inflated corruption on narrow types
//   4. LLFI GEP-as-arithmetic    -> the paper's proposed fix for the
//                                   'arithmetic' crash divergence
// Run on two apps chosen for contrast: mcf (pointer/int heavy) and
// raytrace (double heavy).
//
// All fourteen cells run on ONE shared CampaignScheduler: each engine
// (app x model variant) is profiled once for every category it appears
// with, trials resume from checkpoints, and the worker pool never drains
// between tables. Cell values are identical to the old per-cell
// run_campaign loop — draws depend only on (seed, category, profiled
// count), none of which the shared scheduler changes.
#include <cmath>
#include <iostream>
#include <memory>

#include "common.h"
#include "support/table.h"

namespace {

using namespace faultlab;

struct CellStats {
  double activation = 0.0;
  double crash = 0.0;
  double sdc = 0.0;
};

CellStats cell_stats(const fault::CampaignResult& r) {
  CellStats s;
  if (!r.trials.empty())
    s.activation = 100.0 * static_cast<double>(r.activated()) /
                   static_cast<double>(r.trials.size());
  s.crash = r.crash_rate().percent();
  s.sdc = r.sdc_rate().percent();
  return s;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", v);
  return buf;
}

}  // namespace

int main() {
  const std::size_t trials = fault::default_trials();
  benchx::print_banner("Ablations: PINFI heuristics and LLFI variants",
                       trials);

  const char* app_names[] = {"mcf", "raytrace"};
  std::vector<benchx::CompiledApp> apps;
  for (const char* n : app_names)
    apps.push_back({n, driver::compile(apps::benchmark(n).source, n)});

  // The manifest records one FaultModel for the whole run; the ablation
  // grid varies the model per engine, so the recorded flags are the
  // paper-default baseline (reporting only — each engine was constructed
  // with its own variant).
  fault::CampaignScheduler scheduler(benchx::default_scheduler_options());
  std::vector<std::unique_ptr<fault::InjectorEngine>> engines;
  std::size_t cells = 0;  // campaigns queued so far == result index
  auto add_cell = [&](fault::InjectorEngine& engine, const std::string& app,
                      ir::Category category) {
    fault::CampaignConfig cfg;
    cfg.app = app;
    cfg.category = category;
    cfg.trials = trials;
    scheduler.add(engine, cfg);
    return cells++;
  };

  // 1 + 2: PINFI heuristics (activation rates are what they exist for).
  struct PinfiRow {
    std::string app, label;
    std::size_t cmp, arith;
  };
  std::vector<PinfiRow> pinfi_rows;
  // Variant 0's engine is the paper-default PINFI; table 4 below reuses it
  // for its reference column.
  std::vector<fault::InjectorEngine*> default_pinfi;
  for (auto& app : apps) {
    for (int variant = 0; variant < 3; ++variant) {
      fault::FaultModel model;
      std::string label = "both heuristics (paper)";
      if (variant == 1) {
        model.pinfi_flag_heuristic = false;
        label = "flag heuristic OFF";
      } else if (variant == 2) {
        model.pinfi_xmm_prune = false;
        label = "xmm pruning OFF";
      }
      engines.push_back(
          std::make_unique<fault::PinfiEngine>(app.program.program(), model));
      fault::InjectorEngine& engine = *engines.back();
      if (variant == 0) default_pinfi.push_back(&engine);
      PinfiRow row;
      row.app = app.name;
      row.label = label;
      row.cmp = add_cell(engine, app.name, ir::Category::Cmp);
      row.arith = add_cell(engine, app.name, ir::Category::Arithmetic);
      pinfi_rows.push_back(std::move(row));
    }
  }

  // 3: LLFI bit-width policy.
  struct LlfiRow {
    std::string app, label;
    std::size_t all;
  };
  std::vector<LlfiRow> llfi_rows;
  for (auto& app : apps) {
    for (int variant = 0; variant < 2; ++variant) {
      fault::FaultModel model;
      std::string label = "type-width flips (paper)";
      if (variant == 1) {
        model.llfi_type_width = false;
        label = "full 64-bit flips";
      }
      engines.push_back(
          std::make_unique<fault::LlfiEngine>(app.program.module(), model));
      llfi_rows.push_back(
          {app.name, label,
           add_cell(*engines.back(), app.name, ir::Category::All)});
    }
  }

  // 4: Section VII's proposed fix: GEP counted as arithmetic. The PINFI
  // reference column reuses the default-model engine (and its arithmetic
  // cell) already queued for table 1.
  struct GepRow {
    std::string app, label;
    std::size_t arith, pinfi_arith;
  };
  std::vector<GepRow> gep_rows;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    auto& app = apps[a];
    const std::size_t pinfi_arith =
        add_cell(*default_pinfi[a], app.name, ir::Category::Arithmetic);
    for (int variant = 0; variant < 2; ++variant) {
      fault::FaultModel model;
      std::string label = "gep excluded (paper's LLFI)";
      if (variant == 1) {
        model.llfi_gep_as_arithmetic = true;
        label = "gep counted as arithmetic (Sec. VII fix)";
      }
      engines.push_back(
          std::make_unique<fault::LlfiEngine>(app.program.module(), model));
      gep_rows.push_back(
          {app.name, label,
           add_cell(*engines.back(), app.name, ir::Category::Arithmetic),
           pinfi_arith});
    }
  }

  const std::vector<fault::CampaignResult> results = scheduler.run();

  TextTable pinfi_table({"App", "Variant", "cmp activation",
                         "arith activation", "arith SDC"});
  for (const PinfiRow& row : pinfi_rows) {
    const CellStats cmp = cell_stats(results[row.cmp]);
    const CellStats arith = cell_stats(results[row.arith]);
    pinfi_table.add_row({row.app, row.label, fmt(cmp.activation),
                         fmt(arith.activation), fmt(arith.sdc)});
  }
  std::cout << "\nPINFI heuristics (Figure 2): both exist to raise fault "
               "activation --\n"
            << pinfi_table.to_string();

  TextTable llfi_table({"App", "Variant", "all crash", "all SDC",
                        "all activation"});
  for (const LlfiRow& row : llfi_rows) {
    const CellStats all = cell_stats(results[row.all]);
    llfi_table.add_row(
        {row.app, row.label, fmt(all.crash), fmt(all.sdc), fmt(all.activation)});
  }
  std::cout << "\nLLFI flip-width policy --\n" << llfi_table.to_string();

  TextTable gep_table({"App", "LLFI variant", "arith crash",
                       "PINFI arith crash", "gap"});
  for (const GepRow& row : gep_rows) {
    const CellStats arith = cell_stats(results[row.arith]);
    const CellStats pinfi_arith = cell_stats(results[row.pinfi_arith]);
    gep_table.add_row({row.app, row.label, fmt(arith.crash),
                       fmt(pinfi_arith.crash),
                       fmt(std::abs(arith.crash - pinfi_arith.crash))});
  }
  std::cout << "\nSection VII: treating getelementptr as arithmetic narrows "
               "the LLFI/PINFI\ncrash gap for address-computation-heavy "
               "code --\n"
            << gep_table.to_string();

  // Same artifact pair as the other benches: results CSV and run manifest
  // (checkpoint hit rates and latency percentiles per campaign).
  benchx::ExperimentRun run;
  for (const fault::CampaignResult& r : results) {
    fault::CampaignResult copy = r;
    run.results.add(std::move(copy));
  }
  run.manifest = scheduler.manifest();
  benchx::save_results(run, "ablation.csv");
  return 0;
}
