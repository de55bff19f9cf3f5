// Propagation tracing: follow one bit flip through a program — the LLFI
// capability the paper's Section III describes ("enables tracing the
// propagation of the fault among instructions in the program").
//
//   ./build/examples/propagation_trace [app] [category] [samples]
//
// Each sampled injection runs on LlfiEngine with the propagation tracer
// armed (obs/propagation.h, the FAULTLAB_PROP path) and prints the trial's
// PropSummary: how deep and wide the corruption spread through def-use
// chains, how often it was masked, how it moved through memory and
// branches, and where control flow first left the golden run — the raw
// material for answering "why did this particular fault become an SDC
// while that one stayed benign?"
#include <cstdlib>
#include <iostream>

#include "apps/apps.h"
#include "driver/pipeline.h"
#include "fault/llfi.h"
#include "obs/propagation.h"
#include "support/rng.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace faultlab;

  const std::string app = argc > 1 ? argv[1] : "mcf";
  const auto category =
      ir::category_from_name(argc > 2 ? argv[2] : "all");
  const std::size_t samples =
      argc > 3 ? static_cast<std::size_t>(std::atol(argv[3])) : 8;
  if (!category) {
    std::cerr << "unknown category: " << argv[2] << "\n";
    return 2;
  }

  driver::CompiledProgram prog =
      driver::compile(apps::benchmark(app).source, app);
  // Tracing must be on before the engine is built: its golden run doubles
  // as the pc journal the divergence check compares against.
  obs::set_prop_enabled(true);
  fault::LlfiEngine llfi(prog.module());
  const std::uint64_t n = llfi.profile(*category);
  std::cout << "Tracing " << samples << " injections into '" << app
            << "' (category " << ir::category_name(*category) << ", " << n
            << " dynamic targets)\n\n";

  TextTable table({"k", "bit", "outcome", "depth", "fanout", "reads",
                   "masked", "stores", "st->ld", "branches", "diverged at"});
  Rng rng(7);
  for (std::size_t s = 0; s < samples && n > 0; ++s) {
    const std::uint64_t k = rng.range(1, n);
    Rng trial = rng.fork();
    const fault::TrialRecord r = llfi.inject(*category, k, trial);
    const obs::PropSummary& p = r.prop;
    table.add_row({std::to_string(k), std::to_string(r.bit),
                   fault::outcome_name(r.outcome), std::to_string(p.depth),
                   std::to_string(p.fanout), std::to_string(p.tainted_reads),
                   std::to_string(p.masking_events),
                   std::to_string(p.tainted_stores),
                   std::to_string(p.store_load_edges),
                   std::to_string(p.tainted_branches),
                   p.diverged ? "+" + std::to_string(p.divergence_offset)
                              : "-"});
  }
  std::cout << table.to_string();
  std::cout << "\nReading: a fault spreads through data (depth, fanout, "
               "tainted reads), through memory\n('st->ld': loads that "
               "picked the taint back up) and through control flow "
               "(tainted\nbranches; 'diverged at' is the dynamic distance "
               "from the flip to the first\ninstruction off the golden "
               "path). 'masked' counts tainted values overwritten by\n"
               "clean ones.\n";
  return 0;
}
