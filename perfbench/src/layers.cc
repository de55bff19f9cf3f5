#include "layers.h"

#include <algorithm>
#include <cstdint>

namespace faultlab::perfbench {

double ratio(double num, double base) noexcept {
  return base != 0.0 ? num / base : 0.0;
}

double supported_percentile(std::size_t n, std::size_t beyond) noexcept {
  for (double p : {99.0, 95.0, 50.0})
    if (static_cast<double>(n) * (1.0 - p / 100.0) >=
        static_cast<double>(beyond) - 1e-9)
      return p;
  return 0.0;
}

std::size_t completed_trials(const GridRun& run) noexcept {
  std::size_t n = 0;
  for (const fault::CampaignResult& r : run.results) n += r.trials.size();
  return n;
}

double setup_seconds(const GridRun& run) noexcept {
  return run.compile_s + run.engines_s + run.manifest.profile_seconds;
}

std::vector<Metric> end_to_end_metrics(const GridRun& run) {
  const double completed = static_cast<double>(completed_trials(run));
  return {
      {"wall_s", run.wall_s, "s"},
      {"setup_s", setup_seconds(run), "s"},
      {"trials_per_s",
       ratio(completed, run.run_s - run.manifest.profile_seconds), "1/s"},
      {"completion_share",
       ratio(completed, static_cast<double>(run.scheduled)), "share"},
  };
}

std::vector<Metric> layer_metrics(const GridRun& run) {
  std::vector<Metric> out;
  auto add = [&out](std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
  };
  const fault::RunManifest& m = run.manifest;

  double ir_instrs = 0.0;
  double asm_instrs = 0.0;
  for (const App& app : run.apps) {
    ir_instrs +=
        static_cast<double>(app.program.opt_stats().instructions_after);
    asm_instrs += static_cast<double>(app.program.program().code.size());
  }
  add("opt.ir_instrs", ir_instrs, "count");
  add("backend.asm_instrs", asm_instrs, "count");

  // fault: engine phase split and the trial records.
  const char* tools[2] = {"llfi", "pinfi"};
  fault::PhaseStats phases;
  fault::CheckpointStats ck;
  for (int t = 0; t < 2; ++t) {
    phases += run.phases[t];
    ck += run.checkpoints[t];
  }
  add("fault.execute_cpu_s", phases.execute_seconds, "s");
  add("fault.restore_cpu_s", phases.restore_seconds, "s");
  add("fault.classify_cpu_s", phases.classify_seconds, "s");
  for (int t = 0; t < 2; ++t) {
    const std::string tool = tools[t];
    add("fault.execute_cpu_s." + tool, run.phases[t].execute_seconds, "s");
    add("fault.restore_cpu_s." + tool, run.phases[t].restore_seconds, "s");
    add("fault.classify_cpu_s." + tool, run.phases[t].classify_seconds, "s");
  }

  double total_instrs = 0.0;
  double suffix = 0.0;
  double benign_suffix = 0.0;
  double prop_traced = 0.0;
  double outcomes[5] = {};
  for (const fault::CampaignResult& r : run.results)
    for (const fault::TrialRecord& rec : r.trials) {
      total_instrs += static_cast<double>(rec.total_instructions);
      const double s = static_cast<double>(rec.instructions_after_injection());
      suffix += s;
      if (rec.outcome == fault::Outcome::Benign) benign_suffix += s;
      if (rec.prop.traced) prop_traced += 1.0;
      outcomes[static_cast<std::size_t>(rec.outcome)] += 1.0;
    }
  const double exec_instrs =
      total_instrs - static_cast<double>(ck.skipped_instructions);
  add("fault.trials", static_cast<double>(completed_trials(run)), "count");
  add("fault.exec_minstr", exec_instrs / 1e6, "Minstr");
  add("fault.suffix_minstr", suffix / 1e6, "Minstr");
  add("fault.benign_suffix_share", ratio(benign_suffix, suffix), "share");
  add("fault.ns_per_instr", ratio(phases.execute_seconds * 1e9, exec_instrs),
      "ns");
  add("fault.outcome.crash",
      outcomes[static_cast<std::size_t>(fault::Outcome::Crash)], "count");
  add("fault.outcome.sdc",
      outcomes[static_cast<std::size_t>(fault::Outcome::SDC)], "count");
  add("fault.outcome.benign",
      outcomes[static_cast<std::size_t>(fault::Outcome::Benign)], "count");
  add("fault.outcome.hang",
      outcomes[static_cast<std::size_t>(fault::Outcome::Hang)], "count");
  add("fault.outcome.not_activated",
      outcomes[static_cast<std::size_t>(fault::Outcome::NotActivated)],
      "count");

  // checkpoint
  const double restored = static_cast<double>(ck.restored_trials);
  add("checkpoint.snapshots", static_cast<double>(ck.snapshots), "count");
  add("checkpoint.restored_trials", restored, "count");
  add("checkpoint.hit_rate", ratio(restored, static_cast<double>(ck.trials)),
      "share");
  add("checkpoint.skipped_minstr",
      static_cast<double>(ck.skipped_instructions) / 1e6, "Minstr");
  add("checkpoint.delta_share",
      ratio(static_cast<double>(ck.delta_restores), restored), "share");
  add("checkpoint.pages_per_restore",
      ratio(static_cast<double>(ck.restored_pages), restored), "pages");

  // machine: lockstep packs and the trace cache.
  add("machine.pack_groups", static_cast<double>(m.pack_groups), "count");
  add("machine.pack_occupancy",
      ratio(static_cast<double>(m.pack_lanes),
            static_cast<double>(m.pack_groups)),
      "lanes");
  add("machine.pack_divergence_share",
      ratio(static_cast<double>(m.pack_divergences),
            static_cast<double>(m.pack_lanes)),
      "share");
  add("machine.lane_uop_ratio",
      ratio(static_cast<double>(m.pack_lane_uops),
            static_cast<double>(m.pack_uops)),
      "lanes");
  add("machine.trace_decodes", static_cast<double>(m.trace_decodes), "count");

  // sched
  const double trial_phase = m.wall_seconds - m.profile_seconds;
  const double busy = phases.restore_seconds + phases.execute_seconds +
                      phases.classify_seconds;
  std::size_t min_trials = 0;
  for (const fault::CampaignTiming& t : m.campaigns)
    if (t.trials != 0 && (min_trials == 0 || t.trials < min_trials))
      min_trials = t.trials;
  const double tail_pct = supported_percentile(min_trials);
  double tail_ms = 0.0;
  for (const fault::CampaignTiming& t : m.campaigns) {
    if (t.trials == 0) continue;
    const double v = tail_pct == 99.0   ? t.p99_ms
                     : tail_pct == 95.0 ? t.p95_ms
                     : tail_pct == 50.0 ? t.p50_ms
                                        : 0.0;
    tail_ms = std::max(tail_ms, v);
  }
  add("sched.threads", static_cast<double>(m.threads), "count");
  add("sched.profile_s", m.profile_seconds, "s");
  add("sched.trial_phase_s", trial_phase, "s");
  add("sched.worker_busy_share",
      ratio(busy, static_cast<double>(m.threads) * trial_phase), "share");
  add("sched.campaign_tail_ms_max", tail_ms, "ms");
  add("sched.campaign_tail_pct", tail_pct, "%");
  add("sched.campaign_trials_min", static_cast<double>(min_trials), "count");
  add("sched.setup_share", ratio(setup_seconds(run), run.wall_s), "share");
  add("sched.error_share",
      ratio(static_cast<double>(run.scheduled - completed_trials(run)),
            static_cast<double>(run.scheduled)),
      "share");

  add("obs.prop_traced_trials", prop_traced, "count");
  return out;
}

}  // namespace faultlab::perfbench
