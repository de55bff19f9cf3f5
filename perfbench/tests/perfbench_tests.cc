// Tests of the benchmark's own code: the supported-percentile rule, the
// bases of the per-layer ratios, span self time, and the replay check's
// reproduction of the scheduler's draws.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "driver/pipeline.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "fault/scheduler.h"
#include "grid.h"
#include "layers.h"
#include "replay.h"
#include "spans.h"

namespace faultlab::perfbench {
namespace {

double metric(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics)
    if (m.name == name) return m.value;
  ADD_FAILURE() << "no metric " << name;
  return -1.0;
}

TEST(SupportedPercentile, LeavesTenSamplesBeyond) {
  EXPECT_EQ(supported_percentile(1000), 99.0);
  EXPECT_EQ(supported_percentile(999), 95.0);
  EXPECT_EQ(supported_percentile(200), 95.0);
  EXPECT_EQ(supported_percentile(199), 50.0);
  EXPECT_EQ(supported_percentile(40), 50.0);
  EXPECT_EQ(supported_percentile(20), 50.0);
  EXPECT_EQ(supported_percentile(19), 0.0);
  EXPECT_EQ(supported_percentile(0), 0.0);
  EXPECT_EQ(supported_percentile(100, 1), 99.0);
}

TEST(LayerMetrics, RatiosUseTheirStatedBases) {
  GridRun run;
  run.checkpoints[0].trials = 60;
  run.checkpoints[1].trials = 40;
  run.checkpoints[0].restored_trials = 30;
  run.checkpoints[1].restored_trials = 20;
  run.checkpoints[0].delta_restores = 25;
  run.checkpoints[0].restored_pages = 5000;
  run.phases[0].execute_seconds = 20.0;
  run.phases[1].execute_seconds = 10.0;
  run.phases[0].restore_seconds = 5.0;
  run.phases[1].classify_seconds = 5.0;
  run.manifest.threads = 4;
  run.manifest.wall_seconds = 11.0;
  run.manifest.profile_seconds = 1.0;
  run.manifest.pack_groups = 10;
  run.manifest.pack_lanes = 70;
  run.manifest.pack_divergences = 7;
  run.manifest.pack_uops = 1000;
  run.manifest.pack_lane_uops = 4000;
  run.compile_s = 0.5;
  run.engines_s = 0.5;
  run.wall_s = 12.0;
  run.run_s = 11.0;
  run.scheduled = 10;
  fault::CampaignResult r;
  r.trials.resize(8);
  r.trials[0].injected = true;
  r.trials[0].outcome = fault::Outcome::Benign;
  r.trials[0].inject_instruction = 100;
  r.trials[0].total_instructions = 400;
  r.trials[1].injected = true;
  r.trials[1].outcome = fault::Outcome::Crash;
  r.trials[1].inject_instruction = 100;
  r.trials[1].total_instructions = 200;
  run.results.push_back(r);

  const std::vector<Metric> m = layer_metrics(run);
  EXPECT_DOUBLE_EQ(metric(m, "checkpoint.hit_rate"), 0.5);  // of trials
  EXPECT_DOUBLE_EQ(metric(m, "checkpoint.delta_share"), 0.5);  // of restores
  EXPECT_DOUBLE_EQ(metric(m, "checkpoint.pages_per_restore"), 100.0);
  EXPECT_DOUBLE_EQ(metric(m, "machine.pack_occupancy"), 7.0);
  EXPECT_DOUBLE_EQ(metric(m, "machine.pack_divergence_share"), 0.1);
  EXPECT_DOUBLE_EQ(metric(m, "machine.lane_uop_ratio"), 4.0);
  EXPECT_DOUBLE_EQ(metric(m, "sched.trial_phase_s"), 10.0);
  // 40 engine seconds over 4 threads x 10 s of trial phase.
  EXPECT_DOUBLE_EQ(metric(m, "sched.worker_busy_share"), 1.0);
  EXPECT_DOUBLE_EQ(metric(m, "sched.error_share"), 0.2);
  EXPECT_DOUBLE_EQ(metric(m, "sched.setup_share"), 2.0 / 12.0);
  // Suffixes 300 (benign) and 100 (crash).
  EXPECT_DOUBLE_EQ(metric(m, "fault.suffix_minstr"), 400.0 / 1e6);
  EXPECT_DOUBLE_EQ(metric(m, "fault.benign_suffix_share"), 0.75);
  EXPECT_DOUBLE_EQ(metric(m, "fault.outcome.not_activated"), 6.0);

  const std::vector<Metric> e2e = end_to_end_metrics(run);
  EXPECT_DOUBLE_EQ(metric(e2e, "setup_s"), 2.0);
  EXPECT_DOUBLE_EQ(metric(e2e, "trials_per_s"), 8.0 / 10.0);
  EXPECT_DOUBLE_EQ(metric(e2e, "completion_share"), 0.8);
}

TEST(LayerMetrics, ZeroBasesGiveZeroNotNan) {
  const std::vector<Metric> m = layer_metrics(GridRun{});
  for (const Metric& x : m) EXPECT_EQ(x.value, 0.0) << x.name;
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  std::vector<SpanRecord> spans = {
      {1, 0, "root", 0.0, 10.0},
      {2, 1, "a", 1.0, 3.0},
      {3, 1, "a", 2.0, 5.0},   // overlaps the first child
      {4, 1, "b", 7.0, 12.0},  // clipped at the parent's end
      {5, 4, "c", 7.5, 8.0},
  };
  const auto self = self_seconds(spans);
  EXPECT_DOUBLE_EQ(self.at("root"), 10.0 - 4.0 - 3.0);
  EXPECT_DOUBLE_EQ(self.at("a"), 2.0 + 3.0);  // summed by name
  EXPECT_DOUBLE_EQ(self.at("b"), 5.0 - 0.5);
  EXPECT_DOUBLE_EQ(self.at("c"), 0.5);
}

TEST(Spans, LogRecordsNestingAndRunId) {
  SpanLog log("run-1");
  {
    Span outer(&log, "outer");
    Span inner(&log, "inner");
  }
  Span after(&log, "after");
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[0].parent, 0u);
  EXPECT_EQ(log.spans()[1].parent, log.spans()[0].id);
  EXPECT_EQ(log.spans()[2].parent, 0u);
  EXPECT_LE(log.spans()[1].end_s, log.spans()[0].end_s);
  EXPECT_EQ(log.run_id(), "run-1");
  Span disabled(nullptr, "ignored");
}

const char* kProgram = R"(
  int data[64];
  int main() {
    int i;
    long acc = 0;
    for (i = 0; i < 64; i++) data[i] = i * 13 + 7;
    for (i = 0; i < 64; i++) {
      if (data[i] % 5 == 1) acc += data[i] / 3;
      else acc = acc - (long)i;
    }
    print_int(acc);
    return 0;
  }
)";

std::vector<fault::CampaignResult> small_grid(
    const std::vector<App>& apps, const fault::Model& model,
    std::uint64_t seed, std::vector<std::uint64_t>* seeds) {
  fault::CheckpointPolicy policy;
  policy.stride = 150;  // several snapshot windows in a short program
  fault::LlfiEngine llfi(apps[0].program.module(), {}, policy, model);
  fault::PinfiEngine pinfi(apps[0].program.program(), {}, policy, model);
  fault::SchedulerOptions options;
  options.threads = 2;
  fault::CampaignScheduler scheduler(options);
  for (ir::Category c : {ir::Category::Arithmetic, ir::Category::All})
    for (fault::InjectorEngine* e :
         {static_cast<fault::InjectorEngine*>(&llfi),
          static_cast<fault::InjectorEngine*>(&pinfi)}) {
      fault::CampaignConfig config;
      config.app = apps[0].name;
      config.category = c;
      config.trials = 40;
      config.seed = cell_seed(seed, seeds->size());
      seeds->push_back(config.seed);
      scheduler.add(*e, config);
    }
  auto results = scheduler.run();
  EXPECT_GT(llfi.checkpoint_stats().restored_trials, 0u);
  EXPECT_GT(pinfi.checkpoint_stats().restored_trials, 0u);
  return results;
}

TEST(Replay, RedrawReproducesTheSchedulersDraws) {
  std::vector<App> apps;
  apps.push_back({"small", driver::compile(kProgram, "small")});
  const std::uint64_t seed = 77;
  std::vector<std::uint64_t> seeds;
  const auto results = small_grid(apps, fault::Model{}, seed, &seeds);
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t c = 0; c < results.size(); ++c) {
    const fault::CampaignResult& r = results[c];
    const std::vector<Draw> draws =
        redraw(seeds[c], r.category, r.trials.size(), r.profiled_count);
    ASSERT_EQ(draws.size(), r.trials.size());
    for (std::size_t t = 0; t < draws.size(); ++t)
      EXPECT_EQ(draws[t].k, r.trials[t].dynamic_target);
  }

  const ReplayReport all =
      replay_check(apps, fault::Model{}, results, seeds, 1000, 2);
  EXPECT_EQ(all.checked, 160u);
  EXPECT_EQ(all.mismatched, 0u) << all.first_mismatch;

  // A tampered record must be caught.
  auto tampered = results;
  fault::TrialRecord& victim = tampered[3].trials[5];
  victim.total_instructions += 1;
  const ReplayReport caught =
      replay_check(apps, fault::Model{}, tampered, seeds, 1000, 1);
  EXPECT_EQ(caught.mismatched, 1u);
  EXPECT_FALSE(caught.first_mismatch.empty());
}

TEST(Replay, StuckAtTrialsReplayExactly) {
  std::vector<App> apps;
  apps.push_back({"small", driver::compile(kProgram, "small")});
  fault::Model stuck;
  stuck.kind = fault::FaultKind::Permanent;
  std::vector<std::uint64_t> seeds;
  const auto results = small_grid(apps, stuck, 5, &seeds);
  const ReplayReport report = replay_check(apps, stuck, results, seeds, 6, 2);
  EXPECT_EQ(report.checked, 24u);
  EXPECT_EQ(report.mismatched, 0u) << report.first_mismatch;
}

TEST(Replay, SampleIsSeededDistinctAndSorted) {
  const auto a = sample_trials(1000, 5, 42);
  EXPECT_EQ(a, sample_trials(1000, 5, 42));
  ASSERT_EQ(a.size(), 5u);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
  EXPECT_EQ(sample_trials(3, 5, 42), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Workloads, NamesResolve) {
  for (const char* name : {"fig3-paper", "grid-sparse", "prop-observed"})
    ASSERT_NE(find_workload(name), nullptr) << name;
  EXPECT_EQ(find_workload("nope"), nullptr);
  EXPECT_TRUE(find_workload("prop-observed")->observed);
}

TEST(Workloads, CellSeedsAreDistinctAndRepeatable) {
  std::set<std::uint64_t> seen;
  for (std::size_t cell = 0; cell < 60; ++cell) {
    EXPECT_EQ(cell_seed(7, cell), cell_seed(7, cell));
    seen.insert(cell_seed(7, cell));
    seen.insert(cell_seed(8, cell));
  }
  EXPECT_EQ(seen.size(), 120u);
}

}  // namespace
}  // namespace faultlab::perfbench
