#include "replay.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "fault/engine.h"

namespace faultlab::perfbench {

std::vector<Draw> redraw(std::uint64_t seed, ir::Category category,
                         std::size_t trials, std::uint64_t profiled) {
  std::vector<Draw> draws;
  if (profiled == 0) return draws;
  Rng rng(seed ^ (static_cast<std::uint64_t>(category) << 32));
  draws.reserve(trials);
  for (std::size_t t = 0; t < trials; ++t) {
    const std::uint64_t k = rng.range(1, profiled);
    draws.push_back({k, rng.fork()});
  }
  return draws;
}

std::vector<std::size_t> sample_trials(std::size_t trials, std::size_t count,
                                       std::uint64_t seed) {
  std::vector<std::size_t> all(trials);
  for (std::size_t i = 0; i < trials; ++i) all[i] = i;
  if (count >= trials) return all;
  // Partial Fisher-Yates: the first `count` slots become the sample.
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i)
    std::swap(all[i], all[i + rng.below(trials - i)]);
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

bool same_trial(const fault::TrialRecord& a, const fault::TrialRecord& b) {
  return a.outcome == b.outcome && a.bit == b.bit &&
         a.static_site == b.static_site && a.trap == b.trap &&
         a.total_instructions == b.total_instructions;
}

ReplayReport replay_check(const std::vector<App>& apps,
                          const fault::Model& model,
                          const std::vector<fault::CampaignResult>& results,
                          const std::vector<std::uint64_t>& seeds,
                          std::size_t per_cell, std::size_t threads) {
  fault::CheckpointPolicy plain;
  plain.enabled = false;

  // One fresh engine per (app, tool), shared by that pair's categories.
  std::vector<std::unique_ptr<fault::InjectorEngine>> engines;
  engines.resize(2 * apps.size());
  struct Task {
    fault::InjectorEngine* engine;
    const fault::CampaignResult* campaign;
    std::size_t trial;
    Draw draw;
  };
  std::vector<Task> tasks;
  for (std::size_t c = 0; c < results.size(); ++c) {
    const fault::CampaignResult& r = results[c];
    if (r.trials.empty()) continue;
    const auto same_app = [&r](const App& a) { return a.name == r.app; };
    const auto app = std::find_if(apps.begin(), apps.end(), same_app);
    if (app == apps.end()) continue;
    const int tool = r.tool == "LLFI" ? 0 : 1;
    auto& engine =
        engines[2 * static_cast<std::size_t>(app - apps.begin()) +
                static_cast<std::size_t>(tool)];
    if (!engine) {
      engine = make_engine(*app, tool, model, plain);
      engine->profile_all();
    }
    const std::vector<Draw> draws =
        redraw(seeds.at(c), r.category, r.trials.size(), r.profiled_count);
    const std::uint64_t sample_seed = seeds[c] ^ 0x9e3779b97f4a7c15ULL;
    for (std::size_t t : sample_trials(r.trials.size(), per_cell, sample_seed))
      tasks.push_back({engine.get(), &r, t, draws[t]});
  }

  ReplayReport report;
  std::vector<fault::TrialRecord> replayed(tasks.size());
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < tasks.size();) {
      try {
        Rng rng = tasks[i].draw.rng;
        replayed[i] = tasks[i].engine->inject(tasks[i].campaign->category,
                                              tasks[i].draw.k, rng);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t w = 1; w < std::max<std::size_t>(threads, 1); ++w)
    pool.emplace_back(work);
  work();
  for (std::thread& th : pool) th.join();
  if (error) std::rethrow_exception(error);

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& task = tasks[i];
    const fault::TrialRecord& expected = task.campaign->trials[task.trial];
    ++report.checked;
    if (same_trial(expected, replayed[i]) &&
        expected.dynamic_target == task.draw.k)
      continue;
    ++report.mismatched;
    if (report.first_mismatch.empty())
      report.first_mismatch =
          task.campaign->app + "/" + task.campaign->tool + "/" +
          ir::category_name(task.campaign->category) + " trial " +
          std::to_string(task.trial) + ": scheduler " +
          fault::outcome_name(expected.outcome) + " bit " +
          std::to_string(expected.bit) + " instrs " +
          std::to_string(expected.total_instructions) + ", replay " +
          fault::outcome_name(replayed[i].outcome) + " bit " +
          std::to_string(replayed[i].bit) + " instrs " +
          std::to_string(replayed[i].total_instructions);
  }
  return report;
}

}  // namespace faultlab::perfbench
