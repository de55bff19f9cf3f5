// Campaign scheduler tests: grid determinism across thread counts,
// single-pass profiling equivalence, parallel profiling (engines profile
// concurrently, even in a zero-trial grid, and build the same state at any
// thread count), exception propagation from profiling and trial workers,
// manifest contents, FAULTLAB_TRIALS parsing, and the engines'
// inject()/inject_in() contract on every reset path.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>

#include "apps/apps.h"
#include "driver/pipeline.h"
#include "fault/campaign.h"
#include "fault/checkpoint_store.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "fault/scheduler.h"

namespace faultlab::fault {
namespace {

/// A small program with work in every category.
const char* kGridProgram = R"(
  int data[32];
  double weights[32];
  int main() {
    int i;
    for (i = 0; i < 32; i++) {
      data[i] = i * 7 + 3;
      weights[i] = (double)i * 0.5;
    }
    long acc = 0;
    double wacc = 0.0;
    for (i = 0; i < 32; i++) {
      if (data[i] % 3 == 0) acc += data[i];
      wacc = wacc + weights[i] * 1.25;
    }
    print_int(acc);
    print_int((long)(wacc * 100.0));
    return 0;
  }
)";

void expect_same_records(const std::vector<TrialRecord>& a,
                         const std::vector<TrialRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].outcome, b[i].outcome) << "trial " << i;
    EXPECT_EQ(a[i].dynamic_target, b[i].dynamic_target) << "trial " << i;
    EXPECT_EQ(a[i].bit, b[i].bit) << "trial " << i;
    EXPECT_EQ(a[i].static_site, b[i].static_site) << "trial " << i;
    EXPECT_EQ(a[i].injected, b[i].injected) << "trial " << i;
    EXPECT_EQ(a[i].inject_instruction, b[i].inject_instruction)
        << "trial " << i;
    EXPECT_EQ(a[i].total_instructions, b[i].total_instructions)
        << "trial " << i;
    EXPECT_EQ(a[i].trap_pc, b[i].trap_pc) << "trial " << i;
  }
}

std::vector<CampaignResult> run_grid(LlfiEngine& llfi, PinfiEngine& pinfi,
                                     std::size_t threads) {
  SchedulerOptions options;
  options.threads = threads;
  CampaignScheduler scheduler(options);
  for (ir::Category c :
       {ir::Category::All, ir::Category::Arithmetic, ir::Category::Load}) {
    CampaignConfig cfg;
    cfg.app = "grid";
    cfg.category = c;
    cfg.trials = 12;
    cfg.seed = 99;
    scheduler.add(llfi, cfg);
    scheduler.add(pinfi, cfg);
  }
  return scheduler.run();
}

TEST(Scheduler, GridDeterministicAcrossThreadCounts) {
  auto prog = driver::compile(kGridProgram, "grid");
  LlfiEngine llfi(prog.module());
  PinfiEngine pinfi(prog.program());
  const std::vector<CampaignResult> serial = run_grid(llfi, pinfi, 1);
  const std::vector<CampaignResult> parallel = run_grid(llfi, pinfi, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].app, parallel[i].app);
    EXPECT_EQ(serial[i].tool, parallel[i].tool);
    EXPECT_EQ(serial[i].category, parallel[i].category);
    EXPECT_EQ(serial[i].profiled_count, parallel[i].profiled_count);
    EXPECT_EQ(serial[i].crash, parallel[i].crash);
    EXPECT_EQ(serial[i].sdc, parallel[i].sdc);
    EXPECT_EQ(serial[i].benign, parallel[i].benign);
    EXPECT_EQ(serial[i].hang, parallel[i].hang);
    EXPECT_EQ(serial[i].not_activated, parallel[i].not_activated);
    EXPECT_EQ(serial[i].injected_trials, parallel[i].injected_trials);
    expect_same_records(serial[i].trials, parallel[i].trials);
  }
}

TEST(Scheduler, MatchesRunCampaignCellByCell) {
  // The scheduler must be a pure orchestration change: each grid cell's
  // records equal what the single-campaign wrapper produces.
  auto prog = driver::compile(kGridProgram, "grid");
  LlfiEngine llfi(prog.module());
  PinfiEngine pinfi(prog.program());
  const std::vector<CampaignResult> grid = run_grid(llfi, pinfi, 2);
  for (const CampaignResult& cell : grid) {
    CampaignConfig cfg;
    cfg.app = cell.app;
    cfg.category = cell.category;
    cfg.trials = 12;
    cfg.seed = 99;
    cfg.threads = 1;
    InjectorEngine& engine =
        cell.tool == "LLFI" ? static_cast<InjectorEngine&>(llfi) : pinfi;
    const CampaignResult solo = run_campaign(engine, cfg);
    EXPECT_EQ(solo.profiled_count, cell.profiled_count);
    expect_same_records(solo.trials, cell.trials);
  }
}

TEST(Scheduler, CheckpointedMatchesDirectCellByCellAtAnyThreadCount) {
  // The acceptance bar for checkpoint/restore: resuming trials from
  // mid-run snapshots (at a deliberately dense stride) must reproduce the
  // direct-execution records cell by cell, for 1, 2, and 4 workers.
  auto prog = driver::compile(kGridProgram, "grid");
  LlfiEngine llfi_direct(prog.module(), {}, {0, /*enabled=*/false});
  PinfiEngine pinfi_direct(prog.program(), {}, {0, /*enabled=*/false});
  const std::vector<CampaignResult> direct =
      run_grid(llfi_direct, pinfi_direct, 1);
  EXPECT_EQ(llfi_direct.checkpoint_stats().restored_trials, 0u);
  EXPECT_EQ(pinfi_direct.checkpoint_stats().restored_trials, 0u);

  for (std::size_t threads : {1u, 2u, 4u}) {
    LlfiEngine llfi(prog.module(), {}, {/*stride=*/500, true});
    PinfiEngine pinfi(prog.program(), {}, {/*stride=*/500, true});
    const std::vector<CampaignResult> checkpointed =
        run_grid(llfi, pinfi, threads);
    ASSERT_EQ(checkpointed.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i) {
      EXPECT_EQ(checkpointed[i].profiled_count, direct[i].profiled_count);
      EXPECT_EQ(checkpointed[i].crash, direct[i].crash);
      EXPECT_EQ(checkpointed[i].sdc, direct[i].sdc);
      EXPECT_EQ(checkpointed[i].benign, direct[i].benign);
      EXPECT_EQ(checkpointed[i].hang, direct[i].hang);
      EXPECT_EQ(checkpointed[i].not_activated, direct[i].not_activated);
      expect_same_records(checkpointed[i].trials, direct[i].trials);
    }
    // The dense stride guarantees snapshots exist and most trials resume.
    const CheckpointStats ls = llfi.checkpoint_stats();
    const CheckpointStats ps = pinfi.checkpoint_stats();
    EXPECT_GT(ls.snapshots, 0u) << threads << " threads";
    EXPECT_GT(ps.snapshots, 0u) << threads << " threads";
    EXPECT_GT(ls.restored_trials, 0u) << threads << " threads";
    EXPECT_GT(ps.restored_trials, 0u) << threads << " threads";
    EXPECT_GT(ls.skipped_instructions, 0u);
    EXPECT_GT(ps.skipped_instructions, 0u);
    // Trials also ended early on rejoining the golden run, so the equality
    // above covers the filled-in golden totals.
    EXPECT_GT(ls.rejoined_trials, 0u) << threads << " threads";
    EXPECT_GT(ps.rejoined_trials, 0u) << threads << " threads";
    EXPECT_GT(ls.rejoin_skipped_instructions, 0u);
    EXPECT_GT(ps.rejoin_skipped_instructions, 0u);
  }
  EXPECT_EQ(llfi_direct.checkpoint_stats().rejoined_trials, 0u);
  EXPECT_EQ(pinfi_direct.checkpoint_stats().rejoined_trials, 0u);
}

TEST(Scheduler, SnapshotBudgetEvictsWithoutChangingOutcomes) {
  // A page budget far below the unbudgeted live set forces evictions at
  // capture time; trials whose window was evicted fall back to an earlier
  // live snapshot (or a from-scratch run), so every record must still match
  // the unbudgeted grid.
  auto prog = driver::compile(kGridProgram, "grid");
  LlfiEngine llfi_ref(prog.module(), {}, {/*stride=*/500, true});
  PinfiEngine pinfi_ref(prog.program(), {}, {/*stride=*/500, true});
  const std::vector<CampaignResult> reference =
      run_grid(llfi_ref, pinfi_ref, 2);

  CheckpointPolicy capped_policy;
  capped_policy.stride = 500;
  capped_policy.budget_pages = 48;
  LlfiEngine llfi(prog.module(), {}, capped_policy);
  PinfiEngine pinfi(prog.program(), {}, capped_policy);
  const std::vector<CampaignResult> capped = run_grid(llfi, pinfi, 2);

  ASSERT_EQ(capped.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_same_records(capped[i].trials, reference[i].trials);
  // The budget actually bit (the dense stride over-captures way past 48
  // pages), and it bit on both engines' stores.
  EXPECT_GT(llfi.checkpoint_stats().evictions, 0u);
  EXPECT_GT(pinfi.checkpoint_stats().evictions, 0u);
  EXPECT_EQ(llfi_ref.checkpoint_stats().evictions, 0u);
  EXPECT_EQ(pinfi_ref.checkpoint_stats().evictions, 0u);
}

TEST(Engines, EvictedSnapshotsFallBackWithoutChangingRecords) {
  // LRU eviction after trials have run: squeezing the budget to below a
  // single snapshot evicts every resume point, and the same draw must
  // produce the same record from scratch.
  auto prog = driver::compile(kGridProgram, "grid");
  LlfiEngine reference(prog.module(), {}, {/*stride=*/500, true});
  LlfiEngine squeezed(prog.module(), {}, {/*stride=*/500, true});
  reference.profile_all();
  squeezed.profile_all();
  const std::uint64_t n = reference.profile(ir::Category::All);
  ASSERT_GT(n, 0u);

  const std::uint64_t k = n;  // late instance: resumes from a late window
  Rng r1(7);
  Rng r2(7);
  const TrialRecord warm = reference.inject(ir::Category::All, k, r1);
  EXPECT_TRUE(warm.restored);

  squeezed.set_snapshot_budget(1);  // below any snapshot: evicts everything
  EXPECT_GT(squeezed.checkpoint_stats().evictions, 0u);
  const TrialRecord cold = squeezed.inject(ir::Category::All, k, r2);
  EXPECT_FALSE(cold.restored);
  EXPECT_EQ(cold.outcome, warm.outcome);
  EXPECT_EQ(cold.bit, warm.bit);
  EXPECT_EQ(cold.static_site, warm.static_site);
  EXPECT_EQ(cold.injected, warm.injected);
}

/// The inject()/inject_in() contract of InjectorEngine, on both tools:
/// inject() equals inject_in() on a resident context equals
/// inject_in(nullptr).
template <typename Engine>
class EngineContract : public ::testing::Test {
 protected:
  static std::unique_ptr<Engine> make(const driver::CompiledProgram& prog,
                                      const Model& model) {
    // The small grid program needs a dense stride to have several windows.
    const CheckpointPolicy policy{/*stride=*/500, true};
    if constexpr (std::is_same_v<Engine, LlfiEngine>)
      return std::make_unique<Engine>(prog.module(), FaultModel{}, policy,
                                      model);
    else
      return std::make_unique<Engine>(prog.program(), FaultModel{}, policy,
                                      model);
  }
};

struct EngineName {
  template <typename Engine>
  static std::string GetName(int) {
    return std::is_same_v<Engine, LlfiEngine> ? "LLFI" : "PINFI";
  }
};

using EngineTypes = ::testing::Types<LlfiEngine, PinfiEngine>;
TYPED_TEST_SUITE(EngineContract, EngineTypes, EngineName);

TYPED_TEST(EngineContract, InjectInMatchesInjectOnEveryPath) {
  auto prog = driver::compile(kGridProgram, "grid");
  for (const char* spec : {"transient", "intermittent:trigger=time"}) {
    SCOPED_TRACE(spec);
    const auto engine = TestFixture::make(prog, Model::parse(spec));
    const CategoryCounts counts = engine->profile_all();
    struct Draw {
      ir::Category category;
      std::uint64_t k;
      std::uint64_t seed;
    };
    std::vector<Draw> draws;
    Rng rng(1234);
    while (draws.size() < 40) {
      const ir::Category c =
          ir::kAllCategories[rng.below(ir::kNumCategories)];
      if (counts[c] == 0) continue;
      draws.push_back({c, rng.range(1, counts[c]), rng()});
    }
    std::stable_sort(draws.begin(), draws.end(),
                     [&](const Draw& a, const Draw& b) {
                       return engine->window_of(a.category, a.k) <
                              engine->window_of(b.category, b.k);
                     });

    std::vector<TrialRecord> fresh, null_context, in_order, reversed;
    for (const Draw& d : draws) {
      Rng r1(d.seed), r2(d.seed);
      fresh.push_back(engine->inject(d.category, d.k, r1));
      null_context.push_back(engine->inject_in(nullptr, d.category, d.k, r2));
    }
    const std::unique_ptr<TrialContext> context = engine->make_context();
    for (const Draw& d : draws) {
      Rng r(d.seed);
      in_order.push_back(engine->inject_in(context.get(), d.category, d.k, r));
    }
    for (auto d = draws.rbegin(); d != draws.rend(); ++d) {
      Rng r(d->seed);
      reversed.push_back(
          engine->inject_in(context.get(), d->category, d->k, r));
    }
    std::reverse(reversed.begin(), reversed.end());

    expect_same_records(null_context, fresh);
    expect_same_records(in_order, fresh);
    expect_same_records(reversed, fresh);
    // The resident context took both reset paths: O(dirty) delta restores
    // within a window and full restores where the window changed.
    std::size_t delta = 0, full = 0;
    for (const auto* records : {&in_order, &reversed})
      for (const TrialRecord& r : *records) {
        if (r.restored && r.delta_restored) ++delta;
        if (r.restored && !r.delta_restored) ++full;
      }
    EXPECT_GT(delta, 0u);
    EXPECT_GT(full, 0u);
  }
}

/// Minimal snapshot shape the store needs: a golden position plus a paged
/// memory image.
struct FakeMemory {
  std::size_t pages = 0;
  std::size_t mapped_pages() const noexcept { return pages; }
};
struct FakeSnapshot {
  std::uint64_t executed = 0;
  FakeMemory memory;
};

CategoryCounts seen_all(std::uint64_t n) {
  CategoryCounts c;
  c[ir::Category::All] = n;
  return c;
}

TEST(CheckpointStore, BeforeAndWindowAgreeAndSkipDeadEntries) {
  CheckpointStore<FakeSnapshot> store;
  for (std::uint64_t i = 0; i < 4; ++i)
    store.add({(i + 1) * 100, {10}}, seen_all((i + 1) * 10));

  // k=25: entries with seen {10,20,30,40} -> latest with seen < 25 is #1.
  EXPECT_EQ(store.window_of(ir::Category::All, 25), 1u);
  const auto* entry = store.before(ir::Category::All, 25);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->executed, 200u);
  // k=5: every prefix already contains >= 5? No — all seen >= 10, so no
  // resumable point exists and the trial runs from scratch.
  EXPECT_EQ(store.window_of(ir::Category::All, 5), store.kNoWindow);
  EXPECT_EQ(store.before(ir::Category::All, 5), nullptr);

  // Evict down to 20 pages (two entries). Untouched entries tie on LRU, so
  // interval thinning picks victims; before() then walks left to the
  // nearest live entry instead of resuming from a dead one.
  store.set_budget(20);
  EXPECT_EQ(store.live_count(), 2u);
  EXPECT_EQ(store.evictions(), 2u);
  EXPECT_LE(store.live_pages(), 20u);
  const auto* fallback = store.before(ir::Category::All, 35);
  ASSERT_NE(fallback, nullptr);
  EXPECT_TRUE(fallback->alive);
  EXPECT_LT(fallback->seen[ir::Category::All], 35u);
}

TEST(CheckpointStore, LruKeepsTouchedEntriesAndThinsUntouchedOnes) {
  CheckpointStore<FakeSnapshot> store;
  for (std::uint64_t i = 0; i < 4; ++i)
    store.add({(i + 1) * 100, {10}}, seen_all((i + 1) * 10));

  // Touch entry #1 (k=25 resumes from it); it must outlive untouched peers.
  ASSERT_NE(store.before(ir::Category::All, 25), nullptr);
  store.set_budget(20);
  EXPECT_EQ(store.live_count(), 2u);
  const auto* kept = store.before(ir::Category::All, 25);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->executed, 200u);  // the touched entry survived

  // The newest entry has an unbounded trailing gap, so among untouched
  // entries it is thinned last: it is the other survivor.
  EXPECT_EQ(store.before(ir::Category::All, 45)->executed, 400u);
}

TEST(CheckpointStore, BudgetEnforcedDuringCapture) {
  CheckpointStore<FakeSnapshot> store;
  store.set_budget(25);
  for (std::uint64_t i = 0; i < 8; ++i) {
    store.add({(i + 1) * 100, {10}}, seen_all((i + 1) * 10));
    EXPECT_LE(store.live_pages(), 25u) << "after add " << i;
  }
  EXPECT_EQ(store.size(), 8u);  // dead entries keep their counters
  EXPECT_EQ(store.live_count(), 2u);
  EXPECT_EQ(store.evictions(), 6u);
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.live_pages(), 0u);
  EXPECT_EQ(store.evictions(), 6u);  // cumulative, like the engine stats
}

class CheckpointEnv : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("FAULTLAB_CHECKPOINTS");
    unsetenv("FAULTLAB_SNAPSHOT_STRIDE");
    unsetenv("FAULTLAB_SNAPSHOT_BUDGET");
  }
};

TEST_F(CheckpointEnv, PolicyParsesEnvironment) {
  unsetenv("FAULTLAB_CHECKPOINTS");
  unsetenv("FAULTLAB_SNAPSHOT_STRIDE");
  CheckpointPolicy p = CheckpointPolicy::from_env();
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.stride, 0u);

  setenv("FAULTLAB_CHECKPOINTS", "0", 1);
  EXPECT_FALSE(CheckpointPolicy::from_env().enabled);
  setenv("FAULTLAB_CHECKPOINTS", "junk", 1);  // warns, falls back to on
  EXPECT_TRUE(CheckpointPolicy::from_env().enabled);

  setenv("FAULTLAB_SNAPSHOT_STRIDE", "12345", 1);
  EXPECT_EQ(CheckpointPolicy::from_env().stride, 12345u);
  setenv("FAULTLAB_SNAPSHOT_STRIDE", "-3", 1);  // warns, falls back to auto
  EXPECT_EQ(CheckpointPolicy::from_env().stride, 0u);

  EXPECT_EQ(CheckpointPolicy::from_env().budget_pages, 0u);  // unlimited
  setenv("FAULTLAB_SNAPSHOT_BUDGET", "4096", 1);
  EXPECT_EQ(CheckpointPolicy::from_env().budget_pages, 4096u);
  setenv("FAULTLAB_SNAPSHOT_BUDGET", "junk", 1);  // warns, falls back
  EXPECT_EQ(CheckpointPolicy::from_env().budget_pages, 0u);
}

TEST_F(CheckpointEnv, EffectiveStrideSelection) {
  CheckpointPolicy p;
  p.enabled = false;
  EXPECT_EQ(p.effective_stride(1'000'000), 0u);  // disabled -> no snapshots
  p.enabled = true;
  p.stride = 777;
  EXPECT_EQ(p.effective_stride(1'000'000), 777u);  // explicit wins
  p.stride = 0;
  // Automatic: golden length over kAutoWindows, floored at kMinStride.
  EXPECT_EQ(p.effective_stride(64 * 50'000), 50'000u);
  EXPECT_EQ(p.effective_stride(1'000), CheckpointPolicy::kMinStride);
}

TEST(Scheduler, ProfileAllMatchesPerCategoryProfile) {
  for (const char* name : {"mcf", "libquantum"}) {
    auto prog = driver::compile(apps::benchmark(name).source, name);
    LlfiEngine llfi(prog.module());
    PinfiEngine pinfi(prog.program());
    const CategoryCounts lcounts = llfi.profile_all();
    const CategoryCounts pcounts = pinfi.profile_all();
    for (ir::Category c : ir::kAllCategories) {
      EXPECT_EQ(lcounts[c], llfi.profile(c))
          << name << " LLFI " << ir::category_name(c);
      EXPECT_EQ(pcounts[c], pinfi.profile(c))
          << name << " PINFI " << ir::category_name(c);
    }
  }
}

/// Engine whose inject() always throws — the std::terminate repro. The
/// profiling mocks below derive from it.
class ThrowingEngine : public InjectorEngine {
 public:
  explicit ThrowingEngine(std::uint64_t golden_instructions = 1)
      : golden_instructions_(golden_instructions) {}
  const char* tool_name() const noexcept override { return "MOCK"; }
  std::uint64_t profile(ir::Category) override { return 8; }
  TrialRecord inject(ir::Category, std::uint64_t, Rng&) override {
    throw std::runtime_error("injector exploded");
  }
  const std::string& golden_output() const noexcept override {
    return golden_;
  }
  std::uint64_t golden_instructions() const noexcept override {
    return golden_instructions_;
  }

 private:
  std::uint64_t golden_instructions_;
  std::string golden_;
};

TEST(Scheduler, ThrowingEngineSurfacesAsCampaignError) {
  ThrowingEngine engine;
  CampaignConfig cfg;
  cfg.app = "boomapp";
  cfg.category = ir::Category::All;
  cfg.trials = 6;
  cfg.threads = 4;
  try {
    run_campaign(engine, cfg);
    FAIL() << "expected CampaignError";
  } catch (const CampaignError& e) {
    EXPECT_EQ(e.app(), "boomapp");
    EXPECT_EQ(e.tool(), "MOCK");
    EXPECT_EQ(e.category(), ir::Category::All);
    EXPECT_NE(std::string(e.what()).find("boomapp"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("injector exploded"),
              std::string::npos);
    ASSERT_NE(e.cause(), nullptr);
    EXPECT_THROW(std::rethrow_exception(e.cause()), std::runtime_error);
  }
}

TEST(Scheduler, ThrowingCampaignInAGridStillThrows) {
  auto prog = driver::compile(kGridProgram, "grid");
  LlfiEngine llfi(prog.module());
  ThrowingEngine bad;
  CampaignScheduler scheduler;
  CampaignConfig good;
  good.app = "grid";
  good.category = ir::Category::All;
  good.trials = 4;
  scheduler.add(llfi, good);
  CampaignConfig boom;
  boom.app = "boomapp";
  boom.category = ir::Category::Cmp;
  boom.trials = 4;
  scheduler.add(bad, boom);
  EXPECT_THROW(scheduler.run(), CampaignError);
}

/// Engine whose profile_all() throws: profiling failures must surface as
/// a CampaignError like trial failures do.
class ProfileThrowingEngine final : public ThrowingEngine {
 public:
  using ThrowingEngine::ThrowingEngine;
  CategoryCounts profile_all() override {
    throw std::runtime_error("profiler exploded");
  }
};

TEST(Scheduler, ProfilingFailureSurfacesAsCampaignError) {
  // Two failing engines beside a real one. The later-added one has the
  // longer golden run, so the pool profiles it first; the error must still
  // name the first failing campaign in add() order, at any thread count.
  auto prog = driver::compile(kGridProgram, "grid");
  for (std::size_t threads : {1u, 4u}) {
    LlfiEngine llfi(prog.module());
    ProfileThrowingEngine first(1);
    ProfileThrowingEngine second(1'000'000'000);
    SchedulerOptions options;
    options.threads = threads;
    CampaignScheduler scheduler(options);
    CampaignConfig good;
    good.app = "grid";
    good.category = ir::Category::All;
    good.trials = 4;
    scheduler.add(llfi, good);
    CampaignConfig boom;
    boom.app = "boomapp";
    boom.category = ir::Category::Cmp;
    boom.trials = 4;
    scheduler.add(first, boom);
    CampaignConfig other;
    other.app = "otherapp";
    other.category = ir::Category::Load;
    other.trials = 4;
    scheduler.add(second, other);
    try {
      scheduler.run();
      FAIL() << "expected CampaignError at " << threads << " threads";
    } catch (const CampaignError& e) {
      EXPECT_EQ(e.app(), "boomapp") << threads << " threads";
      EXPECT_EQ(e.tool(), "MOCK");
      EXPECT_EQ(e.category(), ir::Category::Cmp);
      EXPECT_NE(std::string(e.what()).find("profiler exploded"),
                std::string::npos);
      ASSERT_NE(e.cause(), nullptr);
      EXPECT_THROW(std::rethrow_exception(e.cause()), std::runtime_error);
    }
  }
}

/// Arrival point shared by LatchEngines: each profile_all() waits until
/// `expected` of them are inside it at once. The wait is bounded, so a
/// scheduler that profiles serially fails the test instead of hanging it.
struct ProfileLatch {
  std::mutex mutex;
  std::condition_variable arrived_cv;
  std::size_t arrived = 0;
  std::size_t expected = 0;
};

class LatchEngine final : public ThrowingEngine {
 public:
  explicit LatchEngine(ProfileLatch& latch) : latch_(latch) {}
  CategoryCounts profile_all() override {
    {
      std::unique_lock<std::mutex> lock(latch_.mutex);
      ++latch_.arrived;
      latch_.arrived_cv.notify_all();
      if (!latch_.arrived_cv.wait_for(lock, std::chrono::seconds(10), [this] {
            return latch_.arrived >= latch_.expected;
          }))
        throw std::runtime_error("engines were not profiled concurrently");
    }
    return ThrowingEngine::profile_all();
  }

 private:
  ProfileLatch& latch_;
};

TEST(Scheduler, ProfilesEnginesInParallelWithZeroTrials) {
  // A zero-trial grid has no trial chunks; the profiling pool is sized by
  // distinct engines, so all four still profile at the same time.
  ProfileLatch latch;
  latch.expected = 4;
  std::vector<std::unique_ptr<LatchEngine>> engines;
  SchedulerOptions options;
  options.threads = 4;
  CampaignScheduler scheduler(options);
  for (std::size_t i = 0; i < latch.expected; ++i) {
    engines.push_back(std::make_unique<LatchEngine>(latch));
    CampaignConfig cfg;
    cfg.app = "latch" + std::to_string(i);
    cfg.category = ir::Category::All;
    cfg.trials = 0;
    scheduler.add(*engines.back(), cfg);
  }
  const std::vector<CampaignResult> results = scheduler.run();
  EXPECT_EQ(latch.arrived, latch.expected);
  ASSERT_EQ(results.size(), latch.expected);
  for (const CampaignResult& r : results) {
    EXPECT_EQ(r.profiled_count, 8u) << r.app;
    EXPECT_TRUE(r.trials.empty()) << r.app;
  }
}

/// What profiling leaves in a grid's engines and what trials then read:
/// each engine's counts for every category (as the campaigns' profiled
/// counts), snapshot layout and the window sampled k values resume from,
/// plus the trial records.
struct ProfiledGrid {
  std::vector<CampaignResult> results;
  std::vector<std::uint64_t> snapshots;
  std::vector<std::uint64_t> strides;
  std::vector<std::uint64_t> windows;
};

/// A program under test and its snapshot stride (0 = automatic).
struct StridedProgram {
  const driver::CompiledProgram* prog;
  std::uint64_t stride;
};

ProfiledGrid profile_grid(const std::vector<StridedProgram>& programs,
                          std::size_t threads) {
  // Fresh engines per call, so each run profiles all of them itself.
  std::vector<std::unique_ptr<InjectorEngine>> engines;
  for (const StridedProgram& p : programs) {
    CheckpointPolicy policy;
    policy.stride = p.stride;
    engines.push_back(
        std::make_unique<LlfiEngine>(p.prog->module(), FaultModel{}, policy));
    engines.push_back(std::make_unique<PinfiEngine>(p.prog->program(),
                                                    FaultModel{}, policy));
  }
  SchedulerOptions options;
  options.threads = threads;
  CampaignScheduler scheduler(options);
  for (const auto& engine : engines) {
    for (ir::Category c : ir::kAllCategories) {
      CampaignConfig cfg;
      cfg.app = "app";
      cfg.category = c;
      cfg.trials = 3;
      cfg.seed = 11;
      scheduler.add(*engine, cfg);
    }
  }
  ProfiledGrid out;
  out.results = scheduler.run();
  std::size_t cell = 0;
  for (const auto& engine : engines) {
    const CheckpointStats stats = engine->checkpoint_stats();
    out.snapshots.push_back(stats.snapshots);
    out.strides.push_back(stats.stride);
    for (ir::Category c : ir::kAllCategories) {
      const std::uint64_t n = out.results[cell++].profiled_count;
      if (n == 0) continue;
      for (std::uint64_t k : {std::uint64_t{1}, n / 3 + 1, 2 * n / 3 + 1, n})
        out.windows.push_back(engine->window_of(c, k));
    }
  }
  return out;
}

TEST(Scheduler, ParallelProfilingBuildsSameStateAtOneAndFourThreads) {
  auto grid = driver::compile(kGridProgram, "grid");
  auto mcf = driver::compile(apps::benchmark("mcf").source, "mcf");
  auto libquantum =
      driver::compile(apps::benchmark("libquantum").source, "libquantum");
  // The small grid program needs a dense stride to have snapshots at all.
  const std::vector<StridedProgram> programs = {
      {&grid, 500}, {&mcf, 0}, {&libquantum, 0}};
  const ProfiledGrid serial = profile_grid(programs, 1);
  const ProfiledGrid parallel = profile_grid(programs, 4);

  EXPECT_EQ(serial.snapshots, parallel.snapshots);
  EXPECT_EQ(serial.strides, parallel.strides);
  EXPECT_EQ(serial.windows, parallel.windows);
  // Every engine captured snapshots, so the windows compared are real ones.
  for (std::uint64_t snapshots : serial.snapshots) EXPECT_GT(snapshots, 0u);
  ASSERT_EQ(serial.results.size(), parallel.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].tool, parallel.results[i].tool);
    EXPECT_EQ(serial.results[i].category, parallel.results[i].category);
    EXPECT_EQ(serial.results[i].profiled_count,
              parallel.results[i].profiled_count)
        << "cell " << i;
    expect_same_records(serial.results[i].trials, parallel.results[i].trials);
  }
}

TEST(Scheduler, ManifestRecordsTimingsAndCounters) {
  auto prog = driver::compile(kGridProgram, "grid");
  LlfiEngine llfi(prog.module());
  PinfiEngine pinfi(prog.program());
  SchedulerOptions options;
  options.threads = 2;
  std::size_t progress_calls = 0;
  options.progress = [&](const SchedulerProgress& p) {
    if (p.completed != nullptr) ++progress_calls;
  };
  CampaignScheduler scheduler(options);
  CampaignConfig cfg;
  cfg.app = "grid";
  cfg.category = ir::Category::All;
  cfg.trials = 10;
  scheduler.add(llfi, cfg);
  scheduler.add(pinfi, cfg);
  const std::vector<CampaignResult> results = scheduler.run();

  const RunManifest& m = scheduler.manifest();
  EXPECT_EQ(m.threads, 2u);
  EXPECT_GE(m.wall_seconds, 0.0);
  EXPECT_GE(m.profile_seconds, 0.0);
  ASSERT_EQ(m.campaigns.size(), 2u);
  EXPECT_EQ(progress_calls, 2u);
  for (std::size_t i = 0; i < m.campaigns.size(); ++i) {
    EXPECT_EQ(m.campaigns[i].app, results[i].app);
    EXPECT_EQ(m.campaigns[i].tool, results[i].tool);
    EXPECT_EQ(m.campaigns[i].trials, results[i].trials.size());
    EXPECT_EQ(m.campaigns[i].injected, results[i].injected_trials);
    EXPECT_EQ(m.campaigns[i].activated, results[i].activated());
    EXPECT_GT(m.campaigns[i].wall_seconds, 0.0);
  }

  const std::string csv = manifest_csv(m).to_string();
  EXPECT_NE(csv.find("trials_per_second"), std::string::npos);
  EXPECT_NE(csv.find("grid,LLFI,all"), std::string::npos);
  EXPECT_NE(csv.find("grid,PINFI,all"), std::string::npos);
}

TEST(Scheduler, EmptyAndZeroTrialCampaigns) {
  CampaignScheduler empty;
  EXPECT_TRUE(empty.run().empty());

  auto prog = driver::compile(kGridProgram, "grid");
  LlfiEngine llfi(prog.module());
  CampaignScheduler scheduler;
  CampaignConfig cfg;
  cfg.app = "grid";
  cfg.category = ir::Category::All;
  cfg.trials = 0;
  scheduler.add(llfi, cfg);
  const std::vector<CampaignResult> results = scheduler.run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].profiled_count, 0u);
  EXPECT_TRUE(results[0].trials.empty());
  EXPECT_EQ(results[0].activated(), 0u);
}

class DefaultTrialsEnv : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("FAULTLAB_TRIALS"); }
  std::size_t with(const char* value) {
    setenv("FAULTLAB_TRIALS", value, 1);
    return default_trials();
  }
};

TEST_F(DefaultTrialsEnv, ParsesAndRejects) {
  unsetenv("FAULTLAB_TRIALS");
  EXPECT_EQ(default_trials(), 150u);          // unset -> default
  EXPECT_EQ(with("200"), 200u);               // plain number
  EXPECT_EQ(with("37abc"), 150u);             // trailing garbage rejected
  EXPECT_EQ(with("abc"), 150u);               // non-numeric rejected
  EXPECT_EQ(with(""), 150u);                  // empty rejected
  EXPECT_EQ(with("-5"), 150u);                // non-positive rejected
  EXPECT_EQ(with("0"), 150u);                 // zero rejected
  EXPECT_EQ(with("99999999999999999999999"), 150u);  // overflow rejected
}

}  // namespace
}  // namespace faultlab::fault
