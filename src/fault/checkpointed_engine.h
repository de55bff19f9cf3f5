// The trial methodology LLFI and PINFI share, written once.
//
// The paper's accuracy comparison holds only if both injectors run trials
// the same way and differ only where the tools differ: target selection,
// bit space and activation tracking. CheckpointedEngine<Traits> is that
// shared part: the golden run (with the propagation journal capture), the
// single-pass profile_all() that also captures copy-on-write snapshots
// every `CheckpointPolicy` stride together with the per-category instance
// counters, the hang limit, the time trigger, and the trial loop itself —
// resume from the nearest snapshot before the injection point, execute
// under the tool's injection hook, settle a golden rejoin, classify, and
// account the restore/execute/classify phases. Results are bit-identical
// to direct execution from main().
//
// `Traits` supplies only what differs between the tools:
//   Code, Machine, Snapshot, Limits, Result
//                   the program representation, its executor and that
//                   executor's snapshot/limits/result types;
//   kTool           the tool name (tool_name() and every error message);
//   kDrawSpace      the raw bit-draw space handed to FaultPlan;
//   kMemoryCellRejection
//                   why memory-cell targets are rejected;
//   run(machine, limits)
//                   a from-scratch run of the entry function;
//   InjectHook, ProfileHook, ProfileAllHook, JournalHook
//                   the tool's hooks, constructed as
//                     InjectHook(code, knobs, category, plan, site, journal)
//                     ProfileHook(code, knobs, category)
//                     ProfileAllHook(code, knobs)
//                     JournalHook(&journal)
//                   where InjectHook exposes site(), tracing() and
//                   prop_summary(), ProfileHook count() and ProfileAllHook
//                   counts().
//
// The member definitions below need the hook types complete, so each tool
// declares `extern template class CheckpointedEngine<Traits>;` in its
// header and instantiates the template once in its source file, after its
// hooks.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/checkpoint_store.h"
#include "fault/engine.h"
#include "obs/metrics.h"
#include "obs/propagation.h"
#include "obs/trace.h"

namespace faultlab::fault {

/// Trial-site state both injection hooks keep: which dynamic instance the
/// trial targets, the absolute dynamic-instruction position, and where the
/// injection landed and whether it was read. run_trial() builds the
/// TrialRecord from it.
struct TrialSite {
  /// When the trial resumes from a checkpoint, `already_seen` primes the
  /// instance counter with the skipped prefix's count so the k-th instance
  /// is still the k-th, and `base` primes the absolute position. A nonzero
  /// `arm_time` selects the time trigger: a hook whose trigger lies past
  /// the first instruction it will see starts `dormant` (detached with
  /// rearm_at = arm_time) and sleeps until the trigger point.
  TrialSite(std::uint64_t k, std::uint64_t already_seen, std::uint64_t base,
            std::uint64_t arm_time)
      : target_k(k),
        seen(already_seen),
        arm_time(arm_time),
        dormant(arm_time != 0 && arm_time > base + 1),
        executed(dormant ? arm_time - 1 : base) {}

  /// Called on each target-category instruction before the injection:
  /// true at the one the trial corrupts (the k-th instance, or the first
  /// at or after the time trigger).
  bool reached() noexcept {
    return arm_time != 0 ? executed >= arm_time : ++seen == target_k;
  }

  std::uint64_t target_k;
  std::uint64_t seen;
  std::uint64_t arm_time;
  bool dormant;
  std::uint64_t executed;  ///< absolute dynamic-instruction position
  bool injected = false;
  bool activated = false;
  unsigned bit = 0;
  std::uint64_t static_site = 0;
  std::uint64_t inject_at = 0;  ///< absolute position of the first injection
  const char* site_opcode = nullptr;    ///< borrows a static opcode table
  const char* site_function = nullptr;  ///< borrows the code's storage
};

template <typename Traits>
class CheckpointedEngine : public InjectorEngine {
 public:
  using Code = typename Traits::Code;
  using Machine = typename Traits::Machine;
  using Snapshot = typename Traits::Snapshot;
  using Limits = typename Traits::Limits;
  using Result = typename Traits::Result;

  const char* tool_name() const noexcept override { return Traits::kTool; }
  std::uint64_t profile(ir::Category category) override;
  CategoryCounts profile_all() override;  ///< one run, all categories
  TrialRecord inject(ir::Category category, std::uint64_t k,
                     Rng& rng) override;
  TrialRecord inject_in(TrialContext* context, ir::Category category,
                        std::uint64_t k, Rng& rng) override;
  std::unique_ptr<TrialContext> make_context() override;
  std::uint64_t window_of(ir::Category category,
                          std::uint64_t k) const override;
  const Model& fault_model() const noexcept override { return fault_model_; }
  const std::string& golden_output() const noexcept override {
    return golden_output_;
  }
  std::uint64_t golden_instructions() const noexcept override {
    return golden_instructions_;
  }
  CheckpointStats checkpoint_stats() const override;
  PhaseStats phase_stats() const override;

  /// Re-applies a snapshot page budget after profiling (tests/tools; the
  /// campaign path sets it via CheckpointPolicy). Evicts LRU-first, so
  /// windows no trial has resumed from go before hot ones. Must not run
  /// concurrently with trials.
  void set_snapshot_budget(std::uint64_t pages) {
    checkpoints_.set_budget(pages);
  }

 protected:
  /// Runs the golden run. `code` must outlive the engine. Throws
  /// std::runtime_error for memory-cell fault targets and when the golden
  /// run does not complete.
  CheckpointedEngine(const Code& code, FaultModel model,
                     CheckpointPolicy checkpoints, Model fault_model);

 private:
  /// Per-worker resident machine: its address space persists between
  /// trials, so same-window trials reset via the O(dirty) delta path.
  struct Context final : TrialContext {
    explicit Context(const Code& code) : machine(code) {}
    Machine machine;
  };

  /// Nanoseconds elapsed since `t0`, for the per-phase wall-time counters.
  static std::uint64_t nanos_since(std::chrono::steady_clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  Limits faulty_limits() const;
  TrialRecord run_trial(Context& context, ir::Category category,
                        std::uint64_t k, Rng& rng);
  /// Dynamic instruction index at which a time-triggered fault arms for
  /// trial (category, k): k's share of the golden run, scaled by the
  /// profiled category density. Zero (= fall back to access trigger)
  /// until profile_all() has filled the category counts.
  std::uint64_t time_trigger_point(ir::Category category,
                                   std::uint64_t k) const;

  const Code& code_;
  FaultModel model_;
  Model fault_model_;
  CheckpointPolicy checkpoint_policy_;
  std::string golden_output_;
  std::uint64_t golden_instructions_ = 0;
  /// Propagation tracing (obs/propagation.h): latched from prop_enabled()
  /// at construction; the golden pc journal is captured by the ctor's
  /// golden run iff tracing is on, then read-only during trials.
  bool trace_prop_ = false;
  obs::GoldenJournal journal_;
  /// Filled by profile_all (single-threaded, before trials); during the
  /// trial phase workers only query it (thread-safe), so concurrent
  /// inject() calls are safe.
  CheckpointStore<Snapshot> checkpoints_;
  CategoryCounts profile_counts_;  ///< filled by profile_all (time trigger)
  std::uint64_t checkpoint_stride_ = 0;
  mutable std::atomic<std::uint64_t> trials_{0};
  mutable std::atomic<std::uint64_t> restored_trials_{0};
  mutable std::atomic<std::uint64_t> skipped_instructions_{0};
  mutable std::atomic<std::uint64_t> delta_restores_{0};
  mutable std::atomic<std::uint64_t> restored_pages_{0};
  mutable RejoinTally rejoins_;
  mutable std::atomic<std::uint64_t> restore_nanos_{0};
  mutable std::atomic<std::uint64_t> execute_nanos_{0};
  mutable std::atomic<std::uint64_t> classify_nanos_{0};
};

template <typename Traits>
CheckpointedEngine<Traits>::CheckpointedEngine(const Code& code,
                                               FaultModel model,
                                               CheckpointPolicy checkpoints,
                                               Model fault_model)
    : code_(code),
      model_(model),
      fault_model_(fault_model),
      checkpoint_policy_(checkpoints) {
  if (fault_model_.target == FaultTarget::MemoryCell)
    throw std::runtime_error(
        std::string(Traits::kTool) +
        ": memory-cell fault targets are not supported (" +
        Traits::kMemoryCellRejection + ")");
  obs::ScopedSpan span(obs::Tracer::global(), "golden", "engine");
  // With propagation tracing on, the one golden run doubles as the pc
  // journal capture (hooked, so it takes the slow path — paid once per
  // engine, only when FAULTLAB_PROP is set).
  trace_prop_ = obs::prop_enabled();
  typename Traits::JournalHook journal_hook(&journal_);
  Machine golden(code_, trace_prop_ ? &journal_hook : nullptr);
  const Result r = Traits::run(golden, Limits{});
  if (!r.completed())
    throw std::runtime_error(std::string(Traits::kTool) +
                             ": golden run did not complete");
  golden_output_ = r.output;
  golden_instructions_ = r.dynamic_instructions;
  if (span.active()) {
    span.tag("tool", Traits::kTool);
    span.tag("instructions", golden_instructions_);
  }
}

template <typename Traits>
typename Traits::Limits CheckpointedEngine<Traits>::faulty_limits() const {
  Limits limits;
  // The paper detects hangs as "substantially longer than the golden run".
  limits.max_instructions = golden_instructions_ * 10 + 100'000;
  limits.rejoin = &checkpoints_.live_snapshots();
  return limits;
}

template <typename Traits>
std::uint64_t CheckpointedEngine<Traits>::profile(ir::Category category) {
  typename Traits::ProfileHook hook(code_, model_, category);
  Machine machine(code_, &hook);
  const Result r = Traits::run(machine, Limits{});
  if (!r.completed())
    throw std::runtime_error(std::string(Traits::kTool) +
                             ": profiling run did not complete");
  return hook.count();
}

template <typename Traits>
CategoryCounts CheckpointedEngine<Traits>::profile_all() {
  obs::ScopedSpan span(obs::Tracer::global(), "profile", "engine");
  typename Traits::ProfileAllHook hook(code_, model_);
  Machine machine(code_, &hook);
  Limits limits;
  checkpoints_.clear();
  checkpoints_.set_budget(checkpoint_policy_.budget_pages);
  checkpoint_stride_ = checkpoint_policy_.effective_stride(golden_instructions_);
  limits.snapshot_stride = checkpoint_stride_;
  if (checkpoint_stride_ != 0) {
    // The snapshot sink fires between two dynamic instructions, so the
    // hook's counters at that moment are exactly the per-category instance
    // counts of the skipped prefix. add() enforces the page budget as the
    // run advances, so peak residency never exceeds it.
    limits.snapshot_sink = [this, &hook](Snapshot&& snap) {
      checkpoints_.add(std::move(snap), hook.counts());
    };
  }
  const Result r = Traits::run(machine, limits);
  if (!r.completed())
    throw std::runtime_error(std::string(Traits::kTool) +
                             ": profiling run did not complete");
  if (obs::metrics_enabled()) {
    checkpoint_metrics().snapshots.add(checkpoints_.size());
    checkpoint_metrics().evictions.add(checkpoints_.size() -
                                       checkpoints_.live_count());
  }
  if (span.active()) {
    span.tag("tool", Traits::kTool);
    span.tag("snapshots", static_cast<std::uint64_t>(checkpoints_.size()));
    span.tag("stride", checkpoint_stride_);
  }
  profile_counts_ = hook.counts();
  return hook.counts();
}

template <typename Traits>
std::uint64_t CheckpointedEngine<Traits>::time_trigger_point(
    ir::Category category, std::uint64_t k) const {
  const std::uint64_t count = profile_counts_[category];
  if (count == 0) return 0;  // profile_all not run: use the access trigger
  // The k-th of `count` instances maps to its proportional position in
  // the golden run; +1 keeps the trigger strictly after instruction 0.
  return (k - 1) * golden_instructions_ / count + 1;
}

template <typename Traits>
std::uint64_t CheckpointedEngine<Traits>::window_of(ir::Category category,
                                                    std::uint64_t k) const {
  if (fault_model_.trigger == FaultTrigger::Time) {
    const std::uint64_t t = time_trigger_point(category, k);
    if (t != 0) return checkpoints_.window_of_time(t);
  }
  return checkpoints_.window_of(category, k);
}

template <typename Traits>
std::unique_ptr<TrialContext> CheckpointedEngine<Traits>::make_context() {
  return std::make_unique<Context>(code_);
}

template <typename Traits>
TrialRecord CheckpointedEngine<Traits>::inject(ir::Category category,
                                               std::uint64_t k, Rng& rng) {
  Context context(code_);
  return run_trial(context, category, k, rng);
}

template <typename Traits>
TrialRecord CheckpointedEngine<Traits>::inject_in(TrialContext* context,
                                                  ir::Category category,
                                                  std::uint64_t k, Rng& rng) {
  if (context == nullptr) return inject(category, k, rng);
  return run_trial(static_cast<Context&>(*context), category, k, rng);
}

template <typename Traits>
TrialRecord CheckpointedEngine<Traits>::run_trial(Context& context,
                                                  ir::Category category,
                                                  std::uint64_t k, Rng& rng) {
  obs::Tracer& tracer = obs::Tracer::global();
  // The plan consumes exactly one draw for single-bit models, so the
  // default model's rng stream matches the pre-model code bit for bit.
  const FaultPlan plan(fault_model_, rng, Traits::kDrawSpace);
  const std::uint64_t arm_time = fault_model_.trigger == FaultTrigger::Time
                                     ? time_trigger_point(category, k)
                                     : 0;
  const typename CheckpointStore<Snapshot>::Entry* cp;
  {
    obs::ScopedSpan restore_span(tracer, "restore", "phase");
    const auto phase_t0 = std::chrono::steady_clock::now();
    cp = arm_time != 0 ? checkpoints_.before_time(arm_time)
                       : checkpoints_.before(category, k);
    if (restore_span.active())
      restore_span.tag("checkpoint", cp != nullptr ? "hit" : "miss");
    restore_nanos_.fetch_add(nanos_since(phase_t0),
                             std::memory_order_relaxed);
  }
  typename Traits::InjectHook hook(
      code_, model_, category, plan,
      TrialSite(k, cp != nullptr ? cp->seen[category] : 0,
                cp != nullptr ? cp->snapshot.executed : 0, arm_time),
      trace_prop_ ? &journal_ : nullptr);
  context.machine.set_hook(&hook);
  trials_.fetch_add(1, std::memory_order_relaxed);
  Result r;
  {
    obs::ScopedSpan exec_span(tracer, "execute", "phase");
    const auto phase_t0 = std::chrono::steady_clock::now();
    if (cp != nullptr) {
      restored_trials_.fetch_add(1, std::memory_order_relaxed);
      skipped_instructions_.fetch_add(cp->snapshot.executed,
                                      std::memory_order_relaxed);
      r = context.machine.run_from(cp->snapshot, faulty_limits());
    } else {
      r = Traits::run(context.machine, faulty_limits());
    }
    execute_nanos_.fetch_add(nanos_since(phase_t0),
                             std::memory_order_relaxed);
    // Work actually done: a rejoined run stops short of the golden total
    // that settle() fills in below.
    if (exec_span.active())
      exec_span.tag("instructions",
                    r.dynamic_instructions -
                        (cp != nullptr ? cp->snapshot.executed : 0));
  }
  context.machine.set_hook(nullptr);  // the hook dies with this call
  if (cp != nullptr) {
    restored_pages_.fetch_add(r.restored_pages, std::memory_order_relaxed);
    if (r.delta_restored)
      delta_restores_.fetch_add(1, std::memory_order_relaxed);
    if (obs::metrics_enabled()) {
      CheckpointMetrics& metrics = checkpoint_metrics();
      metrics.restores.add();
      metrics.restored_pages.add(r.restored_pages);
      metrics.skipped_instructions.add(cp->snapshot.executed);
      if (r.delta_restored) {
        metrics.delta_restores.add();
        metrics.delta_pages.add(r.restored_pages);
        metrics.dirty_pages.record(r.restored_pages);
      }
    }
  }
  const std::uint64_t rejoin_skipped =
      rejoins_.settle(r, golden_instructions_, golden_output_);

  const TrialSite& site = hook.site();
  TrialRecord record;
  record.dynamic_target = k;
  record.bit = site.bit;
  record.static_site = site.static_site;
  record.injected = site.injected;
  record.site_opcode = site.site_opcode;
  record.site_function = site.site_function;
  record.total_instructions = r.dynamic_instructions;
  if (site.injected) record.inject_instruction = site.inject_at;
  if (r.trapped) {
    record.trap_pc = r.trap_pc;
    record.trap = r.trap;
  }
  record.restored = cp != nullptr;
  record.delta_restored = r.delta_restored;
  record.restored_pages = static_cast<std::uint32_t>(r.restored_pages);
  record.rejoin_skipped = rejoin_skipped;
  if (hook.tracing()) record.prop = hook.prop_summary();
  {
    obs::ScopedSpan classify_span(tracer, "classify", "phase");
    const auto phase_t0 = std::chrono::steady_clock::now();
    record.outcome = classify(site.injected, site.activated, r.trapped,
                              r.timed_out, r.output, golden_output_);
    classify_nanos_.fetch_add(nanos_since(phase_t0),
                              std::memory_order_relaxed);
  }
  return record;
}

template <typename Traits>
CheckpointStats CheckpointedEngine<Traits>::checkpoint_stats() const {
  CheckpointStats stats;
  stats.snapshots = checkpoints_.size();
  stats.stride = checkpoint_stride_;
  stats.trials = trials_.load(std::memory_order_relaxed);
  stats.restored_trials = restored_trials_.load(std::memory_order_relaxed);
  stats.skipped_instructions =
      skipped_instructions_.load(std::memory_order_relaxed);
  stats.delta_restores = delta_restores_.load(std::memory_order_relaxed);
  stats.restored_pages = restored_pages_.load(std::memory_order_relaxed);
  stats.evictions = checkpoints_.evictions();
  stats.rejoined_trials = rejoins_.trials.load(std::memory_order_relaxed);
  stats.rejoin_skipped_instructions =
      rejoins_.skipped_instructions.load(std::memory_order_relaxed);
  return stats;
}

template <typename Traits>
PhaseStats CheckpointedEngine<Traits>::phase_stats() const {
  PhaseStats p;
  p.restore_seconds =
      static_cast<double>(restore_nanos_.load(std::memory_order_relaxed)) *
      1e-9;
  p.execute_seconds =
      static_cast<double>(execute_nanos_.load(std::memory_order_relaxed)) *
      1e-9;
  p.classify_seconds =
      static_cast<double>(classify_nanos_.load(std::memory_order_relaxed)) *
      1e-9;
  return p;
}

}  // namespace faultlab::fault
