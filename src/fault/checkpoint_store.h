// Shared checkpoint container for the injector engines.
//
// Both LLFI and PINFI capture the same thing during profile_all(): an
// execution snapshot every stride instructions plus the per-category
// instance counters at that point. This template owns that sequence, the
// "nearest resumable point before the k-th instance" query, and the
// snapshot memory budget: when the summed mapped-page counts of live
// snapshots exceed the budget, entries are evicted — least-recently-used
// first, interval thinning (smallest coverage gap left behind) as the
// tie-break — and a trial whose ideal window was evicted transparently
// falls back to the nearest earlier live one (or a from-scratch run).
//
// The live snapshots double as the golden run's rejoin points: a trial
// whose fault hook has finally detached stops at the first of them its
// state equals (vm::RunLimits::rejoin), and RejoinTally completes it with
// the golden totals.
//
// Thread-safety contract: add()/clear()/set_budget() are capture/setup
// operations and must not run concurrently with trials; before(),
// window_of() and live_snapshots() are safe to call from many trial
// workers at once (the only mutation is the per-entry LRU stamp, a
// relaxed atomic).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "fault/engine.h"
#include "ir/category.h"

namespace faultlab::fault {

template <typename SnapshotT>
class CheckpointStore {
 public:
  static constexpr std::uint64_t kNoWindow = InjectorEngine::kNoWindow;

  struct Entry {
    SnapshotT snapshot;
    CategoryCounts seen;
    std::uint64_t executed = 0;  ///< golden position (kept after eviction)
    std::size_t pages = 0;       ///< mapped pages at capture time
    bool alive = true;
    mutable std::atomic<std::uint64_t> last_touch{0};
  };

  /// Drops all entries (a new profiling run starts). Eviction counters are
  /// cumulative across profiling runs, matching the engines' other stats.
  void clear() {
    entries_.clear();
    live_.clear();
    live_pages_ = 0;
    live_count_ = 0;
  }

  void set_budget(std::uint64_t pages) {
    budget_pages_ = pages;
    enforce_budget();
  }

  /// Appends a snapshot captured at `seen` instance counts, then evicts
  /// until the live set fits the budget again.
  void add(SnapshotT&& snapshot, const CategoryCounts& seen) {
    Entry& e = entries_.emplace_back();  // deque: growth never moves entries
    e.executed = snapshot.executed;
    e.pages = snapshot.memory.mapped_pages();
    e.snapshot = std::move(snapshot);
    e.seen = seen;
    live_.push_back(&e.snapshot);
    live_pages_ += e.pages;
    ++live_count_;
    enforce_budget();
  }

  /// Latest live entry whose prefix holds fewer than k `category`
  /// instances, or nullptr (run from scratch). Stamps the entry's LRU
  /// clock.
  const Entry* before(ir::Category category, std::uint64_t k) const {
    const std::size_t idx = index_before(category, k);
    if (idx == entries_.size()) return nullptr;
    const Entry& e = entries_[idx];
    e.last_touch.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    return &e;
  }

  /// Index of the entry before() would resume from, or kNoWindow. Used by
  /// the scheduler to group trials sharing a resident snapshot; does not
  /// stamp the LRU clock.
  std::uint64_t window_of(ir::Category category, std::uint64_t k) const {
    const std::size_t idx = index_before(category, k);
    return idx == entries_.size() ? kNoWindow
                                  : static_cast<std::uint64_t>(idx);
  }

  /// Latest live entry captured strictly before dynamic instruction `t`,
  /// or nullptr (run from scratch). The time-triggered analogue of
  /// before(): resuming it replays every instruction from `executed` to
  /// `t`, so a hook armed at `t` misses nothing. Stamps the LRU clock.
  const Entry* before_time(std::uint64_t t) const {
    const std::size_t idx = index_before_time(t);
    if (idx == entries_.size()) return nullptr;
    const Entry& e = entries_[idx];
    e.last_touch.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    return &e;
  }

  /// Index of the entry before_time() would resume from, or kNoWindow.
  std::uint64_t window_of_time(std::uint64_t t) const {
    const std::size_t idx = index_before_time(t);
    return idx == entries_.size() ? kNoWindow
                                  : static_cast<std::uint64_t>(idx);
  }

  /// Snapshots of the live entries in execution order: the rejoin points
  /// handed to trial runs. Only add() and evictions change it, so it is
  /// fixed for the whole trial phase.
  const std::vector<const SnapshotT*>& live_snapshots() const noexcept {
    return live_;
  }

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t live_count() const noexcept { return live_count_; }
  std::uint64_t live_pages() const noexcept { return live_pages_; }
  std::uint64_t evictions() const noexcept { return evictions_; }
  std::uint64_t budget_pages() const noexcept { return budget_pages_; }

 private:
  /// Index of the latest live entry with seen[category] < k, or size().
  std::size_t index_before(ir::Category category, std::uint64_t k) const {
    // Entries are in execution order and seen-counts are monotonic (dead
    // entries keep their counters), so binary search still applies; walk
    // left past evicted entries to the nearest live resume point.
    std::size_t hi = entries_.size();
    std::size_t lo = 0;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (entries_[mid].seen[category] < k)
        lo = mid + 1;
      else
        hi = mid;
    }
    while (lo > 0) {
      if (entries_[lo - 1].alive) return lo - 1;
      --lo;
    }
    return entries_.size();
  }

  /// Index of the latest live entry with executed < t, or size(). Same
  /// shape as index_before(): executed counts are strictly increasing, so
  /// binary search applies, then walk left past evicted entries.
  std::size_t index_before_time(std::uint64_t t) const {
    std::size_t hi = entries_.size();
    std::size_t lo = 0;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (entries_[mid].executed < t)
        lo = mid + 1;
      else
        hi = mid;
    }
    while (lo > 0) {
      if (entries_[lo - 1].alive) return lo - 1;
      --lo;
    }
    return entries_.size();
  }

  void enforce_budget() {
    if (budget_pages_ == 0) return;
    while (live_pages_ > budget_pages_ && live_count_ > 0) evict_one();
  }

  /// Evicts the live entry with the oldest LRU stamp; among equals, the
  /// one whose removal leaves the smallest gap between its live neighbours
  /// (interval thinning — untouched stores degrade to evenly-thinned
  /// coverage instead of dropping a whole flank). The final live entry
  /// has an unbounded trailing gap, so the most recent resume point
  /// survives longest.
  void evict_one() {
    constexpr std::uint64_t kInf = std::numeric_limits<std::uint64_t>::max();
    std::size_t victim = entries_.size();
    std::uint64_t victim_touch = kInf;
    std::uint64_t victim_gap = kInf;
    std::uint64_t prev_executed = 0;  // golden run starts at instruction 0
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (!entries_[i].alive) continue;
      std::uint64_t next_executed = kInf;
      for (std::size_t j = i + 1; j < entries_.size(); ++j) {
        if (entries_[j].alive) {
          next_executed = entries_[j].executed;
          break;
        }
      }
      const std::uint64_t touch =
          entries_[i].last_touch.load(std::memory_order_relaxed);
      const std::uint64_t gap =
          next_executed == kInf ? kInf : next_executed - prev_executed;
      if (touch < victim_touch ||
          (touch == victim_touch && gap < victim_gap)) {
        victim = i;
        victim_touch = touch;
        victim_gap = gap;
      }
      prev_executed = entries_[i].executed;
    }
    if (victim == entries_.size()) return;
    Entry& e = entries_[victim];
    e.alive = false;
    live_.erase(std::find(live_.begin(), live_.end(), &e.snapshot));
    e.snapshot = SnapshotT{};  // release the pages now
    live_pages_ -= e.pages;
    --live_count_;
    ++evictions_;
  }

  std::deque<Entry> entries_;
  std::vector<const SnapshotT*> live_;
  std::uint64_t budget_pages_ = 0;
  std::uint64_t live_pages_ = 0;
  std::size_t live_count_ = 0;
  std::uint64_t evictions_ = 0;
  mutable std::atomic<std::uint64_t> clock_{0};
};

/// Per-engine count of trials that ended early at a golden rejoin point.
struct RejoinTally {
  std::atomic<std::uint64_t> trials{0};
  std::atomic<std::uint64_t> skipped_instructions{0};

  /// Completes a run that stopped at a golden rejoin point
  /// (`r.rejoined()`) with the golden run's totals: from there it would
  /// have replayed the golden suffix exactly, so it ends at the golden
  /// length with the golden output and no trap or timeout. Returns the
  /// golden instructions skipped (0, and `r` untouched, when the run did
  /// not rejoin).
  template <typename RunResultT>
  std::uint64_t settle(RunResultT& r, std::uint64_t golden_instructions,
                       const std::string& golden_output) {
    if (!r.rejoined()) return 0;
    const std::uint64_t skipped = golden_instructions - r.dynamic_instructions;
    trials.fetch_add(1, std::memory_order_relaxed);
    skipped_instructions.fetch_add(skipped, std::memory_order_relaxed);
    if (obs::metrics_enabled()) {
      CheckpointMetrics& metrics = checkpoint_metrics();
      metrics.rejoins.add();
      metrics.rejoin_skipped_instructions.add(skipped);
      metrics.rejoin_boundary.record(r.rejoin_boundary);
    }
    r.dynamic_instructions = golden_instructions;
    r.output = golden_output;
    return skipped;
  }
};

}  // namespace faultlab::fault
