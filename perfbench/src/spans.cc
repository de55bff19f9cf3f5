#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace faultlab::perfbench {

SpanLog::SpanLog(std::string run_id)
    : run_id_(std::move(run_id)), origin_(Clock::now()) {}

std::uint32_t SpanLog::open(std::string name) {
  SpanRecord record;
  record.id = static_cast<std::uint32_t>(spans_.size() + 1);
  record.parent = stack_.empty() ? 0 : stack_.back();
  record.name = std::move(name);
  record.start_s =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  record.end_s = record.start_s;
  spans_.push_back(std::move(record));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanLog::close(std::uint32_t id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_s =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  const auto it = std::find(stack_.rbegin(), stack_.rend(), id);
  if (it != stack_.rend()) stack_.erase(std::next(it).base());
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"run_id\":\"%s\",\"spans\":[", run_id_.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                 "\"start_s\":%.9f,\"end_s\":%.9f}",
                 i == 0 ? "" : ",", s.id, s.parent, s.name.c_str(), s.start_s,
                 s.end_s);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::map<std::string, double> self_seconds(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint32_t, std::vector<std::pair<double, double>>> children;
  for (const SpanRecord& s : spans)
    if (s.parent != 0) children[s.parent].emplace_back(s.start_s, s.end_s);

  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    double covered = 0.0;
    auto found = children.find(s.id);
    if (found != children.end()) {
      auto& intervals = found->second;
      std::sort(intervals.begin(), intervals.end());
      double run_start = 0.0;
      double run_end = -1.0;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, s.start_s);
        hi = std::min(hi, s.end_s);
        if (hi <= lo) continue;
        if (lo > run_end) {
          if (run_end > run_start) covered += run_end - run_start;
          run_start = lo;
          run_end = hi;
        } else {
          run_end = std::max(run_end, hi);
        }
      }
      if (run_end > run_start) covered += run_end - run_start;
    }
    out[s.name] += std::max(0.0, (s.end_s - s.start_s) - covered);
  }
  return out;
}

}  // namespace faultlab::perfbench
