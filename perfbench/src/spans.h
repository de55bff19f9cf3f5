// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around each call into a
// FaultLab layer (compile, golden runs, profiling, scheduler.run, replay),
// never inside the library. Each span carries a name, start, end, the id
// of the span that was open when it started, and the run id shared by all
// spans of one process. They stay in memory until write_json() at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace faultlab::perfbench {

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root (no enclosing span)
  std::string name;
  double start_s = 0.0;  ///< seconds since the recorder was created
  double end_s = 0.0;
};

/// Single-threaded span log; a null SpanLog* disables recording.
class SpanLog {
 public:
  explicit SpanLog(std::string run_id);

  std::uint32_t open(std::string name);
  void close(std::uint32_t id);

  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }
  const std::string& run_id() const noexcept { return run_id_; }

  /// Writes {"run_id":..., "spans":[...]} to `path`; false on I/O error.
  bool write_json(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  std::string run_id_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> stack_;  ///< ids of the currently open spans
};

/// RAII span: records into `log` when non-null, otherwise does nothing.
class Span {
 public:
  Span(SpanLog* log, std::string name)
      : log_(log), id_(log != nullptr ? log->open(std::move(name)) : 0) {}
  ~Span() {
    if (log_ != nullptr) log_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

/// Self time per span name, summed over all spans of that name: each
/// span's duration minus the part of its interval that its direct
/// children cover (overlapping children are counted once).
std::map<std::string, double> self_seconds(
    const std::vector<SpanRecord>& spans);

}  // namespace faultlab::perfbench
