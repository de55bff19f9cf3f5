// campaign_bench: one measured repetition of a benchmark workload.
//
//   campaign_bench --workload <name> --seed <n> [--threads <n>] [--trace]
//                  [--replay] [--out-dir <dir>]
//   campaign_bench --workload <name> --seed <n> --setup-only <reps>
//
// Compiles the six mini apps, runs the workload's grid through one
// CampaignScheduler::run(), checks the golden runs (and, with --replay, a
// sample of trials against plain inject()), and prints one JSON object on
// stdout. perfbench/run.py drives repetitions and aggregates them.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "fault/report.h"
#include "grid.h"
#include "layers.h"
#include "obs/events.h"
#include "obs/propagation.h"
#include "replay.h"
#include "spans.h"

namespace fl = faultlab;
namespace pb = faultlab::perfbench;

namespace {

// Timings from an ASan/TSan build say nothing about the release build.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
constexpr bool kSanitized =
    __has_feature(address_sanitizer) || __has_feature(thread_sanitizer);
#else
constexpr bool kSanitized = false;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::size_t threads = 4;
  bool trace = false;
  bool replay = false;
  std::size_t setup_only = 0;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "campaign_bench: %s\nusage: campaign_bench --workload <name> "
               "--seed <n> [--threads <n>] [--trace] [--replay] "
               "[--setup-only <reps>] [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage("expected a non-negative integer");
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = parse_u64(value());
    else if (flag == "--threads") a.threads = parse_u64(value());
    else if (flag == "--trace") a.trace = true;
    else if (flag == "--replay") a.replay = true;
    else if (flag == "--setup-only") a.setup_only = parse_u64(value());
    else if (flag == "--out-dir") a.out_dir = value();
    else usage("unknown flag");
  }
  if (a.threads == 0) usage("--threads must be positive");
  return a;
}

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t fnv1a(const std::string& data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Digest of every trial's deterministic fields, in draw order.
std::string trials_digest(const std::vector<fl::fault::CampaignResult>& rs) {
  std::string bytes;
  for (const auto& r : rs)
    for (const fl::fault::TrialRecord& t : r.trials) {
      bytes += std::to_string(static_cast<int>(t.outcome)) + ',' +
               std::to_string(static_cast<int>(t.trap)) + ',' +
               std::to_string(t.dynamic_target) + ',' + std::to_string(t.bit) +
               ',' + std::to_string(t.static_site) + ',' +
               std::to_string(t.inject_instruction) + ',' +
               std::to_string(t.total_instructions) + '\n';
    }
  return hex(fnv1a(bytes));
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<pb::Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ',';
    out += json_string(metrics[i].name) + ":{\"value\":" +
           json_number(metrics[i].value) +
           ",\"unit\":" + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

struct FileStats {
  double bytes = 0.0;
  double lines = 0.0;
};

FileStats file_stats(const std::string& path) {
  FileStats s;
  std::ifstream in(path, std::ios::binary);
  if (!in) return s;
  for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
    s.bytes += 1.0;
    if (*it == '\n') s.lines += 1.0;
  }
  return s;
}

struct Golden {
  bool ok = true;
  std::string detail;
  double ir_s = 0.0;
  double asm_s = 0.0;
  double ir_instrs = 0.0;
  double asm_instrs = 0.0;
};

/// Golden check: each app's unhooked run_ir() and run_asm() must both
/// finish without a trap or timeout and print the same output.
Golden golden_check(const std::vector<pb::App>& apps, pb::SpanLog* spans) {
  Golden g;
  for (const pb::App& app : apps) {
    auto t0 = std::chrono::steady_clock::now();
    fl::vm::RunResult ir;
    {
      pb::Span span(spans, "vm.golden");
      ir = app.program.run_ir();
    }
    g.ir_s += since(t0);
    t0 = std::chrono::steady_clock::now();
    fl::x86::SimResult sim;
    {
      pb::Span span(spans, "x86.golden");
      sim = app.program.run_asm();
    }
    g.asm_s += since(t0);
    g.ir_instrs += static_cast<double>(ir.dynamic_instructions);
    g.asm_instrs += static_cast<double>(sim.dynamic_instructions);
    std::string why;
    if (!ir.completed()) why = "run_ir trapped or timed out";
    else if (!sim.completed()) why = "run_asm trapped or timed out";
    else if (ir.output != sim.output) why = "run_ir and run_asm outputs differ";
    if (!why.empty() && g.ok) {
      g.ok = false;
      g.detail = app.name + ": " + why;
    }
  }
  return g;
}

/// Calibration kernel: the median of five unhooked golden run_ir() calls
/// of the first app. Fixed work, so it tells machines apart.
double calibration_seconds(const pb::App& app) {
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)app.program.run_ir();
    samples.push_back(since(t0));
  }
  std::sort(samples.begin(), samples.end());
  return samples[2];
}

/// profile_all() on fresh engines, summed per tool over the six apps.
void time_profiling(const std::vector<pb::App>& apps,
                    pb::SpanLog* spans, double seconds[2]) {
  for (const pb::App& app : apps)
    for (int tool = 0; tool < 2; ++tool) {
      auto engine = pb::make_engine(app, tool, fl::fault::Model{},
                                    fl::fault::CheckpointPolicy{});
      const auto t0 = std::chrono::steady_clock::now();
      {
        pb::Span span(spans, "fault.profile_all");
        engine->profile_all();
      }
      seconds[tool] += since(t0);
    }
}

int run_setup_only(const Args& args, const pb::Workload& w,
                   const pb::ObsFiles* obs) {
  std::string samples;
  for (std::size_t i = 0; i < args.setup_only; ++i) {
    const pb::GridRun run =
        pb::run_grid(w, args.seed, args.threads, 0, obs, nullptr);
    if (!run.error.empty()) {
      std::fprintf(stderr, "campaign_bench: set-up failed: %s\n",
                   run.error.c_str());
      return 1;
    }
    if (i != 0) samples += ',';
    samples += json_number(pb::setup_seconds(run));
  }
  std::printf("{\"setup_samples\":[%s]}\n", samples.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const pb::Workload* workload = pb::find_workload(args.workload);
  if (workload == nullptr) usage("unknown workload");
  if (kSanitized) {
    std::fprintf(stderr,
                 "campaign_bench: refusing to report timings from a "
                 "sanitizer build\n");
    return 3;
  }
  const pb::Workload& w = *workload;

  const std::string tag = w.name + "-" + std::to_string(args.seed) + "-" +
                          std::to_string(static_cast<long>(getpid()));
  pb::ObsFiles obs_files{args.out_dir + "/events-" + tag + ".jsonl",
                         args.out_dir + "/status-" + tag + ".json"};
  // Set-up-only runs switch observability on too: propagation tracing
  // makes every engine capture a golden journal, which is set-up work.
  if (w.observed) {
    fl::obs::set_prop_enabled(true);
    if (!fl::obs::EventLog::global().open(obs_files.events)) return 1;
  }
  if (args.setup_only != 0) {
    const int rc =
        run_setup_only(args, w, w.observed ? &obs_files : nullptr);
    if (w.observed) {
      fl::obs::EventLog::global().close();
      std::remove(obs_files.events.c_str());
      std::remove(obs_files.status.c_str());
    }
    return rc;
  }

  pb::SpanLog span_log(tag);
  pb::SpanLog* spans = args.trace ? &span_log : nullptr;

  std::uint32_t root = spans != nullptr ? spans->open("bench.rep") : 0;
  pb::GridRun run = pb::run_grid(w, args.seed, args.threads,
                                 w.trials_per_cell,
                                 w.observed ? &obs_files : nullptr, spans);
  const double rss_mb = peak_rss_mb();

  FileStats events, status;
  if (w.observed) {
    fl::obs::EventLog::global().close();
    events = file_stats(obs_files.events);
    status = file_stats(obs_files.status);
    std::remove(obs_files.events.c_str());
    std::remove(obs_files.status.c_str());
  }

  fl::fault::ResultSet results;
  for (const fl::fault::CampaignResult& r : run.results) results.add(r);
  const std::string results_digest =
      hex(fnv1a(fl::fault::results_csv(results).to_string()));

  const Golden golden = golden_check(run.apps, spans);
  const double calibration = calibration_seconds(run.apps.front());

  std::string replay_json = "null";
  if (args.replay && run.error.empty()) {
    pb::Span span(spans, "check.replay");
    const pb::ReplayReport rep =
        pb::replay_check(run.apps, fl::fault::Model{}, run.results,
                         run.cell_seeds, w.replay_per_cell, args.threads);
    replay_json = "{\"checked\":" + std::to_string(rep.checked) +
                  ",\"mismatched\":" + std::to_string(rep.mismatched) +
                  ",\"first_mismatch\":" + json_string(rep.first_mismatch) +
                  "}";
  }

  // The record-derived counters are cheap, so every repetition reports
  // them; the timed extras below need the traced run's spans.
  std::vector<pb::Metric> layers = pb::layer_metrics(run);
  if (spans != nullptr) {
    double profile_s[2] = {0.0, 0.0};
    time_profiling(run.apps, spans, profile_s);
    spans->close(root);

    auto add = [&layers](std::string name, double v, std::string unit) {
      layers.push_back({std::move(name), v, std::move(unit)});
    };
    add("driver.compile_s", run.compile_s, "s");
    add("vm.golden_s", golden.ir_s, "s");
    add("vm.golden_mips", pb::ratio(golden.ir_instrs / 1e6, golden.ir_s),
        "Minstr/s");
    add("x86.golden_s", golden.asm_s, "s");
    add("x86.golden_mips", pb::ratio(golden.asm_instrs / 1e6, golden.asm_s),
        "Minstr/s");
    add("calib.golden_ir_s", calibration, "s");
    add("fault.profile_s.llfi", profile_s[0], "s");
    add("fault.profile_s.pinfi", profile_s[1], "s");
    add("obs.events_written", events.lines, "count");
    add("obs.event_bytes", events.bytes, "bytes");
    add("obs.status_bytes", status.bytes, "bytes");
    const std::map<std::string, double> self = pb::self_seconds(spans->spans());
    for (const char* name :
         {"bench.rep", "driver.compile", "fault.engines", "sched.run",
          "vm.golden", "x86.golden", "fault.profile_all", "check.replay"}) {
      const auto it = self.find(name);
      add(std::string("span.") + name + ".self_s",
          it != self.end() ? it->second : 0.0, "s");
    }
    const std::string spans_path = args.out_dir + "/spans-" + w.name + "-" +
                                   std::to_string(args.seed) + ".json";
    if (!spans->write_json(spans_path))
      std::fprintf(stderr, "campaign_bench: cannot write %s\n",
                   spans_path.c_str());
  }

  std::vector<pb::Metric> e2e = pb::end_to_end_metrics(run);
  e2e.push_back({"peak_rss_mb", rss_mb, "MB"});

  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"threads\":%zu,\"build_type\":%s,"
      "\"scheduled\":%zu,\"completed\":%zu,\"error\":%s,"
      "\"results_digest\":\"%s\",\"trials_digest\":\"%s\","
      "\"golden_ok\":%s,\"golden_detail\":%s,\"replay\":%s,"
      "\"calibration_s\":%s,\"end_to_end\":%s,\"layers\":%s}\n",
      json_string(w.name).c_str(), static_cast<unsigned long long>(args.seed),
      run.manifest.threads, json_string(PERFBENCH_BUILD_TYPE).c_str(),
      run.scheduled,
      pb::completed_trials(run), json_string(run.error).c_str(),
      results_digest.c_str(), trials_digest(run.results).c_str(),
      golden.ok ? "true" : "false", json_string(golden.detail).c_str(),
      replay_json.c_str(), json_number(calibration).c_str(),
      json_metrics(e2e).c_str(), json_metrics(layers).c_str());
  return 0;
}
