// jobbench: times whole jobs on the in-process runtimes.
//
//   jobbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-file <path>]
//
// One process builds one workload's inputs from the seed (the set-up),
// times the serial reference once, runs one warm-up job, then runs jobs
// for --seconds. Every job's output is checked. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}; the metrics are the end-to-end ones untraced (--trace 0)
// and the per-layer ones traced (--trace 1). See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "jobs.hpp"
#include "probe.hpp"

namespace {

using namespace jobbench;

// Jobs timed per run at the least, however long they take.
constexpr int kMinJobs = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_file;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "jobbench: %s\nusage: jobbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-file <path>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-file") {
        args.trace_file = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  return args;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  auto workload = make_workload(args.workload);
  if (!workload) usage(("unknown workload " + args.workload).c_str());

  try {
    workload->setup(args.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jobbench: set-up failed: %s\n", e.what());
    return 1;
  }
  // The probe's clock starts at static initialisation, before main.
  const double setup_s = static_cast<double>(now_ns()) * 1e-9;
  const double serial_s = workload->serial_reference();

  int attempted = 0, failed = 0;
  bool correct = true;
  const auto run_one = [&](bool traced) -> std::optional<JobOutcome> {
    ++attempted;
    try {
      auto out = workload->run(traced, /*corrupt=*/false);
      if (out.failure.empty()) return out;
      std::fprintf(stderr, "jobbench: wrong output: %s\n", out.failure.c_str());
      correct = false;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "jobbench: job threw: %s\n", e.what());
    }
    ++failed;
    return std::nullopt;
  };

  const auto first = run_one(false);
  std::vector<double> job_times, traced_times, shuffle;
  std::vector<Metrics> layers;
  std::string events;
  const auto start = now_ns();
  const auto elapsed = [&] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };
  for (int n = 0; n < kMinJobs || elapsed() < args.seconds; ++n) {
    if (const auto out = run_one(false)) {
      job_times.push_back(out->seconds);
      shuffle.push_back(out->shuffle_mb);
    }
    if (!args.trace) continue;
    // Traced runs alternate traced and untraced jobs; the difference of
    // their medians is the tracing overhead.
    if (const auto out = run_one(true)) {
      traced_times.push_back(out->seconds);
      layers.push_back(out->layers);
      probe().write_spans(events, attempted);
    }
  }

  const double job_s = median(job_times);
  std::fprintf(stderr, "job times (s):");
  for (const double t : job_times) std::fprintf(stderr, " %.4f", t);
  std::fprintf(stderr, "\n");
  const auto [fastest, slowest] =
      std::minmax_element(job_times.begin(), job_times.end());
  std::printf("workload %s seed %llu: %zu timed jobs, median %.4f s "
              "(%.4f-%.4f), serial reference %.4f s, %.2fx serial, "
              "first job %.4f s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), job_times.size(),
              job_s, job_times.empty() ? 0.0 : *fastest,
              job_times.empty() ? 0.0 : *slowest, serial_s,
              serial_s > 0 ? job_s / serial_s : 0.0,
              first ? first->seconds : 0.0);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"job_s", job_s, "s"},
               {"setup_s", setup_s, "s"},
               {"peak_rss_mb", peak_rss_mib(), "MiB"},
               {"shuffle_mb", median(shuffle), "MB"}};
  } else {
    const double overhead = median(traced_times) - job_s;
    std::printf("tracing overhead: traced job %.4f s, untraced %.4f s "
                "(%+.1f%%)\n",
                median(traced_times), job_s,
                job_s > 0 ? 100.0 * overhead / job_s : 0.0);
    // A layer a workload does not use reads 0.
    for (const auto& [name, unit] : layer_metrics()) {
      std::vector<double> values;
      for (const auto& l : layers) {
        const auto it = l.find(name);
        values.push_back(it == l.end() ? 0.0 : it->second);
      }
      metrics.push_back({name,
                         std::string_view(name) == "trace.overhead_s"
                             ? overhead
                             : median(values),
                         unit});
    }
    if (!args.trace_file.empty()) {
      std::ofstream file(args.trace_file);
      file << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
           << events << "\n]}\n";
      if (!file) {
        std::fprintf(stderr, "jobbench: cannot write %s\n",
                     args.trace_file.c_str());
        return 1;
      }
      std::printf("trace: %s\n", args.trace_file.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
