// The benchmark's workloads: one job each, driven through the public job
// APIs (mapred::JobRunner::run, mapred::JobChain::run,
// minihadoop::MiniCluster::run) and checked against a serial reference.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "probe.hpp"

namespace jobbench {

/// What one job call did.
struct JobOutcome {
  double seconds = 0;   // wall time of the job call alone
  std::string failure;  // empty when the output passed every check
  double shuffle_mb = 0;  // payload bytes that crossed the shuffle / 1e6
  /// Program counters read from the returned report, plus the probe's
  /// phase and call metrics when the job ran traced.
  Metrics layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs from `seed` and stages them: the set-up setup_s
  /// times, up to the point where the first job can start.
  virtual void setup(std::uint64_t seed) = 0;
  /// Runs the single-thread serial reference once and returns its wall
  /// time; keeps the results the output checks compare against.
  virtual double serial_reference() = 0;
  /// Runs one job (with the traced or untraced job functions) and checks
  /// its output. Throws when the job throws. `corrupt` damages the output
  /// before the checks see it, in the one way the self-test documents for
  /// the workload, to show that its check fails.
  virtual JobOutcome run(bool traced, bool corrupt) = 0;
};

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name);
std::vector<std::string> workload_names();

/// Every per-layer metric, in output order.
struct LayerMetric {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetric>& layer_metrics();

}  // namespace jobbench
