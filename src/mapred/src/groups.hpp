// Reducer-side global grouping shared by JobRunner's hash-grouped reduce
// and JobChain's reducers (DESIGN.md §8, §16). Private to mpid_mapred.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "mpid/core/mpid.hpp"
#include "mpid/shuffle/buffer.hpp"

namespace mpid::mapred::detail {

/// Safety cap on task re-executions. Injected crashes self-bound through
/// FaultPlan::max_injected_attempts; this guards against a plan scripted
/// to kill every attempt.
constexpr int kMaxTaskAttempts = 16;

/// One reducer rank's shuffle, grouped by key. MPI-D streams per-mapper
/// segments, so a key arrives in many of them; collect() folds them into
/// one value list per key, in arrival order, inside the shuffle's flat
/// combine table — shuffle::MapOutputBuffer with no combiner and no
/// budget, the same buffer MiniHadoop's reducers group in. Values are
/// appended straight from the delivery frame's views, so no pair is
/// copied into a std::string before reduce time.
class ShuffleGroups {
 public:
  explicit ShuffleGroups(const shuffle::ShuffleOptions& options)
      : buffer_(options, nullptr, &counters_) {}

  /// Drains the rank's whole shuffle (one round of it in a chain). An
  /// injected reducer crash discards the partial groups and re-pulls the
  /// retained mapper lanes — the one crash-retry loop of every MPI-D
  /// hash-grouped reducer.
  void collect(core::MpiD& mpid);

  /// `fn(std::string_view key, std::vector<std::string>& values)` once
  /// per key: ascending keys when `sorted`, else first-arrival order.
  /// `values` is scratch the callee may mutate.
  template <typename Fn>
  void for_each(bool sorted, Fn&& fn) {
    buffer_.for_each_group(sorted, std::forward<Fn>(fn));
  }

 private:
  // The grouping buffer's spill/peak counters stay here, out of the
  // rank's Stats: the dataflow counters the parity suites assert must not
  // depend on how a reducer groups.
  shuffle::ShuffleCounters counters_;
  shuffle::MapOutputBuffer buffer_;
};

}  // namespace mpid::mapred::detail
