// Output checks of the job benchmark. Each compares a job's output with a
// computation made apart from the program (the serial references in
// inputs.hpp) or with a property of the method. A check returns an empty
// string when the output passes, or a one-line reason when it does not.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "inputs.hpp"

namespace jobbench {

/// WordCount: `outputs` (sorted by key) equal the serial counts, and the
/// counts add up to the token total. `pairs_sent`, when non-negative, is
/// the program's own count of emitted pairs, which must equal the tokens.
std::string check_word_counts(const KvVec& outputs, const WordCounts& serial,
                              std::int64_t pairs_sent = -1);

/// Sort: the output multiset equals the input's, by record count and by
/// the order-independent digest (sum of record_hash).
struct RecordDigest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
};
RecordDigest digest_records(std::string_view records);
std::string check_record_multiset(const KvVec& outputs,
                                  const RecordDigest& input);

/// Sort, inside the reduce function: each reducer must see strictly
/// increasing keys, all inside its own key_range. The job runner sorts
/// JobResult::outputs again, so only the reducer's own view proves the
/// merge order. Reducers of one job call observe() from their own threads.
class ReducerOrderCheck {
 public:
  explicit ReducerOrderCheck(std::uint32_t reducers);
  void observe(std::uint32_t reducer, std::string_view key);
  /// Empty when every observed key was in order and in range.
  std::string result() const;

 private:
  struct Lane {
    std::string last;
    bool any = false;
  };
  std::uint32_t reducers_;
  std::vector<Lane> lanes_;  // one per reducer; each written by one thread
  mutable std::mutex mu_;
  std::string first_violation_;  // guarded by mu_
};

/// CC: labels (sorted by vertex) equal the serial union-find labels, and
/// the number of distinct labels equals the components generated.
std::string check_labels(const KvVec& outputs, const KvVec& serial,
                         int components);

}  // namespace jobbench
