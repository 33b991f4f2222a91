#include "checks.hpp"

#include <set>

namespace jobbench {

std::string check_word_counts(const KvVec& outputs, const WordCounts& serial,
                              std::int64_t pairs_sent) {
  if (outputs.size() != serial.counts.size()) {
    return "wordcount: " + std::to_string(outputs.size()) +
           " distinct words, serial count has " +
           std::to_string(serial.counts.size());
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const auto& [word, count] = outputs[i];
    const auto& [ref_word, ref_count] = serial.counts[i];
    if (word != ref_word || count != std::to_string(ref_count)) {
      return "wordcount: (" + word + ", " + count + ") where serial has (" +
             ref_word + ", " + std::to_string(ref_count) + ")";
    }
    total += ref_count;
  }
  if (total != serial.tokens) {
    return "wordcount: counts add up to " + std::to_string(total) + ", not " +
           std::to_string(serial.tokens) + " tokens";
  }
  if (pairs_sent >= 0 && static_cast<std::uint64_t>(pairs_sent) != total) {
    return "wordcount: the program sent " + std::to_string(pairs_sent) +
           " pairs for " + std::to_string(total) + " tokens";
  }
  return {};
}

RecordDigest digest_records(std::string_view records) {
  RecordDigest d;
  for (std::size_t at = 0; at + kRecordBytes <= records.size();
       at += kRecordBytes) {
    d.sum += record_hash(records.substr(at, kKeyBytes),
                         records.substr(at + kKeyBytes,
                                        kRecordBytes - kKeyBytes));
    ++d.count;
  }
  return d;
}

std::string check_record_multiset(const KvVec& outputs,
                                  const RecordDigest& input) {
  RecordDigest out;
  for (const auto& [key, payload] : outputs) {
    out.sum += record_hash(key, payload);
    ++out.count;
  }
  if (out.count != input.count) {
    return "sort: " + std::to_string(out.count) + " records out, " +
           std::to_string(input.count) + " in";
  }
  if (out.sum != input.sum) return "sort: output digest differs from input";
  return {};
}

ReducerOrderCheck::ReducerOrderCheck(std::uint32_t reducers)
    : reducers_(reducers), lanes_(reducers) {}

void ReducerOrderCheck::observe(std::uint32_t reducer, std::string_view key) {
  std::string problem;
  if (reducer >= reducers_) {
    problem = "sort: reducer index " + std::to_string(reducer) +
              " out of range";
  } else {
    auto& lane = lanes_[reducer];
    if (key_range(key, reducers_) != reducer) {
      problem = "sort: reducer " + std::to_string(reducer) +
                " received key '" + std::string(key) + "' of another range";
    } else if (lane.any && key <= lane.last) {
      problem = "sort: reducer " + std::to_string(reducer) + " received '" +
                std::string(key) + "' after '" + lane.last + "'";
    }
    lane.last.assign(key);
    lane.any = true;
  }
  if (!problem.empty()) {
    std::lock_guard lock(mu_);
    if (first_violation_.empty()) first_violation_ = std::move(problem);
  }
}

std::string ReducerOrderCheck::result() const {
  std::lock_guard lock(mu_);
  return first_violation_;
}

std::string check_labels(const KvVec& outputs, const KvVec& serial,
                         int components) {
  if (outputs.size() != serial.size()) {
    return "cc: " + std::to_string(outputs.size()) + " labelled vertices, " +
           "union-find has " + std::to_string(serial.size());
  }
  std::set<std::string_view> labels;
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    if (outputs[i] != serial[i]) {
      return "cc: vertex " + outputs[i].first + " labelled " +
             outputs[i].second + ", union-find says " + serial[i].second;
    }
    labels.insert(outputs[i].second);
  }
  if (static_cast<int>(labels.size()) != components) {
    return "cc: " + std::to_string(labels.size()) + " distinct labels for " +
           std::to_string(components) + " components";
  }
  return {};
}

}  // namespace jobbench
