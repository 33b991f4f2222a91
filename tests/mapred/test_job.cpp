// JobRunner tests: WordCount semantics, grouping, sorted reduce, input
// splitting, and agreement between the MPI-D path and a serial reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "mpid/common/prng.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/mapred/job.hpp"

namespace mpid::mapred {
namespace {

JobDef wordcount_job() {
  JobDef job;
  job.map = [](std::string_view line, MapContext& ctx) {
    std::size_t start = 0;
    while (start < line.size()) {
      const auto end = line.find(' ', start);
      const auto word = line.substr(
          start, end == std::string_view::npos ? line.size() - start
                                               : end - start);
      if (!word.empty()) ctx.emit(word, "1");
      if (end == std::string_view::npos) break;
      start = end + 1;
    }
  };
  job.reduce = [](std::string_view key, std::span<const std::string> values,
                  ReduceContext& ctx) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    ctx.emit(key, std::to_string(total));
  };
  job.combiner = [](std::string_view, std::vector<std::string>&& values) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    return std::vector<std::string>{std::to_string(total)};
  };
  return job;
}

TEST(JobRunner, ValidatesArguments) {
  EXPECT_THROW(JobRunner(0, 1), std::invalid_argument);
  EXPECT_THROW(JobRunner(1, 0), std::invalid_argument);
  JobRunner runner(2, 1);
  JobDef empty;
  EXPECT_THROW(runner.run(empty, {}), std::invalid_argument);
  JobDef job = wordcount_job();
  EXPECT_THROW(runner.run(job, std::vector<RecordSource>(1)),
               std::invalid_argument);  // wrong input count
}

TEST(JobRunner, WordCountOnText) {
  JobRunner runner(3, 2);
  const std::string text =
      "the quick brown fox\n"
      "the lazy dog\n"
      "the quick dog\n"
      "fox and dog\n";
  const auto result = runner.run_on_text(wordcount_job(), text);

  std::map<std::string, std::string> counts(result.outputs.begin(),
                                            result.outputs.end());
  EXPECT_EQ(counts.at("the"), "3");
  EXPECT_EQ(counts.at("quick"), "2");
  EXPECT_EQ(counts.at("dog"), "3");
  EXPECT_EQ(counts.at("fox"), "2");
  EXPECT_EQ(counts.at("and"), "1");
  EXPECT_EQ(counts.at("brown"), "1");
  EXPECT_EQ(counts.at("lazy"), "1");
  EXPECT_EQ(counts.size(), 7u);
  EXPECT_EQ(result.report.mappers_completed, 3);
  EXPECT_EQ(result.report.reducers_completed, 2);
}

TEST(JobRunner, OutputsSortedByKey) {
  JobRunner runner(2, 2);
  const auto result =
      runner.run_on_text(wordcount_job(), "b c a\nc b a\na a\n");
  ASSERT_EQ(result.outputs.size(), 3u);
  EXPECT_EQ(result.outputs[0].first, "a");
  EXPECT_EQ(result.outputs[1].first, "b");
  EXPECT_EQ(result.outputs[2].first, "c");
}

TEST(JobRunner, GroupingFoldsAcrossMappersAndSpills) {
  // With a tiny spill threshold and no combiner, the same key reaches the
  // reducer in many segments; reduce must still see one merged group.
  JobDef job = wordcount_job();
  job.combiner = nullptr;
  job.tuning.spill_threshold_bytes = 32;
  job.tuning.partition_frame_bytes = 32;
  int group_sizes_seen = 0;
  job.reduce = [&](std::string_view key, std::span<const std::string> values,
                   ReduceContext& ctx) {
    if (key == "x") {
      EXPECT_EQ(values.size(), 60u);  // 3 mappers x 20 each, one group
      ++group_sizes_seen;
    }
    ctx.emit(key, std::to_string(values.size()));
  };
  std::vector<RecordSource> inputs;
  for (int m = 0; m < 3; ++m) {
    std::vector<std::string> records(20, "x");
    inputs.push_back(vector_source(std::move(records)));
  }
  const auto result = JobRunner(3, 1).run(job, std::move(inputs));
  EXPECT_EQ(group_sizes_seen, 1);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0], (std::pair<std::string, std::string>{"x", "60"}));
}

TEST(JobRunner, MatchesSerialReferenceOnRandomCorpus) {
  // Generate a random corpus, count words serially, and require the
  // distributed job to agree exactly for several cluster shapes.
  common::Xoshiro256StarStar rng(2024);
  std::ostringstream corpus;
  std::map<std::string, std::uint64_t> reference;
  for (int line = 0; line < 300; ++line) {
    const auto words = rng.next_in(0, 12);
    for (std::uint64_t w = 0; w < words; ++w) {
      std::string word = "w" + std::to_string(rng.next_below(50));
      ++reference[word];
      corpus << word << ' ';
    }
    corpus << '\n';
  }
  const std::string text = corpus.str();

  for (const auto& [mappers, reducers] :
       {std::pair{1, 1}, std::pair{4, 2}, std::pair{7, 3}}) {
    const auto result =
        JobRunner(mappers, reducers).run_on_text(wordcount_job(), text);
    std::map<std::string, std::uint64_t> got;
    for (const auto& [k, v] : result.outputs) got[k] = std::stoull(v);
    EXPECT_EQ(got, reference) << mappers << "x" << reducers;
  }
}

TEST(JobRunner, UnsortedReduceStillCorrect) {
  JobDef job = wordcount_job();
  job.sorted_reduce = false;
  const auto result = JobRunner(2, 2).run_on_text(job, "a b\nb c\n");
  std::map<std::string, std::string> counts(result.outputs.begin(),
                                            result.outputs.end());
  EXPECT_EQ(counts.at("b"), "2");
  EXPECT_EQ(counts.size(), 3u);
}

TEST(JobRunner, OutputsSortedWhenReduceEmitsValuesDescending) {
  // Each reduce emits its key's values in descending order, so no
  // reducer's output run is sorted by (key, value) as emitted; the job's
  // outputs must still be the sorted multiset, in every reduce mode.
  std::vector<std::string> records;
  std::vector<std::pair<std::string, std::string>> expected;
  for (int i = 0; i < 40; ++i) {
    const std::string key = "k" + std::to_string(i % 13);
    records.push_back(key + "/" + std::to_string(i));
    for (int v = 0; v < 3; ++v) {
      expected.emplace_back(key, std::to_string(i) + "." + std::to_string(v));
    }
  }
  std::sort(expected.begin(), expected.end());

  JobDef job;
  job.map = [](std::string_view record, MapContext& ctx) {
    const auto slash = record.find('/');
    ctx.emit(record.substr(0, slash), record.substr(slash + 1));
  };
  job.reduce = [](std::string_view key, std::span<const std::string> values,
                  ReduceContext& ctx) {
    std::vector<std::string> out;
    for (const auto& v : values) {
      for (int i = 0; i < 3; ++i) out.push_back(v + "." + std::to_string(i));
    }
    std::sort(out.rbegin(), out.rend());
    for (const auto& v : out) ctx.emit(key, v);
  };
  for (const bool sorted : {true, false}) {
    for (const bool streaming : {false, true}) {
      if (streaming && !sorted) continue;  // streaming implies sorted keys
      job.sorted_reduce = sorted;
      job.streaming_merge_reduce = streaming;
      std::vector<RecordSource> inputs;
      for (std::size_t m = 0; m < 3; ++m) {
        std::vector<std::string> split;
        for (std::size_t i = m; i < records.size(); i += 3) {
          split.push_back(records[i]);
        }
        inputs.push_back(vector_source(std::move(split)));
      }
      const auto result = JobRunner(3, 2).run(job, std::move(inputs));
      EXPECT_EQ(result.outputs, expected)
          << "sorted_reduce=" << sorted << " streaming=" << streaming;
    }
  }
}

// --- Reducer grouping contract ----------------------------------------------
//
// JobRunner's hash-grouped reducer (streaming_merge_reduce off) groups its
// shuffle in the flat combine table, or the legacy node buffer under
// flat_combine_table=false. Either way each key must reach reduce exactly
// once, ascending per reducer when sorted_reduce, with exactly the
// multiset of values its mappers emitted.

using Groups = std::map<std::string, std::vector<std::string>>;

/// 5 mapper splits of "key/value" records over 60 keys, plus the
/// std::map reference of every value sent per key.
std::vector<std::vector<std::string>> grouping_splits(Groups& reference) {
  common::Xoshiro256StarStar rng(91);
  std::vector<std::vector<std::string>> splits(5);
  for (int i = 0; i < 900; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(60));
    const std::string value = std::to_string(rng.next_below(100000));
    reference[key].push_back(value);
    splits[rng.next_below(splits.size())].push_back(key + "/" + value);
  }
  return splits;
}

/// What reduce saw, by reducer, in call order.
struct GroupLog {
  std::mutex mu;
  std::map<int, std::vector<std::pair<std::string, std::vector<std::string>>>>
      calls;
};

JobDef logging_job(GroupLog& log, bool flat, bool sorted) {
  JobDef job;
  job.map = [](std::string_view record, MapContext& ctx) {
    const auto slash = record.find('/');
    ctx.emit(record.substr(0, slash), record.substr(slash + 1));
  };
  job.reduce = [&log](std::string_view key,
                      std::span<const std::string> values,
                      ReduceContext& ctx) {
    std::lock_guard lock(log.mu);
    log.calls[ctx.reducer_index()].emplace_back(
        std::string(key), std::vector<std::string>(values.begin(),
                                                   values.end()));
    ctx.emit(key, std::to_string(values.size()));
  };
  job.sorted_reduce = sorted;
  job.tuning.flat_combine_table = flat;
  job.tuning.spill_threshold_bytes = 512;  // many segments per key
  return job;
}

JobResult run_splits(const JobDef& job,
                     const std::vector<std::vector<std::string>>& splits) {
  std::vector<RecordSource> inputs;
  for (const auto& split : splits) inputs.push_back(vector_source(split));
  return JobRunner(static_cast<int>(splits.size()), 3)
      .run(job, std::move(inputs));
}

void expect_grouping_contract(const GroupLog& log, const Groups& reference,
                              bool sorted, const std::string& label) {
  Groups seen;
  for (const auto& [reducer, calls] : log.calls) {
    for (std::size_t i = 1; sorted && i < calls.size(); ++i) {
      EXPECT_LT(calls[i - 1].first, calls[i].first)
          << label << " reducer " << reducer;
    }
    for (const auto& [key, values] : calls) {
      EXPECT_TRUE(seen.emplace(key, values).second)
          << label << " key " << key << " reduced twice";
    }
  }
  ASSERT_EQ(seen.size(), reference.size()) << label;
  for (const auto& [key, values] : reference) {
    auto got = seen[key];
    auto want = values;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << label << " key " << key;
  }
}

TEST(JobRunnerGrouping, KeysOnceWithEveryValueSentInEveryMode) {
  Groups reference;
  const auto splits = grouping_splits(reference);
  for (const bool flat : {true, false}) {
    for (const bool sorted : {true, false}) {
      GroupLog log;
      const auto result = run_splits(logging_job(log, flat, sorted), splits);
      const std::string label = "flat=" + std::to_string(flat) +
                                " sorted_reduce=" + std::to_string(sorted);
      expect_grouping_contract(log, reference, sorted, label);
      ASSERT_EQ(result.outputs.size(), reference.size()) << label;
      for (const auto& [key, count] : result.outputs) {
        EXPECT_EQ(count, std::to_string(reference.at(key).size())) << label;
      }
    }
  }
}

TEST(JobRunnerGrouping, ReducerCrashRepullsEveryValueOnce) {
  // The injected crash fires while the resilient shuffle collects its
  // lanes; the restarted reducer re-pulls every lane through the shared
  // retry loop, and its groups must still hold each value exactly once.
  Groups reference;
  const auto splits = grouping_splits(reference);
  for (const bool flat : {true, false}) {
    GroupLog log;
    fault::FaultPlan plan;
    plan.seed = 6;
    plan.scripted_crashes.push_back({fault::TaskKind::kReduce, 2, 0, 3});
    JobDef job = logging_job(log, flat, /*sorted=*/true);
    job.tuning.resilient_shuffle = true;
    job.tuning.fault_injector = std::make_shared<fault::FaultInjector>(plan);
    const auto result = run_splits(job, splits);
    EXPECT_EQ(result.report.totals.task_restarts, 1u) << "flat=" << flat;
    expect_grouping_contract(log, reference, /*sorted=*/true,
                             "crash flat=" + std::to_string(flat));
  }
}

TEST(LineReaderT, HandlesEdgeCases) {
  {
    LineReader r("a\nb\nc");
    EXPECT_EQ(*r.next(), "a");
    EXPECT_EQ(*r.next(), "b");
    EXPECT_EQ(*r.next(), "c");
    EXPECT_FALSE(r.next().has_value());
  }
  {
    LineReader r("");
    EXPECT_FALSE(r.next().has_value());
  }
  {
    LineReader r("\n\n");
    EXPECT_EQ(*r.next(), "");
    EXPECT_EQ(*r.next(), "");
    EXPECT_FALSE(r.next().has_value());
  }
  {
    LineReader r("only\n");
    EXPECT_EQ(*r.next(), "only");
    EXPECT_FALSE(r.next().has_value());
  }
}

TEST(SplitText, CoversAllBytesAtLineBoundaries) {
  const std::string text = "one\ntwo\nthree\nfour\nfive\nsix\nseven\n";
  for (int splits : {1, 2, 3, 5, 10}) {
    const auto chunks = split_text(text, splits);
    ASSERT_EQ(chunks.size(), static_cast<std::size_t>(splits));
    std::string rejoined;
    for (const auto c : chunks) {
      if (!c.empty()) {
        EXPECT_EQ(c.back(), '\n') << "chunk must end on line boundary";
      }
      rejoined.append(c);
    }
    EXPECT_EQ(rejoined, text) << splits;
  }
}

TEST(SplitText, TextWithoutTrailingNewline) {
  const auto chunks = split_text("alpha\nbeta", 2);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(std::string(chunks[0]) + std::string(chunks[1]), "alpha\nbeta");
}

TEST(RecordSources, VectorAndLineSourcesDrain) {
  auto vs = vector_source({"r1", "r2"});
  EXPECT_EQ(*vs(), "r1");
  EXPECT_EQ(*vs(), "r2");
  EXPECT_FALSE(vs().has_value());

  auto ls = line_source("l1\nl2\nl3");
  EXPECT_EQ(*ls(), "l1");
  EXPECT_EQ(*ls(), "l2");
  EXPECT_EQ(*ls(), "l3");
  EXPECT_FALSE(ls().has_value());
}

}  // namespace
}  // namespace mpid::mapred
