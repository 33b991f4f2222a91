// Shuffle compression is a wire-format change only: with the codec off,
// auto or on, every execution path must produce byte-identical job
// output. This file is the differential proof for both runtimes —
//   * MPI-D via the mapred JobRunner: hash grouping, sorted reduce,
//     streaming merge reduce (shuffle::SegmentMerger over decoded frames),
//     pipelined prefetch, and resilient_shuffle with injected crashes
//     re-pulling compressed lanes;
//   * MiniHadoop: DFS part files compared byte for byte across off/auto/
//     on, with and without tasktracker faults.
// The compression counters are asserted alongside, so "it compressed"
// is part of the contract, not an assumption.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mpid/common/prng.hpp"
#include "mpid/dfs/minidfs.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/mapred/job.hpp"
#include "mpid/minihadoop/minihadoop.hpp"
#include "mpid/workloads/text.hpp"

namespace mpid {
namespace {

mapred::JobDef wordcount_job(bool with_combiner) {
  mapred::JobDef job;
  job.map = [](std::string_view line, mapred::MapContext& ctx) {
    std::size_t start = 0;
    while (start < line.size()) {
      auto end = line.find(' ', start);
      if (end == std::string_view::npos) end = line.size();
      if (end > start) ctx.emit(line.substr(start, end - start), "1");
      start = end + 1;
    }
  };
  job.reduce = [](std::string_view key, std::span<const std::string> values,
                  mapred::ReduceContext& ctx) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    ctx.emit(key, std::to_string(total));
  };
  if (with_combiner) {
    job.combiner = [](std::string_view, std::vector<std::string>&& values) {
      std::uint64_t total = 0;
      for (const auto& v : values) total += std::stoull(v);
      return std::vector<std::string>{std::to_string(total)};
    };
  }
  return job;
}

class CompressionDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, CompressionDifferentialTest,
                         ::testing::Values(501, 502, 503));

TEST_P(CompressionDifferentialTest, MpidOutputsAreByteIdentical) {
  common::Xoshiro256StarStar rng(GetParam());
  workloads::TextSpec spec;
  spec.vocabulary = rng.next_in(200, 3000);
  const auto text =
      workloads::generate_text(spec, 48 * 1024, GetParam());
  const int mappers = static_cast<int>(rng.next_in(2, 4));
  const int reducers = static_cast<int>(rng.next_in(1, 3));
  mapred::JobRunner runner(mappers, reducers);

  for (const bool combiner : {false, true}) {
    for (const bool streaming : {false, true}) {
      auto job = wordcount_job(combiner);
      job.streaming_merge_reduce = streaming;
      // Small frames so every run ships several per partition.
      job.tuning.partition_frame_bytes = 4 * 1024;
      const auto baseline = runner.run_on_text(job, text);

      for (const auto mode : {core::ShuffleCompression::kAuto,
                              core::ShuffleCompression::kOn}) {
        job.tuning.shuffle_compression = mode;
        job.tuning.compress_min_frame_bytes = 256;
        const auto compressed = runner.run_on_text(job, text);
        EXPECT_EQ(baseline.outputs, compressed.outputs)
            << "combiner=" << combiner << " streaming=" << streaming
            << " mode=" << static_cast<int>(mode);
        // Zipf text is compressible: the wire must actually have shrunk.
        EXPECT_GT(compressed.report.totals.shuffle_bytes_raw, 0u);
        EXPECT_LT(compressed.report.totals.shuffle_bytes_wire,
                  compressed.report.totals.shuffle_bytes_raw);
      }
      job.tuning.shuffle_compression = core::ShuffleCompression::kOff;
    }
  }
}

TEST_P(CompressionDifferentialTest, ResilientShuffleWithFaultsAndCodec) {
  const auto text = workloads::generate_text({}, 64 * 1024, GetParam());
  constexpr int kMaps = 4;
  constexpr int kReduces = 2;
  mapred::JobRunner runner(kMaps, kReduces);

  auto job = wordcount_job(true);
  const auto baseline = runner.run_on_text(job, text);

  // One mapper and one reducer crash mid-shuffle; the restarted ranks
  // re-pull compressed lanes and must recover the exact output.
  fault::FaultPlan plan;
  plan.seed = GetParam();
  plan.scripted_crashes.push_back({fault::TaskKind::kMap, 1, 0, 3});
  plan.scripted_crashes.push_back({fault::TaskKind::kReduce, 0, 0, 2});
  auto injector = std::make_shared<fault::FaultInjector>(plan);

  job.tuning.resilient_shuffle = true;
  job.tuning.fault_injector = injector;
  job.tuning.partition_frame_bytes = 4 * 1024;
  job.tuning.shuffle_compression = core::ShuffleCompression::kOn;
  const auto recovered = runner.run_on_text(job, text);

  EXPECT_EQ(baseline.outputs, recovered.outputs);
  EXPECT_EQ(recovered.report.totals.task_restarts, 2u);
  EXPECT_EQ(injector->log().count(fault::Kind::kTaskCrash), 2u);
  EXPECT_LT(recovered.report.totals.shuffle_bytes_wire,
            recovered.report.totals.shuffle_bytes_raw);
}

TEST_P(CompressionDifferentialTest, MiniHadoopPartFilesAreByteIdentical) {
  const auto text = workloads::generate_text({}, 48 * 1024, GetParam());
  dfs::MiniDfs fs(2);
  fs.create("/in", text);
  minihadoop::MiniCluster cluster(fs, 2);

  minihadoop::MiniJobConfig job;
  const auto def = wordcount_job(true);
  job.map = def.map;
  job.reduce = def.reduce;
  job.combiner = def.combiner;
  job.input_path = "/in";
  job.map_tasks = 4;
  job.reduce_tasks = 2;

  job.output_prefix = "/off";
  const auto off = cluster.run(job);

  struct ModeCase {
    core::ShuffleCompression mode;
    const char* prefix;
  };
  for (const auto& mode_case :
       {ModeCase{core::ShuffleCompression::kAuto, "/auto"},
        ModeCase{core::ShuffleCompression::kOn, "/on"}}) {
    job.shuffle_compression = mode_case.mode;
    job.compress_min_segment_bytes = 128;
    job.output_prefix = mode_case.prefix;
    const auto on = cluster.run(job);

    ASSERT_EQ(off.output_files.size(), on.output_files.size());
    for (std::size_t i = 0; i < off.output_files.size(); ++i) {
      EXPECT_EQ(fs.read(off.output_files[i]), fs.read(on.output_files[i]));
    }
    EXPECT_GT(on.shuffle_bytes_raw, 0u);
    EXPECT_LT(on.shuffle_bytes_wire, on.shuffle_bytes_raw);
    // The servlet served fewer body bytes than the raw segments held.
    EXPECT_EQ(on.shuffled_bytes, on.shuffle_bytes_wire);
  }
}

TEST_P(CompressionDifferentialTest, MiniHadoopFaultsWithCodec) {
  const auto text = workloads::generate_text({}, 64 * 1024, GetParam());
  dfs::MiniDfs fs(2);
  fs.create("/in", text);
  minihadoop::MiniCluster cluster(fs, 2);

  minihadoop::MiniJobConfig job;
  const auto def = wordcount_job(true);
  job.map = def.map;
  job.reduce = def.reduce;
  job.combiner = def.combiner;
  job.input_path = "/in";
  job.map_tasks = 4;
  job.reduce_tasks = 2;
  job.shuffle_compression = core::ShuffleCompression::kOn;
  job.compress_min_segment_bytes = 128;

  job.output_prefix = "/clean";
  const auto clean = cluster.run(job);

  fault::FaultPlan plan;
  plan.seed = GetParam();
  plan.scripted_crashes.push_back({fault::TaskKind::kMap, 1, 0, 3});
  plan.scripted_crashes.push_back({fault::TaskKind::kReduce, 0, 0, 2});
  auto injector = std::make_shared<fault::FaultInjector>(plan);
  job.fault_injector = injector;
  job.output_prefix = "/faulted";
  const auto faulted = cluster.run(job);

  ASSERT_EQ(clean.output_files.size(), faulted.output_files.size());
  for (std::size_t i = 0; i < clean.output_files.size(); ++i) {
    EXPECT_EQ(fs.read(clean.output_files[i]),
              fs.read(faulted.output_files[i]));
  }
  EXPECT_EQ(faulted.map_reexecutions, 1u);
  EXPECT_EQ(faulted.reduce_reexecutions, 1u);
  // Commit-gated counters: only winning attempts fold in, so the
  // faulted run's raw byte count matches the clean run's exactly.
  EXPECT_EQ(clean.shuffle_bytes_raw, faulted.shuffle_bytes_raw);
}

}  // namespace
}  // namespace mpid
