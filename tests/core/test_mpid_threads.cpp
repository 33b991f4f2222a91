// Hybrid process+threads execution through the real MPI-D library:
// run_map_parallel on the mapper ranks and the threaded reducer merge
// (recv_wire_frame + shuffle::SegmentMerger::prepare over the rank's worker
// pool). The contract under test is the paper-grade one — map_threads /
// reduce_threads are speed knobs, never semantics knobs: results and
// shuffle accounting match the sequential path exactly, for every thread
// count and compression mode. These tests run under the TSan gate.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "mpid/core/mpid.hpp"
#include "mpid/minimpi/world.hpp"
#include "mpid/shuffle/merger.hpp"

namespace mpid::core {
namespace {

using minimpi::Comm;
using minimpi::run_world;

Combiner sum_combiner() {
  return [](std::string_view, std::vector<std::string>&& values) {
    std::uint64_t total = 0;
    for (const auto& v : values) total += std::stoull(v);
    return std::vector<std::string>{std::to_string(total)};
  };
}

/// Deterministic per-mapper word stream, chunked for the parallel path.
std::vector<std::vector<std::string>> mapper_chunks(int mapper,
                                                    std::size_t chunks) {
  std::vector<std::vector<std::string>> out(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    for (int i = 0; i < 200; ++i) {
      const auto word = (mapper * 131 + static_cast<int>(c) * 31 + i * 7) % 53;
      out[c].push_back("word-" + std::to_string(word));
    }
  }
  return out;
}

struct JobOutput {
  std::map<std::string, std::uint64_t> counts;
  Stats totals;
};

/// WordCount over `cfg`: mappers use run_map_parallel when map_threads>1
/// (plain send otherwise), reducers use the threaded wire-frame collect +
/// prepare path when reduce_threads>1 (sequential merge otherwise).
JobOutput run_hybrid_wordcount(Config cfg) {
  cfg.combiner = sum_combiner();
  cfg.sort_keys = true;  // merger input must be key-sorted within frames
  constexpr std::size_t kChunks = 12;

  JobOutput out;
  std::mutex mu;
  run_world(cfg.world_size(), [&](Comm& comm) {
    MpiD d(comm, cfg);
    switch (d.role()) {
      case Role::kMapper: {
        const auto chunks = mapper_chunks(d.mapper_index(), kChunks);
        if (cfg.map_threads > 1) {
          d.run_map_parallel(
              chunks.size(),
              [&](std::size_t chunk,
                  const shuffle::ParallelMapper::EmitFn& emit) {
                for (const auto& word : chunks[chunk]) emit(word, "1");
              });
        } else {
          for (const auto& chunk : chunks) {
            for (const auto& word : chunk) d.send(word, "1");
          }
        }
        d.finalize();
        break;
      }
      case Role::kReducer: {
        shuffle::SegmentMerger merger;
        std::vector<std::byte> frame;
        if (cfg.reduce_threads > 1) {
          bool codec_framed = false;
          while (d.recv_wire_frame(frame, codec_framed)) {
            merger.add_wire_frame(std::move(frame), codec_framed);
          }
          shuffle::ShuffleCounters decode_counters;
          merger.prepare(d.worker_pool(), cfg.partition_frame_bytes,
                         &decode_counters);
          d.fold_counters(decode_counters);
        } else {
          while (d.recv_raw_frame(frame)) merger.add_frame(std::move(frame));
        }
        d.finalize();

        std::map<std::string, std::uint64_t> local;
        std::string key;
        std::vector<std::string> values;
        while (merger.next_group(key, values)) {
          for (const auto& v : values) local[key] += std::stoull(v);
        }
        std::lock_guard lock(mu);
        for (const auto& [k, n] : local) out.counts[k] += n;
        out.totals += d.stats();
        break;
      }
      case Role::kMaster: {
        d.finalize();
        std::lock_guard lock(mu);
        out.totals += d.stats();
        break;
      }
    }
    if (d.role() == Role::kMapper) {
      std::lock_guard lock(mu);
      out.totals += d.stats();
    }
  });
  return out;
}

Config base_config(std::size_t map_threads, std::size_t reduce_threads) {
  Config cfg;
  cfg.mappers = 3;
  cfg.reducers = 2;
  cfg.map_threads = map_threads;
  cfg.reduce_threads = reduce_threads;
  cfg.spill_threshold_bytes = 2 * 1024;  // several spill rounds per chunk
  return cfg;
}

TEST(MpidThreadsTest, HybridCountsMatchSequentialExactly) {
  const auto sequential = run_hybrid_wordcount(base_config(1, 1));
  ASSERT_FALSE(sequential.counts.empty());
  std::uint64_t total = 0;
  for (const auto& [k, n] : sequential.counts) total += n;
  EXPECT_EQ(total, 3u * 12u * 200u);  // every emitted pair accounted

  for (const std::size_t threads : {2u, 4u}) {
    const auto hybrid = run_hybrid_wordcount(base_config(threads, threads));
    EXPECT_EQ(hybrid.counts, sequential.counts) << "threads=" << threads;
    EXPECT_EQ(hybrid.totals.pairs_after_combine,
              sequential.totals.pairs_after_combine)
        << "threads=" << threads;
    EXPECT_EQ(hybrid.totals.bytes_sent, sequential.totals.bytes_sent)
        << "threads=" << threads;
  }
}

TEST(MpidThreadsTest, HybridMatchesUnderCompression) {
  auto make_cfg = [](std::size_t threads) {
    auto cfg = base_config(threads, threads);
    cfg.shuffle_compression = shuffle::ShuffleCompression::kOn;
    cfg.compress_min_frame_bytes = 64;
    return cfg;
  };
  const auto sequential = run_hybrid_wordcount(make_cfg(1));
  const auto two = run_hybrid_wordcount(make_cfg(2));
  const auto four = run_hybrid_wordcount(make_cfg(4));

  // Results are exact at every thread count.
  EXPECT_EQ(two.counts, sequential.counts);
  EXPECT_EQ(four.counts, sequential.counts);
  // Byte-level accounting is exact across thread counts of the chunked
  // pipeline (the sequential path keeps its own task-long spill cadence,
  // so its frame boundaries — and hence wire bytes — are not comparable).
  EXPECT_EQ(four.totals.shuffle_bytes_wire, two.totals.shuffle_bytes_wire);
  EXPECT_EQ(four.totals.shuffle_bytes_raw, two.totals.shuffle_bytes_raw);
  EXPECT_EQ(four.totals.bytes_sent, two.totals.bytes_sent);
  EXPECT_GT(four.totals.shuffle_bytes_raw, 0u);
  // The threaded reducer decoded every wire byte the mappers encoded.
  EXPECT_GT(four.totals.decompress_ns, 0u);
}

TEST(MpidThreadsTest, MapOnlyAndReduceOnlyThreadingAreIndependent) {
  const auto sequential = run_hybrid_wordcount(base_config(1, 1));
  const auto map_only = run_hybrid_wordcount(base_config(4, 1));
  const auto reduce_only = run_hybrid_wordcount(base_config(1, 4));
  EXPECT_EQ(map_only.counts, sequential.counts);
  EXPECT_EQ(reduce_only.counts, sequential.counts);
  EXPECT_EQ(map_only.totals.bytes_sent, sequential.totals.bytes_sent);
  EXPECT_EQ(reduce_only.totals.bytes_sent, sequential.totals.bytes_sent);
}

TEST(MpidThreadsTest, ZeroThreadConfigIsRejected) {
  Config cfg;
  cfg.map_threads = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.map_threads = 1;
  cfg.reduce_threads = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace mpid::core
