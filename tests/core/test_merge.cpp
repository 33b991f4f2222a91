// shuffle::SegmentMerger tests: k-way merging of sorted partition frames, and
// the full sorted-shuffle pipeline through MPI-D (the Hadoop reduce
// contract: keys arrive globally ordered, each exactly once).
#include <gtest/gtest.h>

#include <map>

#include "mpid/common/kvframe.hpp"
#include "mpid/common/prng.hpp"
#include "mpid/core/mpid.hpp"
#include "mpid/minimpi/world.hpp"
#include "mpid/shuffle/merger.hpp"

namespace mpid::core {
namespace {

std::vector<std::byte> make_frame(
    const std::vector<std::pair<std::string, std::vector<std::string>>>&
        groups) {
  common::KvListWriter writer;
  for (const auto& [key, values] : groups) {
    writer.begin_group(key, values.size());
    for (const auto& v : values) writer.add_value(v);
  }
  return writer.take();
}

TEST(SortedFrameMerger, EmptyMergerYieldsNothing) {
  shuffle::SegmentMerger merger;
  std::string key;
  std::vector<std::string> values;
  EXPECT_FALSE(merger.next_group(key, values));
}

TEST(SortedFrameMerger, SingleFrame) {
  shuffle::SegmentMerger merger;
  merger.add_frame(make_frame({{"a", {"1"}}, {"b", {"2", "3"}}}));
  std::string key;
  std::vector<std::string> values;
  ASSERT_TRUE(merger.next_group(key, values));
  EXPECT_EQ(key, "a");
  EXPECT_EQ(values, (std::vector<std::string>{"1"}));
  ASSERT_TRUE(merger.next_group(key, values));
  EXPECT_EQ(key, "b");
  EXPECT_EQ(values, (std::vector<std::string>{"2", "3"}));
  EXPECT_FALSE(merger.next_group(key, values));
}

TEST(SortedFrameMerger, MergesAcrossFramesInKeyOrder) {
  shuffle::SegmentMerger merger;
  merger.add_frame(make_frame({{"apple", {"a1"}}, {"cherry", {"c1"}}}));
  merger.add_frame(make_frame({{"banana", {"b1"}}, {"cherry", {"c2"}}}));
  merger.add_frame(make_frame({{"apple", {"a2"}}}));

  std::string key;
  std::vector<std::string> values;
  ASSERT_TRUE(merger.next_group(key, values));
  EXPECT_EQ(key, "apple");
  EXPECT_EQ(values, (std::vector<std::string>{"a1", "a2"}));  // arrival order
  ASSERT_TRUE(merger.next_group(key, values));
  EXPECT_EQ(key, "banana");
  ASSERT_TRUE(merger.next_group(key, values));
  EXPECT_EQ(key, "cherry");
  EXPECT_EQ(values, (std::vector<std::string>{"c1", "c2"}));
  EXPECT_FALSE(merger.next_group(key, values));
}

TEST(SortedFrameMerger, EmptyFramesIgnored) {
  shuffle::SegmentMerger merger;
  merger.add_frame({});
  merger.add_frame(make_frame({{"k", {"v"}}}));
  merger.add_frame({});
  EXPECT_EQ(merger.frame_count(), 1u);
  std::string key;
  std::vector<std::string> values;
  EXPECT_TRUE(merger.next_group(key, values));
  EXPECT_FALSE(merger.next_group(key, values));
}

TEST(SortedFrameMerger, UnsortedFrameRejected) {
  shuffle::SegmentMerger merger;
  merger.add_frame(make_frame({{"z", {"1"}}, {"a", {"2"}}}));
  std::string key;
  std::vector<std::string> values;
  EXPECT_THROW(merger.next_group(key, values), std::logic_error);
}

TEST(SortedFrameMerger, AddAfterStartRejected) {
  shuffle::SegmentMerger merger;
  merger.add_frame(make_frame({{"a", {"1"}}}));
  std::string key;
  std::vector<std::string> values;
  ASSERT_TRUE(merger.next_group(key, values));
  EXPECT_THROW(merger.add_frame(make_frame({{"b", {"2"}}})),
               std::logic_error);
}

TEST(SortedFrameMerger, RandomizedAgainstReference) {
  common::Xoshiro256StarStar rng(606);
  for (int iter = 0; iter < 20; ++iter) {
    std::map<std::string, std::vector<std::string>> reference;
    shuffle::SegmentMerger merger;
    const auto frames = rng.next_in(1, 8);
    for (std::uint64_t f = 0; f < frames; ++f) {
      // Sorted groups per frame: walk a sorted key space.
      std::vector<std::pair<std::string, std::vector<std::string>>> groups;
      int key_index = 0;
      const auto group_count = rng.next_below(20);
      for (std::uint64_t g = 0; g < group_count; ++g) {
        key_index += static_cast<int>(rng.next_in(1, 5));
        // Fixed-width suffix: lexicographic order == numeric order.
        std::string key = "k" + std::to_string(1000 + key_index);
        std::vector<std::string> values(rng.next_in(1, 4),
                                        "f" + std::to_string(f));
        for (const auto& v : values) reference[key].push_back(v);
        groups.emplace_back(std::move(key), std::move(values));
      }
      merger.add_frame(make_frame(groups));
    }

    std::map<std::string, std::vector<std::string>> merged;
    std::string key, previous;
    std::vector<std::string> values;
    bool first = true;
    while (merger.next_group(key, values)) {
      if (!first) {
        EXPECT_LT(previous, key);  // strictly ascending keys
      }
      first = false;
      previous = key;
      auto& list = merged[key];
      list.insert(list.end(), values.begin(), values.end());
    }
    // Same keys and same per-key value multiset (order may differ from the
    // map reference, which appends in frame order too — compare sorted).
    ASSERT_EQ(merged.size(), reference.size());
    for (auto& [k, vs] : reference) {
      auto it = merged.find(k);
      ASSERT_NE(it, merged.end()) << k;
      auto a = vs, b = it->second;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b) << k;
    }
  }
}

TEST(SortedShuffle, FullPipelineDeliversGloballyOrderedGroups) {
  Config cfg;
  cfg.mappers = 3;
  cfg.reducers = 2;
  cfg.sort_keys = true;
  cfg.spill_threshold_bytes = 256;  // many frames per mapper

  minimpi::run_world(cfg.world_size(), [&](minimpi::Comm& comm) {
    MpiD d(comm, cfg);
    if (d.role() == Role::kMapper) {
      common::Xoshiro256StarStar rng(
          static_cast<std::uint64_t>(d.mapper_index()) + 17);
      for (int i = 0; i < 200; ++i) {
        d.send("key" + std::to_string(1000 + rng.next_below(50)), "x");
      }
      d.finalize();
    } else if (d.role() == Role::kReducer) {
      shuffle::SegmentMerger merger;
      std::vector<std::byte> frame;
      while (d.recv_raw_frame(frame)) merger.add_frame(std::move(frame));
      d.finalize();

      std::string key, previous;
      std::vector<std::string> values;
      std::size_t total_values = 0;
      bool first = true;
      while (merger.next_group(key, values)) {
        if (!first) {
          EXPECT_LT(previous, key);
        }
        first = false;
        previous = key;
        total_values += values.size();
        EXPECT_EQ(d.reducer_rank_for(key), comm.rank());
      }
      EXPECT_GT(total_values, 0u);
    } else {
      d.finalize();
    }
  });
}

TEST(SortedShuffle, MixingRawAndParsedRecvRejected) {
  Config cfg;
  cfg.mappers = 1;
  cfg.reducers = 1;
  minimpi::run_world(cfg.world_size(), [&](minimpi::Comm& comm) {
    MpiD d(comm, cfg);
    if (d.role() == Role::kMapper) {
      d.send("a", "1");
      d.send("b", "2");
      d.finalize();
    } else if (d.role() == Role::kReducer) {
      std::string k, v;
      ASSERT_TRUE(d.recv(k, v));  // parsed path engaged
      std::vector<std::byte> frame;
      EXPECT_THROW(d.recv_raw_frame(frame), std::logic_error);
      while (d.recv(k, v)) {
      }
      d.finalize();
    } else {
      d.finalize();
    }
  });
}

}  // namespace
}  // namespace mpid::core
