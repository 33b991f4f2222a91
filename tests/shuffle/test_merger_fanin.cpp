// SegmentMerger at reducer-scale fan-in: hundreds of sorted frames (one
// per producer spill) with keys repeated across frames. The group
// sequence must equal a std::map reference that concatenates equal keys'
// values in frame arrival order — in memory, through the disk tier, and
// after prepare()'s threaded pre-merge — byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mpid/common/kvframe.hpp"
#include "mpid/shuffle/merger.hpp"
#include "mpid/shuffle/workerpool.hpp"
#include "mpid/store/budget.hpp"

namespace mpid::shuffle {
namespace {

namespace fs = std::filesystem;

using Frames = std::vector<std::vector<std::byte>>;
using GroupSeq = std::vector<std::pair<std::string, std::vector<std::string>>>;

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "mpid-fanin-XXXXXX");
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { fs::remove_all(path); }
};

/// `count` key-sorted frames over a shared key space of `keys` keys, so
/// most keys recur in many frames. Every value names its frame, which
/// pins the arrival-order concatenation. Frame sizes vary from empty to
/// a few dozen groups; a group carries one to three values.
Frames make_frames(int count, int keys, std::uint32_t seed) {
  std::mt19937 rng(seed);
  Frames frames;
  for (int f = 0; f < count; ++f) {
    const int groups = static_cast<int>(rng() % 40);  // 0: empty frame
    std::vector<int> ids;
    for (int g = 0; g < groups; ++g) {
      ids.push_back(static_cast<int>(rng() % static_cast<unsigned>(keys)));
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    common::KvListWriter writer;
    for (const int id : ids) {
      const std::size_t values = 1 + rng() % 3;
      writer.begin_group("k" + std::to_string(100000 + id), values);
      for (std::size_t v = 0; v < values; ++v) {
        writer.add_value("f" + std::to_string(f) + "." + std::to_string(v));
      }
    }
    frames.push_back(writer.take());
  }
  return frames;
}

/// The reference merge: std::map grouping, values appended in arrival
/// order.
GroupSeq reference(const Frames& frames) {
  std::map<std::string, std::vector<std::string>> groups;
  for (const auto& frame : frames) {
    common::KvListReader reader(frame);
    while (auto group = reader.next()) {
      auto& list = groups[std::string(group->key)];
      for (const auto v : group->values) list.emplace_back(v);
    }
  }
  return GroupSeq(groups.begin(), groups.end());
}

GroupSeq drain(SegmentMerger& merger) {
  GroupSeq seq;
  std::string key;
  std::vector<std::string> values;
  while (merger.next_group(key, values)) seq.emplace_back(key, values);
  return seq;
}

GroupSeq merge_plain(const Frames& frames) {
  SegmentMerger merger;
  for (const auto& f : frames) merger.add_frame(f);
  return drain(merger);
}

GroupSeq merge_spilled(const Frames& frames, std::size_t* runs = nullptr) {
  TempDir dir;
  ShuffleOptions opts;
  opts.spill_dir = dir.path;
  opts.spill_page_bytes = ShuffleOptions::kMinSpillPageBytes;
  opts.memory_budget_bytes = 4 * opts.spill_page_bytes;
  opts.validate();
  store::MemoryBudget budget(opts.memory_budget_bytes);
  SegmentMerger merger;
  merger.enable_spill(opts, &budget, nullptr);
  for (const auto& f : frames) merger.add_frame(f);
  if (runs != nullptr) *runs = merger.spill_run_count();
  return drain(merger);
}

GroupSeq merge_threaded(const Frames& frames) {
  WorkerPool pool(4);  // reduce_threads = 4
  SegmentMerger merger;
  for (const auto& f : frames) {
    merger.add_wire_frame(f, /*codec_framed=*/false);
  }
  merger.prepare(pool, /*capacity_hint=*/0, nullptr);
  return drain(merger);
}

TEST(SegmentMergerFanIn, HighFanInMatchesReferenceInEveryConfiguration) {
  const Frames frames = make_frames(/*count=*/300, /*keys=*/400, /*seed=*/7);
  const GroupSeq expected = reference(frames);
  ASSERT_GT(expected.size(), 300u);

  SegmentMerger probe;
  for (const auto& f : frames) probe.add_frame(f);
  EXPECT_GE(probe.frame_count(), 256u);  // empty frames are not cursors

  EXPECT_EQ(merge_plain(frames), expected);
  std::size_t runs = 0;
  EXPECT_EQ(merge_spilled(frames, &runs), expected);
  EXPECT_GT(runs, 0u);  // the disk tier really engaged
  EXPECT_EQ(merge_threaded(frames), expected);
}

TEST(SegmentMergerFanIn, EveryKeyInEveryFrame) {
  // Maximal key repetition: each group drains one value from all 256
  // cursors, in arrival order.
  Frames frames;
  for (int f = 0; f < 256; ++f) {
    common::KvListWriter writer;
    for (int k = 0; k < 8; ++k) {
      writer.begin_group("k" + std::to_string(k), 1);
      writer.add_value(std::to_string(f));
    }
    frames.push_back(writer.take());
  }
  const GroupSeq expected = reference(frames);
  ASSERT_EQ(expected.size(), 8u);
  ASSERT_EQ(expected.front().second.size(), 256u);
  EXPECT_EQ(merge_plain(frames), expected);
  EXPECT_EQ(merge_spilled(frames), expected);
  EXPECT_EQ(merge_threaded(frames), expected);
}

TEST(SegmentMergerFanIn, EmptyAndSingleFrameInputs) {
  const Frames none;
  EXPECT_TRUE(merge_plain(none).empty());
  EXPECT_TRUE(merge_spilled(none).empty());
  EXPECT_TRUE(merge_threaded(none).empty());

  const Frames empties(5);  // empty frames only
  EXPECT_TRUE(merge_plain(empties).empty());
  EXPECT_TRUE(merge_spilled(empties).empty());
  EXPECT_TRUE(merge_threaded(empties).empty());

  const Frames one = make_frames(/*count=*/1, /*keys=*/400, /*seed=*/11);
  const GroupSeq expected = reference(one);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(merge_plain(one), expected);
  EXPECT_EQ(merge_spilled(one), expected);
  EXPECT_EQ(merge_threaded(one), expected);
}

TEST(SegmentMergerFanIn, UnsortedFrameAmongManyIsRejected) {
  Frames frames = make_frames(/*count=*/256, /*keys=*/400, /*seed=*/13);
  common::KvListWriter writer;
  writer.begin_group("k200001", 1);
  writer.add_value("late");
  writer.begin_group("k100000", 1);  // goes backwards
  writer.add_value("early");
  frames.insert(frames.begin() + 128, writer.take());
  EXPECT_THROW(merge_plain(frames), std::logic_error);
  EXPECT_THROW(merge_spilled(frames), std::logic_error);
  EXPECT_THROW(merge_threaded(frames), std::logic_error);
}

}  // namespace
}  // namespace mpid::shuffle
