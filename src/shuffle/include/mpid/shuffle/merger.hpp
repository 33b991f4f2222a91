// SegmentMerger: the consumer-side sorted merge stage — Hadoop's merge
// phase, shared by both runtimes.
//
// When producers realign with ShuffleOptions::sort_keys, every partition
// frame they ship is internally key-sorted. A consumer that wants
// globally key-ordered groups (Hadoop's reduce contract) can then k-way
// merge the frames instead of hash-grouping them — memory stays bounded
// by one group plus one cursor per frame, regardless of how many distinct
// keys exist. The merge is a store::TournamentTree over the cursors' key
// views: ceil(log2 K) comparisons per group for K frames (a reducer can
// hold hundreds — one per producer spill), the same network and the same
// (key, arrival order) tie-break as the disk tier's loser tree below.
//
//   SegmentMerger merger;
//   std::vector<std::byte> frame;
//   while (d.recv_raw_frame(frame)) merger.add_frame(std::move(frame));
//   std::string key; std::vector<std::string> values;
//   while (merger.next_group(key, values)) reduce(key, values);
// With reduce_threads > 1 the stage also runs concurrently: wire frames
// are collected undecoded via add_wire_frame(), and prepare() fans the
// codec decode — and a contiguous pre-merge of the cursors into one
// sorted run per worker — across a WorkerPool. Pre-merging a contiguous
// arrival-order range is associativity-safe: within the range, equal
// keys' values concatenate in arrival order, the merged run inherits the
// range's first arrival index as its tie-break order, and the ranges are
// disjoint and ordered — so next_group() produces byte-for-byte the same
// group sequence for every worker count.
//
// Disk tier (enable_spill, DESIGN.md §13): when a MemoryBudget refuses an
// arriving frame's charge, the merger stream-merges everything it holds
// into one sorted run on disk (store::RunWriter) and frees the cursors;
// the run inherits the spilled range's first arrival index as its
// tie-break order. Because every spill takes *all* current cursors, runs
// cover disjoint contiguous arrival ranges — the same associativity
// argument as the thread pre-merge above — so the final loser-tree merge
// over (runs, then surviving cursors) concatenates equal keys' values in
// exactly the arrival order the all-in-memory merge would have used, and
// budget-bounded output is byte-identical to unbounded output. With the
// budget unset nothing here changes: no state is allocated, no branch is
// taken past a null check.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mpid/common/kvframe.hpp"
#include "mpid/shuffle/counters.hpp"
#include "mpid/shuffle/options.hpp"
#include "mpid/shuffle/workerpool.hpp"
#include "mpid/store/budget.hpp"
#include "mpid/store/extmerge.hpp"
#include "mpid/store/pagepool.hpp"
#include "mpid/store/spillfile.hpp"

namespace mpid::shuffle {

class SegmentMerger {
 public:
  /// Takes ownership of one internally key-sorted KvList frame. All
  /// frames must be added before the first next_group() call.
  void add_frame(std::vector<std::byte> frame);

  /// Takes ownership of one frame as it arrived on the wire, deferring
  /// the codec decode to prepare(). `codec_framed` says whether the bytes
  /// are a codec frame (see FrameCompressor) or already raw. Frames added
  /// this way are invisible to next_group() until prepare() runs.
  void add_wire_frame(std::vector<std::byte> wire, bool codec_framed);

  /// Decodes every pending wire frame across `pool`'s workers (per-worker
  /// FrameDecoder, decompress_ns folded into `counters` at commit time;
  /// `counters` nullable) and, when it pays, pre-merges contiguous cursor
  /// ranges into one sorted run per worker so most of the merge work runs
  /// in parallel and next_group() ranks W cursors instead of hundreds.
  /// `capacity_hint` pre-sizes decode buffers (use the producer's frame
  /// size target). Idempotent; must precede next_group() when wire frames
  /// are pending. With the disk tier armed the decode runs sequentially
  /// through the budget-charged add_frame() path instead (spilling is
  /// disk-bound; the pre-merge would fight the budget for the cursors it
  /// merges).
  void prepare(WorkerPool& pool, std::size_t capacity_hint,
               ShuffleCounters* counters);

  /// Arms the disk tier. Must precede the first add_frame(); no-op when
  /// `budget` is null or unbounded. `options` supplies spill_dir,
  /// spill_page_bytes, spill_merge_fanin and whether runs are
  /// codec-compressed (shuffle_compression != kOff); `counters`
  /// (nullable) receives bytes_spilled_disk / spill_files /
  /// external_merge_passes / spill_ns as they happen. Re-arm after
  /// move-assigning a fresh merger (restart paths).
  void enable_spill(const ShuffleOptions& options,
                    store::MemoryBudget* budget, ShuffleCounters* counters);

  /// Runs the fan-in compaction passes (if spilling happened) so every
  /// spill counter is final. Idempotent; next_group() calls it lazily,
  /// but a caller that ships counters before reducing — MPI-D folds stats
  /// at finalize() — must call it first.
  void finish_spill_phase();

  /// Produces the next group in ascending key order, concatenating the
  /// value lists of equal keys across frames (frame arrival order breaks
  /// ties, so a producer's spill order is preserved within a key).
  /// Returns false when every frame is exhausted.
  /// Throws std::runtime_error on a corrupt frame and std::logic_error if
  /// some frame is not sorted.
  bool next_group(std::string& key, std::vector<std::string>& values);

  std::size_t frame_count() const noexcept { return cursors_.size(); }

  /// Disk runs currently held (post-compaction once the merge started).
  std::size_t spill_run_count() const noexcept {
    return spill_ ? spill_->runs.size() : 0;
  }

 private:
  struct Cursor {
    std::vector<std::byte> frame;
    common::KvListReader reader;
    common::KvListView head;  // the current group; meaningful while live
    bool live = false;
    std::size_t order;  // arrival order, the tie-breaker

    explicit Cursor(std::vector<std::byte> f, std::size_t ord)
        : frame(std::move(f)), reader(frame), order(ord) {}
  };

  /// One in-memory k-way merge: the tournament over a contiguous cursor
  /// range. Cursors sit in arrival order, so index order IS the
  /// tie-break order.
  struct Merge {
    std::vector<Cursor*> heads;
    store::TournamentTree tree;

    /// True when heads[a]'s group ranks before heads[b]'s: (key, index),
    /// with exhausted cursors losing to every live one.
    bool beats(std::size_t a, std::size_t b) const {
      const Cursor& ca = *heads[a];
      const Cursor& cb = *heads[b];
      if (!ca.live) return false;
      if (!cb.live) return true;
      const int c = ca.head.key.compare(cb.head.key);
      return c != 0 ? c < 0 : a < b;
    }
  };

  struct PendingWire {
    std::vector<std::byte> wire;
    bool codec_framed;
  };

  /// One spilled run: a contiguous arrival range on disk, ranked by the
  /// range's first arrival index.
  struct SpillRun {
    store::SpillFile file;
    std::size_t order;
  };

  /// Everything the disk tier needs; absent (null) with no budget, so the
  /// in-memory path pays one pointer test.
  struct SpillState {
    std::string spill_dir;
    std::size_t page_bytes = 0;
    std::size_t fanin = 2;
    bool compress = false;
    store::MemoryBudget* budget = nullptr;
    ShuffleCounters* counters = nullptr;
    store::Reservation reservation;
    std::unique_ptr<store::SpillPool> pool;
    std::vector<SpillRun> runs;
    bool compacted = false;
  };

  /// An in-memory cursor as a loser-tree source (for the final merge when
  /// runs exist).
  class CursorSource final : public store::GroupSource {
   public:
    explicit CursorSource(Cursor* cursor) : cursor_(cursor) {}
    bool next(store::Group& group) override;

   private:
    Cursor* cursor_;
  };

  static void advance(Cursor& cursor);

  /// Arms `merge` over cursors_[lo, hi).
  void start_merge(Merge& merge, std::size_t lo, std::size_t hi);

  /// The one merge loop: pops `merge`'s next group in ascending key
  /// order, equal keys' values concatenated in arrival order. Behind
  /// next_group() (in-memory path), merge_range() and spill_cursors().
  static bool pop_group(Merge& merge, std::string& key,
                        std::vector<std::string>& values);

  /// Streams the fully-merged groups of cursors_[lo, hi) to `fn(key,
  /// values)` — merge_range() (in-memory output) and spill_cursors()
  /// (disk output).
  template <typename Fn>
  void for_each_merged_group(std::size_t lo, std::size_t hi, Fn&& fn);

  /// Sequentially k-way merges cursors_[lo, hi) into one sorted KvList
  /// frame, preserving the range's arrival-order value concatenation.
  std::vector<std::byte> merge_range(std::size_t lo, std::size_t hi);

  /// Writes every current cursor to one sorted run and frees the memory.
  void spill_cursors();

  /// Builds the loser tree over (compacted runs, surviving cursors).
  void build_final_stream();

  std::deque<Cursor> cursors_;  // deque: stable addresses for the views
  std::vector<PendingWire> pending_;
  std::size_t next_order_ = 0;  // survives cursor clears (spills, pre-merge)
  bool started_ = false;
  std::optional<Merge> merge_;  // next_group()'s merge, armed on first call
  std::unique_ptr<SpillState> spill_;
  std::vector<std::unique_ptr<store::GroupSource>> final_sources_;
  std::unique_ptr<store::MergingGroupStream> final_stream_;
};

}  // namespace mpid::shuffle
