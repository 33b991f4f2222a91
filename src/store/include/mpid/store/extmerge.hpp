// External k-way merge: a tournament loser tree over key-sorted group
// streams.
//
// This is the classic external-sort merge network (Knuth TAOCP vol. 3):
// K sorted inputs, one comparison path of depth ceil(log2 K) per popped
// group instead of a K-wide linear scan. TournamentTree is the network
// alone, over inputs named by index; LoserTree runs it over GroupSources —
// disk runs (RunReader) or any in-memory cursor an adapter wraps — so the
// same tree serves both the run-compaction passes (disk → disk, bounding
// the final fan-in) and the final streamed merge the reducer consumes.
// shuffle::SegmentMerger runs the same network directly over its frame
// cursors' key views, so in-memory and disk merges share one tie-break.
//
// Ordering contract: pops come in ascending (key, source index) order.
// The source-index tie-break is load-bearing — the shuffle layer assigns
// indices in frame arrival order, which is exactly the tie-break the
// in-memory SegmentMerger uses, so a merge that detours through disk
// concatenates equal keys' values in the same order as one that never
// spilled. That is what keeps budget-bounded output byte-identical to
// unbounded output.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mpid/store/spillfile.hpp"

namespace mpid::store {

/// One key-sorted input stream of the merge.
class GroupSource {
 public:
  virtual ~GroupSource() = default;

  /// Produces the next group in non-decreasing key order; false at end.
  virtual bool next(Group& group) = 0;
};

/// A disk run as a merge input.
class RunSource final : public GroupSource {
 public:
  RunSource(const std::string& path, SpillPool* pool)
      : reader_(path, pool) {}

  bool next(Group& group) override { return reader_.next(group); }

  std::uint64_t read_ns() const noexcept { return reader_.read_ns(); }

 private:
  RunReader reader_;
};

/// The tournament itself: a loser tree over K inputs named by index,
/// independent of what the inputs hold. The caller keeps each input's
/// head and supplies `beats(a, b)` — true when input a's head ranks
/// before input b's — which must make an exhausted input lose to every
/// live one and break key ties by index, so winners come in ascending
/// (key, index) order. Shared by LoserTree (groups copied out of disk
/// runs) and shuffle::SegmentMerger (views over in-memory frames).
class TournamentTree {
 public:
  /// Plays the full tournament over inputs [0, k).
  template <typename Beats>
  void reset(std::size_t k, const Beats& beats) {
    k_ = k;
    tree_.assign(k, 0);
    if (k == 0) return;
    // Bottom-up build: leaves live at positions [k, 2k), node i's
    // children are 2i and 2i+1, each internal node keeps the loser of its
    // match and tree_[0] keeps the overall winner. The complete-tree
    // indexing is valid for any k, powers of two or not.
    std::vector<std::size_t> winner(2 * k);
    for (std::size_t s = 0; s < k; ++s) winner[k + s] = s;
    for (std::size_t node = k - 1; node >= 1; --node) {
      const std::size_t a = winner[2 * node];
      const std::size_t b = winner[2 * node + 1];
      const bool a_wins = beats(a, b);
      winner[node] = a_wins ? a : b;
      tree_[node] = a_wins ? b : a;
    }
    tree_[0] = winner[1];  // k == 1: position 1 IS the single leaf
  }

  /// Replays input `s`'s path to the root after its head changed (the
  /// head must have been the winner's). ceil(log2 K) comparisons.
  template <typename Beats>
  void replay(std::size_t s, const Beats& beats) {
    std::size_t cur = s;
    for (std::size_t node = (k_ + s) / 2; node >= 1; node /= 2) {
      if (beats(tree_[node], cur)) std::swap(cur, tree_[node]);
    }
    tree_[0] = cur;
  }

  /// The winning input; only meaningful when size() > 0.
  std::size_t winner() const noexcept { return tree_[0]; }
  std::size_t size() const noexcept { return k_; }

 private:
  std::vector<std::size_t> tree_;  // [0] winner; [1, k) match losers
  std::size_t k_ = 0;
};

/// Tournament loser tree over K GroupSources. pop() yields groups in
/// ascending (key, source index) order; equal-key concatenation is the
/// caller's job (see MergingGroupStream).
class LoserTree {
 public:
  /// Borrows the sources (they must outlive the tree); index order is the
  /// tie-break order.
  explicit LoserTree(std::vector<GroupSource*> sources);

  /// Moves the smallest pending group (and its source index) out; false
  /// when every source is exhausted.
  bool pop(Group& group, std::size_t& source);

 private:
  /// True when source a's pending group ranks before source b's.
  bool beats(std::size_t a, std::size_t b) const;

  std::vector<GroupSource*> sources_;
  std::vector<Group> slots_;     // pending group per source
  std::vector<char> exhausted_;  // per source
  TournamentTree tree_;
};

/// The stream shape merge consumers iterate: groups in ascending key
/// order with equal keys' value lists concatenated in source-index order.
class MergingGroupStream {
 public:
  explicit MergingGroupStream(std::vector<GroupSource*> sources)
      : tree_(std::move(sources)) {}

  bool next(std::string& key, std::vector<std::string>& values);

 private:
  LoserTree tree_;
  Group pending_;
  bool have_pending_ = false;
};

/// One compaction pass: merges `sources` into `writer` (equal keys
/// concatenated in source order) and finishes the run.
std::pair<SpillFile, RunInfo> merge_sources(
    const std::vector<std::unique_ptr<GroupSource>>& sources,
    RunWriter& writer);

}  // namespace mpid::store
