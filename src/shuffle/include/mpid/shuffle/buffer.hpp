// MapOutputBuffer + CombineRunner: the buffering stage of the shuffle.
//
// Both runtimes accumulate emitted (key, value) pairs per key until a
// spill realigns the buffer into partition frames (Section IV.A of the
// paper). This file owns the two interchangeable buffer implementations
// behind one interface:
//
//   * the flat combine table (common::KvCombineTable, the default): open-
//     addressing slots, arena-interned keys, slab-chained values already
//     in wire format — zero allocations per pair in steady state;
//   * the legacy node-based buffer (flat_combine_table = false, the A/B
//     baseline): one heap entry per key, values as std::strings, drained
//     in first-insertion order so both buffers spill entries in the same
//     deterministic order.
//
// CombineRunner wraps the user combiner with the timing and the
// single-value skip rule both runtimes share: a one-element value list is
// already combined (the MapReduce combiner contract allows zero runs), so
// the skewed tail of single-value keys never pays a combiner call.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mpid/common/hash.hpp"
#include "mpid/common/kvtable.hpp"
#include "mpid/shuffle/counters.hpp"
#include "mpid/shuffle/options.hpp"
#include "mpid/store/budget.hpp"

namespace mpid::shuffle {

/// Runs the user combiner with wall-time accounting into
/// ShuffleCounters::combine_ns. Stateless apart from a reused scratch
/// vector; safe to share between the buffer (incremental combining) and
/// the encoder (spill-time combining) of one task.
class CombineRunner {
 public:
  CombineRunner(Combiner combiner, ShuffleCounters* counters)
      : combiner_(std::move(combiner)), counters_(counters) {}

  bool enabled() const noexcept { return static_cast<bool>(combiner_); }

  /// Replaces `values` with the combiner's output; only the combiner call
  /// (and its output-size bookkeeping) is timed.
  void combine(std::string_view key, std::vector<std::string>& values);

  /// Incremental in-place combine of one flat-table entry (collect →
  /// combiner → replace); the whole cycle is timed, matching what the
  /// incremental trigger costs the map loop.
  void combine_entry(common::KvCombineTable& table, std::uint32_t index,
                     std::string_view key);

 private:
  Combiner combiner_;
  ShuffleCounters* counters_;
  std::vector<std::string> scratch_;
};

/// The map-output (or reducer grouping) buffer. append() until
/// should_spill(), then hand the buffer to SpillEncoder::spill() — or, on
/// the receive side, iterate groups with for_each_group().
class MapOutputBuffer {
 public:
  /// One buffered entry as seen by drain(): exactly one of `flat` /
  /// `values` is set, and key_hash is the cached fnv1a64(key) the default
  /// partitioner consumes without rehashing.
  struct Entry {
    std::string_view key;
    std::uint64_t key_hash = 0;
    std::size_t value_count = 0;
    const common::KvCombineTable::EntryView* flat = nullptr;
    std::vector<std::string>* values = nullptr;
  };

  /// `combine` (nullable) enables incremental combining at
  /// options.inline_combine_threshold; `counters` receives the spill/peak
  /// accounting. Both pointers must outlive the buffer. `budget`
  /// (nullable) makes the buffer a budgeted consumer of the two-tier
  /// store: growth is charged in spill_page_bytes chunks, and a refused
  /// charge latches should_spill() true so the owner drains early — the
  /// in-memory fast tier giving way before the cap, instead of OOMing.
  MapOutputBuffer(const ShuffleOptions& options, CombineRunner* combine,
                  ShuffleCounters* counters,
                  store::MemoryBudget* budget = nullptr);

  MapOutputBuffer(const MapOutputBuffer&) = delete;
  MapOutputBuffer& operator=(const MapOutputBuffer&) = delete;

  void append(std::string_view key, std::string_view value);

  bool empty() const noexcept {
    return flat_ ? table_.empty() : legacy_entries_.empty();
  }

  /// Spill-threshold accounting: key + value bytes plus per-entry
  /// bookkeeping overhead.
  std::size_t bytes_used() const noexcept {
    return flat_ ? table_.bytes_used() : legacy_bytes_;
  }

  bool should_spill() const noexcept {
    return bytes_used() >= spill_threshold_ || pressure_spill_;
  }

  /// Largest single-entry frame overshoot (exact on the flat path, 0 on
  /// the legacy path) — the frame reservation slack SpillEncoder adds to
  /// the flush threshold.
  std::size_t max_entry_frame_bytes() const noexcept {
    return flat_ ? table_.max_entry_frame_bytes() : 0;
  }

  /// Empties the buffer through `fn(const Entry&)`, in first-insertion
  /// order or sorted by key. Counts the spill round (spills, peak,
  /// arena_recycles); timing is the caller's job (SpillEncoder owns
  /// spill_ns). The buffer is emptied even when `fn` throws mid-drain —
  /// the drain-then-partition semantics both runtimes rely on for clean
  /// recovery — but views passed to `fn` are invalidated by the return.
  /// No-op on an empty buffer (no counters move).
  template <typename Fn>
  void drain(bool sorted, Fn&& fn) {
    if (empty()) return;
    ++counters_->spills;
    if (bytes_used() > counters_->table_bytes_peak) {
      counters_->table_bytes_peak = bytes_used();
    }
    if (flat_) {
      try {
        table_.for_each(sorted,
                        [&](const common::KvCombineTable::EntryView& e) {
                          fn(Entry{e.key, e.key_hash, e.value_count, &e,
                                   nullptr});
                        });
      } catch (...) {
        table_.recycle();
        release_budget();
        throw;
      }
      table_.recycle();
      ++counters_->arena_recycles;
      release_budget();
      return;
    }
    // Move both containers out first: the entries' key views point into
    // the index's nodes, and the buffer must read empty before `fn` can
    // throw.
    auto entries = std::move(legacy_entries_);
    auto index = std::move(legacy_index_);
    legacy_entries_.clear();
    legacy_index_.clear();
    legacy_bytes_ = 0;
    if (sorted) {
      std::sort(entries.begin(), entries.end(),
                [](const LegacyEntry& a, const LegacyEntry& b) {
                  return a.key < b.key;
                });
    }
    for (auto& e : entries) {
      fn(Entry{e.key, common::fnv1a64(e.key), e.values.size(), nullptr,
               &e.values});
    }
    release_budget();
  }

  /// Grouped iteration for the receive side:
  /// `fn(std::string_view key, std::vector<std::string>& values)`, in
  /// insertion or sorted key order, values in append order. The callee
  /// may mutate `values`: on the flat path it is a scratch copy reused
  /// across groups, on the legacy path the entry's own list (so a second
  /// pass there sees the mutation). Does not empty the buffer and does
  /// not touch spill counters.
  template <typename Fn>
  void for_each_group(bool sorted, Fn&& fn) {
    if (flat_) {
      table_.for_each(sorted,
                      [&](const common::KvCombineTable::EntryView& e) {
                        scratch_.clear();
                        auto cursor = e.values;
                        while (auto v = cursor.next()) {
                          scratch_.emplace_back(*v);
                        }
                        fn(e.key, scratch_);
                      });
      return;
    }
    if (!sorted) {
      for (auto& e : legacy_entries_) fn(e.key, e.values);
      return;
    }
    std::vector<LegacyEntry*> order;
    order.reserve(legacy_entries_.size());
    for (auto& e : legacy_entries_) order.push_back(&e);
    std::sort(order.begin(), order.end(),
              [](const LegacyEntry* a, const LegacyEntry* b) {
                return a->key < b->key;
              });
    for (auto* e : order) fn(e->key, e->values);
  }

  /// Discards everything buffered without counting a spill round (task
  /// restart support); arena chunks and node capacity are kept.
  void clear();

 private:
  /// Approximate per-entry bookkeeping overhead counted against the spill
  /// threshold on the legacy path (hash node + string headers).
  static constexpr std::size_t kEntryOverhead = 48;

  /// Returns every charged byte to the budget and re-opens the fast tier
  /// (called when the buffer empties).
  void release_budget() noexcept {
    reservation_.reset();
    pressure_spill_ = false;
  }

  struct LegacyEntry {
    std::string_view key;  // aliases the index node's key; stable
    std::vector<std::string> values;
    std::size_t bytes = 0;  // value bytes only (key counted separately)
  };

  const bool flat_;
  const std::size_t spill_threshold_;
  const std::size_t inline_combine_threshold_;
  const std::size_t budget_chunk_;  // charge granularity (spill_page_bytes)
  CombineRunner* combine_;
  ShuffleCounters* counters_;
  store::Reservation reservation_;
  bool pressure_spill_ = false;

  common::KvCombineTable table_;

  // Legacy path: dense first-insertion-order entries plus a transparent
  // index whose node-stable keys back the entries' views.
  std::vector<LegacyEntry> legacy_entries_;
  std::unordered_map<std::string, std::uint32_t,
                     common::TransparentStringHash,
                     common::TransparentStringEq>
      legacy_index_;
  std::size_t legacy_bytes_ = 0;

  std::vector<std::string> scratch_;  // for_each_group materialization
};

}  // namespace mpid::shuffle
