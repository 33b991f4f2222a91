#include "mpid/shuffle/merger.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "mpid/shuffle/compress.hpp"

namespace mpid::shuffle {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void SegmentMerger::add_frame(std::vector<std::byte> frame) {
  if (started_) {
    throw std::logic_error("SegmentMerger: add_frame after merging started");
  }
  if (frame.empty()) return;
  if (spill_ && !spill_->reservation.try_grow(frame.size())) {
    // Budget refused even after pressure callbacks: trade the cursors for
    // a disk run, then charge the newcomer unconditionally — post-spill
    // the reservation is empty, so the overshoot is bounded by one frame.
    spill_cursors();
    spill_->reservation.grow(frame.size());
  }
  cursors_.emplace_back(std::move(frame), next_order_++);
  advance(cursors_.back());
}

void SegmentMerger::add_wire_frame(std::vector<std::byte> wire,
                                   bool codec_framed) {
  if (started_) {
    throw std::logic_error(
        "SegmentMerger: add_wire_frame after merging started");
  }
  if (wire.empty()) return;
  pending_.push_back(PendingWire{std::move(wire), codec_framed});
}

void SegmentMerger::enable_spill(const ShuffleOptions& options,
                                 store::MemoryBudget* budget,
                                 ShuffleCounters* counters) {
  if (!cursors_.empty() || !pending_.empty() || started_) {
    throw std::logic_error(
        "SegmentMerger: enable_spill must precede the first frame");
  }
  if (budget == nullptr || budget->unbounded()) return;
  spill_ = std::make_unique<SpillState>();
  spill_->spill_dir = options.spill_dir;
  spill_->page_bytes = options.spill_page_bytes;
  spill_->fanin = std::max<std::size_t>(2, options.spill_merge_fanin);
  spill_->compress =
      options.shuffle_compression != ShuffleCompression::kOff;
  spill_->budget = budget;
  spill_->counters = counters;
  spill_->reservation = store::Reservation(budget);
  spill_->pool =
      std::make_unique<store::SpillPool>(budget, options.spill_page_bytes);
}

void SegmentMerger::prepare(WorkerPool& pool, std::size_t capacity_hint,
                            ShuffleCounters* counters) {
  if (started_) {
    throw std::logic_error("SegmentMerger: prepare after merging started");
  }
  if (spill_) {
    // Disk tier armed: decode sequentially through the budget-charged
    // add_frame path. The parallel decode would materialize every frame
    // at once — exactly the footprint the budget exists to forbid — and
    // a spilling merge is disk-bound anyway.
    if (!pending_.empty()) {
      FrameDecoder decoder(capacity_hint, /*pool=*/nullptr, counters);
      auto pending = std::move(pending_);
      pending_.clear();
      for (auto& p : pending) {
        add_frame(p.codec_framed ? decoder.decode(std::move(p.wire))
                                 : std::move(p.wire));
      }
    }
    return;
  }
  if (!pending_.empty()) {
    // Decode phase: one task per wire frame, per-worker decoders whose
    // private counter blocks fold into the shared target at commit time.
    std::vector<std::vector<std::byte>> decoded(pending_.size());
    std::vector<ShuffleCounters> worker_counters(pool.workers());
    std::vector<FrameDecoder> decoders;
    decoders.reserve(pool.workers());
    for (std::size_t w = 0; w < pool.workers(); ++w) {
      decoders.emplace_back(capacity_hint, /*pool=*/nullptr,
                            &worker_counters[w]);
    }
    pool.run(pending_.size(), [&](std::size_t task, std::size_t worker) {
      auto& p = pending_[task];
      decoded[task] = p.codec_framed ? decoders[worker].decode(std::move(p.wire))
                                     : std::move(p.wire);
    });
    pending_.clear();
    CounterCommitPoint commit(counters);
    for (const auto& wc : worker_counters) commit.commit(wc);
    // Cursors must form in arrival order — the tie-break that keeps a
    // producer's spill order within a key — so this stays sequential.
    for (auto& frame : decoded) add_frame(std::move(frame));
  }

  // Pre-merge phase: collapse contiguous arrival-order cursor ranges into
  // one sorted run per worker, so the bulk of the merge runs in parallel
  // and the sequential next_group() tournament ranks W cursors. Worth it
  // only when there are more cursors than workers.
  const std::size_t workers = pool.workers();
  if (workers <= 1 || cursors_.size() <= workers) return;
  std::vector<std::vector<std::byte>> merged(workers);
  const std::size_t count = cursors_.size();
  pool.run(workers, [&](std::size_t run, std::size_t /*worker*/) {
    const std::size_t lo = run * count / workers;
    const std::size_t hi = (run + 1) * count / workers;
    merged[run] = merge_range(lo, hi);
  });
  cursors_.clear();
  for (auto& frame : merged) add_frame(std::move(frame));
}

void SegmentMerger::start_merge(Merge& merge, std::size_t lo,
                                std::size_t hi) {
  merge.heads.clear();
  merge.heads.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i) merge.heads.push_back(&cursors_[i]);
  merge.tree.reset(merge.heads.size(), [&merge](std::size_t a, std::size_t b) {
    return merge.beats(a, b);
  });
}

bool SegmentMerger::pop_group(Merge& merge, std::string& key,
                              std::vector<std::string>& values) {
  if (merge.heads.empty()) return false;
  std::size_t w = merge.tree.winner();
  if (!merge.heads[w]->live) return false;
  const auto beats = [&merge](std::size_t a, std::size_t b) {
    return merge.beats(a, b);
  };
  key.assign(merge.heads[w]->head.key);
  // Winners come in (key, arrival) order, so draining the key until the
  // winner changes concatenates every cursor's values in arrival order.
  // Value strings are overwritten in place to keep their capacity.
  std::size_t n = 0;
  do {
    Cursor& cursor = *merge.heads[w];
    for (const auto v : cursor.head.values) {
      if (n < values.size()) {
        values[n].assign(v);
      } else {
        values.emplace_back(v);
      }
      ++n;
    }
    advance(cursor);
    merge.tree.replay(w, beats);
    w = merge.tree.winner();
  } while (merge.heads[w]->live && merge.heads[w]->head.key == key);
  values.resize(n);
  return true;
}

template <typename Fn>
void SegmentMerger::for_each_merged_group(std::size_t lo, std::size_t hi,
                                          Fn&& fn) {
  Merge merge;
  start_merge(merge, lo, hi);
  std::string key;
  std::vector<std::string> values;
  while (pop_group(merge, key, values)) fn(key, values);
}

std::vector<std::byte> SegmentMerger::merge_range(std::size_t lo,
                                                  std::size_t hi) {
  common::KvListWriter writer;
  std::size_t bytes = 0;
  for (std::size_t i = lo; i < hi; ++i) bytes += cursors_[i].frame.size();
  writer.reserve(bytes);
  for_each_merged_group(
      lo, hi,
      [&writer](const std::string& key, const std::vector<std::string>& values) {
        writer.begin_group(key, values.size());
        for (const auto& v : values) writer.add_value(v);
      });
  return writer.take();
}

void SegmentMerger::spill_cursors() {
  if (cursors_.empty()) return;
  const std::uint64_t start = now_ns();
  const std::size_t order = cursors_.front().order;
  store::RunWriter::Options wopts;
  wopts.block_bytes = spill_->page_bytes;
  wopts.compress = spill_->compress;
  store::RunWriter writer(store::SpillFile::create(spill_->spill_dir, "run"),
                          wopts, spill_->pool.get());
  // One streamed pass: groups materialize one at a time, so the spill's
  // own footprint is a group plus the writer's staging page.
  for_each_merged_group(
      0, cursors_.size(),
      [&writer](const std::string& key, const std::vector<std::string>& values) {
        writer.begin_group(key, values.size());
        for (const auto& v : values) writer.add_value(v);
      });
  auto [file, info] = writer.finish();
  spill_->runs.push_back(SpillRun{std::move(file), order});
  spill_->compacted = false;
  cursors_.clear();
  spill_->reservation.reset();
  if (spill_->counters != nullptr) {
    spill_->counters->bytes_spilled_disk += info.file_bytes;
    spill_->counters->spill_files += 1;
    spill_->counters->spill_ns += now_ns() - start;
  }
}

void SegmentMerger::finish_spill_phase() {
  if (!spill_ || spill_->compacted || spill_->runs.empty()) return;
  // Fan-in compaction: cascade the oldest `fanin` runs into one until the
  // final merge's open-run count fits. Merging an arrival-contiguous
  // prefix preserves the tie-break collapse (see the class comment), and
  // the cascade is deterministic — no size heuristics, so two runs of the
  // same job compact identically.
  while (spill_->runs.size() > spill_->fanin) {
    const std::uint64_t start = now_ns();
    std::vector<std::unique_ptr<store::GroupSource>> sources;
    sources.reserve(spill_->fanin);
    for (std::size_t i = 0; i < spill_->fanin; ++i) {
      sources.push_back(std::make_unique<store::RunSource>(
          spill_->runs[i].file.path(), spill_->pool.get()));
    }
    store::RunWriter::Options wopts;
    wopts.block_bytes = spill_->page_bytes;
    wopts.compress = spill_->compress;
    store::RunWriter writer(
        store::SpillFile::create(spill_->spill_dir, "merge"), wopts,
        spill_->pool.get());
    auto [file, info] = store::merge_sources(sources, writer);
    const std::size_t order = spill_->runs.front().order;
    spill_->runs.erase(spill_->runs.begin(),
                       spill_->runs.begin() +
                           static_cast<std::ptrdiff_t>(spill_->fanin));
    spill_->runs.insert(spill_->runs.begin(),
                        SpillRun{std::move(file), order});
    if (spill_->counters != nullptr) {
      spill_->counters->external_merge_passes += 1;
      spill_->counters->bytes_spilled_disk += info.file_bytes;
      spill_->counters->spill_files += 1;
      spill_->counters->spill_ns += now_ns() - start;
    }
  }
  spill_->compacted = true;
}

bool SegmentMerger::CursorSource::next(store::Group& group) {
  if (!cursor_->live) return false;
  group.key.assign(cursor_->head.key);
  group.values.clear();
  group.values.reserve(cursor_->head.values.size());
  for (const auto v : cursor_->head.values) group.values.emplace_back(v);
  SegmentMerger::advance(*cursor_);
  return true;
}

void SegmentMerger::build_final_stream() {
  finish_spill_phase();
  // Source index order = arrival order: runs first (each one a contiguous
  // arrival range older than every surviving cursor), then the in-memory
  // cursors, oldest first. The loser tree's index tie-break then equals
  // the in-memory merger's order tie-break.
  final_sources_.clear();
  final_sources_.reserve(spill_->runs.size() + cursors_.size());
  for (const auto& run : spill_->runs) {
    final_sources_.push_back(std::make_unique<store::RunSource>(
        run.file.path(), spill_->pool.get()));
  }
  for (auto& cursor : cursors_) {
    final_sources_.push_back(std::make_unique<CursorSource>(&cursor));
  }
  std::vector<store::GroupSource*> raw;
  raw.reserve(final_sources_.size());
  for (const auto& s : final_sources_) raw.push_back(s.get());
  final_stream_ = std::make_unique<store::MergingGroupStream>(std::move(raw));
}

void SegmentMerger::advance(Cursor& cursor) {
  // The cursor owns its frame, so the previous key's view stays valid
  // across the read.
  const bool had = cursor.live;
  const std::string_view previous = cursor.head.key;
  cursor.live = cursor.reader.next(cursor.head);
  if (had && cursor.live && cursor.head.key < previous) {
    throw std::logic_error(
        "SegmentMerger: frame is not key-sorted (enable sort_keys on the "
        "producers)");
  }
}

bool SegmentMerger::next_group(std::string& key,
                               std::vector<std::string>& values) {
  if (!pending_.empty()) {
    throw std::logic_error(
        "SegmentMerger: wire frames pending — call prepare() before "
        "next_group()");
  }
  if (spill_ && !spill_->runs.empty()) {
    // Disk tier engaged: stream from the loser tree over (runs, cursors).
    if (!final_stream_) build_final_stream();
    started_ = true;
    const std::uint64_t start = now_ns();
    const bool more = final_stream_->next(key, values);
    if (spill_->counters != nullptr) {
      spill_->counters->spill_ns += now_ns() - start;
    }
    return more;
  }
  started_ = true;
  if (!merge_) start_merge(merge_.emplace(), 0, cursors_.size());
  return pop_group(*merge_, key, values);
}

}  // namespace mpid::shuffle
