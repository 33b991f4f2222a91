#include "mpid/core/mpid.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "mpid/common/codec.hpp"
#include "mpid/common/hash.hpp"
#include "mpid/shuffle/nodeagg.hpp"

namespace mpid::core {

namespace {

// Tags on the private (dup'd) communicator.
constexpr int kDataTag = 1;  // a realigned partition frame
constexpr int kEosTag = 2;   // mapper end-of-stream marker; in resilient
                             // mode a SEAL carrying {incarnation, total}
constexpr int kDoneTag = 3;  // rank -> master completion + stats
constexpr int kAckTag = 4;   // master -> rank shutdown acknowledgement
// Resilient-shuffle control (reliable: never in the injector's scope).
constexpr int kLaneAckTag = 5;   // reducer -> mapper: lane complete
constexpr int kLaneNackTag = 6;  // reducer -> mapper: list of missing seqs
constexpr int kRepullTag = 7;    // restarted reducer -> mapper: resend lane
// Node aggregation: mapper -> node leader staged-frame forward (modeled
// shared-memory transfer, so reliable: outside the injector's kDataTag
// scope). An empty payload is the member's end-of-stream marker (flushed
// frames are never empty).
constexpr int kNodeTag = 8;

static_assert(std::is_trivially_copyable_v<Stats>,
              "Stats travels as a raw MPI payload");

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// --- resilient frame header: {u32 incarnation, u32 seq, u64 checksum} ---
//
// The top bit of the seq field is the codec bit: set when the payload is a
// codec frame (Config::shuffle_compression != kOff). The checksum covers
// the field as sent — compressed bytes, codec bit and all — so corruption
// anywhere in the frame still fails verification; the effective sequence
// space shrinks to 31 bits, far beyond any real lane length.

constexpr std::size_t kFrameHeaderBytes = 16;
constexpr std::uint32_t kSeqCodecBit = 0x80000000u;

struct FrameHeader {
  std::uint32_t incarnation = 0;
  std::uint32_t seq = 0;
  std::uint64_t checksum = 0;
};

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  out.insert(out.end(), p, p + sizeof v);
}

FrameHeader read_header(std::span<const std::byte> frame) {
  FrameHeader hdr;
  std::memcpy(&hdr.incarnation, frame.data(), 4);
  std::memcpy(&hdr.seq, frame.data() + 4, 4);
  std::memcpy(&hdr.checksum, frame.data() + 8, 8);
  return hdr;
}

/// The checksum covers the payload *and* the (incarnation, seq) fields, so
/// a bit flipped anywhere in the frame — including the header — is caught.
std::uint64_t frame_checksum(std::uint32_t incarnation, std::uint32_t seq,
                             std::span<const std::byte> payload) noexcept {
  return common::fnv1a64(payload) ^
         common::fmix64((std::uint64_t{incarnation} << 32) | seq);
}

}  // namespace

MpiD::MpiD(minimpi::Comm& comm, Config config)
    : comm_(comm), data_comm_(comm.dup()), config_(config) {
  if (config_.mappers < 1 || config_.reducers < 1) {
    throw std::invalid_argument("MpiD: need at least one mapper and reducer");
  }
  if (comm.size() != config_.world_size()) {
    throw std::invalid_argument(
        "MpiD: communicator size must be 1 (master) + mappers + reducers");
  }
  if (config_.max_inflight_frames < 1) {
    throw std::invalid_argument("MpiD: max_inflight_frames must be >= 1");
  }
  config_.validate();  // shared shuffle knobs (spill/frame/compression)
  placement_.replication = std::max<std::size_t>(config_.coded_replication, 1);
  placement_.reducers = static_cast<std::size_t>(config_.reducers);
  if (config_.coded_replication > 1) {
    shuffle::CodedPlacement::validate(
        config_.coded_replication, static_cast<std::size_t>(config_.reducers));
    if (config_.direct_realign) {
      throw std::invalid_argument(
          "MpiD: coded_replication > 1 is incompatible with direct_realign — "
          "replica frame alignment needs the buffered spill pipeline; "
          "disable direct_realign or set coded_replication = 1");
    }
  }
  pool_ = config_.frame_pool ? config_.frame_pool
                             : common::FramePool::process_pool();
  // Resolve the two-tier store's arbiter: an explicitly shared budget wins
  // (in-process worlds can cap the whole job with one arbiter); otherwise
  // a bounded memory_budget_bytes gets this rank its own.
  if (!config_.memory_budget && config_.memory_budget_bytes > 0) {
    config_.memory_budget =
        std::make_shared<store::MemoryBudget>(config_.memory_budget_bytes);
  }
  // Direct realignment requires the buffered spill path to be semantics-
  // free: no combiner to batch for, no sorted runs to build.
  direct_realign_ = config_.direct_realign && !config_.combiner &&
                    !config_.sort_keys && !config_.sort_values;
  const auto rank = comm.rank();
  if (rank == 0) {
    role_ = Role::kMaster;
  } else if (rank <= config_.mappers) {
    role_ = Role::kMapper;
    inflight_.resize(static_cast<std::size_t>(config_.reducers));
    if (resilient()) {
      lanes_.resize(static_cast<std::size_t>(config_.reducers));
    }
    // Assemble the shared shuffle pipeline (src/shuffle) over this rank's
    // transport: buffer -> combine -> partition -> encode -> [compress]
    // -> transport_send(). MPI-D realigns into bounded KvList frames and
    // ships each one the moment it fills.
    combine_runner_.emplace(config_.combiner, &stats_);
    if (!direct_realign_) {
      // Budgeted mappers drain early under pressure instead of spilling to
      // disk: map output's slow tier IS the transport (frames ship the
      // moment the buffer realigns), so pressure just tightens the spill
      // cadence.
      map_buffer_.emplace(config_, &*combine_runner_, &stats_,
                          memory_budget());
    }
    if (compression_on()) {
      compressor_.emplace(config_, shuffle::WireFraming::kSelfDescribing,
                          common::FrameKind::kKvList, pool_.get(), &stats_);
    }
    shuffle::SpillEncoder::Setup setup;
    setup.layout = shuffle::Layout::kKvList;
    setup.partitions = static_cast<std::uint32_t>(config_.reducers);
    setup.partitioner = shuffle::Partitioner(
        static_cast<std::uint32_t>(config_.reducers), config_.partitioner);
    setup.combine = &*combine_runner_;
    // Under node aggregation the per-mapper frames never touch the
    // fabric: they stage raw for the node's combine tree, which decodes,
    // merges and only then codec-frames the merged stream (the leader's
    // compressor_ moves to the aggregator in node_agg_finalize()).
    setup.compressor =
        (compressor_ && !node_agg()) ? &*compressor_ : nullptr;
    // Only the pipelined/resilient paths re-arm flushed writers from the
    // pool; the blocking A/B path restarts each frame empty, as it always
    // has.
    setup.pool = (config_.pipelined_shuffle || resilient()) ? pool_.get()
                                                            : nullptr;
    setup.counters = &stats_;
    if (node_agg()) {
      setup.sink = [this](std::uint32_t /*partition: re-derived from the
                            keys by the aggregator's partitioner*/,
                          std::vector<std::byte> frame, bool) {
        node_staged_.push_back(std::move(frame));
      };
    } else {
      setup.sink = [this](std::uint32_t partition,
                          std::vector<std::byte> frame,
                          bool /*codec_framed: self-describing framing*/) {
        transport_send(partition, std::move(frame));
      };
    }
    encoder_.emplace(config_, std::move(setup));
  } else {
    role_ = Role::kReducer;
    if (compression_on()) {
      decoder_.emplace(config_.partition_frame_bytes, pool_.get(), &stats_);
    }
    if (resilient()) {
      recv_lanes_.resize(static_cast<std::size_t>(config_.mappers));
      if (auto* inj = injector()) {
        crash_tick_ = inj->crash_tick(fault::TaskKind::kReduce,
                                      reducer_index(), attempt_);
      }
    }
  }
  if (resilient() && config_.fault_injector) {
    // Arm transport faults on the data channel only: SEAL, ACK/NACK,
    // REPULL and the done/ack handshake stay reliable so recovery itself
    // cannot be lost. The world hook is install-once (first caller wins),
    // so every rank registering the same injector is fine.
    auto inj = config_.fault_injector;
    inj->add_transport_scope(data_comm_.context(), kDataTag);
    comm.world().install_transport_hook(
        [inj](const minimpi::TransportEvent& ev) {
          const fault::MessageFault f =
              inj->on_message(ev.context, ev.src, ev.dst, ev.tag, ev.bytes);
          minimpi::TransportFault out;
          out.drop = f.drop;
          out.duplicate = f.duplicate;
          out.corrupt = f.corrupt;
          out.corrupt_offset = f.corrupt_offset;
          out.corrupt_mask = f.corrupt_mask;
          out.delay = f.delay;
          return out;
        });
  }
}

int MpiD::mapper_index() const {
  if (role_ != Role::kMapper) throw std::logic_error("MpiD: not a mapper");
  return comm_.rank() - 1;
}

int MpiD::reducer_index() const {
  if (role_ != Role::kReducer) throw std::logic_error("MpiD: not a reducer");
  return comm_.rank() - 1 - config_.mappers;
}

std::uint32_t MpiD::partition_for(std::string_view key) const {
  const auto reducers = static_cast<std::uint32_t>(config_.reducers);
  if (!config_.partitioner) return common::hash_partition(key, reducers);
  const auto p = config_.partitioner(key, reducers);
  if (p >= reducers) {
    throw std::out_of_range("MpiD: partitioner returned index >= reducers");
  }
  return p;
}

minimpi::Rank MpiD::reducer_rank_for(std::string_view key) const {
  return 1 + config_.mappers + static_cast<minimpi::Rank>(partition_for(key));
}

void MpiD::ensure_role(Role expected, const char* what) const {
  if (role_ != expected) {
    throw std::logic_error(std::string("MpiD: ") + what +
                           " called on the wrong role");
  }
  if (finalized_) {
    throw std::logic_error(std::string("MpiD: ") + what +
                           " called after finalize");
  }
}

void MpiD::send(std::string_view key, std::string_view value) {
  ensure_role(Role::kMapper, "send (MPI_D_Send)");
  if (coded()) {
    throw std::logic_error(
        "MpiD: send (MPI_D_Send) is unavailable when coded_replication > 1 "
        "— run the task's sub-splits through run_map_coded instead");
  }
  ++stats_.pairs_sent;

  if (direct_realign_) {
    // Realign straight into the partition frame: one serialization per
    // pair instead of hash insert + value-list append + spill copy.
    encoder_->emit_direct(key, value);
    return;
  }

  map_buffer_->append(key, value);
  // "When the hash table buffer exceeds a particular size" — drain it
  // through the shared pipeline (partition select, spill-time combine,
  // realignment into partition frames).
  if (map_buffer_->should_spill()) encoder_->spill(*map_buffer_);
}

shuffle::WorkerPool& MpiD::worker_pool() {
  if (!worker_pool_) {
    std::size_t threads = 1;
    if (role_ == Role::kMapper) threads = config_.map_threads;
    if (role_ == Role::kReducer) threads = config_.reduce_threads;
    worker_pool_ = std::make_unique<shuffle::WorkerPool>(threads);
  }
  return *worker_pool_;
}

std::uint64_t MpiD::run_map_parallel(
    std::size_t chunk_count, const shuffle::ParallelMapper::ChunkFn& chunk_fn) {
  ensure_role(Role::kMapper, "run_map_parallel");
  if (coded()) {
    throw std::logic_error(
        "MpiD: run_map_parallel is unavailable when coded_replication > 1 — "
        "run_map_coded parallelizes across the r sub-pipelines instead");
  }
  shuffle::ParallelMapper::Setup setup;
  setup.layout = shuffle::Layout::kKvList;
  setup.partitions = static_cast<std::uint32_t>(config_.reducers);
  setup.partitioner = config_.partitioner;
  setup.combiner = config_.combiner;
  // Self-describing framing, like this rank's own compressor_ (which
  // stays idle here: the mapper owns its codec stage so the lanes'
  // counter commits cannot race it).
  setup.compress_framing = shuffle::WireFraming::kSelfDescribing;
  setup.compress_kind = common::FrameKind::kKvList;
  setup.counters = &stats_;
  // Sink runs under the mapper's sequencer lock: frames_sent /
  // bytes_sent / flush_wait_ns live in the Stats-derived block, disjoint
  // from the ShuffleCounters base fields the lane commits write.
  if (node_agg()) {
    setup.sink = [this](std::uint32_t, std::vector<std::byte> frame, bool) {
      node_staged_.push_back(std::move(frame));
    };
  } else {
    setup.sink = [this](std::uint32_t partition, std::vector<std::byte> frame,
                        bool /*codec_framed: self-describing framing*/) {
      transport_send(partition, std::move(frame));
    };
  }
  // Staged frames must reach the node's combine tree raw, so the lanes'
  // codec stage is disabled under aggregation (the merged stream is
  // codec-framed once, at the leader). The copy outlives the mapper.
  Config lane_config = config_;
  if (node_agg()) lane_config.shuffle_compression = ShuffleCompression::kOff;
  shuffle::ParallelMapper mapper(lane_config, std::move(setup));
  const std::uint64_t pairs = mapper.run(worker_pool(), chunk_count, chunk_fn);
  stats_.pairs_sent += pairs;
  return pairs;
}

void MpiD::drain_inflight(std::size_t partition) {
  auto& window = inflight_[partition];
  while (!window.empty()) {
    window.front().wait();
    window.pop_front();
  }
}

void MpiD::transport_send(std::size_t partition, std::vector<std::byte> frame) {
  // The destination is derived from the partition number automatically —
  // the mapper never names a rank (Section III, third challenge).
  const minimpi::Rank dst =
      1 + config_.mappers + static_cast<minimpi::Rank>(partition);
  const std::uint64_t start = now_ns();
  if (resilient()) {
    send_frame_resilient(partition, std::move(frame));
  } else if (config_.pipelined_shuffle) {
    stats_.bytes_sent += frame.size();
    auto& window = inflight_[partition];
    while (window.size() >= config_.max_inflight_frames) {
      window.front().wait();
      window.pop_front();
    }
    window.push_back(
        data_comm_.isend_bytes_owned(dst, kDataTag, std::move(frame)));
  } else {
    data_comm_.send_bytes(dst, kDataTag, frame);
    stats_.bytes_sent += frame.size();
  }
  ++stats_.frames_sent;
  stats_.flush_wait_ns += now_ns() - start;
}

void MpiD::post_prefetch() {
  prefetch_buf_.clear();
  prefetch_req_ = data_comm_.irecv_bytes(minimpi::kAnySource,
                                         minimpi::kAnyTag, prefetch_buf_);
  prefetch_posted_ = true;
}

bool MpiD::fetch_delivery_frame() {
  std::vector<std::byte> frame;
  bool raw = false;  // already decoded (local or coded) — skip the codec
  if (coded_local_cursor_ < coded_local_.size()) {
    // Local delivery first: this reducer's own partition of its replica
    // map work never crossed the fabric. Copied, not moved —
    // restart_reducer() rewinds the cursor and re-delivers.
    frame = coded_local_[coded_local_cursor_++];
    raw = true;
  } else if (resilient()) {
    resilient_collect();
    if (collected_.empty()) return false;
    // frames_received/bytes_received were counted at collection time.
    raw = !collected_.front().codec_framed;
    frame = std::move(collected_.front().bytes);
    collected_.pop_front();
  } else {
    for (;;) {
      if (eos_received_ == eos_target()) return false;
      minimpi::Status st;
      if (config_.pipelined_shuffle) {
        if (!prefetch_posted_) post_prefetch();
        st = prefetch_req_.wait();
        prefetch_posted_ = false;
        frame = std::move(prefetch_buf_);
        // Keep exactly one wildcard receive posted ahead while more
        // traffic is expected, so reverse realignment of this frame
        // overlaps the arrival of the next. Never leave one posted once
        // every mapper has signalled end-of-stream: the finalize ack must
        // not be stolen.
        if (st.tag == kEosTag) ++eos_received_;
        if (eos_received_ < eos_target()) post_prefetch();
        if (st.tag == kEosTag) continue;
      } else {
        st = data_comm_.recv_bytes(minimpi::kAnySource, minimpi::kAnyTag,
                                   frame);
        if (st.tag == kEosTag) {
          ++eos_received_;
          continue;
        }
      }
      if (st.tag != kDataTag) {
        throw std::runtime_error("MpiD: unexpected tag on data channel");
      }
      ++stats_.frames_received;
      stats_.bytes_received += frame.size();
      if (is_coded_source(st.source - 1)) {
        frame = decode_coded_payload(unit_of_mapper(st.source - 1),
                                     std::move(frame));
        if (frame.empty()) continue;  // my stream had drained by that round
        raw = true;
      }
      break;
    }
  }
  if (!raw && compression_on()) frame = decoder_->decode(std::move(frame));
  delivery_frame_ = std::move(frame);
  // The reader is (re)constructed only after the move above, so its span
  // aliases the frame's final storage.
  delivery_reader_.emplace(delivery_frame_);
  return true;
}

bool MpiD::next_group_view() {
  current_view_.reset();
  current_value_index_ = 0;
  for (;;) {
    if (delivery_reader_) {
      // Reverse realignment, one group at a time: the view aliases the
      // delivery frame, no materialization.
      if (auto group = delivery_reader_->next()) {
        current_view_ = std::move(*group);
        return true;
      }
      // Frame fully drained: its allocation goes back to the pool for the
      // next spill (in-process worlds recycle it straight to a mapper).
      delivery_reader_.reset();
      pool_->release(std::move(delivery_frame_));
      delivery_frame_ = std::vector<std::byte>{};
    }
    if (!fetch_delivery_frame()) return false;
  }
}

bool MpiD::delivery_pending() const noexcept {
  if (current_view_ && current_value_index_ < current_view_->values.size()) {
    return true;
  }
  return delivery_reader_ && !delivery_reader_->at_end();
}

bool MpiD::recv(std::string& key, std::string& value) {
  ensure_role(Role::kReducer, "recv (MPI_D_Recv)");
  for (;;) {
    if (current_view_ && current_value_index_ < current_view_->values.size()) {
      key.assign(current_view_->key);
      value.assign(current_view_->values[current_value_index_++]);
      ++stats_.pairs_received;
      return true;
    }
    if (!next_group_view()) return false;
  }
}

bool MpiD::recv_raw_frame(std::vector<std::byte>& frame) {
  ensure_role(Role::kReducer, "recv_raw_frame");
  if (current_view_ || delivery_reader_) {
    throw std::logic_error(
        "MpiD: recv_raw_frame cannot be mixed with recv()/recv_group()");
  }
  if (coded_local_cursor_ < coded_local_.size()) {
    frame = coded_local_[coded_local_cursor_++];
    return true;
  }
  if (resilient()) {
    resilient_collect();
    if (collected_.empty()) return false;
    const bool codec_framed = collected_.front().codec_framed;
    frame = std::move(collected_.front().bytes);
    collected_.pop_front();
    // Compressed payloads decode here, so shuffle::SegmentMerger always sees
    // the raw frame bytes — merge order and output are unchanged. (Coded
    // entries staged fully decoded.)
    if (codec_framed) frame = decoder_->decode(std::move(frame));
    return true;
  }
  for (;;) {
    if (eos_received_ == eos_target()) return false;
    const minimpi::Status st =
        data_comm_.recv_bytes(minimpi::kAnySource, minimpi::kAnyTag, frame);
    if (st.tag == kEosTag) {
      ++eos_received_;
      continue;
    }
    if (st.tag != kDataTag) {
      throw std::runtime_error("MpiD: unexpected tag on data channel");
    }
    ++stats_.frames_received;
    stats_.bytes_received += frame.size();
    if (is_coded_source(st.source - 1)) {
      frame = decode_coded_payload(unit_of_mapper(st.source - 1),
                                   std::move(frame));
      if (frame.empty()) continue;
      return true;
    }
    if (compression_on()) frame = decoder_->decode(std::move(frame));
    return true;
  }
}

bool MpiD::recv_wire_frame(std::vector<std::byte>& frame, bool& codec_framed) {
  ensure_role(Role::kReducer, "recv_wire_frame");
  if (current_view_ || delivery_reader_) {
    throw std::logic_error(
        "MpiD: recv_wire_frame cannot be mixed with recv()/recv_group()");
  }
  // Self-describing framing: with compression on, every uncoded frame on
  // the wire is a codec frame and the caller (SegmentMerger::prepare) owns
  // the decode. Local and coded frames hand over raw (already decoded).
  if (coded_local_cursor_ < coded_local_.size()) {
    frame = coded_local_[coded_local_cursor_++];
    codec_framed = false;
    return true;
  }
  if (resilient()) {
    resilient_collect();
    if (collected_.empty()) return false;
    codec_framed = collected_.front().codec_framed;
    frame = std::move(collected_.front().bytes);
    collected_.pop_front();
    return true;
  }
  for (;;) {
    if (eos_received_ == eos_target()) return false;
    const minimpi::Status st =
        data_comm_.recv_bytes(minimpi::kAnySource, minimpi::kAnyTag, frame);
    if (st.tag == kEosTag) {
      ++eos_received_;
      continue;
    }
    if (st.tag != kDataTag) {
      throw std::runtime_error("MpiD: unexpected tag on data channel");
    }
    ++stats_.frames_received;
    stats_.bytes_received += frame.size();
    if (is_coded_source(st.source - 1)) {
      frame = decode_coded_payload(unit_of_mapper(st.source - 1),
                                   std::move(frame));
      if (frame.empty()) continue;
      codec_framed = false;
      return true;
    }
    codec_framed = compression_on();
    return true;
  }
}

bool MpiD::recv_group(std::string& key, std::vector<std::string>& values) {
  ensure_role(Role::kReducer, "recv_group");
  // Hand back the undrained remainder of the current group (a recv() /
  // recv_group_views() caller may have consumed a prefix of it).
  if (!(current_view_ &&
        current_value_index_ < current_view_->values.size())) {
    if (!next_group_view()) return false;
  }
  key.assign(current_view_->key);
  values.clear();
  values.reserve(current_view_->values.size() - current_value_index_);
  for (std::size_t i = current_value_index_;
       i < current_view_->values.size(); ++i) {
    values.emplace_back(current_view_->values[i]);
  }
  stats_.pairs_received += values.size();
  current_view_.reset();
  current_value_index_ = 0;
  return true;
}

bool MpiD::recv_group_views(std::string_view& key,
                            std::vector<std::string_view>& values) {
  ensure_role(Role::kReducer, "recv_group_views");
  if (!(current_view_ &&
        current_value_index_ < current_view_->values.size())) {
    if (!next_group_view()) return false;
  }
  key = current_view_->key;
  values.assign(current_view_->values.begin() +
                    static_cast<std::ptrdiff_t>(current_value_index_),
                current_view_->values.end());
  stats_.pairs_received += values.size();
  // Mark the group consumed but keep the frame alive: the views stay
  // valid until the next recv_* call advances past it.
  current_value_index_ = current_view_->values.size();
  return true;
}

void MpiD::finalize() {
  if (finalized_) throw std::logic_error("MpiD: finalize called twice");
  round_barrier(/*final=*/true);
  finalized_ = true;
}

void MpiD::next_round() {
  if (finalized_) {
    throw std::logic_error("MpiD: next_round called after finalize");
  }
  if (coded()) {
    throw std::logic_error(
        "MpiD: next_round is incompatible with coded_replication > 1");
  }
  if (rounds_completed_ + 2 >
      static_cast<int>(config_.resident_rounds)) {
    throw std::logic_error(
        "MpiD: next_round would exceed Config::resident_rounds (" +
        std::to_string(config_.resident_rounds) +
        ") — the round after this barrier could never finalize");
  }
  round_barrier(/*final=*/false);
  rearm_for_next_round();
}

void MpiD::round_barrier(bool final) {
  // The round this barrier completes, 1-based, stamped into the shipped
  // stats so the master's fold proves the round count (max-aggregated).
  if (config_.resident_rounds > 1 && role_ != Role::kMaster) {
    stats_.chain_rounds =
        static_cast<std::uint64_t>(rounds_completed_) + 1;
  }

  switch (role_) {
    case Role::kMapper: {
      if (coded()) {
        // The coded matrix ships whole from here: off-home partitions
        // point-to-point, home diagonal streams as XOR multicast rounds.
        // (run_map_coded staged everything; the regular encoder_ pipeline
        // carried no pairs, so its flush would be a no-op anyway.)
        coded_mapper_finalize();
        if (node_agg() && mapper_index() % ranks_per_node() != 0) {
          data_comm_.send_value(0, kDoneTag, stats_);
          (void)data_comm_.recv_value<int>(0, kAckTag);
          break;
        }
      } else {
        if (map_buffer_) encoder_->spill(*map_buffer_);
        encoder_->flush_all();
        if (node_agg()) {
          node_agg_finalize();
          if (mapper_index() % ranks_per_node() != 0) {
            // Non-leaders shipped nothing across the fabric: no windows to
            // drain, no lanes to seal — just the done handshake. The recv
            // is source- and tag-selective, so nothing else can steal it.
            data_comm_.send_value(0, kDoneTag, stats_);
            (void)data_comm_.recv_value<int>(0, kAckTag);
            break;
          }
        }
      }
      // Close every in-flight window before end-of-stream: EOS must not
      // overtake data (it cannot — same (source, context) lane — but a
      // drained window also returns the request bookkeeping to a clean
      // state before the final handshake).
      for (std::size_t p = 0; p < inflight_.size(); ++p) drain_inflight(p);
      if (resilient()) {
        resilient_mapper_finalize();
        break;
      }
      for (int r = 0; r < config_.reducers; ++r) {
        data_comm_.send_bytes(1 + config_.mappers + r, kEosTag, {});
      }
      data_comm_.send_value(0, kDoneTag, stats_);
      (void)data_comm_.recv_value<int>(0, kAckTag);
      break;
    }
    case Role::kReducer: {
      if (eos_received_ != eos_target() || delivery_pending() ||
          !collected_.empty() || coded_local_cursor_ < coded_local_.size()) {
        throw std::logic_error(
            "MpiD: reducer must drain recv() before finalize");
      }
      data_comm_.send_value(0, kDoneTag, stats_);
      (void)data_comm_.recv_value<int>(0, kAckTag);
      break;
    }
    case Role::kMaster: {
      const int workers = config_.mappers + config_.reducers;
      Stats round_total;
      for (int i = 0; i < workers; ++i) {
        minimpi::Status st;
        const auto s = data_comm_.recv_value<Stats>(minimpi::kAnySource,
                                                    kDoneTag, &st);
        round_total += s;
        if (final) {
          // Task completions are counted once, at the last barrier — a
          // chained rank runs every round, it doesn't complete per round.
          if (st.source <= config_.mappers) {
            ++report_.mappers_completed;
          } else {
            ++report_.reducers_completed;
          }
        }
      }
      report_.totals += round_total;
      report_.round_totals.push_back(round_total);
      for (int r = 1; r <= workers; ++r) data_comm_.send_value(r, kAckTag, 0);
      break;
    }
  }
  ++rounds_completed_;
}

void MpiD::rearm_for_next_round() {
  stats_ = Stats{};
  switch (role_) {
    case Role::kMapper: {
      if (map_buffer_) map_buffer_->clear();
      node_staged_.clear();
      // The barrier flushed every pending frame, so reset() only clears
      // bookkeeping; the writers keep their allocations for round N+1.
      encoder_->reset();
      if (resilient()) {
        // Fresh incarnation per round: a reducer lane distinguishes round
        // N+1 frames (higher incarnation adopts and resets the lane) from
        // any stale round-N duplicate (lower incarnation drops).
        ++incarnation_;
        for (auto& lane : lanes_) {
          lane.next_seq = 0;
          lane.retained.clear();
        }
      }
      break;
    }
    case Role::kReducer: {
      for (auto& lane : recv_lanes_) {
        // Every mapper bumps its incarnation per round, so the next
        // round's frames carry a higher stamp than this round's. Raise
        // the floor now: frames and SEALs still stamped with this round's
        // incarnation (retransmits a repull or NACK left in flight after
        // the lane completed) are leftovers and must not fill, or
        // complete, the next round's lane.
        ++lane.incarnation;
        lane.frames.clear();
        lane.sealed_total.reset();
        lane.complete = false;
      }
      collected_.clear();
      collected_ready_ = false;
      current_view_.reset();
      delivery_reader_.reset();
      if (!delivery_frame_.empty()) pool_->release(std::move(delivery_frame_));
      delivery_frame_ = std::vector<std::byte>{};
      current_value_index_ = 0;
      eos_received_ = 0;
      // progress_ticks_ / crash_tick_ are NOT reset: an injected reducer
      // crash plan spans the chain, so a tick budget larger than one
      // round's traffic fires mid-chain (the restart-under-chaining test
      // path). restart_reducer() re-arms them per attempt as usual.
      break;
    }
    case Role::kMaster:
      break;
  }
}

// ------------------------------------------------- node-local aggregation --

void MpiD::node_agg_finalize() {
  const int self = mapper_index();
  const int leader = (self / ranks_per_node()) * ranks_per_node();
  if (self != leader) {
    // Forward the staged stream to the node's leader over the reliable
    // intra-node tag, in frame order; the empty payload closes it.
    for (auto& frame : node_staged_) {
      data_comm_.send_bytes(1 + leader, kNodeTag, frame);
    }
    data_comm_.send_bytes(1 + leader, kNodeTag, {});
    node_staged_.clear();
    return;
  }
  // Leader: merge every member stream through the node's combine tree in
  // fixed member order — self first (the leader is the lowest co-located
  // index), then peers by ascending mapper index — so the merged stream
  // is deterministic. The tree's sink is transport_send(): under the
  // resilient shuffle the AGGREGATED frames are what the lanes retain,
  // so NACK/REPULL retransmission re-serves exactly these bytes.
  shuffle::NodeAggregator::Setup setup;
  setup.out_layout = shuffle::Layout::kKvList;
  setup.partitions = static_cast<std::uint32_t>(config_.reducers);
  setup.partitioner = shuffle::Partitioner(
      static_cast<std::uint32_t>(config_.reducers), config_.partitioner);
  setup.combine = &*combine_runner_;
  setup.compressor = compressor_ ? &*compressor_ : nullptr;
  setup.pool = pool_.get();
  setup.budget = memory_budget();
  setup.counters = &stats_;
  setup.sink = [this](std::uint32_t partition, std::vector<std::byte> frame,
                      bool /*codec_framed: self-describing framing*/) {
    transport_send(partition, std::move(frame));
  };
  shuffle::NodeAggregator agg(config_, std::move(setup));
  for (auto& frame : node_staged_) {
    agg.add_frame(frame, shuffle::Layout::kKvList);
    pool_->release(std::move(frame));
  }
  node_staged_.clear();
  const int node_end = std::min(leader + ranks_per_node(), config_.mappers);
  std::vector<std::byte> msg;
  for (int m = leader + 1; m < node_end; ++m) {
    for (;;) {
      // Source- and tag-selective: a queued REPULL or lane control from a
      // restarted reducer stays pending for resilient_mapper_finalize().
      data_comm_.recv_bytes(1 + m, kNodeTag, msg);
      if (msg.empty()) break;
      agg.add_frame(msg, shuffle::Layout::kKvList);
    }
  }
  agg.finish();
}

// ---------------------------------------------------------- coded shuffle --

void MpiD::run_coded_pipeline(
    const std::function<void(const CodedEmitFn&)>& body,
    shuffle::ShuffleCounters* counters, shuffle::SpillEncoder::FrameSink sink) {
  // Every knob that could perturb frame boundaries is pinned — no codec,
  // no budget-driven early drains, no pool re-arming, the configured flush
  // cadence — so any rank replaying the same records produces the byte-
  // identical frame sequence the XOR coding aligns on.
  shuffle::CombineRunner combine(config_.combiner, counters);
  shuffle::MapOutputBuffer buffer(config_, &combine, counters, nullptr);
  shuffle::SpillEncoder::Setup setup;
  setup.layout = shuffle::Layout::kKvList;
  setup.partitions = static_cast<std::uint32_t>(config_.reducers);
  setup.partitioner = shuffle::Partitioner(
      static_cast<std::uint32_t>(config_.reducers), config_.partitioner);
  setup.combine = &combine;
  setup.counters = counters;
  setup.sink = std::move(sink);
  shuffle::SpillEncoder encoder(config_, std::move(setup));
  const CodedEmitFn emit = [&](std::string_view key, std::string_view value) {
    buffer.append(key, value);
    if (buffer.should_spill()) encoder.spill(buffer);
  };
  body(emit);
  encoder.spill(buffer);
  encoder.flush_all();
}

std::uint64_t MpiD::run_map_coded(const CodedSubMapFn& sub_map) {
  ensure_role(Role::kMapper, "run_map_coded");
  if (!coded()) {
    throw std::logic_error(
        "MpiD: run_map_coded requires coded_replication > 1");
  }
  const std::size_t r = config_.coded_replication;
  coded_streams_.assign(
      r, PartitionStreams(static_cast<std::size_t>(config_.reducers)));
  // Each sub-pipeline is private (own buffer, combine table, encoder,
  // scratch counters, staging row), so the r sub-splits map in parallel
  // on the worker pool with no shared mutable state; the scratch blocks
  // merge sequentially after the pool's join.
  std::vector<shuffle::ShuffleCounters> scratch(r);
  std::vector<std::uint64_t> pairs(r, 0);
  const auto run_sub = [&](std::size_t sub, std::size_t /*worker*/) {
    run_coded_pipeline(
        [&](const CodedEmitFn& emit) {
          sub_map(static_cast<int>(sub),
                  [&](std::string_view key, std::string_view value) {
                    ++pairs[sub];
                    emit(key, value);
                  });
        },
        &scratch[sub],
        [this, sub](std::uint32_t partition, std::vector<std::byte> frame,
                    bool /*codec_framed: never — no codec in the pipeline*/) {
          coded_streams_[sub][partition].push_back(std::move(frame));
        });
  };
  if (config_.map_threads > 1) {
    worker_pool().run(r, run_sub);
  } else {
    for (std::size_t sub = 0; sub < r; ++sub) run_sub(sub, 0);
  }
  std::uint64_t total = 0;
  for (std::size_t sub = 0; sub < r; ++sub) {
    stats_.merge(scratch[sub]);
    total += pairs[sub];
  }
  stats_.pairs_sent += total;
  return total;
}

std::vector<MpiD::PartitionStreams> MpiD::coded_unit_matrix() {
  if (!node_agg()) return std::move(coded_streams_);
  const int self = mapper_index();
  const int leader = (self / ranks_per_node()) * ranks_per_node();
  const std::size_t r = config_.coded_replication;
  const auto partitions = static_cast<std::size_t>(config_.reducers);
  if (self != leader) {
    // Forward each sub's streams in canonical (partition, index) order on
    // the reliable intra-node tag; the empty payload closes one sub.
    for (std::size_t sub = 0; sub < r; ++sub) {
      for (auto& stream : coded_streams_[sub]) {
        for (auto& frame : stream) {
          data_comm_.send_bytes(1 + leader, kNodeTag, frame);
        }
      }
      data_comm_.send_bytes(1 + leader, kNodeTag, {});
    }
    coded_streams_.clear();
    return {};
  }
  // Leader: merge the node's member streams per sub through the same
  // deterministic combine tree the home-group reducers will replay —
  // fixed member order (self first = ascending index), canonical frame
  // order within a member, no codec, no budget — so the aggregated
  // matrix is reproducible byte for byte.
  std::vector<PartitionStreams> matrix(r, PartitionStreams(partitions));
  const int node_end = std::min(leader + ranks_per_node(), config_.mappers);
  std::vector<std::byte> msg;
  for (std::size_t sub = 0; sub < r; ++sub) {
    shuffle::NodeAggregator::Setup setup;
    setup.out_layout = shuffle::Layout::kKvList;
    setup.partitions = static_cast<std::uint32_t>(config_.reducers);
    setup.partitioner = shuffle::Partitioner(
        static_cast<std::uint32_t>(config_.reducers), config_.partitioner);
    setup.combine = &*combine_runner_;
    setup.counters = &stats_;
    setup.sink = [&matrix, sub](std::uint32_t partition,
                                std::vector<std::byte> frame, bool) {
      matrix[sub][partition].push_back(std::move(frame));
    };
    shuffle::NodeAggregator agg(config_, std::move(setup));
    for (auto& stream : coded_streams_[sub]) {
      for (auto& frame : stream) agg.add_frame(frame, shuffle::Layout::kKvList);
    }
    for (int m = leader + 1; m < node_end; ++m) {
      for (;;) {
        // Source-selective, like node_agg_finalize: queued lane control
        // from a restarted reducer stays pending.
        data_comm_.recv_bytes(1 + m, kNodeTag, msg);
        if (msg.empty()) break;
        agg.add_frame(msg, shuffle::Layout::kKvList);
      }
    }
    agg.finish();
  }
  coded_streams_.clear();
  return matrix;
}

void MpiD::coded_mapper_finalize() {
  auto matrix = coded_unit_matrix();
  if (matrix.empty()) return;  // node-agg member: the leader ships
  const std::size_t r = config_.coded_replication;
  const auto unit = static_cast<std::size_t>(unit_of_mapper(mapper_index()));
  const std::size_t home = placement_.home_group(unit);
  // Off-home partitions ship point-to-point exactly like the uncoded
  // shuffle — codec-framed here (the coded pipelines realign raw so the
  // replicas stay aligned) — in deterministic (partition, sub, index)
  // order.
  for (std::size_t q = 0; q < static_cast<std::size_t>(config_.reducers);
       ++q) {
    if (placement_.group_of_reducer(q) == home) continue;
    for (std::size_t sub = 0; sub < r; ++sub) {
      for (auto& frame : matrix[sub][q]) {
        if (compressor_) {
          bool codec_framed = false;
          frame = compressor_->encode(std::move(frame), codec_framed);
        }
        transport_send(q, std::move(frame));
      }
    }
  }
  // Home group: only the diagonal {sub i → reducer base+i} crosses the
  // fabric, XOR-folded r-into-1 per round. The off-diagonal home frames
  // are exactly what the group's reducers recompute locally as side
  // information and own-partition input, so they ship nowhere.
  const std::size_t base = placement_.group_base(home);
  std::size_t rounds = 0;
  for (std::size_t i = 0; i < r; ++i) {
    rounds = std::max(rounds, matrix[i][base + i].size());
  }
  for (std::uint32_t k = 0; k < rounds; ++k) {
    std::vector<std::span<const std::byte>> terms(r);
    for (std::size_t i = 0; i < r; ++i) {
      const auto& stream = matrix[i][base + i];
      if (k < stream.size()) terms[i] = stream[k];
    }
    auto payload = shuffle::coded_encode(terms, k, &stats_);
    if (compressor_) {
      // The codec wraps the coded payload: pre/post_coding accounted the
      // XOR fold above, the compressor's counters account this stage.
      bool codec_framed = false;
      payload = compressor_->encode(std::move(payload), codec_framed);
    }
    coded_multicast_send(std::move(payload));
  }
}

void MpiD::coded_multicast_send(std::vector<std::byte> payload) {
  const auto unit = static_cast<std::size_t>(unit_of_mapper(mapper_index()));
  const std::size_t base = placement_.group_base(placement_.home_group(unit));
  const std::size_t r = config_.coded_replication;
  std::vector<minimpi::Rank> dsts(r);
  for (std::size_t i = 0; i < r; ++i) {
    dsts[i] = 1 + config_.mappers + static_cast<minimpi::Rank>(base + i);
  }
  const std::uint64_t start = now_ns();
  if (resilient()) {
    // Home lanes carry nothing but coded rounds, so the group's r lanes
    // advance in lockstep: one framed buffer, one header, one sequence
    // number — retained in every lane for NACK/REPULL service.
    const std::uint32_t seq_field =
        lanes_[base].next_seq | (compression_on() ? kSeqCodecBit : 0u);
    std::vector<std::byte> framed;
    framed.reserve(kFrameHeaderBytes + payload.size());
    put_u32(framed, incarnation_);
    put_u32(framed, seq_field);
    put_u64(framed, frame_checksum(incarnation_, seq_field, payload));
    framed.insert(framed.end(), payload.begin(), payload.end());
    for (std::size_t i = 0; i < r; ++i) {
      auto& lane = lanes_[base + i];
      lane.retained.push_back(framed);
      ++lane.next_seq;
    }
    // One wire transmission per group: that is the whole point, and the
    // counter says so honestly.
    stats_.bytes_sent += framed.size();
    data_comm_.multicast_bytes_owned(dsts, kDataTag, std::move(framed));
  } else {
    stats_.bytes_sent += payload.size();
    data_comm_.multicast_bytes_owned(dsts, kDataTag, std::move(payload));
  }
  ++stats_.frames_sent;
  stats_.flush_wait_ns += now_ns() - start;
}

void MpiD::run_reduce_side_map(const CodedReplicaMapFn& replica_map) {
  ensure_role(Role::kReducer, "run_reduce_side_map");
  if (!coded()) {
    throw std::logic_error(
        "MpiD: run_reduce_side_map requires coded_replication > 1");
  }
  if (eos_received_ != 0 || !coded_units_.empty()) {
    throw std::logic_error(
        "MpiD: run_reduce_side_map must run once, before the first recv");
  }
  const std::size_t r = config_.coded_replication;
  const auto q = static_cast<std::size_t>(reducer_index());
  const std::size_t group = placement_.group_of_reducer(q);
  const std::size_t pos = placement_.pos_of_reducer(q);
  const auto units =
      static_cast<std::size_t>(node_agg() ? node_count() : config_.mappers);
  // Replica compute accounts into scratch, never stats_: the redundant
  // work is the modeled price of the wire cut, and folding it here would
  // double-count the dataflow counters parity tests assert on.
  shuffle::ShuffleCounters replica_scratch;
  for (std::size_t unit = 0; unit < units; ++unit) {
    if (placement_.home_group(unit) != group) continue;
    CodedUnitState state;
    state.side.resize(r);
    for (std::size_t sub = 0; sub < r; ++sub) {
      if (sub == pos) continue;  // my own sub arrives coded, not replayed
      PartitionStreams streams(static_cast<std::size_t>(config_.reducers));
      const auto stage = [&streams](std::uint32_t partition,
                                    std::vector<std::byte> frame, bool) {
        streams[partition].push_back(std::move(frame));
      };
      if (!node_agg()) {
        run_coded_pipeline(
            [&](const CodedEmitFn& emit) {
              replica_map(static_cast<int>(unit), static_cast<int>(sub),
                          emit);
            },
            &replica_scratch, stage);
      } else {
        // Replay every member mapper of node `unit`, then the node's
        // combine tree, in the exact canonical order the leader used:
        // members ascending, each member's frames in (partition, index)
        // order.
        const int node_start = static_cast<int>(unit) * ranks_per_node();
        const int node_end =
            std::min(node_start + ranks_per_node(), config_.mappers);
        shuffle::CombineRunner combine(config_.combiner, &replica_scratch);
        shuffle::NodeAggregator::Setup setup;
        setup.out_layout = shuffle::Layout::kKvList;
        setup.partitions = static_cast<std::uint32_t>(config_.reducers);
        setup.partitioner = shuffle::Partitioner(
            static_cast<std::uint32_t>(config_.reducers), config_.partitioner);
        setup.combine = &combine;
        setup.counters = &replica_scratch;
        setup.sink = stage;
        shuffle::NodeAggregator agg(config_, std::move(setup));
        for (int m = node_start; m < node_end; ++m) {
          PartitionStreams member(
              static_cast<std::size_t>(config_.reducers));
          run_coded_pipeline(
              [&](const CodedEmitFn& emit) {
                replica_map(m, static_cast<int>(sub), emit);
              },
              &replica_scratch,
              [&member](std::uint32_t partition, std::vector<std::byte> frame,
                        bool) {
                member[partition].push_back(std::move(frame));
              });
          for (auto& stream : member) {
            for (auto& frame : stream) {
              agg.add_frame(frame, shuffle::Layout::kKvList);
            }
          }
        }
        agg.finish();
      }
      // The diagonal frame sequence is the side information; the frames
      // of my own partition are local input (they never hit the fabric).
      state.side[sub] = std::move(streams[placement_.group_base(group) + sub]);
      for (auto& frame : streams[q]) {
        coded_local_.push_back(std::move(frame));
      }
    }
    coded_units_.emplace(static_cast<int>(unit), std::move(state));
  }
}

std::vector<std::byte> MpiD::decode_coded_payload(
    int unit, std::vector<std::byte> payload) {
  if (compression_on()) payload = decoder_->decode(std::move(payload));
  const auto it = coded_units_.find(unit);
  if (it == coded_units_.end()) {
    throw std::logic_error(
        "MpiD: coded frame from unit " + std::to_string(unit) +
        " but its side terms are missing — call run_reduce_side_map before "
        "the first recv");
  }
  const auto& side = it->second.side;
  const std::size_t pos = placement_.pos_of_reducer(
      static_cast<std::size_t>(reducer_index()));
  return shuffle::coded_decode(
      payload, pos,
      [&side](std::size_t sub, std::uint32_t round)
          -> std::span<const std::byte> {
        if (sub >= side.size() || round >= side[sub].size()) return {};
        return side[sub][round];
      },
      &stats_);
}

// ------------------------------------------------------ resilient shuffle --

void MpiD::send_frame_resilient(std::size_t partition,
                                std::vector<std::byte> payload) {
  auto& lane = lanes_[partition];
  // The payload is already codec-framed when compression is on; the codec
  // bit rides in the seq field and the checksum covers the compressed
  // bytes, so retransmits re-ship the identical framed buffer.
  const std::uint32_t seq_field =
      lane.next_seq | (compression_on() ? kSeqCodecBit : 0u);
  std::vector<std::byte> framed;
  framed.reserve(kFrameHeaderBytes + payload.size());
  put_u32(framed, incarnation_);
  put_u32(framed, seq_field);
  put_u64(framed, frame_checksum(incarnation_, seq_field, payload));
  framed.insert(framed.end(), payload.begin(), payload.end());
  pool_->release(std::move(payload));
  ++lane.next_seq;
  // Retain a copy until the master's final ack: a restarted reducer can
  // re-pull the whole lane, a NACK any single frame.
  lane.retained.push_back(framed);
  stats_.bytes_sent += framed.size();
  const minimpi::Rank dst =
      1 + config_.mappers + static_cast<minimpi::Rank>(partition);
  auto& window = inflight_[partition];
  while (window.size() >= config_.max_inflight_frames) {
    window.front().wait();
    window.pop_front();
  }
  window.push_back(
      data_comm_.isend_bytes_owned(dst, kDataTag, std::move(framed)));
}

void MpiD::send_seal(int reducer) {
  // kEosTag is out of the injector's scope, so a SEAL always arrives; it
  // tells the reducer how many frames incarnation `incarnation_` shipped.
  std::vector<std::byte> seal;
  seal.reserve(8);
  put_u32(seal, incarnation_);
  put_u32(seal, lanes_[static_cast<std::size_t>(reducer)].next_seq);
  data_comm_.send_bytes(1 + config_.mappers + reducer, kEosTag, seal);
}

void MpiD::handle_lane_control(const minimpi::Status& st,
                               std::span<const std::byte> payload,
                               std::vector<char>& acked, int& remaining) {
  const int lane_idx = st.source - 1 - config_.mappers;
  if (lane_idx < 0 || lane_idx >= config_.reducers) {
    throw std::runtime_error("MpiD: lane control from a non-reducer rank");
  }
  const auto u = static_cast<std::size_t>(lane_idx);
  auto& lane = lanes_[u];
  switch (st.tag) {
    case kLaneAckTag: {
      if (!acked[u]) {
        acked[u] = 1;
        --remaining;
      }
      return;
    }
    case kLaneNackTag: {
      const std::uint64_t start = now_ns();
      if (payload.size() < 4) throw std::runtime_error("MpiD: short NACK");
      std::uint32_t count = 0;
      std::memcpy(&count, payload.data(), 4);
      if (payload.size() < 4 + std::size_t{count} * 4) {
        throw std::runtime_error("MpiD: truncated NACK");
      }
      std::uint32_t resent = 0;
      for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t seq = 0;
        std::memcpy(&seq, payload.data() + 4 + std::size_t{i} * 4, 4);
        if (seq >= lane.retained.size()) continue;  // stale-incarnation seq
        // Retransmits go back through the hooked send path: they can be
        // dropped again, and the next SEAL round NACKs again.
        data_comm_.send_bytes(st.source, kDataTag, lane.retained[seq]);
        ++resent;
      }
      stats_.frames_retransmitted += resent;
      ++stats_.retransmit_requests;
      send_seal(lane_idx);
      if (acked[u]) {
        acked[u] = 0;
        ++remaining;
      }
      if (auto* inj = injector()) {
        inj->record_recovery(
            fault::Kind::kRetransmit, "map:" + std::to_string(mapper_index()),
            std::to_string(resent) + " frames to reducer " +
                std::to_string(lane_idx));
      }
      stats_.recovery_wall_ns += now_ns() - start;
      return;
    }
    case kRepullTag: {
      const std::uint64_t start = now_ns();
      for (const auto& frame : lane.retained) {
        data_comm_.send_bytes(st.source, kDataTag, frame);
      }
      stats_.frames_retransmitted += lane.retained.size();
      ++stats_.retransmit_requests;
      send_seal(lane_idx);
      if (acked[u]) {
        acked[u] = 0;
        ++remaining;
      }
      if (auto* inj = injector()) {
        inj->record_recovery(
            fault::Kind::kRetransmit, "map:" + std::to_string(mapper_index()),
            "repull of " + std::to_string(lane.retained.size()) +
                " frames by reducer " + std::to_string(lane_idx));
      }
      stats_.recovery_wall_ns += now_ns() - start;
      return;
    }
    default:
      throw std::runtime_error("MpiD: unexpected tag in mapper finalize");
  }
}

void MpiD::resilient_mapper_finalize() {
  for (int r = 0; r < config_.reducers; ++r) send_seal(r);
  std::vector<char> acked(static_cast<std::size_t>(config_.reducers), 0);
  int remaining = config_.reducers;
  std::vector<std::byte> msg;
  while (remaining > 0) {
    const minimpi::Status st =
        data_comm_.recv_bytes(minimpi::kAnySource, minimpi::kAnyTag, msg);
    handle_lane_control(st, msg, acked, remaining);
  }
  data_comm_.send_value(0, kDoneTag, stats_);
  // A reducer can still restart after acking (its reduce function crashed)
  // and re-pull; keep servicing until the master's ack, which it sends
  // only once every reducer reported done — nothing can follow it.
  for (;;) {
    const minimpi::Status st =
        data_comm_.recv_bytes(minimpi::kAnySource, minimpi::kAnyTag, msg);
    if (st.source == 0 && st.tag == kAckTag) break;
    handle_lane_control(st, msg, acked, remaining);
  }
  for (auto& lane : lanes_) lane.retained.clear();
}

void MpiD::resilient_collect() {
  if (collected_ready_) return;
  // Under node aggregation only the node leaders ship lanes, so the
  // collection completes at eos_target() (= node count) sealed lanes;
  // the non-sender lanes simply never see traffic.
  int completed = 0;
  for (const auto& lane : recv_lanes_) completed += lane.complete ? 1 : 0;
  std::vector<std::byte> msg;
  while (completed < eos_target()) {
    const minimpi::Status st =
        data_comm_.recv_bytes(minimpi::kAnySource, minimpi::kAnyTag, msg);
    const int m = st.source - 1;
    if (m < 0 || m >= config_.mappers) {
      throw std::runtime_error("MpiD: resilient frame from a non-mapper rank");
    }
    auto& lane = recv_lanes_[static_cast<std::size_t>(m)];
    if (st.tag == kDataTag) {
      // Verify before trusting any header field: the checksum spans
      // (incarnation, seq, payload), so a flipped header bit cannot reset
      // a lane or claim a wrong slot.
      bool corrupt = msg.size() < kFrameHeaderBytes;
      FrameHeader hdr;
      if (!corrupt) {
        hdr = read_header(msg);
        const std::span<const std::byte> payload(
            msg.data() + kFrameHeaderBytes, msg.size() - kFrameHeaderBytes);
        corrupt = frame_checksum(hdr.incarnation, hdr.seq, payload) !=
                  hdr.checksum;
        // The codec bit must agree with this job's configured mode — the
        // mode is uniform across ranks, so a mismatch can only be a frame
        // the checksum happened to pass; drop it like any corruption.
        if (!corrupt &&
            ((hdr.seq & kSeqCodecBit) != 0) != compression_on()) {
          corrupt = true;
        }
        hdr.seq &= ~kSeqCodecBit;
      }
      if (corrupt) {
        ++stats_.corrupt_frames_dropped;
        if (auto* inj = injector()) {
          inj->note(fault::Kind::kCorruptDetected,
                    "reduce:" + std::to_string(reducer_index()),
                    "frame from mapper " + std::to_string(m));
        }
        continue;  // the mapper's SEAL round will NACK the gap
      }
      if (hdr.incarnation < lane.incarnation) {
        ++stats_.duplicate_frames_dropped;  // a dead attempt's frame
        continue;
      }
      if (hdr.incarnation > lane.incarnation) {
        // The mapper restarted: everything from the old attempt is void.
        if (lane.complete) {
          lane.complete = false;
          --completed;
        }
        lane.frames.clear();
        lane.sealed_total.reset();
        lane.incarnation = hdr.incarnation;
      }
      if (lane.frames.contains(hdr.seq)) {
        ++stats_.duplicate_frames_dropped;
        if (auto* inj = injector()) {
          inj->note(fault::Kind::kDuplicateDetected,
                    "reduce:" + std::to_string(reducer_index()),
                    "mapper " + std::to_string(m) + " seq " +
                        std::to_string(hdr.seq));
        }
        continue;
      }
      msg.erase(msg.begin(),
                msg.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes));
      ++stats_.frames_received;
      stats_.bytes_received += msg.size();
      lane.frames.emplace(hdr.seq, std::move(msg));
      msg = std::vector<std::byte>{};
      ++progress_ticks_;
      if (crash_tick_ && progress_ticks_ >= *crash_tick_) {
        crash_tick_.reset();
        if (auto* inj = injector()) {
          inj->note(fault::Kind::kTaskCrash,
                    "reduce:" + std::to_string(reducer_index()) + "#" +
                        std::to_string(attempt_));
        }
        throw fault::TaskCrash(fault::TaskKind::kReduce, reducer_index(),
                               attempt_);
      }
      if (lane.sealed_total && lane.frames.size() == *lane.sealed_total &&
          !lane.complete) {
        lane.complete = true;
        ++completed;
        data_comm_.send_bytes(st.source, kLaneAckTag, {});
      }
    } else if (st.tag == kEosTag) {
      if (msg.size() < 8) throw std::runtime_error("MpiD: short SEAL");
      std::uint32_t inc = 0;
      std::uint32_t total = 0;
      std::memcpy(&inc, msg.data(), 4);
      std::memcpy(&total, msg.data() + 4, 4);
      if (inc < lane.incarnation) continue;  // a dead attempt's seal
      if (inc > lane.incarnation) {
        if (lane.complete) {
          lane.complete = false;
          --completed;
        }
        lane.frames.clear();
        lane.incarnation = inc;
      }
      lane.sealed_total = total;
      if (lane.frames.size() == std::size_t{total}) {
        if (!lane.complete) {
          lane.complete = true;
          ++completed;
        }
        // (Re-)ACK: the mapper un-acks a lane whenever it retransmits.
        data_comm_.send_bytes(st.source, kLaneAckTag, {});
      } else {
        std::vector<std::uint32_t> missing;
        for (std::uint32_t s = 0; s < total; ++s) {
          if (!lane.frames.contains(s)) missing.push_back(s);
        }
        std::vector<std::byte> nack;
        nack.reserve(4 + missing.size() * 4);
        put_u32(nack, static_cast<std::uint32_t>(missing.size()));
        for (const auto s : missing) put_u32(nack, s);
        data_comm_.send_bytes(st.source, kLaneNackTag, nack);
      }
    } else {
      throw std::runtime_error("MpiD: unexpected tag on resilient channel");
    }
  }
  // Every lane sealed and complete: stage payloads for delivery in
  // (mapper, sequence) order. This is the batch boundary the config
  // comment documents — Hadoop's semantics, bought for recoverability.
  // Coded lanes decode fully here (codec, then XOR against the side
  // terms) — the checksum already vouched for the wire bytes, and staging
  // raw lets every recv_* flavor skip per-frame special cases.
  for (std::size_t m = 0; m < recv_lanes_.size(); ++m) {
    auto& lane = recv_lanes_[m];
    const bool coded_lane = is_coded_source(static_cast<int>(m));
    for (auto& [seq, payload] : lane.frames) {
      if (coded_lane) {
        auto decoded = decode_coded_payload(
            unit_of_mapper(static_cast<int>(m)), std::move(payload));
        if (decoded.empty()) continue;  // round carried nothing for us
        collected_.push_back(CollectedFrame{std::move(decoded), false});
      } else {
        collected_.push_back(
            CollectedFrame{std::move(payload), compression_on()});
      }
    }
    lane.frames.clear();
  }
  collected_ready_ = true;
  eos_received_ = eos_target();
}

void MpiD::restart_mapper() {
  if (role_ != Role::kMapper || !resilient()) {
    throw std::logic_error("MpiD: restart_mapper needs a resilient mapper");
  }
  if (finalized_) {
    throw std::logic_error("MpiD: restart_mapper called after finalize");
  }
  const std::uint64_t start = now_ns();
  ++attempt_;
  ++incarnation_;
  ++stats_.task_restarts;
  if (map_buffer_) map_buffer_->clear();
  node_staged_.clear();  // staged node-aggregation frames of the dead attempt
  coded_streams_.clear();  // staged coded matrix of the dead attempt
  for (std::size_t p = 0; p < inflight_.size(); ++p) drain_inflight(p);
  encoder_->reset();
  for (auto& lane : lanes_) {
    lane.next_seq = 0;
    lane.retained.clear();
  }
  if (auto* inj = injector()) {
    inj->record_recovery(fault::Kind::kTaskReexec,
                         "map:" + std::to_string(mapper_index()) + "#" +
                             std::to_string(attempt_),
                         "incarnation " + std::to_string(incarnation_));
  }
  stats_.recovery_wall_ns += now_ns() - start;
}

void MpiD::restart_reducer() {
  if (role_ != Role::kReducer || !resilient()) {
    throw std::logic_error("MpiD: restart_reducer needs a resilient reducer");
  }
  if (finalized_) {
    throw std::logic_error("MpiD: restart_reducer called after finalize");
  }
  const std::uint64_t start = now_ns();
  ++attempt_;
  ++stats_.task_restarts;
  for (auto& lane : recv_lanes_) {
    // Incarnations survive: they track the mappers' attempts, not ours.
    lane.frames.clear();
    lane.sealed_total.reset();
    lane.complete = false;
  }
  collected_.clear();
  collected_ready_ = false;
  // Side terms and local frames survive: the replica map work is
  // deterministic, so the re-pulled lanes decode against the same terms.
  // Only the delivery cursor rewinds.
  coded_local_cursor_ = 0;
  current_view_.reset();
  delivery_reader_.reset();
  if (!delivery_frame_.empty()) pool_->release(std::move(delivery_frame_));
  delivery_frame_ = std::vector<std::byte>{};
  current_value_index_ = 0;
  eos_received_ = 0;
  progress_ticks_ = 0;
  crash_tick_.reset();
  if (auto* inj = injector()) {
    crash_tick_ =
        inj->crash_tick(fault::TaskKind::kReduce, reducer_index(), attempt_);
    inj->record_recovery(fault::Kind::kRepull,
                         "reduce:" + std::to_string(reducer_index()) + "#" +
                             std::to_string(attempt_),
                         "re-pulling " + std::to_string(eos_target()) +
                             " lanes");
  }
  // Only the ranks that shipped lanes can re-serve them: every mapper
  // normally, the node leaders under node aggregation (their retained
  // lanes hold the aggregated frames).
  for (int m = 0; m < config_.mappers; ++m) {
    if (is_agg_sender(m)) data_comm_.send_bytes(1 + m, kRepullTag, {});
  }
  stats_.recovery_wall_ns += now_ns() - start;
}

const JobReport& MpiD::report() const {
  if (role_ != Role::kMaster || !finalized_) {
    throw std::logic_error("MpiD: report available on the master after finalize");
  }
  return report_;
}

}  // namespace mpid::core
