// MPI-D: the paper's minimal key-value extension to MPI.
//
// The paper adds one pair of calls to the MPI standard (Table II):
//
//     void MPI_D_Send(S_KEY_TYPE key,  S_VALUE_TYPE value);
//     void MPI_D_Recv(R_KEY_TYPE key,  R_VALUE_TYPE value);
//
// plus MPI_D_Init / MPI_D_Finalize. This class is that library: the
// constructor is MPI_D_Init, send() is MPI_D_Send, recv() is MPI_D_Recv
// and finalize() is MPI_D_Finalize. Everything between send() and recv()
// — buffering, local combination, hash-mod partition selection, data
// realignment into contiguous frames, wildcard-source reception and
// reverse realignment — happens inside the library, invisible to the
// application, exactly as Section IV.A describes.
//
// Implementation notes mirroring the paper:
//  * MPI_D_Send buffers key-value pairs in a hash table and returns
//    immediately; the combiner gathers pairs of the same key into a
//    (key, value-list) entry.
//  * When the buffer exceeds a threshold, entries are spilled through a
//    hash-mod partition selector (one partition per reducer, like Hadoop's
//    HashPartitioner) and realigned: reformatted from the discrete hash
//    table into address-sequential, bounded-size partition frames.
//  * Full frames are sent with plain MPI point-to-point sends; the
//    destination rank is derived from the partition number automatically.
//  * Reducers receive frames with wildcard-source MPI receives, reverse-
//    realign them into key-value pairs, and hand them to MPI_D_Recv in
//    streaming fashion.
//
// Typical mapper:                      Typical reducer:
//   MpiD d(comm, cfg);                   MpiD d(comm, cfg);
//   for (...) d.send(k, v);              std::string k, v;
//   d.finalize();                        while (d.recv(k, v)) consume(k, v);
//                                        d.finalize();
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mpid/common/framepool.hpp"
#include "mpid/common/kvframe.hpp"
#include "mpid/core/config.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/minimpi/comm.hpp"
#include "mpid/shuffle/buffer.hpp"
#include "mpid/shuffle/coded.hpp"
#include "mpid/shuffle/compress.hpp"
#include "mpid/store/budget.hpp"
#include "mpid/shuffle/engine.hpp"
#include "mpid/shuffle/parallel.hpp"
#include "mpid/shuffle/workerpool.hpp"

namespace mpid::core {

class MpiD {
 public:
  /// MPI_D_Init. `comm` must outlive this object; its size must equal
  /// config.world_size(). Collective: every rank constructs with the same
  /// configuration.
  MpiD(minimpi::Comm& comm, Config config);

  MpiD(const MpiD&) = delete;
  MpiD& operator=(const MpiD&) = delete;

  Role role() const noexcept { return role_; }
  int mapper_index() const;   // 0-based among mappers; throws if not mapper
  int reducer_index() const;  // 0-based among reducers; throws if not reducer

  /// MPI_D_Send — mapper only. Buffers (key, value); returns immediately
  /// unless a spill and frame transmissions are triggered.
  void send(std::string_view key, std::string_view value);

  /// Thread-parallel MPI_D_Send batch — mapper only, the hybrid
  /// process+threads path (Config::map_threads > 1). Runs `chunk_fn` over
  /// [0, chunk_count) input chunks on this rank's worker pool: each chunk
  /// emits its pairs through the per-worker buffer/combine/spill lanes of
  /// a shuffle::ParallelMapper whose sink is this rank's transport, and
  /// frames ship in deterministic chunk order — the wire bytes are
  /// identical for every thread count. Returns the pairs emitted (also
  /// accounted into stats().pairs_sent). Must not be interleaved with
  /// send() mid-batch; finalize() as usual afterwards.
  std::uint64_t run_map_parallel(std::size_t chunk_count,
                                 const shuffle::ParallelMapper::ChunkFn& chunk_fn);

  // --- coded shuffle (Config::coded_replication > 1; DESIGN.md §15) ---

  /// Pair emitter handed to the coded map callbacks.
  using CodedEmitFn =
      std::function<void(std::string_view key, std::string_view value)>;
  /// Maps one of the r fixed sub-splits of a task's input: called as
  /// fn(sub, emit) and must emit exactly the pairs of sub-split `sub` —
  /// deterministically, because the home-group reducers re-run the same
  /// callback to regenerate these frames as side information.
  using CodedSubMapFn = std::function<void(int sub, const CodedEmitFn&)>;
  /// Reducer-side replica of mapper `mapper`'s sub-split `sub` (same
  /// determinism contract; the runner replays the mapper's input split).
  using CodedReplicaMapFn =
      std::function<void(int mapper, int sub, const CodedEmitFn&)>;

  /// Coded MPI_D_Send batch — mapper only, replaces send() when
  /// coded_replication > 1. Runs the task's r sub-splits through r
  /// private deterministic pipelines (parallel across the worker pool
  /// when map_threads > 1); the realigned frames stay staged until
  /// finalize(), which ships off-home partitions point-to-point and the
  /// home group's aligned diagonal streams as XOR-coded multicast
  /// rounds. Returns the pairs emitted (also counted into pairs_sent).
  std::uint64_t run_map_coded(const CodedSubMapFn& sub_map);

  /// The reducer's redundant map work — reducer only, must run BEFORE the
  /// first recv when coded_replication > 1. Replays sub-splits i != (this
  /// reducer's group position) of every home-group map task through the
  /// identical pipeline: the diagonal frames become the side information
  /// that decodes incoming coded payloads, and the frames of this
  /// reducer's own partition enter the delivery stream locally (they
  /// never cross the fabric — part of the structural cut). All replica
  /// pipelines account into scratch counters, NOT stats(): the redundant
  /// compute is charged by the cluster model, and folding it here would
  /// double-count the dataflow counters parity tests assert on.
  void run_reduce_side_map(const CodedReplicaMapFn& replica_map);

  /// The coded placement (valid whenever coded_replication >= 1).
  const shuffle::CodedPlacement& coded_placement() const noexcept {
    return placement_;
  }

  /// MPI_D_Recv — reducer only. Produces the next pair in streaming order;
  /// returns false once every mapper's end-of-stream marker has been
  /// consumed and no buffered pairs remain.
  bool recv(std::string& key, std::string& value);

  /// Grouped variant: one (key, value-list) segment as realigned by the
  /// sending mapper. The same key can appear in multiple segments (one per
  /// mapper/spill); global grouping is the caller's job (see mapred).
  bool recv_group(std::string& key, std::vector<std::string>& values);

  /// Zero-copy grouped variant: `key` and `values` are views into the
  /// delivery frame, valid only until the next recv_* call on this
  /// instance. The owning recv()/recv_group() overloads are thin
  /// materializations of this path, so a caller that only inspects the
  /// group (aggregate, count, forward) skips the per-pair string copies.
  bool recv_group_views(std::string_view& key,
                        std::vector<std::string_view>& values);

  /// Raw-frame variant: one realigned partition frame exactly as a mapper
  /// shipped it; false once all mappers signalled end-of-stream. Feed the
  /// frames to shuffle::SegmentMerger (shuffle/merger.hpp) for
  /// Hadoop-style globally key-ordered reduction (requires
  /// Config::sort_keys on the mappers).
  /// Must not be mixed with recv()/recv_group() on the same instance.
  bool recv_raw_frame(std::vector<std::byte>& frame);

  /// As recv_raw_frame(), but defers the codec decode to the caller:
  /// `frame` is the bytes exactly as shipped and `codec_framed` says
  /// whether they are a codec frame (always true under MPI-D's
  /// self-describing framing when compression is on). Feed the frames to
  /// SegmentMerger::add_wire_frame() so prepare() can decode them across
  /// worker threads (Config::reduce_threads > 1), then fold the decode
  /// counters back via fold_counters().
  bool recv_wire_frame(std::vector<std::byte>& frame, bool& codec_framed);

  /// Folds a counter block accumulated outside this rank's pipeline —
  /// e.g. a SegmentMerger::prepare() decode pass — into stats(). Call
  /// from this rank's thread only (before finalize()).
  void fold_counters(const shuffle::ShuffleCounters& counters) {
    stats_.merge(counters);
  }

  /// This rank's lazily-created worker pool, sized by Config::map_threads
  /// (mapper) / reduce_threads (reducer); 1 elsewhere. The pool is shared
  /// by run_map_parallel() and available to callers (e.g. the mapred
  /// JobRunner hands it to SegmentMerger::prepare()).
  shuffle::WorkerPool& worker_pool();

  /// The resolved two-tier store arbiter — Config::memory_budget if the
  /// caller shared one, a per-rank arbiter when memory_budget_bytes > 0,
  /// null otherwise. Callers arm consumer stages with it (e.g.
  /// SegmentMerger::enable_spill on the reduce side).
  store::MemoryBudget* memory_budget() const noexcept {
    return config_.memory_budget.get();
  }

  /// MPI_D_Finalize — collective. Mappers flush buffers and emit
  /// end-of-stream markers; reducers must have drained recv() first. All
  /// ranks then synchronize through the master, which aggregates stats.
  void finalize();

  /// Round barrier of the iterative chain lifecycle (DESIGN.md §16) —
  /// collective, Config::resident_rounds > 1 only. Runs the exact
  /// finalize() ship/seal/stats handshake (mappers flush and seal their
  /// lanes, reducers must have drained recv(), the master folds every
  /// rank's per-round Stats into report().round_totals) but instead of
  /// tearing the world down every rank re-arms for another MapReduce
  /// round: mapper lanes restart at sequence 0 under a fresh incarnation
  /// (so a resilient reducer distinguishes round N+1 frames from round N
  /// retransmits), reducer EOS/seal/delivery state clears, and per-rank
  /// stats() reset to zero. send()/recv() then work again. Throws if the
  /// barrier would exceed resident_rounds or the instance is finalized.
  void next_round();

  /// Completed round barriers (next_round() calls + the final
  /// finalize()). 0 while the first round is still running.
  int rounds_completed() const noexcept { return rounds_completed_; }

  /// Master-side aggregated report; valid after finalize() on rank 0.
  const JobReport& report() const;

  /// This rank's local counters (available on any rank at any time).
  const Stats& stats() const noexcept { return stats_; }

  /// The reducer rank owning `key` under the configured partitioner
  /// (hash-mod by default).
  minimpi::Rank reducer_rank_for(std::string_view key) const;

  /// The partition index for `key` in [0, reducers).
  std::uint32_t partition_for(std::string_view key) const;

  /// Restarts a crashed mapper attempt (resilient shuffle only): discards
  /// all buffered, retained and in-flight output and bumps the mapper's
  /// incarnation so reducers discard frames of the dead attempt; the
  /// caller then re-runs the map function from the start of its split.
  void restart_mapper();

  /// Restarts a crashed reducer attempt (resilient shuffle only): discards
  /// everything received so far and asks every mapper to re-send its
  /// retained lane (REPULL); the next recv() re-collects the shuffle.
  void restart_reducer();

  /// This rank's attempt number (0 until the first restart).
  int attempt() const noexcept { return attempt_; }

 private:
  /// The SpillEncoder's transport sink: ships one realigned (and possibly
  /// codec-framed) partition frame over the data communicator via the
  /// configured path (resilient / pipelined / blocking), accounting
  /// frames_sent, bytes_sent and flush_wait_ns.
  void transport_send(std::size_t partition, std::vector<std::byte> frame);

  // --- resilient shuffle (Config::resilient_shuffle) ---
  bool resilient() const noexcept { return config_.resilient_shuffle; }
  fault::FaultInjector* injector() const noexcept {
    return config_.fault_injector.get();
  }
  /// Frames, retains and ships one partition payload with an
  /// (incarnation, sequence, checksum) header.
  void send_frame_resilient(std::size_t partition,
                            std::vector<std::byte> payload);
  /// SEAL for one lane: kEosTag carrying {incarnation, total frames}.
  void send_seal(int reducer);
  /// Services one ACK/NACK/REPULL at the mapper. `acked`/`remaining`
  /// track which lanes still owe an ACK.
  void handle_lane_control(const minimpi::Status& st,
                           std::span<const std::byte> payload,
                           std::vector<char>& acked, int& remaining);
  /// SEAL + ack/retransmit loop + done handshake of a resilient mapper.
  void resilient_mapper_finalize();
  /// Reducer: receives until every mapper's lane is sealed and complete
  /// (NACKing gaps), then stages the payload frames for delivery. Throws
  /// fault::TaskCrash when an injected crash tick fires.
  void resilient_collect();

  // --- shuffle compression (Config::shuffle_compression) ---
  bool compression_on() const noexcept {
    return config_.shuffle_compression != ShuffleCompression::kOff;
  }

  // --- node-local aggregation (Config::node_aggregation) ---
  bool node_agg() const noexcept { return config_.node_aggregation; }
  /// Mappers per modeled node (>= 1; validated by ShuffleOptions).
  int ranks_per_node() const noexcept {
    return static_cast<int>(config_.ranks_per_node);
  }
  /// Number of modeled nodes = number of aggregated streams a reducer
  /// sees. Mapper m lives on node m / ranks_per_node; the lowest
  /// co-located index is the node's aggregation leader.
  int node_count() const noexcept {
    return (config_.mappers + ranks_per_node() - 1) / ranks_per_node();
  }
  /// True when mapper index `m` ships fabric traffic: every mapper
  /// without aggregation, only node leaders with it.
  bool is_agg_sender(int m) const noexcept {
    return !node_agg() || m % ranks_per_node() == 0;
  }
  /// End-of-stream markers a reducer must collect before it is drained:
  /// one per mapper normally, one per node leader under aggregation.
  int eos_target() const noexcept {
    return node_agg() ? node_count() : config_.mappers;
  }
  /// Intra-node stage exchange + the leader's combine tree; runs inside
  /// finalize() before any fabric traffic. Non-leaders forward their
  /// staged frames to the leader; the leader merges every member stream
  /// (its own first) through a shuffle::NodeAggregator whose sink is
  /// transport_send(), so the resilient path retains — and retransmits —
  /// the aggregated frames.
  void node_agg_finalize();

  // --- coded shuffle (Config::coded_replication > 1) ---
  bool coded() const noexcept { return config_.coded_replication > 1; }
  /// The replication unit of mapper m: the mapper itself, or its node
  /// under node aggregation (the whole node codes as one stream then).
  int unit_of_mapper(int m) const noexcept {
    return node_agg() ? m / ranks_per_node() : m;
  }
  /// Reducer view: true when mapper rank 1+m ships coded payloads to this
  /// reducer (its unit's home group is this reducer's group). Coded-ness
  /// is decided by topology alone — a home unit's fabric traffic toward
  /// its group is exclusively coded rounds.
  bool is_coded_source(int m) const noexcept {
    return coded() && placement_.home_group(
                          static_cast<std::size_t>(unit_of_mapper(m))) ==
                          placement_.group_of_reducer(
                              static_cast<std::size_t>(comm_.rank()) - 1 -
                              static_cast<std::size_t>(config_.mappers));
  }
  /// One frame sequence per partition (coded staging matrix row).
  using PartitionStreams = std::vector<std::vector<std::vector<std::byte>>>;
  /// Runs one deterministic coded sub-pipeline (buffer -> combine ->
  /// partition -> realign; no codec, no budget — byte-identical on every
  /// rank that replays it) and feeds its frames to `sink`.
  void run_coded_pipeline(
      const std::function<void(const CodedEmitFn&)>& body,
      shuffle::ShuffleCounters* counters,
      shuffle::SpillEncoder::FrameSink sink);
  /// Resolves this unit's canonical per-(sub, partition) frame matrix: the
  /// mapper's own staged streams, or the node's aggregated streams under
  /// node aggregation (leader only; members forward and return empty).
  std::vector<PartitionStreams> coded_unit_matrix();
  /// Ships the staged coded matrix: off-home partitions point-to-point,
  /// home diagonal streams as XOR-coded multicast rounds.
  void coded_mapper_finalize();
  /// One coded round to every reducer of this unit's home group: one wire
  /// transmission (bytes_sent charged once), one retained framed buffer
  /// per group lane under the resilient shuffle (the lanes advance in
  /// lockstep because home lanes carry nothing but coded rounds).
  void coded_multicast_send(std::vector<std::byte> payload);
  /// Reducer: codec-decodes (when compression is on) and XOR-decodes one
  /// coded payload from `unit` against the locally recomputed side terms.
  /// Empty result: this reducer's stream had drained by that round.
  std::vector<std::byte> decode_coded_payload(int unit,
                                              std::vector<std::byte> payload);

  /// Pulls the next frame from the network (decoding it when compression
  /// is on) and stages it as the delivery frame. Returns false when all
  /// mappers have signalled end-of-stream.
  bool fetch_delivery_frame();
  /// Advances current_view_ to the next group of the delivery frame,
  /// fetching further frames as needed; false at global end-of-stream.
  bool next_group_view();
  /// True while a group or frame is still being drained (guards finalize
  /// and the recv_raw_frame mixing check).
  bool delivery_pending() const noexcept;
  /// The shared body of finalize() and next_round(): flush/seal/EOS on
  /// the mappers, drained-check on the reducers, per-round stats fold on
  /// the master, done/ack handshake everywhere. `final` decides whether
  /// the master counts task completions (once, on the last round).
  void round_barrier(bool final);
  /// Re-arms this rank for the next chain round after a non-final
  /// barrier: fresh per-round stats, reset spill/lane state (mapper, with
  /// an incarnation bump under the resilient shuffle), cleared
  /// EOS/seal/delivery state (reducer).
  void rearm_for_next_round();

  /// Posts the reducer's one-frame-ahead wildcard receive (pipelined
  /// shuffle): reverse realignment of frame N overlaps reception of N+1.
  void post_prefetch();
  /// Waits out the in-flight send window of one partition.
  void drain_inflight(std::size_t partition);
  void ensure_role(Role expected, const char* what) const;

  minimpi::Comm& comm_;    // user communicator (untouched)
  minimpi::Comm data_comm_;  // dup'd: all MPI-D traffic is isolated
  Config config_;
  Role role_;
  Stats stats_;
  std::shared_ptr<common::FramePool> pool_;
  bool direct_realign_ = false;  // resolved from config at init

  // Mapper state: the shared shuffle pipeline (src/shuffle), wired to
  // this rank's transport through transport_send(). The buffer holds the
  // combine stage (flat table or legacy node-based map per
  // Config::flat_combine_table); the encoder owns partitioning,
  // spill-time combining and frame flush policy; the compressor is the
  // optional codec stage (self-describing framing: every wire frame
  // decodes, skips use the stored escape).
  std::optional<shuffle::CombineRunner> combine_runner_;
  std::optional<shuffle::MapOutputBuffer> map_buffer_;  // empty: direct path
  std::optional<shuffle::FrameCompressor> compressor_;
  std::optional<shuffle::SpillEncoder> encoder_;
  /// The rank's worker pool (worker_pool()), created on first use so
  /// single-threaded configurations never spawn anything.
  std::unique_ptr<shuffle::WorkerPool> worker_pool_;
  /// Outstanding nonblocking frame sends, one bounded window per
  /// destination reducer (Config::max_inflight_frames).
  std::vector<std::deque<minimpi::Request>> inflight_;

  // Resilient-shuffle mapper state: one lane per reducer. Sent frames are
  // retained (with their headers) until the master's final ack, so a
  // restarted reducer can re-pull the whole lane at any point of the job.
  struct SendLane {
    std::uint32_t next_seq = 0;
    std::vector<std::vector<std::byte>> retained;
  };
  std::vector<SendLane> lanes_;
  std::uint32_t incarnation_ = 0;  // mapper attempt stamped into headers
  int attempt_ = 0;

  /// Coded placement arithmetic (identity when coded_replication == 1).
  shuffle::CodedPlacement placement_;
  /// Mapper-side coded staging: frames of sub-pipeline `sub` for
  /// `partition`, in flush order — coded_streams_[sub][partition][k].
  /// Nothing leaves the rank until finalize(), which makes an injected
  /// map crash trivially recoverable (restart just discards the stage).
  std::vector<PartitionStreams> coded_streams_;

  /// Node-aggregation staging (Config::node_aggregation): every mapper —
  /// leader or not — parks its realigned frames here instead of sending,
  /// and nothing leaves the rank until finalize(). That makes the intra-
  /// node exchange crash-free by construction: an injected map crash can
  /// only fire during the map loop, so restart_mapper() just discards the
  /// stage and no cross-rank incarnation protocol is needed.
  std::vector<std::vector<std::byte>> node_staged_;

  // Resilient-shuffle reducer state: one lane per mapper.
  struct RecvLane {
    std::uint32_t incarnation = 0;
    std::map<std::uint32_t, std::vector<std::byte>> frames;  // seq -> payload
    std::optional<std::uint32_t> sealed_total;
    bool complete = false;
  };
  std::vector<RecvLane> recv_lanes_;
  /// One staged delivery frame of the resilient path. Coded lanes are
  /// fully decoded at staging time (codec + XOR against side terms), so
  /// their entries are raw; uncoded entries keep the wire bytes and the
  /// codec flag so recv_wire_frame can still defer the decode.
  struct CollectedFrame {
    std::vector<std::byte> bytes;
    bool codec_framed = false;
  };
  /// Payload frames in (mapper, sequence) order once every lane is
  /// complete; refill_segments/recv_raw_frame drain this.
  std::deque<CollectedFrame> collected_;
  bool collected_ready_ = false;

  /// Reducer-side coded state (coded_replication > 1), built by
  /// run_reduce_side_map and kept across reducer restarts (the replica
  /// map work is deterministic, so a re-pulled lane decodes against the
  /// same side terms).
  struct CodedUnitState {
    /// side[sub][round]: the diagonal frame of group position `sub` at
    /// coded round `round` (empty vector slots never exist; a drained
    /// stream just ends). side[own position] stays empty.
    std::vector<std::vector<std::vector<std::byte>>> side;
  };
  std::map<int, CodedUnitState> coded_units_;  // home unit -> side terms
  /// Frames of this reducer's own partition recomputed from home units'
  /// replica sub-pipelines: delivered locally (copied — restart_reducer
  /// rewinds the cursor), never counted as network traffic.
  std::vector<std::vector<std::byte>> coded_local_;
  std::size_t coded_local_cursor_ = 0;
  std::optional<std::uint64_t> crash_tick_;  // injected reducer crash plan
  std::uint64_t progress_ticks_ = 0;

  // Reducer state: one decoded frame at a time is reverse-realigned in
  // place. recv_group_views() hands out views into delivery_frame_; the
  // owning recv()/recv_group() materialize from the same views, so a pair
  // costs one copy (wire -> caller string) instead of two (the old path
  // staged every group in an owning Segment queue first). The reader and
  // view alias delivery_frame_, which is released to the pool only once
  // fully drained.
  /// Consumer side of the codec stage (engaged when compression is on):
  /// decodes wire frames into pool-recycled buffers.
  std::optional<shuffle::FrameDecoder> decoder_;
  std::vector<std::byte> delivery_frame_;
  std::optional<common::KvListReader> delivery_reader_;
  std::optional<common::KvListView> current_view_;  // group being drained
  std::size_t current_value_index_ = 0;
  int eos_received_ = 0;
  /// Prefetch buffer must outlive the request posted against it (members
  /// destroy in reverse declaration order: request first, then buffer).
  std::vector<std::byte> prefetch_buf_;
  minimpi::Request prefetch_req_;
  bool prefetch_posted_ = false;

  // Master state.
  JobReport report_;
  bool finalized_ = false;
  int rounds_completed_ = 0;  // chain barriers passed (finalize included)
};

}  // namespace mpid::core
