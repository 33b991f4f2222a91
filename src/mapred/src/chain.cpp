#include "mpid/mapred/chain.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "groups.hpp"
#include "mpid/core/mpid.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/minimpi/world.hpp"
#include "mpid/shuffle/parallel.hpp"
#include "mpid/shuffle/partition.hpp"

namespace mpid::mapred {

using detail::kMaxTaskAttempts;

namespace {

std::uint64_t kv_bytes(const KvPair& p) noexcept {
  return static_cast<std::uint64_t>(p.first.size() + p.second.size());
}

}  // namespace

// ------------------------------------------------------------ StaticTables --

StaticTables::StaticTables(const KvVec& static_input, int partitions,
                           const core::Partitioner& partitioner) {
  if (partitions < 1) {
    throw std::invalid_argument("StaticTables: need >= 1 partition");
  }
  tables_.resize(static_cast<std::size_t>(partitions));
  bytes_.assign(static_cast<std::size_t>(partitions), 0);
  const shuffle::Partitioner part(static_cast<std::uint32_t>(partitions),
                                  partitioner);
  // Counting pass: intern every key in its partition's table and count
  // its values, remembering each pair's list so the fill pass appends
  // without probing again and reserves every list exactly once.
  std::vector<std::uint32_t> list_of(static_input.size());
  std::vector<std::uint32_t> counts;
  for (std::size_t i = 0; i < static_input.size(); ++i) {
    const auto& [key, value] = static_input[i];
    const auto p = part(key);
    auto& table = tables_[p];
    auto it = table.find(key);
    if (it == table.end()) {
      it = table.emplace(key, static_cast<std::uint32_t>(counts.size()))
               .first;
      counts.push_back(0);
    }
    list_of[i] = it->second;
    ++counts[it->second];
    bytes_[p] += key.size() + value.size();
    total_bytes_ += key.size() + value.size();
  }
  lists_.resize(counts.size());
  for (std::size_t k = 0; k < counts.size(); ++k) lists_[k].reserve(counts[k]);
  for (std::size_t i = 0; i < static_input.size(); ++i) {
    lists_[list_of[i]].push_back(static_input[i].second);
  }
}

const std::vector<std::string>* StaticTables::find(
    int partition, std::string_view key) const {
  if (partition < 0 ||
      static_cast<std::size_t>(partition) >= tables_.size()) {
    return nullptr;
  }
  const auto& table = tables_[static_cast<std::size_t>(partition)];
  const auto it = table.find(key);
  return it == table.end() ? nullptr : &lists_[it->second];
}

std::uint64_t StaticTables::partition_bytes(int partition) const {
  if (partition < 0 || static_cast<std::size_t>(partition) >= bytes_.size()) {
    return 0;
  }
  return bytes_[static_cast<std::size_t>(partition)];
}

// ------------------------------------------------------- ResidentPartition --

namespace {

/// Record framing of a spilled resident partition: u32 key length, u32
/// value length, key bytes, value bytes — repeated to end of file.
void write_record(std::ofstream& out, std::string_view k,
                  std::string_view v) {
  const std::uint32_t kl = static_cast<std::uint32_t>(k.size());
  const std::uint32_t vl = static_cast<std::uint32_t>(v.size());
  out.write(reinterpret_cast<const char*>(&kl), sizeof(kl));
  out.write(reinterpret_cast<const char*>(&vl), sizeof(vl));
  out.write(k.data(), static_cast<std::streamsize>(k.size()));
  out.write(v.data(), static_cast<std::streamsize>(v.size()));
}

bool read_record(std::ifstream& in, std::string& k, std::string& v) {
  std::uint32_t kl = 0;
  std::uint32_t vl = 0;
  if (!in.read(reinterpret_cast<char*>(&kl), sizeof(kl))) return false;
  if (!in.read(reinterpret_cast<char*>(&vl), sizeof(vl))) {
    throw std::runtime_error(
        "ResidentPartition: truncated spill record header");
  }
  k.resize(kl);
  v.resize(vl);
  if ((kl > 0 && !in.read(k.data(), kl)) ||
      (vl > 0 && !in.read(v.data(), vl))) {
    throw std::runtime_error("ResidentPartition: truncated spill record");
  }
  return true;
}

}  // namespace

void ResidentPartition::seal(KvVec pairs, store::MemoryBudget* budget,
                             const std::string& spill_dir) {
  clear();
  // The determinism rule: a partition seals sorted by (key, value), so
  // the next round's map input order is a pure function of this round's
  // output multiset — identical across runtimes, thread counts and the
  // chained/unchained executors. Chain reducers run in sorted key order,
  // so the emitted pairs usually arrive sealed-sorted already.
  if (!std::is_sorted(pairs.begin(), pairs.end())) {
    std::sort(pairs.begin(), pairs.end());
  }
  pair_count_ = pairs.size();
  byte_count_ = 0;
  for (const auto& p : pairs) byte_count_ += kv_bytes(p);

  store::Reservation reservation(budget);
  if (reservation.try_grow(static_cast<std::size_t>(byte_count_))) {
    reservation_ = std::move(reservation);
    pairs_ = std::move(pairs);
    return;
  }
  // Budget refused: demote the sealed pairs to the slow tier. The spill
  // keeps residency honest under a hard cap — the chain still never
  // re-shuffles, it just streams the partition back from disk.
  if (spill_dir.empty()) {
    throw std::runtime_error(
        "ResidentPartition: memory budget refused the sealed partition "
        "and no spill_dir is configured");
  }
  auto file = store::SpillFile::create(spill_dir, "resident");
  {
    std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("ResidentPartition: cannot open spill file " +
                               file.path());
    }
    for (const auto& [k, v] : pairs) write_record(out, k, v);
    out.flush();
    if (!out) {
      throw std::runtime_error("ResidentPartition: spill write failed to " +
                               file.path());
    }
  }
  file_ = std::move(file);
}

void ResidentPartition::clear() {
  pairs_.clear();
  pairs_.shrink_to_fit();
  reservation_.reset();
  file_.reset();
  pair_count_ = 0;
  byte_count_ = 0;
}

void ResidentPartition::for_each(
    const std::function<void(std::string_view, std::string_view)>& fn)
    const {
  if (!file_) {
    for (const auto& [k, v] : pairs_) fn(k, v);
    return;
  }
  std::ifstream in(file_->path(), std::ios::binary);
  if (!in) {
    throw std::runtime_error("ResidentPartition: cannot reopen spill file " +
                             file_->path());
  }
  std::string k;
  std::string v;
  while (read_record(in, k, v)) fn(k, v);
}

KvVec ResidentPartition::load() const {
  if (!file_) return pairs_;
  KvVec out;
  out.reserve(static_cast<std::size_t>(pair_count_));
  for_each([&out](std::string_view k, std::string_view v) {
    out.emplace_back(std::string(k), std::string(v));
  });
  return out;
}

KvVec ResidentPartition::take() {
  KvVec out = file_ ? load() : std::move(pairs_);
  clear();
  return out;
}

// ------------------------------------------------------------ chain_detail --

namespace chain_detail {

bool advance_plan(const ChainJob& job, PlanCursor& cur,
                  const RoundCounters& counters) {
  const ChainStage& stage = job.stages[cur.stage];
  const bool stage_done = cur.round_in_stage >= stage.max_rounds ||
                          (stage.until && stage.until(counters));
  if (!stage_done) {
    ++cur.round_in_stage;
    return true;
  }
  if (cur.stage + 1 < job.stages.size()) {
    ++cur.stage;
    cur.round_in_stage = 1;
    return true;
  }
  return false;
}

bool statically_last(const ChainJob& job, const PlanCursor& cur) {
  return cur.stage + 1 == job.stages.size() &&
         cur.round_in_stage >= job.stages[cur.stage].max_rounds;
}

int total_max_rounds(const ChainJob& job) {
  int total = 0;
  for (const auto& stage : job.stages) total += stage.max_rounds;
  return total;
}

void validate_job(const ChainJob& job) {
  if (!job.ingest) {
    throw std::invalid_argument("ChainJob: ingest must be set");
  }
  if (job.stages.empty()) {
    throw std::invalid_argument("ChainJob: need >= 1 stage");
  }
  for (std::size_t s = 0; s < job.stages.size(); ++s) {
    const auto& stage = job.stages[s];
    if (!stage.reduce) {
      throw std::invalid_argument("ChainJob: stage " + std::to_string(s) +
                                  " has no reduce");
    }
    // Stage 0's first round maps through ingest; a single-round stage 0
    // therefore never calls its map.
    if (!stage.map && !(s == 0 && stage.max_rounds == 1)) {
      throw std::invalid_argument("ChainJob: stage " + std::to_string(s) +
                                  " has no map");
    }
    if (stage.max_rounds < 1) {
      throw std::invalid_argument("ChainJob: stage " + std::to_string(s) +
                                  " needs max_rounds >= 1");
    }
  }
  if (job.tuning.combiner) {
    throw std::invalid_argument(
        "ChainJob: combiners are not supported inside chains (stage maps "
        "differ per round; a chain-wide combiner would be wrong for at "
        "least one of them)");
  }
  if (job.tuning.coded_replication > 1) {
    throw std::invalid_argument(
        "ChainJob: coded_replication > 1 is incompatible with chaining "
        "(see ShuffleOptions::resident_rounds)");
  }
}

}  // namespace chain_detail

// ----------------------------------------------------------- the executors --

namespace {

using chain_detail::PlanCursor;

/// Shared cross-rank state of one chained run. All mutation happens
/// either under `mu` (round counters, per-round resident totals) or on a
/// partition slot owned by exactly one reducer rank, read by exactly one
/// mapper rank strictly after the next round barrier (the barrier's
/// done/ack handshake is the happens-before edge).
struct ChainState {
  std::mutex mu;
  std::vector<RoundCounters> round_counters;  // by global round - 1
  std::vector<std::uint64_t> resident_pairs;  // by global round - 1
  std::vector<std::uint64_t> resident_bytes;
  std::vector<ResidentPartition> resident;    // by partition
  const StaticTables* statics = nullptr;
  store::MemoryBudget* resident_budget = nullptr;
  std::string spill_dir;
};

/// Runs the map side of one round on mapper rank `p`.
///  * round 1 (stage 0): ingest the external source through job.ingest;
///  * later rounds: stream this partition's resident pairs through the
///    current stage's map.
/// Chain accounting (ingest_bytes / resident_*) accumulates into `acc`;
/// `reingest` marks the unchained ablation, where resident pairs count
/// as re-ingested external bytes instead of resident reads.
void run_map_side(core::MpiD& mpid, const ChainJob& job,
                  const PlanCursor& cur, int global_round, int p,
                  RecordSource* source, const ResidentPartition* resident,
                  const StaticTables* statics, bool reingest,
                  shuffle::ShuffleCounters& acc) {
  const core::Config& config = job.tuning;
  fault::FaultInjector* inj =
      config.resilient_shuffle ? config.fault_injector.get() : nullptr;
  const bool ingest_round = global_round == 1 && source != nullptr;

  if (inj) {
    const auto lag =
        inj->straggle_delay(fault::TaskKind::kMap, p, mpid.attempt());
    if (lag.count() > 0) std::this_thread::sleep_for(lag);
  }

  if (ingest_round) {
    MapContext ctx(
        [&](std::string_view k, std::string_view v) { mpid.send(k, v); }, p);
    if (!inj && config.map_threads <= 1) {
      // Stream straight through; nothing materializes.
      while (auto record = (*source)()) {
        acc.ingest_bytes += record->size();
        job.ingest(*record, ctx);
      }
      return;
    }
    // Crash retries and worker-pool chunks both need a re-readable,
    // random-access split (Hadoop's durable-split assumption).
    std::vector<std::string> split;
    while (auto record = (*source)()) {
      acc.ingest_bytes += record->size();
      split.push_back(std::move(*record));
    }
    if (!inj && config.map_threads > 1) {
      const std::size_t chunks =
          shuffle::resolve_map_chunks(config, split.size());
      mpid.run_map_parallel(
          chunks,
          [&](std::size_t chunk, const shuffle::ParallelMapper::EmitFn& emit) {
            MapContext chunk_ctx(
                [&emit](std::string_view k, std::string_view v) {
                  emit(k, v);
                },
                p);
            const std::size_t lo = chunk * split.size() / chunks;
            const std::size_t hi = (chunk + 1) * split.size() / chunks;
            for (std::size_t i = lo; i < hi; ++i) {
              job.ingest(split[i], chunk_ctx);
            }
          });
      return;
    }
    for (int safety = 0;; ++safety) {
      try {
        const auto crash_at =
            inj->crash_tick(fault::TaskKind::kMap, p, mpid.attempt());
        std::uint64_t ticks = 0;
        for (const auto& record : split) {
          if (crash_at && ++ticks >= *crash_at) {
            inj->note(fault::Kind::kTaskCrash,
                      "map:" + std::to_string(p) + "#" +
                          std::to_string(mpid.attempt()));
            throw fault::TaskCrash(fault::TaskKind::kMap, p, mpid.attempt());
          }
          job.ingest(record, ctx);
        }
        return;
      } catch (const fault::TaskCrash&) {
        if (safety >= kMaxTaskAttempts) throw;
        mpid.restart_mapper();
      }
    }
  }

  // Resident round: this partition's sealed pairs are the map input, in
  // place — no re-ingest, no DFS round trip.
  const ChainStage& stage = job.stages[cur.stage];
  if (reingest) {
    acc.ingest_bytes += resident->byte_count();
  } else {
    acc.resident_pairs_in += resident->pair_count();
    acc.resident_bytes_in += resident->byte_count();
  }
  ChainMapContext ctx(
      [&](std::string_view k, std::string_view v) { mpid.send(k, v); },
      statics, p, global_round);
  if (!inj && config.map_threads <= 1) {
    resident->for_each([&](std::string_view k, std::string_view v) {
      stage.map(k, v, ctx);
    });
    return;
  }
  // Materialized path: crash retries re-run from the start; worker-pool
  // chunks need random access. The seal order is deterministic, so the
  // chunk boundaries — and therefore the shipped bytes — are identical
  // at every thread count.
  const KvVec pairs = resident->load();
  if (!inj && config.map_threads > 1) {
    const std::size_t chunks =
        shuffle::resolve_map_chunks(config, pairs.size());
    mpid.run_map_parallel(
        chunks,
        [&](std::size_t chunk, const shuffle::ParallelMapper::EmitFn& emit) {
          ChainMapContext chunk_ctx(
              [&emit](std::string_view k, std::string_view v) {
                emit(k, v);
              },
              statics, p, global_round);
          const std::size_t lo = chunk * pairs.size() / chunks;
          const std::size_t hi = (chunk + 1) * pairs.size() / chunks;
          for (std::size_t i = lo; i < hi; ++i) {
            stage.map(pairs[i].first, pairs[i].second, chunk_ctx);
          }
        });
    return;
  }
  for (int safety = 0;; ++safety) {
    try {
      const auto crash_at =
          inj->crash_tick(fault::TaskKind::kMap, p, mpid.attempt());
      std::uint64_t ticks = 0;
      for (const auto& [k, v] : pairs) {
        if (crash_at && ++ticks >= *crash_at) {
          inj->note(fault::Kind::kTaskCrash,
                    "map:" + std::to_string(p) + "#" +
                        std::to_string(mpid.attempt()));
          throw fault::TaskCrash(fault::TaskKind::kMap, p, mpid.attempt());
        }
        stage.map(k, v, ctx);
      }
      return;
    } catch (const fault::TaskCrash&) {
      if (safety >= kMaxTaskAttempts) throw;
      mpid.restart_mapper();
    }
  }
}

/// Collects one round's shuffle on reducer rank `p` into per-key groups
/// (with restart/re-pull recovery), then runs the stage reduce in sorted
/// key order. Returns the context holding the emitted next-resident
/// pairs and the round counters.
ChainReduceContext run_reduce_side(core::MpiD& mpid, const ChainJob& job,
                                   const PlanCursor& cur, int global_round,
                                   int p, const StaticTables* statics) {
  const core::Config& config = job.tuning;
  fault::FaultInjector* inj =
      config.resilient_shuffle ? config.fault_injector.get() : nullptr;
  if (inj) {
    const auto lag =
        inj->straggle_delay(fault::TaskKind::kReduce, p, mpid.attempt());
    if (lag.count() > 0) std::this_thread::sleep_for(lag);
  }
  detail::ShuffleGroups groups(job.tuning);
  groups.collect(mpid);

  const ChainStage& stage = job.stages[cur.stage];
  ChainReduceContext ctx(statics, p, global_round);
  // Chains always reduce in sorted key order: the sealed partition must
  // not depend on the order keys arrived in.
  groups.for_each(/*sorted=*/true, [&](std::string_view key,
                                        std::vector<std::string>& values) {
    stage.reduce(key, values, ctx);
  });
  return ctx;
}

/// Reads the aggregated counters of `global_round` and advances the plan
/// cursor; pure given the chain state, so every rank decides alike.
bool decide_next(ChainState& state, const ChainJob& job, PlanCursor& cur,
                 int global_round) {
  std::lock_guard lock(state.mu);
  return chain_detail::advance_plan(
      job, cur, state.round_counters[static_cast<std::size_t>(global_round - 1)]);
}

ChainResult assemble_result(ChainState& state, const ChainJob& job,
                            core::JobReport report) {
  ChainResult result;
  result.report = std::move(report);
  // Replay the plan against the aggregated counters to label each work
  // round with its stage.
  PlanCursor cur;
  for (std::size_t r = 0; r < state.round_counters.size(); ++r) {
    RoundReport rr;
    rr.stage = static_cast<int>(cur.stage);
    rr.round_in_stage = cur.round_in_stage;
    rr.counters = state.round_counters[r];
    rr.resident_pairs_out = state.resident_pairs[r];
    rr.resident_bytes_out = state.resident_bytes[r];
    result.rounds.push_back(std::move(rr));
    if (!chain_detail::advance_plan(job, cur, state.round_counters[r])) break;
  }
  // Final outputs: the last round's resident partitions — each sealed
  // sorted — merged into one sorted vector (the JobResult contract).
  // Pairs move end to end — reducer emit -> seal -> here.
  std::vector<KvVec> runs;
  runs.reserve(state.resident.size());
  for (auto& part : state.resident) runs.push_back(part.take());
  result.outputs = detail::merge_sorted_runs(std::move(runs));
  return result;
}

}  // namespace

// --------------------------------------------------------------- JobChain --

JobChain::JobChain(int partitions) : partitions_(partitions) {
  if (partitions < 1) {
    throw std::invalid_argument("JobChain: need >= 1 partition");
  }
}

ChainResult JobChain::run(const ChainJob& job,
                          std::vector<RecordSource> inputs) const {
  chain_detail::validate_job(job);
  if (inputs.size() != static_cast<std::size_t>(partitions_)) {
    throw std::invalid_argument("JobChain: need one input per partition");
  }

  core::Config config = job.tuning;
  config.mappers = partitions_;
  config.reducers = partitions_;
  // Budget for every barrier the plan can reach: each stage's round
  // allowance plus the empty teardown barrier an early-converged chain
  // needs (the stop decision is only known after the round it stops at).
  config.resident_rounds =
      static_cast<std::size_t>(chain_detail::total_max_rounds(job)) + 1;
  config.validate();

  const int total_rounds = chain_detail::total_max_rounds(job);
  ChainState state;
  state.round_counters.resize(static_cast<std::size_t>(total_rounds));
  state.resident_pairs.assign(static_cast<std::size_t>(total_rounds), 0);
  state.resident_bytes.assign(static_cast<std::size_t>(total_rounds), 0);
  state.resident.resize(static_cast<std::size_t>(partitions_));
  state.spill_dir = config.spill_dir;

  // Resident partitions charge the job's shared budget when one exists,
  // a chain-local arbiter when only a byte cap was given, and stay
  // unbudgeted otherwise.
  std::shared_ptr<store::MemoryBudget> resident_budget = config.memory_budget;
  if (!resident_budget && config.memory_budget_bytes > 0) {
    resident_budget =
        std::make_shared<store::MemoryBudget>(config.memory_budget_bytes);
  }
  state.resident_budget = resident_budget.get();

  // The static channel: realigned once, before the world starts, pinned
  // for every round. (The unchained ablation rebuilds this per round —
  // that delta is the static_bytes_reshuffled counter.)
  const StaticTables statics(job.static_input, partitions_,
                             config.partitioner);
  state.statics = job.static_input.empty() ? nullptr : &statics;

  core::JobReport report;
  std::mutex report_mu;

  minimpi::run_world(config.world_size(), [&](minimpi::Comm& comm) {
    core::MpiD mpid(comm, config);
    PlanCursor cur;
    int round = 1;
    bool live = true;  // false: the next barrier is the empty teardown
    switch (mpid.role()) {
      case core::Role::kMapper: {
        const int p = mpid.mapper_index();
        while (true) {
          if (live) {
            shuffle::ShuffleCounters acc;
            run_map_side(mpid, job, cur, round, p,
                         round == 1 ? &inputs[static_cast<std::size_t>(p)]
                                    : nullptr,
                         &state.resident[static_cast<std::size_t>(p)],
                         state.statics, /*reingest=*/false, acc);
            mpid.fold_counters(acc);
          }
          if (!live || chain_detail::statically_last(job, cur)) {
            mpid.finalize();
            break;
          }
          mpid.next_round();
          live = decide_next(state, job, cur, round);
          ++round;
        }
        break;
      }
      case core::Role::kReducer: {
        const int p = mpid.reducer_index();
        while (true) {
          // Even the teardown round must drain the (empty) shuffle: the
          // mappers still seal their lanes with EOS markers.
          ChainReduceContext ctx =
              run_reduce_side(mpid, job, cur, round, p, state.statics);
          if (live) {
            auto& part = state.resident[static_cast<std::size_t>(p)];
            part.seal(ctx.take_emitted(), state.resident_budget,
                      state.spill_dir);
            shuffle::ShuffleCounters acc;
            if (round == 1 && state.statics) {
              acc.static_bytes_pinned = statics.partition_bytes(p);
            }
            if (part.spilled()) acc.resident_bytes_spilled = part.byte_count();
            mpid.fold_counters(acc);
            std::lock_guard lock(state.mu);
            auto& rc =
                state.round_counters[static_cast<std::size_t>(round - 1)];
            rc.merge(ctx.counters());
            state.resident_pairs[static_cast<std::size_t>(round - 1)] +=
                part.pair_count();
            state.resident_bytes[static_cast<std::size_t>(round - 1)] +=
                part.byte_count();
          }
          if (!live || chain_detail::statically_last(job, cur)) {
            mpid.finalize();
            break;
          }
          mpid.next_round();
          live = decide_next(state, job, cur, round);
          ++round;
        }
        break;
      }
      case core::Role::kMaster: {
        while (true) {
          if (!live || chain_detail::statically_last(job, cur)) {
            mpid.finalize();
            break;
          }
          mpid.next_round();
          live = decide_next(state, job, cur, round);
          ++round;
        }
        std::lock_guard lock(report_mu);
        report = mpid.report();
        break;
      }
    }
  });

  // Trim counter slots of rounds that never ran (early convergence).
  PlanCursor cur;
  std::size_t ran = 1;
  while (ran < state.round_counters.size() &&
         chain_detail::advance_plan(
             job, cur, state.round_counters[ran - 1])) {
    ++ran;
  }
  state.round_counters.resize(ran);
  state.resident_pairs.resize(ran);
  state.resident_bytes.resize(ran);

  return assemble_result(state, job, std::move(report));
}

ChainResult JobChain::run_on_text(const ChainJob& job,
                                  std::string_view text) const {
  const auto chunks = split_text(text, partitions_);
  std::vector<RecordSource> inputs;
  inputs.reserve(chunks.size());
  for (const auto chunk : chunks) inputs.push_back(line_source(chunk));
  return run(job, std::move(inputs));
}

ChainResult JobChain::run_unchained(const ChainJob& job,
                                    std::vector<RecordSource> inputs) const {
  chain_detail::validate_job(job);
  if (inputs.size() != static_cast<std::size_t>(partitions_)) {
    throw std::invalid_argument("JobChain: need one input per partition");
  }

  core::Config config = job.tuning;
  config.mappers = partitions_;
  config.reducers = partitions_;
  config.resident_rounds = 1;  // every round is a fresh one-shot world
  config.validate();

  const int total_rounds = chain_detail::total_max_rounds(job);
  ChainState state;
  state.round_counters.resize(static_cast<std::size_t>(total_rounds));
  state.resident_pairs.assign(static_cast<std::size_t>(total_rounds), 0);
  state.resident_bytes.assign(static_cast<std::size_t>(total_rounds), 0);
  state.resident.resize(static_cast<std::size_t>(partitions_));
  state.spill_dir = config.spill_dir;
  std::shared_ptr<store::MemoryBudget> resident_budget = config.memory_budget;
  if (!resident_budget && config.memory_budget_bytes > 0) {
    resident_budget =
        std::make_shared<store::MemoryBudget>(config.memory_budget_bytes);
  }
  state.resident_budget = resident_budget.get();

  core::JobReport chain_report;
  PlanCursor cur;
  int round = 1;
  while (true) {
    // The ablation's whole point: the static channel is realigned again
    // for EVERY round — a fresh job has nothing pinned.
    const StaticTables statics(job.static_input, partitions_,
                               config.partitioner);
    state.statics = job.static_input.empty() ? nullptr : &statics;

    core::JobReport report;
    std::mutex report_mu;
    minimpi::run_world(config.world_size(), [&](minimpi::Comm& comm) {
      core::MpiD mpid(comm, config);
      switch (mpid.role()) {
        case core::Role::kMapper: {
          const int p = mpid.mapper_index();
          shuffle::ShuffleCounters acc;
          run_map_side(mpid, job, cur, round, p,
                       round == 1 ? &inputs[static_cast<std::size_t>(p)]
                                  : nullptr,
                       &state.resident[static_cast<std::size_t>(p)],
                       state.statics, /*reingest=*/true, acc);
          mpid.fold_counters(acc);
          mpid.finalize();
          break;
        }
        case core::Role::kReducer: {
          const int p = mpid.reducer_index();
          ChainReduceContext ctx =
              run_reduce_side(mpid, job, cur, round, p, state.statics);
          auto& part = state.resident[static_cast<std::size_t>(p)];
          part.seal(ctx.take_emitted(), state.resident_budget,
                    state.spill_dir);
          shuffle::ShuffleCounters acc;
          if (state.statics) {
            if (round == 1) {
              acc.static_bytes_pinned = statics.partition_bytes(p);
            } else {
              acc.static_bytes_reshuffled = statics.partition_bytes(p);
            }
          }
          if (part.spilled()) acc.resident_bytes_spilled = part.byte_count();
          mpid.fold_counters(acc);
          mpid.finalize();
          std::lock_guard lock(state.mu);
          state.round_counters[static_cast<std::size_t>(round - 1)].merge(
              ctx.counters());
          state.resident_pairs[static_cast<std::size_t>(round - 1)] +=
              part.pair_count();
          state.resident_bytes[static_cast<std::size_t>(round - 1)] +=
              part.byte_count();
          break;
        }
        case core::Role::kMaster: {
          mpid.finalize();
          std::lock_guard lock(report_mu);
          report = mpid.report();
          break;
        }
      }
    });

    chain_report.totals += report.totals;
    chain_report.round_totals.push_back(report.totals);
    chain_report.mappers_completed = report.mappers_completed;
    chain_report.reducers_completed = report.reducers_completed;

    bool more;
    {
      std::lock_guard lock(state.mu);
      more = chain_detail::advance_plan(
          job, cur, state.round_counters[static_cast<std::size_t>(round - 1)]);
    }
    if (!more) break;
    ++round;
  }
  // Stamp the round count the chained executor gets from the per-round
  // stats stamp (a fresh one-shot world never stamps chain_rounds).
  chain_report.totals.chain_rounds = static_cast<std::uint64_t>(round);

  state.round_counters.resize(static_cast<std::size_t>(round));
  state.resident_pairs.resize(static_cast<std::size_t>(round));
  state.resident_bytes.resize(static_cast<std::size_t>(round));
  return assemble_result(state, job, std::move(chain_report));
}

ChainResult JobChain::run_unchained_on_text(const ChainJob& job,
                                            std::string_view text) const {
  const auto chunks = split_text(text, partitions_);
  std::vector<RecordSource> inputs;
  inputs.reserve(chunks.size());
  for (const auto chunk : chunks) inputs.push_back(line_source(chunk));
  return run_unchained(job, std::move(inputs));
}

}  // namespace mpid::mapred
