#include "mpid/mapred/job.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <thread>

#include "groups.hpp"
#include "mpid/core/mpid.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/minimpi/world.hpp"
#include "mpid/shuffle/merger.hpp"

namespace mpid::mapred {

using detail::kMaxTaskAttempts;

namespace detail {

std::vector<std::pair<std::string, std::string>> merge_sorted_runs(
    std::vector<std::vector<std::pair<std::string, std::string>>> runs) {
  std::size_t total = 0;
  for (const auto& run : runs) total += run.size();
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(total);
  for (auto& run : runs) {
    if (!std::is_sorted(run.begin(), run.end())) {
      std::sort(run.begin(), run.end());
    }
    const auto middle = static_cast<std::ptrdiff_t>(out.size());
    std::move(run.begin(), run.end(), std::back_inserter(out));
    run = {};
    if (middle > 0 && out.size() > static_cast<std::size_t>(middle) &&
        out[middle] < out[middle - 1]) {
      std::inplace_merge(out.begin(), out.begin() + middle, out.end());
    }
  }
  return out;
}

}  // namespace detail

JobRunner::JobRunner(int mappers, int reducers)
    : mappers_(mappers), reducers_(reducers) {
  if (mappers < 1 || reducers < 1) {
    throw std::invalid_argument("JobRunner: need >= 1 mapper and reducer");
  }
}

JobResult JobRunner::run(const JobDef& job,
                         std::vector<RecordSource> inputs) const {
  if (!job.map || !job.reduce) {
    throw std::invalid_argument("JobRunner: map and reduce must be set");
  }
  if (inputs.size() != static_cast<std::size_t>(mappers_)) {
    throw std::invalid_argument("JobRunner: need one input per mapper");
  }

  core::Config config = job.tuning;
  config.mappers = mappers_;
  config.reducers = reducers_;
  config.combiner = job.combiner;
  // Streaming merge needs every shipped frame to be one sorted run.
  if (job.streaming_merge_reduce) config.sort_keys = true;

  JobResult result;  // report: written by the master rank only
  // One output run per reducer, indexed by reducer_index(): each reducer
  // writes only its own slot, and the runs merge once the world is done.
  std::vector<std::vector<std::pair<std::string, std::string>>> runs(
      static_cast<std::size_t>(reducers_));

  // Coded shuffle: every rank that replicates a map task must be able to
  // re-read its split — the task's own mapper maps r sub-splits, and the
  // home-group reducers replay r-1 of them as side information. Record
  // sources are single-pass cursors, so materialize all splits up front
  // (Hadoop's durable-split-in-DFS assumption, same as the fault path).
  const bool coded = config.coded_replication > 1;
  std::vector<std::vector<std::string>> splits;
  if (coded) {
    splits.resize(inputs.size());
    for (std::size_t m = 0; m < inputs.size(); ++m) {
      auto& source = inputs[m];
      while (auto record = source()) splits[m].push_back(std::move(*record));
    }
  }
  // Replays task `task`'s sub-split `sub` through `emit` — the shared
  // deterministic body of the mapper's primary run and the reducers'
  // replica runs. The context reports the PRIMARY mapper's index, so
  // index-dependent map functions agree across replicas.
  const auto map_sub_split = [&](int task, int sub,
                                 const core::MpiD::CodedEmitFn& emit) {
    MapContext ctx(
        [&emit](std::string_view k, std::string_view v) { emit(k, v); },
        task);
    const auto& split = splits[static_cast<std::size_t>(task)];
    const auto r = config.coded_replication;
    const std::size_t lo = static_cast<std::size_t>(sub) * split.size() / r;
    const std::size_t hi =
        (static_cast<std::size_t>(sub) + 1) * split.size() / r;
    for (std::size_t i = lo; i < hi; ++i) job.map(split[i], ctx);
  };

  minimpi::run_world(config.world_size(), [&](minimpi::Comm& comm) {
    core::MpiD mpid(comm, config);
    switch (mpid.role()) {
      case core::Role::kMapper: {
        const int mapper = mpid.mapper_index();
        fault::FaultInjector* inj =
            config.resilient_shuffle ? config.fault_injector.get() : nullptr;
        if (coded) {
          const auto& split = splits[static_cast<std::size_t>(mapper)];
          const auto r = config.coded_replication;
          for (int safety = 0;; ++safety) {
            try {
              std::optional<std::uint64_t> crash_at;
              if (inj) {
                crash_at = inj->crash_tick(fault::TaskKind::kMap, mapper,
                                           mpid.attempt());
                const auto lag = inj->straggle_delay(fault::TaskKind::kMap,
                                                     mapper, mpid.attempt());
                if (lag.count() > 0) std::this_thread::sleep_for(lag);
              }
              // Ticks count records across all r sub-pipelines (they may
              // run on the worker pool), so a scripted crash fires at the
              // same overall progress point regardless of map_threads.
              std::atomic<std::uint64_t> ticks{0};
              mpid.run_map_coded([&](int sub,
                                     const core::MpiD::CodedEmitFn& emit) {
                MapContext ctx(
                    [&emit](std::string_view k, std::string_view v) {
                      emit(k, v);
                    },
                    mapper);
                const std::size_t lo =
                    static_cast<std::size_t>(sub) * split.size() / r;
                const std::size_t hi =
                    (static_cast<std::size_t>(sub) + 1) * split.size() / r;
                for (std::size_t i = lo; i < hi; ++i) {
                  if (crash_at && ticks.fetch_add(1) + 1 >= *crash_at) {
                    inj->note(fault::Kind::kTaskCrash,
                              "map:" + std::to_string(mapper) + "#" +
                                  std::to_string(mpid.attempt()));
                    throw fault::TaskCrash(fault::TaskKind::kMap, mapper,
                                           mpid.attempt());
                  }
                  job.map(split[i], ctx);
                }
              });
              mpid.finalize();
              break;
            } catch (const fault::TaskCrash&) {
              if (!inj || safety >= kMaxTaskAttempts) throw;
              // Nothing left the rank yet (the coded matrix ships in
              // finalize), so restart just discards the staged streams.
              mpid.restart_mapper();
            }
          }
          break;
        }
        auto& source = inputs[static_cast<std::size_t>(mapper)];
        MapContext ctx(
            [&](std::string_view k, std::string_view v) { mpid.send(k, v); },
            mapper);
        if (!inj) {
          if (config.map_threads > 1) {
            // Hybrid process+threads path: materialize the split so its
            // chunks are random-access, then run them through the rank's
            // worker pool. The chunk count comes from the options (never
            // from the thread count), so the shipped bytes are identical
            // at every map_threads setting.
            std::vector<std::string> split;
            while (auto record = source()) split.push_back(std::move(*record));
            const std::size_t chunks =
                shuffle::resolve_map_chunks(config, split.size());
            mpid.run_map_parallel(
                chunks, [&](std::size_t chunk,
                            const shuffle::ParallelMapper::EmitFn& emit) {
                  MapContext chunk_ctx(
                      [&emit](std::string_view k, std::string_view v) {
                        emit(k, v);
                      },
                      mapper);
                  const std::size_t lo = chunk * split.size() / chunks;
                  const std::size_t hi = (chunk + 1) * split.size() / chunks;
                  for (std::size_t i = lo; i < hi; ++i) {
                    job.map(split[i], chunk_ctx);
                  }
                });
            mpid.finalize();
            break;
          }
          // No injected crashes possible: stream the split straight
          // through (records never materialize).
          while (auto record = source()) job.map(*record, ctx);
          mpid.finalize();
          break;
        }
        // Fault injection armed: materialize the split once so a crashed
        // attempt can re-read it from the start (Hadoop re-executes a
        // failed map against its durable split in DFS; RecordSource
        // cursors are single-pass).
        std::vector<std::string> split;
        while (auto record = source()) split.push_back(std::move(*record));
        for (int safety = 0;; ++safety) {
          try {
            const auto crash_at = inj->crash_tick(fault::TaskKind::kMap,
                                                  mapper, mpid.attempt());
            const auto lag = inj->straggle_delay(fault::TaskKind::kMap,
                                                 mapper, mpid.attempt());
            if (lag.count() > 0) std::this_thread::sleep_for(lag);
            std::uint64_t ticks = 0;
            for (const auto& record : split) {
              if (crash_at && ++ticks >= *crash_at) {
                inj->note(fault::Kind::kTaskCrash,
                          "map:" + std::to_string(mapper) + "#" +
                              std::to_string(mpid.attempt()));
                throw fault::TaskCrash(fault::TaskKind::kMap, mapper,
                                       mpid.attempt());
              }
              job.map(record, ctx);
            }
            mpid.finalize();
            break;
          } catch (const fault::TaskCrash&) {
            if (safety >= kMaxTaskAttempts) throw;
            mpid.restart_mapper();
          }
        }
        break;
      }
      case core::Role::kReducer: {
        fault::FaultInjector* inj =
            config.resilient_shuffle ? config.fault_injector.get() : nullptr;
        if (inj) {
          const auto lag = inj->straggle_delay(
              fault::TaskKind::kReduce, mpid.reducer_index(), mpid.attempt());
          if (lag.count() > 0) std::this_thread::sleep_for(lag);
        }
        if (coded) {
          // The redundant map pass runs once, before any recv: its side
          // terms decode every coded payload (and survive reducer
          // restarts — the replay is deterministic).
          mpid.run_reduce_side_map(map_sub_split);
        }
        if (job.streaming_merge_reduce) {
          // Hadoop's merge phase: collect the key-sorted frames, then
          // stream globally ordered groups straight into reduce(). With
          // reduce_threads > 1 the frames are collected undecoded and
          // prepare() fans the codec decode + a cursor pre-merge across
          // the rank's worker pool.
          // A bounded memory budget forces the sequential collect path:
          // the threaded path batches every wire frame in memory before
          // prepare(), which is exactly the footprint the budget exists to
          // cap. Sequential add_frame() charges the budget per frame and
          // spills sorted runs to disk when refused (DESIGN.md §13).
          const bool budgeted = config.memory_budget_bytes > 0;
          const bool threaded = config.reduce_threads > 1 && !inj && !budgeted;
          shuffle::SegmentMerger merger;
          shuffle::ShuffleCounters spill_counters;
          if (budgeted) {
            merger.enable_spill(config, mpid.memory_budget(), &spill_counters);
          }
          for (int safety = 0;; ++safety) {
            try {
              std::vector<std::byte> frame;
              if (threaded) {
                bool codec_framed = false;
                while (mpid.recv_wire_frame(frame, codec_framed)) {
                  merger.add_wire_frame(std::move(frame), codec_framed);
                }
              } else {
                while (mpid.recv_raw_frame(frame)) {
                  merger.add_frame(std::move(frame));
                }
              }
              break;
            } catch (const fault::TaskCrash&) {
              // Injected crash mid-shuffle: discard everything collected
              // and re-pull the retained mapper lanes.
              if (safety >= kMaxTaskAttempts) throw;
              mpid.restart_reducer();
              // The dead attempt's merger drops its disk runs via SpillFile
              // RAII; the fresh one must re-arm the disk tier before the
              // re-pulled frames arrive.
              merger = shuffle::SegmentMerger{};
              if (budgeted) {
                merger.enable_spill(config, mpid.memory_budget(),
                                    &spill_counters);
              }
            }
          }
          if (threaded) {
            shuffle::ShuffleCounters decode_counters;
            merger.prepare(mpid.worker_pool(), config.partition_frame_bytes,
                           &decode_counters);
            mpid.fold_counters(decode_counters);
          }
          if (budgeted) {
            // Compact now so the spill counters are final, then ship them:
            // finalize() sends this rank's stats to the master before the
            // reduce loop streams a single group.
            merger.finish_spill_phase();
            mpid.fold_counters(spill_counters);
          }
          mpid.finalize();

          ReduceContext ctx(mpid.reducer_index());
          std::string key;
          std::vector<std::string> values;
          while (merger.next_group(key, values)) {
            job.reduce(key, values, ctx);
          }
          runs[static_cast<std::size_t>(ctx.reducer_index())] =
              ctx.take_emitted();
          break;
        }

        // Global grouping: fold the per-mapper segments into one value
        // list per key before invoking the user reduce.
        detail::ShuffleGroups groups(config);
        groups.collect(mpid);
        mpid.finalize();

        ReduceContext ctx(mpid.reducer_index());
        groups.for_each(job.sorted_reduce,
                        [&](std::string_view key,
                            std::vector<std::string>& values) {
                          job.reduce(key, values, ctx);
                        });
        runs[static_cast<std::size_t>(ctx.reducer_index())] =
            ctx.take_emitted();
        break;
      }
      case core::Role::kMaster: {
        mpid.finalize();
        result.report = mpid.report();
        break;
      }
    }
  });

  result.outputs = detail::merge_sorted_runs(std::move(runs));
  return result;
}

JobResult JobRunner::run_on_text(const JobDef& job,
                                 std::string_view text) const {
  const auto chunks = split_text(text, mappers_);
  std::vector<RecordSource> inputs;
  inputs.reserve(chunks.size());
  for (const auto chunk : chunks) inputs.push_back(line_source(chunk));
  return run(job, std::move(inputs));
}

}  // namespace mpid::mapred
