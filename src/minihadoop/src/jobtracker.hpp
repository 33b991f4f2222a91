// MiniHadoop's control plane: the jobtracker state machine behind the
// RPC methods (heartbeat scheduling, task-attempt bookkeeping, commit
// protocol, speculative execution, lost-tracker expiry). Private to the
// minihadoop runtime — the data plane (shuffle buffering, realignment,
// codec) lives in the shared engine under src/shuffle.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "mpid/fault/fault.hpp"
#include "mpid/hrpc/rpc.hpp"

namespace mpid::minihadoop::detail {

using Clock = std::chrono::steady_clock;

// Heartbeat response opcodes.
constexpr std::uint8_t kOpWait = 0;
constexpr std::uint8_t kOpMap = 1;
constexpr std::uint8_t kOpReduce = 2;
constexpr std::uint8_t kOpExit = 3;

// taskFailed wire tags.
constexpr std::uint8_t kKindMap = 0;
constexpr std::uint8_t kKindReduce = 1;

constexpr const char* kProtocol = "JobTracker";
constexpr std::int64_t kVersion = 1;

/// A tracker whose heartbeat cannot get through keeps retrying this many
/// times before giving up on the job (each injected drop surfaces as one
/// RpcError at the client).
constexpr int kMaxHeartbeatRetries = 64;

inline std::string task_subject(std::uint8_t kind, int id, int attempt) {
  return std::string(kind == kKindMap ? "map:" : "reduce:") +
         std::to_string(id) + "#" + std::to_string(attempt);
}

/// A running attempt is a straggler only once its age exceeds this many
/// times the mean duration of its phase's committed tasks (Hadoop's
/// speculator compares a task against its peers, not a fixed clock).
constexpr double kStragglerFactor = 1.5;

/// Durations of a phase's committed tasks (first dispatch to commit).
struct PhaseTimes {
  Clock::duration committed{};
  int count = 0;

  /// True when an attempt of `age` runs past kStragglerFactor x the
  /// phase's mean committed duration; true while no peer has committed.
  bool straggles(Clock::duration age) const {
    return count == 0 || age > committed * kStragglerFactor / count;
  }

  void commit(Clock::duration duration) {
    committed += duration;
    ++count;
  }
};

/// Hadoop's per-task attempt bookkeeping: a task may have several live
/// attempts (re-executions after failures, speculative duplicates); the
/// first to report completion is committed, every other attempt's result
/// is discarded.
struct TaskState {
  bool done = false;
  bool queued = true;  // tasks start in a pending queue
  bool speculated = false;
  int next_attempt = 0;
  int failed_attempts = 0;
  int location = -1;  // maps: tracker serving the committed output
  Clock::time_point started{};
  std::vector<std::pair<int, int>> running;  // (attempt, tracker)
};

/// Shared jobtracker state behind the RPC methods.
struct JobTracker {
  std::mutex mu;
  std::deque<int> pending_maps;
  std::deque<int> pending_reduces;
  std::vector<TaskState> maps;
  std::vector<TaskState> reduces;
  int maps_done = 0;
  int reduces_done = 0;
  PhaseTimes map_times;
  PhaseTimes reduce_times;

  // Policy (copied from MiniJobConfig before any connection is accepted).
  int max_task_attempts = 4;
  bool speculative = true;
  std::chrono::nanoseconds tracker_timeout{};
  std::chrono::nanoseconds speculative_threshold{};
  fault::FaultInjector* inj = nullptr;

  // Tracker liveness (mapred.tasktracker.expiry.interval).
  std::vector<Clock::time_point> last_seen;
  std::vector<bool> lost;

  bool failed = false;
  std::string failure;

  std::atomic<std::uint64_t> heartbeats{0};
  std::uint64_t map_reexecutions = 0;
  std::uint64_t reduce_reexecutions = 0;
  std::uint64_t speculative_launches = 0;
  std::uint64_t trackers_timed_out = 0;

  int total_maps() const { return static_cast<int>(maps.size()); }
  int total_reduces() const { return static_cast<int>(reduces.size()); }

  /// Pops the first pending task that is still unfinished (a task can sit
  /// in the queue after a speculative twin already completed it).
  static int pop_runnable(std::deque<int>& queue,
                          std::vector<TaskState>& tasks) {
    while (!queue.empty()) {
      const int id = queue.front();
      queue.pop_front();
      tasks[static_cast<std::size_t>(id)].queued = false;
      if (!tasks[static_cast<std::size_t>(id)].done) return id;
    }
    return -1;
  }

  int dispatch(TaskState& st, int tracker, Clock::time_point now) {
    const int attempt = st.next_attempt++;
    if (st.running.empty()) st.started = now;
    st.running.emplace_back(attempt, tracker);
    return attempt;
  }

  /// Speculative execution: a slot is idle while some task's only attempt
  /// has been running past the threshold and, once a peer in its phase
  /// committed, past kStragglerFactor x the phase's mean duration —
  /// launch a duplicate attempt. The straggling attempt keeps running;
  /// whichever finishes first wins.
  std::optional<std::pair<int, int>> speculate(std::vector<TaskState>& tasks,
                                               const PhaseTimes& times,
                                               std::uint8_t kind, int tracker,
                                               Clock::time_point now) {
    if (!speculative) return std::nullopt;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      auto& st = tasks[i];
      if (st.done || st.queued || st.speculated || st.running.size() != 1) {
        continue;
      }
      const auto age = now - st.started;
      if (age < speculative_threshold || !times.straggles(age)) continue;
      st.speculated = true;
      const int attempt = dispatch(st, tracker, now);
      ++speculative_launches;
      if (inj) {
        inj->record_recovery(fault::Kind::kSpeculativeLaunch,
                             task_subject(kind, static_cast<int>(i), attempt),
                             "straggler duplicate");
      }
      return std::make_pair(static_cast<int>(i), attempt);
    }
    return std::nullopt;
  }

  /// Requeues every task whose only attempts ran on a lost tracker. The
  /// tracker's already-committed map outputs stay reachable (its HTTP
  /// server is a separate in-process object), so completed tasks keep
  /// their results — only in-flight work is re-executed.
  void requeue_orphans(std::vector<TaskState>& tasks, std::deque<int>& queue,
                       std::uint8_t kind, int tracker,
                       std::uint64_t& reexecutions) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      auto& st = tasks[i];
      const auto before = st.running.size();
      std::erase_if(st.running,
                    [&](const auto& a) { return a.second == tracker; });
      if (st.running.size() == before) continue;
      if (!st.done && !st.queued && st.running.empty()) {
        queue.push_back(static_cast<int>(i));
        st.queued = true;
        ++reexecutions;
        if (inj) {
          inj->record_recovery(
              fault::Kind::kTaskReexec,
              task_subject(kind, static_cast<int>(i), st.next_attempt - 1),
              "lost tracker " + std::to_string(tracker));
        }
      }
    }
  }

  /// Declares trackers silent past the expiry interval lost and
  /// re-executes their running tasks (Hadoop's lostTaskTracker path).
  void expire_lost_trackers(Clock::time_point now, int requester) {
    for (int t = 0; t < static_cast<int>(last_seen.size()); ++t) {
      if (t == requester || lost[static_cast<std::size_t>(t)]) continue;
      if (now - last_seen[static_cast<std::size_t>(t)] <= tracker_timeout) {
        continue;
      }
      lost[static_cast<std::size_t>(t)] = true;
      ++trackers_timed_out;
      if (inj) {
        inj->record_recovery(fault::Kind::kLostTracker,
                             "tracker:" + std::to_string(t));
      }
      requeue_orphans(maps, pending_maps, kKindMap, t, map_reexecutions);
      requeue_orphans(reduces, pending_reduces, kKindReduce, t,
                      reduce_reexecutions);
    }
  }

  std::vector<std::byte> reply(std::uint8_t op, int task, int attempt) {
    hrpc::DataOut out;
    out.write_u8(op);
    out.write_i32(task);
    out.write_i32(attempt);
    return out.take();
  }

  std::vector<std::byte> heartbeat(int tracker) {
    ++heartbeats;
    const auto now = Clock::now();
    std::lock_guard lock(mu);
    last_seen[static_cast<std::size_t>(tracker)] = now;
    // A tracker we gave up on re-joins by heartbeating again; its stale
    // attempts were requeued, and any late completion commits only if the
    // task has not finished elsewhere.
    lost[static_cast<std::size_t>(tracker)] = false;
    expire_lost_trackers(now, tracker);

    if (failed) return reply(kOpExit, 0, 0);
    if (const int m = pop_runnable(pending_maps, maps); m >= 0) {
      return reply(kOpMap, m,
                   dispatch(maps[static_cast<std::size_t>(m)], tracker, now));
    }
    if (maps_done == total_maps()) {
      if (const int r = pop_runnable(pending_reduces, reduces); r >= 0) {
        return reply(
            kOpReduce, r,
            dispatch(reduces[static_cast<std::size_t>(r)], tracker, now));
      }
      if (reduces_done == total_reduces()) return reply(kOpExit, 0, 0);
    }
    // Nothing pending but the job is incomplete: the idle slot can host a
    // speculative duplicate of a straggler in the current phase.
    if (maps_done < total_maps()) {
      if (const auto spec =
              speculate(maps, map_times, kKindMap, tracker, now)) {
        return reply(kOpMap, spec->first, spec->second);
      }
    } else {
      if (const auto spec =
              speculate(reduces, reduce_times, kKindReduce, tracker, now)) {
        return reply(kOpReduce, spec->first, spec->second);
      }
    }
    return reply(kOpWait, 0, 0);
  }

  /// Returns [u8 committed]: 1 if this attempt's result is the task's
  /// official output, 0 if a twin attempt already won (the caller must
  /// discard its counters/output — Hadoop's commit protocol).
  std::vector<std::byte> map_completed(std::span<const std::byte> args) {
    hrpc::DataIn in(args);
    const auto map_id = in.read_i32();
    const auto attempt = in.read_i32();
    const auto tracker = in.read_i32();
    hrpc::DataOut out;
    std::lock_guard lock(mu);
    auto& st = maps[static_cast<std::size_t>(map_id)];
    std::erase_if(st.running, [&](const auto& a) { return a.first == attempt; });
    if (st.done) {
      out.write_u8(0);
      return out.take();
    }
    st.done = true;
    st.location = tracker;
    ++maps_done;
    map_times.commit(Clock::now() - st.started);
    out.write_u8(1);
    return out.take();
  }

  std::vector<std::byte> reduce_completed(std::span<const std::byte> args) {
    hrpc::DataIn in(args);
    const auto reduce_id = in.read_i32();
    const auto attempt = in.read_i32();
    hrpc::DataOut out;
    std::lock_guard lock(mu);
    auto& st = reduces[static_cast<std::size_t>(reduce_id)];
    std::erase_if(st.running, [&](const auto& a) { return a.first == attempt; });
    if (st.done) {
      out.write_u8(0);
      return out.take();
    }
    st.done = true;
    ++reduces_done;
    reduce_times.commit(Clock::now() - st.started);
    out.write_u8(1);
    return out.take();
  }

  /// A task attempt crashed: requeue the task unless a twin attempt is
  /// still running; a task failing max_task_attempts times fails the job.
  std::vector<std::byte> task_failed(std::span<const std::byte> args) {
    hrpc::DataIn in(args);
    const auto kind = in.read_u8();
    const auto id = in.read_i32();
    const auto attempt = in.read_i32();
    std::lock_guard lock(mu);
    auto& tasks = kind == kKindMap ? maps : reduces;
    auto& queue = kind == kKindMap ? pending_maps : pending_reduces;
    auto& reexecutions =
        kind == kKindMap ? map_reexecutions : reduce_reexecutions;
    auto& st = tasks[static_cast<std::size_t>(id)];
    std::erase_if(st.running, [&](const auto& a) { return a.first == attempt; });
    if (st.done) return {};
    if (++st.failed_attempts >= max_task_attempts) {
      failed = true;
      failure = task_subject(kind, id, attempt) + " failed " +
                std::to_string(st.failed_attempts) + " attempts";
      return {};
    }
    if (!st.queued && st.running.empty()) {
      queue.push_back(id);
      st.queued = true;
      ++reexecutions;
      if (inj) {
        inj->record_recovery(fault::Kind::kTaskReexec,
                             task_subject(kind, id, attempt), "crash requeue");
      }
    }
    return {};
  }

  std::vector<std::byte> map_locations(std::span<const std::byte>) {
    hrpc::DataOut out;
    std::lock_guard lock(mu);
    out.write_vu64(maps.size());
    for (const auto& st : maps) out.write_i32(st.location);
    return out.take();
  }
};

}  // namespace mpid::minihadoop::detail
