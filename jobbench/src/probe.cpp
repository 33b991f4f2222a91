#include "probe.hpp"

#include <algorithm>
#include <cstdio>

namespace jobbench {
namespace {

const auto kEpoch = std::chrono::steady_clock::now();

struct LocalSlot {
  std::uint64_t generation = 0;
  ThreadProbe* probe = nullptr;
};
thread_local LocalSlot tls_slot;

/// One complete ("X") Chrome trace event; `args` is the inside of its
/// args object.
void append_event(std::string& out, const std::string& name, int tid,
                  std::int64_t start_ns, std::int64_t end_ns,
                  const std::string& args) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                out.empty() ? "" : ",\n", name.c_str(), tid,
                static_cast<double>(start_ns) / 1e3,
                static_cast<double>(end_ns - start_ns) / 1e3);
  out += buf;
  out += args;
  out += "}}";
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

ThreadProbe::Round& ThreadProbe::round(int r) {
  const auto i = static_cast<std::size_t>(r - 1);
  if (rounds.size() <= i) rounds.resize(i + 1);
  return rounds[i];
}

Probe& probe() {
  static Probe instance;
  return instance;
}

void Probe::begin_job(int reducers) {
  std::lock_guard lock(mu_);
  threads_.clear();
  reducers_ = reducers;
  generation_.fetch_add(1);
  job_start_ = now_ns();
}

void Probe::end_job() {
  std::lock_guard lock(mu_);
  job_end_ = now_ns();
}

ThreadProbe& Probe::local() {
  const auto gen = generation_.load();
  if (tls_slot.generation != gen || tls_slot.probe == nullptr) {
    std::lock_guard lock(mu_);
    threads_.push_back(std::make_unique<ThreadProbe>());
    threads_.back()->id = static_cast<int>(threads_.size());
    tls_slot = {gen, threads_.back().get()};
  }
  return *tls_slot.probe;
}

Metrics Probe::summarize() const {
  std::lock_guard lock(mu_);
  std::size_t rounds = 0;
  for (const auto& t : threads_) rounds = std::max(rounds, t->rounds.size());

  // Round r starts at the job call (r = 1) or at the first map call of
  // any mapper in round r. Its critical reducer is the one that finishes
  // last; its critical mapper is the last to finish before that reducer
  // starts, since map work still running then (a losing speculative
  // attempt) is not what the reduce waited for.
  const auto round_start = [&](std::size_t r) {
    if (r == 0) return job_start_;
    std::int64_t first = -1;
    for (const auto& t : threads_) {
      if (r < t->rounds.size() && t->rounds[r].map_calls > 0 &&
          (first < 0 || t->rounds[r].first_map < first)) {
        first = t->rounds[r].first_map;
      }
    }
    return first;
  };
  double startup = 0, map = 0, drain = 0, reduce = 0, collect = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    const ThreadProbe::Round* cm = nullptr;
    const ThreadProbe::Round* cr = nullptr;
    for (const auto& t : threads_) {
      if (r >= t->rounds.size()) continue;
      const auto& tr = t->rounds[r];
      if (tr.reduce_calls > 0 && (!cr || tr.last_reduce > cr->last_reduce)) {
        cr = &tr;
      }
    }
    for (const bool waited_for : {true, false}) {
      for (const auto& t : threads_) {
        if (r >= t->rounds.size()) continue;
        const auto& tr = t->rounds[r];
        if (tr.map_calls == 0 ||
            (waited_for && cr && tr.last_map > cr->first_reduce)) {
          continue;
        }
        if (!cm || tr.last_map > cm->last_map) cm = &tr;
      }
      if (cm) break;
    }
    if (!cm) continue;
    startup += static_cast<double>(cm->first_map - round_start(r));
    map += static_cast<double>(cm->last_map - cm->first_map);
    std::int64_t tail = cm->last_map;
    if (cr) {
      drain += static_cast<double>(cr->first_reduce - cm->last_map);
      reduce += static_cast<double>(cr->last_reduce - cr->first_reduce);
      tail = cr->last_reduce;
    }
    const auto next = r + 1 < rounds ? round_start(r + 1) : job_end_;
    collect += static_cast<double>((next < 0 ? job_end_ : next) - tail);
  }

  std::uint64_t emit = 0, user_map = 0, combine = 0, user_reduce = 0;
  std::vector<std::uint64_t> values(static_cast<std::size_t>(reducers_));
  for (const auto& t : threads_) {
    emit += t->emit_ns - t->combine_in_emit_ns;
    user_map += t->map_ns - t->emit_ns;
    combine += t->combine_ns;
    user_reduce += t->reduce_ns;
    for (std::size_t i = 0; i < t->values_by_reducer.size(); ++i) {
      if (i < values.size()) values[i] += t->values_by_reducer[i];
    }
  }
  std::uint64_t total = 0, busiest = 0;
  for (const auto v : values) {
    total += v;
    busiest = std::max(busiest, v);
  }
  const double mean = static_cast<double>(total) /
                      static_cast<double>(std::max<std::size_t>(1, values.size()));

  return {
      {"phase.startup_s", startup * 1e-9},
      {"phase.map_s", map * 1e-9},
      {"phase.drain_s", drain * 1e-9},
      {"phase.reduce_s", reduce * 1e-9},
      {"phase.collect_s", collect * 1e-9},
      {"phase.reduce_skew",
       mean > 0 ? static_cast<double>(busiest) / mean : 0.0},
      {"mapred.emit_s", static_cast<double>(emit) * 1e-9},
      {"user.map_s", static_cast<double>(user_map) * 1e-9},
      {"user.combine_s", static_cast<double>(combine) * 1e-9},
      {"user.reduce_s", static_cast<double>(user_reduce) * 1e-9},
  };
}

void Probe::write_spans(std::string& events, int job_id) const {
  std::lock_guard lock(mu_);
  const std::string job_args = "\"job\":" + std::to_string(job_id);
  append_event(events, "job " + std::to_string(job_id), 0, job_start_,
               job_end_, job_args);
  for (const auto& t : threads_) {
    for (std::size_t r = 0; r < t->rounds.size(); ++r) {
      const auto& tr = t->rounds[r];
      const auto round = " round " + std::to_string(r + 1);
      if (tr.map_calls > 0) {
        append_event(events, "map" + round, t->id, tr.first_map, tr.last_map,
                     job_args + ",\"calls\":" + std::to_string(tr.map_calls));
      }
      if (tr.reduce_calls > 0) {
        append_event(events, "reduce" + round, t->id, tr.first_reduce,
                     tr.last_reduce,
                     job_args + ",\"calls\":" + std::to_string(tr.reduce_calls));
      }
    }
  }
}

}  // namespace jobbench
