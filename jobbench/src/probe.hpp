// Call-boundary tracing of the job benchmark, taken from outside the
// program: the benchmark's own map, combine and reduce functions time
// themselves and every MapContext::emit call they make. Nothing inside the
// runtime is instrumented; its counters come from the reports it returns.
//
// The spans are per thread: each thread that runs a benchmark function
// gets a ThreadProbe for the current job, with the first and last call
// times per round and the busy time per function. Probe::summarize turns
// them into the phase timeline of the slowest mapper and reducer;
// Probe::write_spans adds them to a Chrome trace-event file.
//
// The untraced job functions are separate instantiations (kTraced =
// false) in which every span below compiles to nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace jobbench {

using Metrics = std::map<std::string, double>;

/// Nanoseconds on the steady clock since the process started.
std::int64_t now_ns();

struct ThreadProbe {
  struct Round {
    std::int64_t first_map = -1, last_map = -1;
    std::int64_t first_reduce = -1, last_reduce = -1;
    std::uint64_t map_calls = 0, reduce_calls = 0;
  };
  int id = 0;                 // registration order within the job
  std::vector<Round> rounds;  // index = round - 1
  std::uint64_t map_ns = 0;   // map calls, emit calls included
  std::uint64_t emit_ns = 0;  // emit calls, nested combiner calls included
  std::uint64_t emit_calls = 0;
  std::uint64_t combine_ns = 0;
  std::uint64_t combine_in_emit_ns = 0;  // combiner calls made inside emit
  std::uint64_t reduce_ns = 0;
  std::vector<std::uint64_t> values_by_reducer;
  bool in_emit = false;

  Round& round(int r);
};

/// One traced job at a time: begin_job / end_job bracket the job call.
class Probe {
 public:
  void begin_job(int reducers);
  void end_job();
  /// This thread's record for the current job.
  ThreadProbe& local();

  /// Phase timeline and call-boundary times of the last job (see
  /// README.md for the definitions).
  Metrics summarize() const;
  /// Appends the last job's spans to `events` as Chrome trace events.
  void write_spans(std::string& events, int job_id) const;

 private:
  std::atomic<std::uint64_t> generation_{0};
  std::int64_t job_start_ = 0, job_end_ = 0;
  int reducers_ = 1;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadProbe>> threads_;  // guarded by mu_
};

Probe& probe();

/// Times one call of a benchmark map function (round 1 for one-shot jobs
/// and for a chain's ingest) and the emit calls made through it.
template <bool kTraced>
class MapSpan {
 public:
  explicit MapSpan(int round) {
    if constexpr (kTraced) {
      tp_ = &probe().local();
      round_ = round;
      start_ = now_ns();
      auto& r = tp_->round(round_);
      if (r.first_map < 0) r.first_map = start_;
    }
  }
  ~MapSpan() {
    if constexpr (kTraced) {
      const auto end = now_ns();
      tp_->map_ns += static_cast<std::uint64_t>(end - start_);
      auto& r = tp_->round(round_);
      r.last_map = end;
      ++r.map_calls;
    }
  }
  MapSpan(const MapSpan&) = delete;
  MapSpan& operator=(const MapSpan&) = delete;

  template <typename Ctx>
  void emit(Ctx& ctx, std::string_view key, std::string_view value) {
    if constexpr (kTraced) {
      const auto t0 = now_ns();
      tp_->in_emit = true;
      ctx.emit(key, value);
      tp_->in_emit = false;
      tp_->emit_ns += static_cast<std::uint64_t>(now_ns() - t0);
      ++tp_->emit_calls;
    } else {
      ctx.emit(key, value);
    }
  }

 private:
  ThreadProbe* tp_ = nullptr;
  int round_ = 1;
  std::int64_t start_ = 0;
};

/// Times one call of a benchmark reduce function on reducer `reducer`,
/// which received `values` values for its key.
template <bool kTraced>
class ReduceSpan {
 public:
  ReduceSpan(int round, int reducer, std::size_t values) {
    if constexpr (kTraced) {
      tp_ = &probe().local();
      round_ = round;
      start_ = now_ns();
      auto& r = tp_->round(round_);
      if (r.first_reduce < 0) r.first_reduce = start_;
      const auto slot = static_cast<std::size_t>(reducer);
      if (tp_->values_by_reducer.size() <= slot) {
        tp_->values_by_reducer.resize(slot + 1);
      }
      tp_->values_by_reducer[slot] += values;
    }
  }
  ~ReduceSpan() {
    if constexpr (kTraced) {
      const auto end = now_ns();
      tp_->reduce_ns += static_cast<std::uint64_t>(end - start_);
      auto& r = tp_->round(round_);
      r.last_reduce = end;
      ++r.reduce_calls;
    }
  }
  ReduceSpan(const ReduceSpan&) = delete;
  ReduceSpan& operator=(const ReduceSpan&) = delete;

 private:
  ThreadProbe* tp_ = nullptr;
  int round_ = 1;
  std::int64_t start_ = 0;
};

/// Times one call of a benchmark combiner.
template <bool kTraced>
class CombineSpan {
 public:
  CombineSpan() {
    if constexpr (kTraced) {
      tp_ = &probe().local();
      start_ = now_ns();
    }
  }
  ~CombineSpan() {
    if constexpr (kTraced) {
      const auto d = static_cast<std::uint64_t>(now_ns() - start_);
      tp_->combine_ns += d;
      if (tp_->in_emit) tp_->combine_in_emit_ns += d;
    }
  }
  CombineSpan(const CombineSpan&) = delete;
  CombineSpan& operator=(const CombineSpan&) = delete;

 private:
  ThreadProbe* tp_ = nullptr;
  std::int64_t start_ = 0;
};

}  // namespace jobbench
