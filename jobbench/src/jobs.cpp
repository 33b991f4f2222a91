#include "jobs.hpp"

#include <algorithm>
#include <charconv>
#include <optional>
#include <stdexcept>

#include "checks.hpp"
#include "inputs.hpp"
#include "mpid/dfs/minidfs.hpp"
#include "mpid/mapred/chain.hpp"
#include "mpid/mapred/job.hpp"
#include "mpid/minihadoop/minihadoop.hpp"

namespace jobbench {
namespace {

using namespace mpid;

constexpr std::uint64_t kMiB = 1024 * 1024;
constexpr std::uint64_t kInputBytes = 64 * kMiB;
// Two mappers and two reducers: four busy ranks, one thread each, on a
// four-core host (the master rank only coordinates).
constexpr int kMappers = 2;
constexpr int kReducers = 2;
constexpr int kGraphVertices = 100000;
constexpr int kGraphEdges = 300000;
constexpr int kGraphComponents = 16;
constexpr int kTrackers = 2;
constexpr int kMapTasks = 4;
constexpr int kDatanodes = 3;

/// Times `job` as one job call, bracketed by the probe when traced.
template <typename Fn>
auto timed_call(bool traced, int reducers, double& seconds, Fn&& job) {
  if (traced) probe().begin_job(reducers);
  const auto t0 = now_ns();
  auto result = job();
  seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  if (traced) probe().end_job();
  return result;
}

std::uint64_t parse_count(std::string_view s) {
  std::uint64_t n = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), n);
  if (ec != std::errc() || end != s.data() + s.size()) {
    throw std::runtime_error("wordcount: malformed count '" + std::string(s) +
                             "'");
  }
  return n;
}

template <typename Values>
std::uint64_t sum_counts(const Values& values) {
  std::uint64_t total = 0;
  for (const auto& v : values) total += parse_count(v);
  return total;
}

/// The shuffle and transport counters both MPI-D workloads report.
Metrics mpid_layers(const core::JobReport& report) {
  const auto& t = report.totals;
  return {
      {"shuffle.combine_s", static_cast<double>(t.combine_ns) * 1e-9},
      {"shuffle.spill_s", static_cast<double>(t.spill_ns) * 1e-9},
      {"shuffle.spills", static_cast<double>(t.spills)},
      {"shuffle.table_peak_mb",
       static_cast<double>(t.table_bytes_peak) / static_cast<double>(kMiB)},
      {"shuffle.combine_ratio",
       t.pairs_sent > 0 ? static_cast<double>(t.pairs_after_combine) /
                              static_cast<double>(t.pairs_sent)
                        : 0.0},
      {"core.pairs_sent", static_cast<double>(t.pairs_sent)},
      {"core.frames_sent", static_cast<double>(t.frames_sent)},
      {"core.flush_wait_s", static_cast<double>(t.flush_wait_ns) * 1e-9},
  };
}

void add_probe_layers(bool traced, Metrics& layers) {
  if (!traced) return;
  for (auto& [name, value] : probe().summarize()) layers[name] = value;
}

// --- WordCount ------------------------------------------------------------

template <bool kTraced>
void wc_map(std::string_view line, mapred::MapContext& ctx) {
  MapSpan<kTraced> span(1);
  std::size_t start = 0;
  while (start < line.size()) {
    auto end = line.find(' ', start);
    if (end == std::string_view::npos) end = line.size();
    if (end > start) span.emit(ctx, line.substr(start, end - start), "1");
    start = end + 1;
  }
}

template <bool kTraced>
void wc_reduce(std::string_view key, std::span<const std::string> values,
               mapred::ReduceContext& ctx) {
  ReduceSpan<kTraced> span(1, ctx.reducer_index(), values.size());
  ctx.emit(key, std::to_string(sum_counts(values)));
}

template <bool kTraced>
std::vector<std::string> wc_combine(std::string_view,
                                    std::vector<std::string>&& values) {
  CombineSpan<kTraced> span;
  return {std::to_string(sum_counts(values))};
}

template <bool kTraced>
mapred::JobDef wordcount_job() {
  mapred::JobDef job;
  job.map = wc_map<kTraced>;
  job.reduce = wc_reduce<kTraced>;
  job.combiner = wc_combine<kTraced>;
  return job;
}

/// The paper's Figure 6 job on MPI-D: map- and combine-bound, with a
/// small shuffle.
class WordCount final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    text_ = zipf_text(kInputBytes, seed);
  }

  double serial_reference() override {
    const auto t0 = now_ns();
    serial_ = count_words(text_);
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  JobOutcome run(bool traced, bool corrupt) override {
    const mapred::JobRunner runner(kMappers, kReducers);
    const auto& job = traced ? traced_job_ : job_;
    JobOutcome out;
    auto result = timed_call(traced, kReducers, out.seconds,
                             [&] { return runner.run_on_text(job, text_); });
    const auto& totals = result.report.totals;
    if (corrupt && !result.outputs.empty()) {  // drop one count
      result.outputs.erase(result.outputs.begin() +
                           static_cast<std::ptrdiff_t>(result.outputs.size() / 2));
    }
    out.failure = check_word_counts(
        result.outputs, serial_, static_cast<std::int64_t>(totals.pairs_sent));
    out.shuffle_mb = static_cast<double>(totals.bytes_sent) * 1e-6;
    out.layers = mpid_layers(result.report);
    add_probe_layers(traced, out.layers);
    return out;
  }

 private:
  std::string text_;
  WordCounts serial_;
  const mapred::JobDef job_ = wordcount_job<false>();
  const mapred::JobDef traced_job_ = wordcount_job<true>();
};

/// The same text and job through MiniHadoop: DFS staging, RPC heartbeats
/// and the HTTP shuffle, the paper's baseline stack.
class WordCountHadoop final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    text_ = zipf_text(kInputBytes, seed);
    const auto t0 = now_ns();
    dfs_.create("/in", text_);
    stage_s_ = static_cast<double>(now_ns() - t0) * 1e-9;
  }

  double serial_reference() override {
    const auto t0 = now_ns();
    serial_ = count_words(text_);
    const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    tokens_ = serial_.tokens;
    text_ = std::string();  // the job reads its input from the DFS
    return seconds;
  }

  JobOutcome run(bool traced, bool corrupt) override {
    minihadoop::MiniJobConfig config;
    config.map = traced ? wc_map<true> : wc_map<false>;
    config.reduce = traced ? wc_reduce<true> : wc_reduce<false>;
    config.combiner = traced ? wc_combine<true> : wc_combine<false>;
    config.input_path = "/in";
    config.output_prefix = "/out-" + std::to_string(++jobs_);
    config.map_tasks = kMapTasks;
    config.reduce_tasks = kReducers;

    JobOutcome out;
    const auto summary = timed_call(traced, kReducers, out.seconds,
                                    [&] { return cluster_.run(config); });
    KvVec outputs;
    for (const auto& path : dfs_.list(config.output_prefix + "/")) {
      const auto body = dfs_.read(path);
      mapred::LineReader lines(body);
      while (const auto line = lines.next()) {
        if (line->empty()) continue;
        const auto tab = line->find('\t');
        if (tab == std::string_view::npos) {
          throw std::runtime_error("wordcount_hadoop: malformed output line");
        }
        outputs.emplace_back(line->substr(0, tab), line->substr(tab + 1));
      }
      dfs_.remove(path);
    }
    std::sort(outputs.begin(), outputs.end());
    if (corrupt && !outputs.empty()) outputs.pop_back();  // drop one count
    out.failure = check_word_counts(outputs, serial_);
    out.shuffle_mb = static_cast<double>(summary.shuffled_bytes) * 1e-6;
    out.layers = {
        {"shuffle.combine_s", static_cast<double>(summary.combine_ns) * 1e-9},
        {"shuffle.spill_s", static_cast<double>(summary.spill_ns) * 1e-9},
        {"shuffle.spills", static_cast<double>(summary.spills)},
        {"shuffle.table_peak_mb", static_cast<double>(summary.table_bytes_peak) /
                                      static_cast<double>(kMiB)},
        // MiniHadoop reports no pre-combine pair count; every token is
        // one emitted pair.
        {"shuffle.combine_ratio",
         static_cast<double>(summary.pairs_after_combine) /
             static_cast<double>(tokens_)},
        {"minihadoop.heartbeats", static_cast<double>(summary.heartbeats)},
        {"minihadoop.shuffle_requests",
         static_cast<double>(summary.shuffle_requests)},
        {"minihadoop.speculative_launches",
         static_cast<double>(summary.speculative_launches)},
        {"dfs.stage_s", stage_s_},
    };
    add_probe_layers(traced, out.layers);
    return out;
  }

 private:
  std::string text_;
  WordCounts serial_;
  std::uint64_t tokens_ = 1;
  double stage_s_ = 0;
  int jobs_ = 0;
  dfs::MiniDfs dfs_{kDatanodes};
  minihadoop::MiniCluster cluster_{dfs_, kTrackers};
};

// --- Sort -----------------------------------------------------------------

/// Serves records [first, last) of a record buffer, one per call.
mapred::RecordSource record_source(const std::string& records,
                                   std::uint64_t first, std::uint64_t last) {
  return [&records, at = first, last]() mutable -> std::optional<std::string> {
    if (at >= last) return std::nullopt;
    return records.substr(at++ * kRecordBytes, kRecordBytes);
  };
}

/// `swap` makes reducer 0 see its first two keys in swapped order.
template <bool kTraced>
mapred::JobDef sort_job(ReducerOrderCheck& order, bool swap) {
  mapred::JobDef job;
  job.map = [](std::string_view record, mapred::MapContext& ctx) {
    MapSpan<kTraced> span(1);
    span.emit(ctx, record.substr(0, kKeyBytes), record.substr(kKeyBytes));
  };
  job.reduce = [&order, swap, held = std::string(), keys = 0](
                   std::string_view key, std::span<const std::string> payloads,
                   mapred::ReduceContext& ctx) mutable {
    ReduceSpan<kTraced> span(1, ctx.reducer_index(), payloads.size());
    const auto reducer = static_cast<std::uint32_t>(ctx.reducer_index());
    if (swap && reducer == 0 && keys++ < 2) {
      if (held.empty()) {
        held = key;
      } else {
        order.observe(reducer, key);
        order.observe(reducer, held);
      }
    } else {
      order.observe(reducer, key);
    }
    for (const auto& p : payloads) ctx.emit(key, p);
  };
  job.tuning.partitioner = key_range;
  job.sorted_reduce = true;
  job.streaming_merge_reduce = true;
  return job;
}

/// TeraSort-style records, the JavaSort job of Figure 1 and Table I:
/// every byte crosses the shuffle, reducers k-way merge sorted runs.
class Sort final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    records_ = make_records(kInputBytes / kRecordBytes, seed);
  }

  double serial_reference() override {
    const auto t0 = now_ns();
    std::vector<std::string_view> views;
    views.reserve(records_.size() / kRecordBytes);
    for (std::size_t at = 0; at < records_.size(); at += kRecordBytes) {
      views.push_back(std::string_view(records_).substr(at, kRecordBytes));
    }
    std::sort(views.begin(), views.end());
    const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    digest_ = digest_records(records_);
    return seconds;
  }

  JobOutcome run(bool traced, bool corrupt) override {
    ReducerOrderCheck order(kReducers);
    const auto job = traced ? sort_job<true>(order, corrupt)
                            : sort_job<false>(order, corrupt);
    const std::uint64_t count = records_.size() / kRecordBytes;
    std::vector<mapred::RecordSource> inputs;
    for (std::uint64_t m = 0; m < kMappers; ++m) {
      inputs.push_back(record_source(records_, m * count / kMappers,
                                     (m + 1) * count / kMappers));
    }
    const mapred::JobRunner runner(kMappers, kReducers);
    JobOutcome out;
    auto result = timed_call(traced, kReducers, out.seconds, [&] {
      return runner.run(job, std::move(inputs));
    });
    out.failure = order.result();
    if (out.failure.empty()) {
      out.failure = check_record_multiset(result.outputs, digest_);
    }
    out.shuffle_mb =
        static_cast<double>(result.report.totals.bytes_sent) * 1e-6;
    out.layers = mpid_layers(result.report);
    add_probe_layers(traced, out.layers);
    return out;
  }

 private:
  std::string records_;
  RecordDigest digest_;
};

// --- Connected components ---------------------------------------------------

template <bool kTraced>
void cc_ingest(std::string_view line, mapred::MapContext& ctx) {
  MapSpan<kTraced> span(1);
  std::string_view u, v;
  if (!parse_edge(line, u, v)) {
    throw std::invalid_argument("cc: malformed edge line");
  }
  span.emit(ctx, u, "=" + std::string(u));
  span.emit(ctx, v, "=" + std::string(v));
  span.emit(ctx, u, ">" + std::string(v));
  span.emit(ctx, v, ">" + std::string(u));
}

/// Re-emits a vertex's label as its state ('=') and offers it to every
/// neighbour ('>').
template <bool kTraced>
void cc_map(std::string_view vertex, std::string_view label,
            mapred::ChainMapContext& ctx) {
  MapSpan<kTraced> span(ctx.round());
  span.emit(ctx, vertex, "=" + std::string(label));
  if (const auto* neighbours = ctx.statics(vertex)) {
    const std::string offer = ">" + std::string(label);
    for (const auto& n : *neighbours) span.emit(ctx, n, offer);
  }
}

/// Keeps the lowest label heard; counts the vertices whose label fell.
template <bool kTraced>
void cc_reduce(std::string_view vertex, std::vector<std::string>& values,
               mapred::ChainReduceContext& ctx) {
  ReduceSpan<kTraced> span(ctx.round(), ctx.partition(), values.size());
  std::string_view state, best;
  for (const auto& value : values) {
    const auto label = std::string_view(value).substr(1);
    if (value[0] == '=' && (state.empty() || label < state)) state = label;
    if (best.empty() || label < best) best = label;
  }
  if (state.empty()) throw std::logic_error("cc: vertex lost its state");
  ctx.emit(vertex, best);
  if (best < state) ctx.incr("changed");
}

template <bool kTraced>
void set_cc_functions(mapred::ChainJob& job) {
  job.ingest = cc_ingest<kTraced>;
  job.stages[0].map = cc_map<kTraced>;
  job.stages[0].reduce = cc_reduce<kTraced>;
}

/// Label-propagation connected components on JobChain: about eight
/// resident rounds of small shuffles, so per-round barriers dominate.
class ConnectedComponents final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    edges_ = make_graph(kGraphVertices, kGraphEdges, kGraphComponents, seed);
    job_.static_input = adjacency(edges_);
    mapred::ChainStage propagate;
    propagate.name = "cc-propagate";
    propagate.max_rounds = 64;
    propagate.until = [](const mapred::RoundCounters& c) {
      return c.value("changed") == 0;
    };
    job_.stages.push_back(std::move(propagate));
  }

  double serial_reference() override {
    const auto t0 = now_ns();
    labels_ = union_find_labels(edges_);
    return static_cast<double>(now_ns() - t0) * 1e-9;
  }

  JobOutcome run(bool traced, bool corrupt) override {
    if (traced) {
      set_cc_functions<true>(job_);
    } else {
      set_cc_functions<false>(job_);
    }
    const mapred::JobChain chain(kReducers);
    JobOutcome out;
    auto result = timed_call(traced, kReducers, out.seconds, [&] {
      return chain.run_on_text(job_, edges_);
    });
    if (corrupt && !result.outputs.empty()) {  // relabel one vertex
      auto& label = result.outputs.back().second;
      label = label == vertex_name(0) ? vertex_name(1) : vertex_name(0);
    }
    out.failure = check_labels(result.outputs, labels_, kGraphComponents);
    const auto& totals = result.report.totals;
    out.shuffle_mb = static_cast<double>(totals.bytes_sent) * 1e-6;
    out.layers = mpid_layers(result.report);
    out.layers["chain.rounds"] = static_cast<double>(result.rounds.size());
    out.layers["chain.resident_mb_in"] =
        static_cast<double>(totals.resident_bytes_in) * 1e-6;
    add_probe_layers(traced, out.layers);
    return out;
  }

 private:
  std::string edges_;
  KvVec labels_;
  mapred::ChainJob job_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "wordcount") return std::make_unique<WordCount>();
  if (name == "sort") return std::make_unique<Sort>();
  if (name == "cc") return std::make_unique<ConnectedComponents>();
  if (name == "wordcount_hadoop") return std::make_unique<WordCountHadoop>();
  return nullptr;
}

std::vector<std::string> workload_names() {
  return {"wordcount", "sort", "cc", "wordcount_hadoop"};
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      {"phase.startup_s", "s"},
      {"phase.map_s", "s"},
      {"phase.drain_s", "s"},
      {"phase.reduce_s", "s"},
      {"phase.collect_s", "s"},
      {"phase.reduce_skew", "ratio"},
      {"mapred.emit_s", "s"},
      {"user.map_s", "s"},
      {"user.combine_s", "s"},
      {"user.reduce_s", "s"},
      {"shuffle.combine_s", "s"},
      {"shuffle.spill_s", "s"},
      {"shuffle.spills", "count"},
      {"shuffle.table_peak_mb", "MiB"},
      {"shuffle.combine_ratio", "ratio"},
      {"core.pairs_sent", "count"},
      {"core.frames_sent", "count"},
      {"core.flush_wait_s", "s"},
      {"chain.rounds", "count"},
      {"chain.resident_mb_in", "MB"},
      {"minihadoop.heartbeats", "count"},
      {"minihadoop.shuffle_requests", "count"},
      {"minihadoop.speculative_launches", "count"},
      {"dfs.stage_s", "s"},
      {"trace.overhead_s", "s"},
  };
  return metrics;
}

}  // namespace jobbench
