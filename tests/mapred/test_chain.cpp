// JobChain tests: multi-round execution over resident partitions —
// convergence predicates, pinned statics, budget-forced resident spill,
// thread parity, mid-chain reducer restart, and byte-identity between
// the chained executor and the fresh-world-per-round ablation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mpid/common/hash.hpp"
#include "mpid/common/prng.hpp"
#include "mpid/fault/fault.hpp"
#include "mpid/mapred/chain.hpp"

namespace mpid::mapred {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  std::string path;
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "mpid-chain-XXXXXX");
    path = ::mkdtemp(tmpl.data());
  }
  ~TempDir() { fs::remove_all(path); }
};

/// Countdown chain: every line is "key value"; each round decrements
/// every key's value toward zero; the stage converges when no key is
/// still positive. Keys are distinct per line, so each key holds exactly
/// one resident value per round.
ChainJob countdown_job(int max_rounds = 12) {
  ChainJob job;
  job.ingest = [](std::string_view line, MapContext& ctx) {
    const auto sp = line.find(' ');
    if (sp == std::string_view::npos) return;
    ctx.emit(line.substr(0, sp), line.substr(sp + 1));
  };
  ChainStage stage;
  stage.name = "countdown";
  stage.map = [](std::string_view key, std::string_view value,
                 ChainMapContext& ctx) { ctx.emit(key, value); };
  stage.reduce = [](std::string_view key, std::vector<std::string>& values,
                    ChainReduceContext& ctx) {
    long n = 0;
    for (const auto& v : values) n += std::stol(v);
    n = std::max(0L, n - 1);
    ctx.emit(key, std::to_string(n));
    if (n > 0) ctx.incr("active");
  };
  stage.max_rounds = max_rounds;
  stage.until = [](const RoundCounters& c) { return c.value("active") == 0; };
  job.stages.push_back(std::move(stage));
  return job;
}

/// 12 keys spread over all partitions; values 1..5 so the countdown
/// takes 5 rounds (round 1 decrements through ingest's reduce).
std::string countdown_text() {
  std::string text;
  for (int i = 0; i < 12; ++i) {
    text += "key" + std::to_string(i) + " " + std::to_string(1 + i % 5) + "\n";
  }
  return text;
}

TEST(JobChain, ValidatesJobShape) {
  EXPECT_THROW(JobChain(0), std::invalid_argument);
  JobChain chain(2);

  ChainJob no_ingest = countdown_job();
  no_ingest.ingest = nullptr;
  EXPECT_THROW(chain.run_on_text(no_ingest, "a 1\n"), std::invalid_argument);

  ChainJob no_stage = countdown_job();
  no_stage.stages.clear();
  EXPECT_THROW(chain.run_on_text(no_stage, "a 1\n"), std::invalid_argument);

  ChainJob no_map = countdown_job();
  no_map.stages[0].map = nullptr;  // multi-round stage needs a map
  EXPECT_THROW(chain.run_on_text(no_map, "a 1\n"), std::invalid_argument);

  ChainJob with_combiner = countdown_job();
  with_combiner.tuning.combiner = [](std::string_view,
                                     std::vector<std::string>&& vs) {
    return std::move(vs);
  };
  EXPECT_THROW(chain.run_on_text(with_combiner, "a 1\n"),
               std::invalid_argument);

  ChainJob coded = countdown_job();
  coded.tuning.coded_replication = 2;
  EXPECT_THROW(chain.run_on_text(coded, "a 1\n"), std::invalid_argument);

  EXPECT_THROW(chain.run(countdown_job(), std::vector<RecordSource>(1)),
               std::invalid_argument);
}

TEST(JobChain, ConvergesAndReportsRounds) {
  JobChain chain(3);
  auto result = chain.run_on_text(countdown_job(), countdown_text());

  // Every key counted down to zero.
  ASSERT_EQ(result.outputs.size(), 12u);
  for (const auto& [key, value] : result.outputs) EXPECT_EQ(value, "0");

  // Max initial value is 5 -> exactly 5 work rounds (round 5's reduce
  // leaves "active" at 0, firing the predicate before max_rounds).
  ASSERT_EQ(result.rounds.size(), 5u);
  EXPECT_EQ(result.rounds[0].counters.value("active"), 9u);  // 3 ones done
  EXPECT_EQ(result.rounds[4].counters.value("active"), 0u);
  for (std::size_t r = 0; r < result.rounds.size(); ++r) {
    EXPECT_EQ(result.rounds[r].stage, 0);
    EXPECT_EQ(result.rounds[r].round_in_stage, static_cast<int>(r) + 1);
    EXPECT_EQ(result.rounds[r].resident_pairs_out, 12u);
  }

  // 5 work barriers + 1 empty teardown barrier (the stop decision is
  // only known after round 5's counters are aggregated).
  EXPECT_EQ(result.report.round_totals.size(), 6u);
  EXPECT_EQ(result.report.totals.chain_rounds, 6u);

  // The tentpole counters: external input enters once; rounds >= 2 map
  // resident pairs in place and re-ingest nothing.
  EXPECT_GT(result.report.totals.ingest_bytes, 0u);
  EXPECT_EQ(result.report.round_totals[0].ingest_bytes,
            result.report.totals.ingest_bytes);
  EXPECT_GT(result.report.totals.resident_pairs_in, 0u);
  for (std::size_t r = 1; r < result.report.round_totals.size(); ++r) {
    EXPECT_EQ(result.report.round_totals[r].ingest_bytes, 0u);
  }
}

TEST(JobChain, FixedRoundPlanSkipsTeardownBarrier) {
  ChainJob job = countdown_job(/*max_rounds=*/3);
  job.stages[0].until = nullptr;  // run the full static budget
  JobChain chain(2);
  auto result = chain.run_on_text(job, countdown_text());
  // A statically-last round finalizes directly: 3 rounds, 3 barriers.
  EXPECT_EQ(result.rounds.size(), 3u);
  EXPECT_EQ(result.report.round_totals.size(), 3u);
  EXPECT_EQ(result.report.totals.chain_rounds, 3u);
}

TEST(JobChain, ChainedAndUnchainedAreByteIdentical) {
  const auto text = countdown_text();
  JobChain chain(3);
  auto chained = chain.run_on_text(countdown_job(), text);
  auto unchained = chain.run_unchained_on_text(countdown_job(), text);

  EXPECT_EQ(chained.outputs, unchained.outputs);
  ASSERT_EQ(chained.rounds.size(), unchained.rounds.size());
  for (std::size_t r = 0; r < chained.rounds.size(); ++r) {
    EXPECT_EQ(chained.rounds[r].counters.values(),
              unchained.rounds[r].counters.values());
    EXPECT_EQ(chained.rounds[r].resident_bytes_out,
              unchained.rounds[r].resident_bytes_out);
  }

  // The ablation re-ingests round N's output as round N+1's input; the
  // chain pays external ingest exactly once. Same round count.
  EXPECT_GT(unchained.report.totals.ingest_bytes,
            chained.report.totals.ingest_bytes);
  EXPECT_EQ(unchained.report.totals.resident_pairs_in, 0u);
  // 5 work rounds each; the chained count includes the one empty
  // teardown barrier dynamic convergence costs (the ablation's driver
  // decides between worlds, so it never arms a sixth).
  EXPECT_EQ(unchained.report.totals.chain_rounds, 5u);
  EXPECT_EQ(chained.report.totals.chain_rounds, 6u);
}

/// Statics chain: each key's static weight is added every round for a
/// fixed 3 rounds: final = initial + 3 * weight (round 1 reduces the
/// ingested pairs, rounds 2..3 the resident ones).
ChainJob statics_job() {
  ChainJob job;
  job.ingest = [](std::string_view line, MapContext& ctx) {
    const auto sp = line.find(' ');
    if (sp == std::string_view::npos) return;
    ctx.emit(line.substr(0, sp), line.substr(sp + 1));
  };
  ChainStage stage;
  stage.name = "accumulate";
  stage.map = [](std::string_view key, std::string_view value,
                 ChainMapContext& ctx) {
    // The map side must see the pinned table too.
    if (ctx.statics(key) == nullptr) {
      ctx.emit(key, "missing-static");
      return;
    }
    ctx.emit(key, value);
  };
  stage.reduce = [](std::string_view key, std::vector<std::string>& values,
                    ChainReduceContext& ctx) {
    const auto* weights = ctx.statics(key);
    long w = weights ? std::stol(weights->front()) : 0;
    long n = 0;
    for (const auto& v : values) n += std::stol(v);
    ctx.emit(key, std::to_string(n + w));
  };
  stage.max_rounds = 3;
  job.stages.push_back(std::move(stage));
  for (int i = 0; i < 8; ++i) {
    job.static_input.emplace_back("key" + std::to_string(i),
                                  std::to_string(10 * (i + 1)));
  }
  return job;
}

TEST(JobChain, StaticsArePinnedOnceAndReshuffledNever) {
  std::string text;
  for (int i = 0; i < 8; ++i) text += "key" + std::to_string(i) + " 1\n";

  JobChain chain(3);
  auto chained = chain.run_on_text(statics_job(), text);
  ASSERT_EQ(chained.outputs.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(chained.outputs[static_cast<std::size_t>(i)].second,
              std::to_string(1 + 3 * 10 * (i + 1)));
  }

  // Pinned once (round 1), never re-realigned.
  EXPECT_GT(chained.report.totals.static_bytes_pinned, 0u);
  EXPECT_EQ(chained.report.totals.static_bytes_reshuffled, 0u);
  EXPECT_EQ(chained.report.round_totals[1].static_bytes_pinned, 0u);

  // The ablation rebuilds the table for rounds 2..3 — same bytes, same
  // outputs, but the reshuffle counter exposes the structural cost.
  auto unchained = chain.run_unchained_on_text(statics_job(), text);
  EXPECT_EQ(chained.outputs, unchained.outputs);
  EXPECT_EQ(unchained.report.totals.static_bytes_pinned,
            chained.report.totals.static_bytes_pinned);
  EXPECT_EQ(unchained.report.totals.static_bytes_reshuffled,
            2 * chained.report.totals.static_bytes_pinned);
}

TEST(JobChain, MultiStagePlansAdvanceThroughResidentOutput) {
  // Stage 0 (1 round, ingest only): sum per-key values. Stage 1 (1
  // round): reformat the resident sums. Exercises the stage hand-off —
  // stage 1's first round maps stage 0's resident partitions.
  ChainJob job;
  job.ingest = [](std::string_view line, MapContext& ctx) {
    const auto sp = line.find(' ');
    if (sp != std::string_view::npos) {
      ctx.emit(line.substr(0, sp), line.substr(sp + 1));
    }
  };
  ChainStage sum;
  sum.name = "sum";
  sum.reduce = [](std::string_view key, std::vector<std::string>& values,
                  ChainReduceContext& ctx) {
    long n = 0;
    for (const auto& v : values) n += std::stol(v);
    ctx.emit(key, std::to_string(n));
  };
  ChainStage fmt;
  fmt.name = "format";
  fmt.map = [](std::string_view key, std::string_view value,
               ChainMapContext& ctx) { ctx.emit(key, value); };
  fmt.reduce = [](std::string_view key, std::vector<std::string>& values,
                  ChainReduceContext& ctx) {
    ctx.emit(key, "total=" + values.front());
  };
  job.stages = {std::move(sum), std::move(fmt)};

  JobChain chain(2);
  auto result = chain.run_on_text(job, "a 1\nb 2\na 3\nb 4\na 5\n");
  ASSERT_EQ(result.rounds.size(), 2u);
  EXPECT_EQ(result.rounds[0].stage, 0);
  EXPECT_EQ(result.rounds[1].stage, 1);
  ASSERT_EQ(result.outputs.size(), 2u);
  EXPECT_EQ(result.outputs[0],
            (KvPair{"a", "total=9"}));
  EXPECT_EQ(result.outputs[1],
            (KvPair{"b", "total=6"}));
}

TEST(JobChain, MapThreadsDoNotChangeOutputs) {
  const auto text = countdown_text();
  JobChain chain(2);
  auto serial = chain.run_on_text(countdown_job(), text);

  ChainJob threaded = countdown_job();
  threaded.tuning.map_threads = 4;
  auto parallel = chain.run_on_text(threaded, text);
  EXPECT_EQ(serial.outputs, parallel.outputs);
  EXPECT_EQ(serial.rounds.size(), parallel.rounds.size());
}

/// Fixed 3-round identity chain over fat values: 64 keys x 8 KiB per
/// partition-pair, enough to overflow a small shared budget.
ChainJob bigval_job() {
  ChainJob job;
  job.ingest = [](std::string_view line, MapContext& ctx) {
    const auto sp = line.find(' ');
    if (sp != std::string_view::npos) {
      ctx.emit(line.substr(0, sp), line.substr(sp + 1));
    }
  };
  ChainStage stage;
  stage.name = "identity";
  stage.map = [](std::string_view key, std::string_view value,
                 ChainMapContext& ctx) { ctx.emit(key, value); };
  stage.reduce = [](std::string_view key, std::vector<std::string>& values,
                    ChainReduceContext& ctx) {
    ctx.emit(key, values.front());
  };
  stage.max_rounds = 3;
  job.stages.push_back(std::move(stage));
  return job;
}

std::string bigval_text() {
  std::string text;
  for (int i = 0; i < 64; ++i) {
    text += "key" + std::to_string(i) + " " +
            std::string(8192, static_cast<char>('a' + i % 26)) + "\n";
  }
  return text;
}

TEST(JobChain, BudgetRefusalSpillsResidentPartitions) {
  TempDir dir;
  const auto text = bigval_text();
  JobChain chain(2);
  auto in_memory = chain.run_on_text(bigval_job(), text);
  EXPECT_EQ(in_memory.report.totals.resident_bytes_spilled, 0u);

  // ~512 KiB of resident pairs against a 64 KiB arbiter: every seal is
  // refused, the partitions live on disk between rounds, and the chain
  // still produces byte-identical outputs.
  ChainJob tight = bigval_job();
  tight.tuning.memory_budget = std::make_shared<store::MemoryBudget>(64 * 1024);
  tight.tuning.spill_dir = dir.path;
  auto spilled = chain.run_on_text(tight, text);
  EXPECT_EQ(in_memory.outputs, spilled.outputs);
  EXPECT_EQ(in_memory.rounds.size(), spilled.rounds.size());
  EXPECT_GT(spilled.report.totals.resident_bytes_spilled, 0u);
  // The scratch dir is clean afterwards: seals unlink their spill files.
  EXPECT_EQ(std::distance(fs::directory_iterator(dir.path),
                          fs::directory_iterator{}),
            0);

  // No spill_dir -> a refused seal is a hard error, not silent retention.
  store::MemoryBudget one_byte(1);
  ResidentPartition part;
  EXPECT_THROW(part.seal({{"k", "vvvv"}}, &one_byte, ""), std::runtime_error);
}

TEST(JobChain, ResidentPartitionSealSortsAndRoundTrips) {
  TempDir dir;
  KvVec pairs = {{"b", "2"}, {"a", "9"}, {"a", "1"}, {"c", "3"}};
  const KvVec sorted = {{"a", "1"}, {"a", "9"}, {"b", "2"}, {"c", "3"}};

  ResidentPartition in_memory;
  in_memory.seal(pairs, nullptr, "");
  EXPECT_FALSE(in_memory.spilled());
  EXPECT_EQ(in_memory.pair_count(), 4u);
  EXPECT_EQ(in_memory.load(), sorted);

  store::MemoryBudget tiny(1);
  ResidentPartition on_disk;
  on_disk.seal(pairs, &tiny, dir.path);
  EXPECT_TRUE(on_disk.spilled());
  EXPECT_EQ(on_disk.pair_count(), 4u);
  EXPECT_EQ(on_disk.byte_count(), in_memory.byte_count());
  EXPECT_EQ(on_disk.load(), sorted);
  KvVec streamed;
  on_disk.for_each([&](std::string_view k, std::string_view v) {
    streamed.emplace_back(std::string(k), std::string(v));
  });
  EXPECT_EQ(streamed, sorted);
  EXPECT_EQ(on_disk.take(), sorted);
  EXPECT_EQ(on_disk.pair_count(), 0u);
}

TEST(JobChain, ReducerRestartMidChainKeepsOutputsIdentical) {
  const auto text = countdown_text();
  JobChain chain(3);
  const auto baseline = chain.run_on_text(countdown_job(), text);

  // progress_ticks_ accumulate across rounds (rearm keeps them), so a
  // tick budget past round 1's frame count fires the crash in a LATER
  // round — the restart re-pulls retained round-N frames mid-chain.
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.scripted_crashes.push_back({fault::TaskKind::kReduce, 1, 0, 5});
  ChainJob faulted = countdown_job();
  faulted.tuning.resilient_shuffle = true;
  faulted.tuning.fault_injector = std::make_shared<fault::FaultInjector>(plan);
  auto result = chain.run_on_text(faulted, text);

  EXPECT_EQ(baseline.outputs, result.outputs);
  EXPECT_EQ(result.report.totals.task_restarts, 1u);
  // The restart fired in a round >= 2 of the chain.
  std::size_t restart_round = 0;
  for (std::size_t r = 0; r < result.report.round_totals.size(); ++r) {
    if (result.report.round_totals[r].task_restarts > 0) restart_round = r;
  }
  EXPECT_GE(restart_round, 1u);
}

TEST(JobChain, MapperCrashRetriesResidentRound) {
  const auto text = countdown_text();
  JobChain chain(2);
  const auto baseline = chain.run_on_text(countdown_job(), text);

  fault::FaultPlan plan;
  plan.seed = 12;
  // Mapper 0 dies 3 records into attempt 0. The chain materializes the
  // resident partition for the retry, so the re-run replays the same
  // deterministic input.
  plan.scripted_crashes.push_back({fault::TaskKind::kMap, 0, 0, 3});
  ChainJob faulted = countdown_job();
  faulted.tuning.resilient_shuffle = true;
  faulted.tuning.fault_injector = std::make_shared<fault::FaultInjector>(plan);
  auto result = chain.run_on_text(faulted, text);

  EXPECT_EQ(baseline.outputs, result.outputs);
  EXPECT_EQ(result.report.totals.task_restarts, 1u);
}

// --- StaticTables -------------------------------------------------------------

KvVec static_fixture() {
  return {{"alpha", "1"},  {"beta", "22"},  {"alpha", "333"},
          {"gamma", "4444"}, {"beta", "55555"}, {"alpha", "6"},
          {"a-key-longer-than-sso", "v"}};
}

constexpr int kStaticParts = 3;

/// The key's own partition under the default (hash) partitioner.
int home(std::string_view key) {
  return static_cast<int>(common::hash_partition(key, kStaticParts));
}

TEST(StaticTables, KeysKeepTheirStaticInputValueOrder) {
  const StaticTables tables(static_fixture(), kStaticParts, {});
  EXPECT_EQ(tables.partitions(), kStaticParts);
  const auto* alpha = tables.find(home("alpha"), "alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(*alpha, (std::vector<std::string>{"1", "333", "6"}));
  const auto* beta = tables.find(home("beta"), "beta");
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(*beta, (std::vector<std::string>{"22", "55555"}));
  const auto* gamma = tables.find(home("gamma"), "gamma");
  ASSERT_NE(gamma, nullptr);
  EXPECT_EQ(*gamma, (std::vector<std::string>{"4444"}));
}

TEST(StaticTables, MissingKeysAndOutOfRangePartitionsAreNull) {
  const StaticTables tables(static_fixture(), kStaticParts, {});
  EXPECT_EQ(tables.find(home("delta"), "delta"), nullptr);
  EXPECT_EQ(tables.find(home("alpha"), ""), nullptr);
  // A key lives on its own partition only.
  EXPECT_EQ(tables.find((home("alpha") + 1) % kStaticParts, "alpha"),
            nullptr);
  EXPECT_EQ(tables.find(-1, "alpha"), nullptr);
  EXPECT_EQ(tables.find(kStaticParts, "alpha"), nullptr);
  EXPECT_EQ(tables.partition_bytes(-1), 0u);
  EXPECT_EQ(tables.partition_bytes(kStaticParts), 0u);

  const StaticTables empty(KvVec{}, 2, {});
  EXPECT_EQ(empty.find(0, "alpha"), nullptr);
  EXPECT_EQ(empty.total_bytes(), 0u);
  EXPECT_THROW(StaticTables(static_fixture(), 0, {}), std::invalid_argument);
}

TEST(StaticTables, ByteCountsAreTheRealignedPayload) {
  // Key + value bytes per partition, as the chain reports them in
  // static_bytes_pinned.
  const StaticTables tables(static_fixture(), kStaticParts, {});
  EXPECT_EQ(tables.total_bytes(), 66u);
  EXPECT_EQ(tables.partition_bytes(0), 20u);  // alpha x3
  EXPECT_EQ(tables.partition_bytes(1), 0u);
  EXPECT_EQ(tables.partition_bytes(2), 46u);  // the other three keys

  // A custom partitioner moves whole keys, never bytes.
  const StaticTables one_part(
      static_fixture(), kStaticParts,
      [](std::string_view, std::uint32_t) -> std::uint32_t { return 1; });
  EXPECT_EQ(one_part.partition_bytes(1), 66u);
  EXPECT_EQ(one_part.find(1, "alpha")->size(), 3u);
}

TEST(StaticTables, LooksUpByStringViewSlices) {
  // Neither slice is a whole, NUL-terminated string: the lookup hashes
  // and compares the view itself.
  const StaticTables tables(static_fixture(), kStaticParts, {});
  const std::string buffer = "<<a-key-longer-than-sso>>alphabet";
  const auto whole = std::string_view(buffer);
  const auto long_key = whole.substr(2, 21);
  const auto short_key = whole.substr(25, 5);
  ASSERT_EQ(long_key, "a-key-longer-than-sso");
  ASSERT_EQ(short_key, "alpha");
  const auto* long_values = tables.find(home(long_key), long_key);
  ASSERT_NE(long_values, nullptr);
  EXPECT_EQ(*long_values, std::vector<std::string>{"v"});
  const auto* short_values = tables.find(home(short_key), short_key);
  ASSERT_NE(short_values, nullptr);
  EXPECT_EQ(short_values->size(), 3u);
}

// --- Reducer grouping contract ----------------------------------------------
//
// Every chain reducer groups its shuffle in the flat combine table (or the
// legacy node buffer under flat_combine_table=false) and must still hand
// each key to reduce exactly once, in ascending key order per partition,
// with exactly the multiset of values sent for it.

using Groups = std::map<std::string, std::vector<std::string>>;

/// "key value" lines over 40 keys with 1..9 values each, in shuffled
/// order, plus the std::map reference of what each key was sent (values
/// in line order).
std::string grouping_text(Groups& reference) {
  common::Xoshiro256StarStar rng(77);
  std::vector<std::pair<std::string, std::string>> lines;
  for (int k = 0; k < 40; ++k) {
    const std::string key = "g" + std::to_string(k * 7919 % 1000);
    const auto n = rng.next_in(1, 9);
    for (std::uint64_t v = 0; v < n; ++v) {
      lines.emplace_back(key, std::to_string(rng.next_below(1000)));
    }
  }
  for (std::size_t i = lines.size(); i > 1; --i) {
    std::swap(lines[i - 1], lines[rng.next_below(i)]);
  }
  std::string text;
  for (const auto& [key, value] : lines) {
    reference[key].push_back(value);
    text += key + " " + value + "\n";
  }
  return text;
}

/// What the stage reduce saw, by partition, in call order.
struct GroupLog {
  std::mutex mu;
  std::map<int, std::vector<std::pair<std::string, std::vector<std::string>>>>
      calls;
};

/// A one-round chain whose reduce logs its group and then mutates the
/// values vector it was handed — a later group must not see the damage.
ChainJob logging_job(GroupLog& log, bool flat) {
  ChainJob job;
  job.ingest = [](std::string_view line, MapContext& ctx) {
    const auto sp = line.find(' ');
    ctx.emit(line.substr(0, sp), line.substr(sp + 1));
  };
  ChainStage stage;
  stage.name = "log";
  stage.reduce = [&log](std::string_view key, std::vector<std::string>& values,
                        ChainReduceContext& ctx) {
    {
      std::lock_guard lock(log.mu);
      log.calls[ctx.partition()].emplace_back(std::string(key), values);
    }
    ctx.emit(key, std::to_string(values.size()));
    values.assign(3, "clobbered");
    values.front().append(64, '!');
  };
  job.stages.push_back(std::move(stage));
  job.tuning.flat_combine_table = flat;
  job.tuning.spill_threshold_bytes = 256;  // many segments per key
  return job;
}

/// Checks the contract: ascending keys per partition, no key on two
/// partitions or twice, and each key's values equal to the reference
/// multiset.
void expect_grouping_contract(const GroupLog& log, const Groups& reference,
                              const std::string& label) {
  Groups seen;
  for (const auto& [partition, calls] : log.calls) {
    for (std::size_t i = 1; i < calls.size(); ++i) {
      EXPECT_LT(calls[i - 1].first, calls[i].first)
          << label << " partition " << partition;
    }
    for (const auto& [key, values] : calls) {
      EXPECT_TRUE(seen.emplace(key, values).second)
          << label << " key " << key << " reduced twice";
    }
  }
  ASSERT_EQ(seen.size(), reference.size()) << label;
  for (const auto& [key, values] : reference) {
    auto got = seen[key];
    auto want = values;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << label << " key " << key;
  }
}

TEST(JobChainGrouping, KeysOnceAscendingWithEveryValueSent) {
  Groups reference;
  const auto text = grouping_text(reference);
  for (const bool flat : {true, false}) {
    for (const int partitions : {1, 3}) {
      GroupLog log;
      const auto result =
          JobChain(partitions).run_on_text(logging_job(log, flat), text);
      const std::string label = "flat=" + std::to_string(flat) +
                                " partitions=" + std::to_string(partitions);
      expect_grouping_contract(log, reference, label);
      ASSERT_EQ(result.outputs.size(), reference.size()) << label;
      for (const auto& [key, count] : result.outputs) {
        EXPECT_EQ(count, std::to_string(reference.at(key).size())) << label;
      }
    }
  }
}

TEST(JobChainGrouping, OneMapperDeliversValuesInArrivalOrder) {
  // A single mapper ships its segments in emit order, so the reducer's
  // values must be exactly the ingest order — not merely the multiset.
  Groups reference;
  const auto text = grouping_text(reference);
  for (const bool flat : {true, false}) {
    GroupLog log;
    JobChain(1).run_on_text(logging_job(log, flat), text);
    Groups seen;
    for (const auto& [key, values] : log.calls[0]) seen[key] = values;
    EXPECT_EQ(seen, reference) << "flat=" << flat;
  }
}

TEST(JobChainGrouping, ReducerCrashRepullsEveryValueOnce) {
  // The injected crash fires while the resilient shuffle collects its
  // lanes; the restarted reducer re-pulls every lane through the shared
  // retry loop, and its groups must still hold each value exactly once.
  Groups reference;
  const auto text = grouping_text(reference);
  for (const bool flat : {true, false}) {
    GroupLog log;
    fault::FaultPlan plan;
    plan.seed = 5;
    plan.scripted_crashes.push_back({fault::TaskKind::kReduce, 1, 0, 3});
    ChainJob job = logging_job(log, flat);
    job.tuning.resilient_shuffle = true;
    job.tuning.fault_injector = std::make_shared<fault::FaultInjector>(plan);
    const auto result = JobChain(3).run_on_text(job, text);
    EXPECT_EQ(result.report.totals.task_restarts, 1u) << "flat=" << flat;
    expect_grouping_contract(log, reference,
                             "crash flat=" + std::to_string(flat));
  }
}

TEST(JobChain, TakeOutputsMovesPairsOut) {
  JobChain chain(2);
  auto result = chain.run_on_text(countdown_job(), countdown_text());
  const auto copied = result.outputs;
  auto moved = result.take_outputs();
  EXPECT_EQ(moved, copied);
  EXPECT_TRUE(result.outputs.empty());
}

}  // namespace
}  // namespace mpid::mapred
