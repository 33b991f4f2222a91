// Input generators and serial references of the job benchmark.
//
// Every input is a pure function of the benchmark's --seed and is built
// here, not by the repository's workload generators, so a change to the
// program under test cannot change what a workload feeds it. The serial
// references are the single-thread computations each job's output is
// checked against and timed beside.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace jobbench {

using KvVec = std::vector<std::pair<std::string, std::string>>;

/// SplitMix64: a fixed algorithm, so inputs repeat on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : state_(seed) {}
  std::uint64_t operator()() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

// --- text (wordcount, wordcount_hadoop) ---------------------------------

/// Lines of space-separated words drawn from a Zipf(s) distribution over
/// `vocabulary` distinct lowercase words; stops at the first line end at
/// or past `bytes`.
std::string zipf_text(std::uint64_t bytes, std::uint64_t seed,
                      int vocabulary = 50000, double s = 1.0);

/// Serial word count: (word, count) sorted by word, and the token total.
struct WordCounts {
  std::vector<std::pair<std::string, std::uint64_t>> counts;
  std::uint64_t tokens = 0;
};
WordCounts count_words(std::string_view text);

// --- records (sort) -------------------------------------------------------

inline constexpr std::size_t kRecordBytes = 100;
inline constexpr std::size_t kKeyBytes = 10;
/// Keys and payloads use the printable range '!'..'~'.
inline constexpr char kMinKeyChar = '!';
inline constexpr unsigned kKeyAlphabet = 94;

/// `count` TeraSort-style records of kRecordBytes each, back to back.
std::string make_records(std::uint64_t count, std::uint64_t seed);

/// Order-independent digest of a record multiset: the sum of a mixed
/// hash of each record's bytes.
std::uint64_t record_hash(std::string_view key, std::string_view payload);

/// Range partitioner over the first key byte: partition p of `parts` owns
/// an equal slice of the key alphabet.
std::uint32_t key_range(std::string_view key, std::uint32_t parts);

// --- graph (cc) -----------------------------------------------------------

/// Fixed-width vertex name, so lexicographic order is numeric order.
std::string vertex_name(int v);

/// Levels of every generated graph component: the root, then levels 4x
/// larger, so every vertex is at most kGraphLevels - 1 hops from its
/// component's lowest vertex.
inline constexpr int kGraphLevels = 8;

/// Edge list text, one "u v" line per edge: `vertices` vertices in
/// `components` components (vertex i in component i % components, whose
/// lowest vertex is the root of its levels), a tree edge from each vertex
/// to a random vertex one level up, then random edges within a level or
/// between adjacent levels up to `edges` in total. No self-loops;
/// duplicates may occur.
std::string make_graph(int vertices, int edges, int components,
                       std::uint64_t seed);

/// Both directions of every edge: the chain's pinned static channel.
KvVec adjacency(std::string_view edge_text);

/// Serial union-find components: (vertex, lowest vertex name of its
/// component), sorted by vertex.
KvVec union_find_labels(std::string_view edge_text);

/// Parses one "u v" edge line; false on a malformed line.
bool parse_edge(std::string_view line, std::string_view& u,
                std::string_view& v);

}  // namespace jobbench
