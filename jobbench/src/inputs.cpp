#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace jobbench {
namespace {

/// Vose's alias table: O(1) draws from a fixed discrete distribution.
class AliasTable {
 public:
  explicit AliasTable(const std::vector<double>& weights)
      : prob_(weights.size()), alias_(weights.size()) {
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    const auto n = weights.size();
    std::vector<double> scaled(n);
    std::vector<std::size_t> small, large;
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] = weights[i] * static_cast<double>(n) / total;
      (scaled[i] < 1.0 ? small : large).push_back(i);
    }
    while (!small.empty() && !large.empty()) {
      const auto s = small.back();
      small.pop_back();
      const auto l = large.back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] -= 1.0 - scaled[s];
      if (scaled[l] < 1.0) {
        large.pop_back();
        small.push_back(l);
      }
    }
    for (const auto i : small) prob_[i] = 1.0;
    for (const auto i : large) prob_[i] = 1.0;
  }

  std::size_t draw(Rng& rng) const noexcept {
    const auto i = static_cast<std::size_t>(rng() % prob_.size());
    return rng.uniform() < prob_[i] ? i : alias_[i];
  }

 private:
  std::vector<double> prob_;
  std::vector<std::size_t> alias_;
};

std::uint64_t mix(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 33);
}

}  // namespace

std::string zipf_text(std::uint64_t bytes, std::uint64_t seed, int vocabulary,
                      double s) {
  Rng rng(seed);
  std::vector<std::string> words;
  words.reserve(static_cast<std::size_t>(vocabulary));
  std::unordered_set<std::string> seen;
  // Word lengths (3 to 10) follow the rank, not the seed, so the token
  // count of a text of fixed size barely varies from seed to seed.
  while (words.size() < static_cast<std::size_t>(vocabulary)) {
    std::string w(3 + words.size() % 8, 'a');
    for (auto& c : w) c = static_cast<char>('a' + rng() % 26);
    if (seen.insert(w).second) words.push_back(std::move(w));
  }
  std::vector<double> weights(words.size());
  for (std::size_t r = 0; r < weights.size(); ++r) {
    weights[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
  }
  const AliasTable table(weights);

  std::string text;
  text.reserve(bytes + 256);
  while (text.size() < bytes) {
    const auto per_line = 8 + rng() % 9;
    for (std::uint64_t i = 0; i < per_line; ++i) {
      if (i > 0) text += ' ';
      text += words[table.draw(rng)];
    }
    text += '\n';
  }
  return text;
}

WordCounts count_words(std::string_view text) {
  std::unordered_map<std::string_view, std::uint64_t> counts;
  WordCounts out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == ' ' || text[i] == '\n') {
      if (i > start) {
        ++counts[text.substr(start, i - start)];
        ++out.tokens;
      }
      start = i + 1;
    }
  }
  out.counts.reserve(counts.size());
  for (const auto& [word, n] : counts) out.counts.emplace_back(word, n);
  std::sort(out.counts.begin(), out.counts.end());
  return out;
}

std::string make_records(std::uint64_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::string out(count * kRecordBytes, ' ');
  for (std::size_t i = 0; i < out.size(); i += 8) {
    std::uint64_t bits = rng();
    const auto end = std::min(out.size(), i + 8);
    for (std::size_t j = i; j < end; ++j, bits >>= 8) {
      out[j] = static_cast<char>(kMinKeyChar + (bits & 0xff) % kKeyAlphabet);
    }
  }
  return out;
}

std::uint64_t record_hash(std::string_view key, std::string_view payload) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto part : {key, payload}) {
    for (const char c : part) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    h = mix(h + part.size());
  }
  return h;
}

std::uint32_t key_range(std::string_view key, std::uint32_t parts) {
  const auto c = key.empty()
                     ? 0u
                     : static_cast<std::uint32_t>(
                           static_cast<unsigned char>(key[0]) - kMinKeyChar);
  return std::min(parts - 1, c * parts / kKeyAlphabet);
}

std::string vertex_name(int v) {
  char name[16];
  std::snprintf(name, sizeof name, "v%06d", v);
  return name;
}

std::string make_graph(int vertices, int edges, int components,
                       std::uint64_t seed) {
  // Level l of a component holds its members [start[l], start[l + 1]);
  // level sizes grow 4x from the root, the last level takes the rest.
  std::vector<int> start = {0, 1};
  while (static_cast<int>(start.size()) < kGraphLevels) {
    start.push_back(start.back() + (start.back() - start[start.size() - 2]) * 4);
  }
  if (components < 1 || vertices / components <= start.back()) {
    throw std::invalid_argument("make_graph: components too small for the levels");
  }
  Rng rng(seed);
  std::string text;
  int written = 0;
  const auto add = [&](int c, int a, int b) {  // members a, b of component c
    text += vertex_name(c + components * a);
    text += ' ';
    text += vertex_name(c + components * b);
    text += '\n';
    ++written;
  };
  const auto members = [&](int c) { return (vertices - c + components - 1) / components; };
  const auto level_of = [&](int k) {
    return static_cast<int>(std::upper_bound(start.begin(), start.end(), k) -
                            start.begin()) - 1;
  };
  const auto pick = [&](int c, int level) {  // a random member of a level
    const int lo = start[static_cast<std::size_t>(level)];
    const int hi = level + 1 < kGraphLevels
                       ? start[static_cast<std::size_t>(level) + 1]
                       : members(c);
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(hi - lo));
  };
  // A tree edge from every member to the level above: each component is
  // connected, and member k is exactly level_of(k) hops from the root.
  for (int c = 0; c < components; ++c) {
    for (int k = 1; k < members(c); ++k) add(c, pick(c, level_of(k) - 1), k);
  }
  // Random edges within a level or between adjacent levels keep those
  // distances, so the label-propagation round count does not vary with
  // the seed.
  while (written < edges) {
    const int c = static_cast<int>(rng() % static_cast<std::uint64_t>(components));
    const int a = static_cast<int>(rng() % static_cast<std::uint64_t>(members(c)));
    const int level = std::clamp(level_of(a) + static_cast<int>(rng() % 3) - 1,
                                 0, kGraphLevels - 1);
    const int b = pick(c, level);
    if (a != b) add(c, a, b);
  }
  return text;
}

bool parse_edge(std::string_view line, std::string_view& u,
                std::string_view& v) {
  const auto space = line.find(' ');
  if (space == std::string_view::npos || space == 0 ||
      space + 1 >= line.size()) {
    return false;
  }
  u = line.substr(0, space);
  v = line.substr(space + 1);
  return true;
}

namespace {

template <typename Fn>
void for_each_edge(std::string_view text, Fn&& fn) {
  std::size_t start = 0;
  while (start < text.size()) {
    auto end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view u, v;
    if (!parse_edge(text.substr(start, end - start), u, v)) {
      throw std::invalid_argument("graph: malformed edge line");
    }
    fn(u, v);
    start = end + 1;
  }
}

}  // namespace

KvVec adjacency(std::string_view edge_text) {
  KvVec out;
  for_each_edge(edge_text, [&](std::string_view u, std::string_view v) {
    out.emplace_back(u, v);
    out.emplace_back(v, u);
  });
  return out;
}

KvVec union_find_labels(std::string_view edge_text) {
  // Vertex names are "v" + six digits, so the index is the number.
  const auto index = [](std::string_view name) {
    return std::stoi(std::string(name.substr(1)));
  };
  std::vector<int> parent;
  const auto find = [&parent](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      auto& p = parent[static_cast<std::size_t>(x)];
      p = parent[static_cast<std::size_t>(p)];
      x = p;
    }
    return x;
  };
  std::vector<bool> present;
  for_each_edge(edge_text, [&](std::string_view u, std::string_view v) {
    const int a = index(u), b = index(v);
    const auto need = static_cast<std::size_t>(std::max(a, b)) + 1;
    while (parent.size() < need) {
      parent.push_back(static_cast<int>(parent.size()));
      present.push_back(false);
    }
    present[static_cast<std::size_t>(a)] = true;
    present[static_cast<std::size_t>(b)] = true;
    const int ra = find(a), rb = find(b);
    // The lower index becomes the root, so a root is its component's min.
    if (ra < rb) parent[static_cast<std::size_t>(rb)] = ra;
    if (rb < ra) parent[static_cast<std::size_t>(ra)] = rb;
  });
  KvVec labels;
  for (std::size_t v = 0; v < parent.size(); ++v) {
    if (!present[v]) continue;
    labels.emplace_back(vertex_name(static_cast<int>(v)),
                        vertex_name(find(static_cast<int>(v))));
  }
  return labels;  // ascending index == ascending fixed-width name
}

}  // namespace jobbench
