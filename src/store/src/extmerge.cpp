#include "mpid/store/extmerge.hpp"

namespace mpid::store {

LoserTree::LoserTree(std::vector<GroupSource*> sources)
    : sources_(std::move(sources)) {
  const std::size_t k = sources_.size();
  slots_.resize(k);
  exhausted_.resize(k, 0);
  for (std::size_t s = 0; s < k; ++s) {
    exhausted_[s] = sources_[s]->next(slots_[s]) ? 0 : 1;
  }
  tree_.reset(k, [this](std::size_t a, std::size_t b) { return beats(a, b); });
}

bool LoserTree::beats(std::size_t a, std::size_t b) const {
  if (exhausted_[a]) return false;
  if (exhausted_[b]) return true;
  const auto& ka = slots_[a].key;
  const auto& kb = slots_[b].key;
  if (ka != kb) return ka < kb;
  return a < b;  // arrival-order tie-break
}

bool LoserTree::pop(Group& group, std::size_t& source) {
  if (tree_.size() == 0) return false;
  const std::size_t w = tree_.winner();
  if (exhausted_[w]) return false;
  group = std::move(slots_[w]);
  source = w;
  exhausted_[w] = sources_[w]->next(slots_[w]) ? 0 : 1;
  tree_.replay(w, [this](std::size_t a, std::size_t b) { return beats(a, b); });
  return true;
}

bool MergingGroupStream::next(std::string& key,
                              std::vector<std::string>& values) {
  std::size_t source = 0;
  if (!have_pending_ && !tree_.pop(pending_, source)) return false;
  have_pending_ = false;
  key = std::move(pending_.key);
  values = std::move(pending_.values);
  // Drain every source holding this key; pops arrive in (key, source)
  // order, so the concatenation is automatically in arrival order.
  while (tree_.pop(pending_, source)) {
    if (pending_.key != key) {
      have_pending_ = true;
      break;
    }
    for (auto& v : pending_.values) values.push_back(std::move(v));
  }
  return true;
}

std::pair<SpillFile, RunInfo> merge_sources(
    const std::vector<std::unique_ptr<GroupSource>>& sources,
    RunWriter& writer) {
  std::vector<GroupSource*> raw;
  raw.reserve(sources.size());
  for (const auto& s : sources) raw.push_back(s.get());
  MergingGroupStream stream(std::move(raw));
  std::string key;
  std::vector<std::string> values;
  while (stream.next(key, values)) {
    writer.begin_group(key, values.size());
    for (const auto& v : values) writer.add_value(v);
  }
  return writer.finish();
}

}  // namespace mpid::store
