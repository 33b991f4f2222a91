#include "groups.hpp"

#include <string_view>

#include "mpid/fault/fault.hpp"

namespace mpid::mapred::detail {

void ShuffleGroups::collect(core::MpiD& mpid) {
  std::string_view key;
  std::vector<std::string_view> values;
  for (int safety = 0;; ++safety) {
    try {
      while (mpid.recv_group_views(key, values)) {
        for (const auto value : values) buffer_.append(key, value);
      }
      return;
    } catch (const fault::TaskCrash&) {
      if (safety >= kMaxTaskAttempts) throw;
      mpid.restart_reducer();
      buffer_.clear();
    }
  }
}

}  // namespace mpid::mapred::detail
