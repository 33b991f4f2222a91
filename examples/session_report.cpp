// Secondary-sort / streaming reduce on MPI-D: build per-user session
// reports from an unordered event log, with
//   * sort_values  — each user's events arrive time-ordered (the
//     "sort the value list for each key on demand" feature of Section IV);
//   * sort_keys + shuffle::SegmentMerger — users stream through the
//     reducer in globally sorted order with bounded memory (Hadoop's merge
//     phase).
//
// Build & run:  ./examples/session_report
#include <cstdio>
#include <string>
#include <vector>

#include "mpid/common/prng.hpp"
#include "mpid/common/table.hpp"
#include "mpid/core/mpid.hpp"
#include "mpid/minimpi/world.hpp"
#include "mpid/shuffle/merger.hpp"

namespace {

using namespace mpid;

/// Deterministic synthetic event log entries: (user, "ts|action").
std::vector<std::pair<std::string, std::string>> events_for(int shard) {
  common::Xoshiro256StarStar rng(7100 + static_cast<std::uint64_t>(shard));
  const char* actions[] = {"view", "cart", "buy", "search"};
  std::vector<std::pair<std::string, std::string>> events;
  for (int i = 0; i < 400; ++i) {
    const auto user = rng.next_below(12);
    const auto ts = rng.next_below(100000);
    events.emplace_back(
        "user-" + std::to_string(100 + user),
        common::strformat("%06llu|%s",
                          static_cast<unsigned long long>(ts),
                          actions[rng.next_below(4)]));
  }
  return events;
}

}  // namespace

int main() {
  core::Config cfg;
  cfg.mappers = 3;
  cfg.reducers = 1;
  cfg.sort_keys = true;    // frames ship key-sorted -> mergeable
  cfg.sort_values = true;  // per-user events time-ordered (fixed-width ts)

  minimpi::run_world(cfg.world_size(), [&](minimpi::Comm& comm) {
    core::MpiD d(comm, cfg);
    switch (d.role()) {
      case core::Role::kMapper: {
        for (const auto& [user, event] : events_for(d.mapper_index())) {
          d.send(user, event);
        }
        d.finalize();
        break;
      }
      case core::Role::kReducer: {
        shuffle::SegmentMerger merger;
        std::vector<std::byte> frame;
        while (d.recv_raw_frame(frame)) merger.add_frame(std::move(frame));
        d.finalize();

        std::printf("per-user session reports (users stream in sorted "
                    "order, events in time order):\n");
        std::string user;
        std::vector<std::string> events;
        while (merger.next_group(user, events)) {
          // Events within one frame are time-sorted; across frames they
          // are concatenated runs — a final check keeps us honest about
          // what the library guarantees per frame.
          int buys = 0;
          std::string first = events.front(), last = events.front();
          for (const auto& e : events) {
            if (e < first) first = e;
            if (e > last) last = e;
            if (e.find("|buy") != std::string::npos) ++buys;
          }
          std::printf("  %-9s %3zu events  [%s .. %s]  %d purchases\n",
                      user.c_str(), events.size(),
                      first.substr(0, 6).c_str(), last.substr(0, 6).c_str(),
                      buys);
        }
        break;
      }
      case core::Role::kMaster:
        d.finalize();
        break;
    }
  });
  return 0;
}
