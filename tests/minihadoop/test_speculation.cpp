// The jobtracker's speculation policy, driven with explicit clock values:
// an idle slot duplicates a running attempt only when it is older than
// speculative_threshold and — once a peer of its phase has committed —
// older than kStragglerFactor x that phase's mean committed duration.
#include <gtest/gtest.h>

#include <chrono>

#include "jobtracker.hpp"

namespace mpid::minihadoop::detail {
namespace {

using namespace std::chrono_literals;

/// Gives `jt` `tasks` maps, all dispatched at `t0` across two trackers.
void dispatch_maps(JobTracker& jt, int tasks, Clock::time_point t0,
                   std::chrono::nanoseconds threshold) {
  jt.speculative_threshold = threshold;
  jt.maps.resize(static_cast<std::size_t>(tasks));
  for (int m = 0; m < tasks; ++m) {
    auto& st = jt.maps[static_cast<std::size_t>(m)];
    st.queued = false;
    jt.dispatch(st, m % 2, t0);
  }
}

/// Commits map `m` as if it ran `duration`.
void commit(JobTracker& jt, int m, Clock::duration duration) {
  auto& st = jt.maps[static_cast<std::size_t>(m)];
  st.running.clear();
  st.done = true;
  ++jt.maps_done;
  jt.map_times.commit(duration);
}

TEST(JobTrackerSpeculation, FaultFreeMultiTaskPhaseLaunchesNoTwin) {
  // Three of four maps committed after ~100 ms each; the fourth is on
  // pace. A 1 ms threshold alone would duplicate it the moment a slot
  // idles — against its peers' mean it does not straggle.
  const auto t0 = Clock::now();
  JobTracker jt;
  dispatch_maps(jt, 4, t0, 1ms);
  commit(jt, 0, 90ms);
  commit(jt, 1, 100ms);
  commit(jt, 2, 110ms);
  for (const auto age : {2ms, 100ms, 149ms}) {
    EXPECT_FALSE(jt.speculate(jt.maps, jt.map_times, kKindMap, 0, t0 + age))
        << age.count() << " ms";
  }
  EXPECT_EQ(jt.speculative_launches, 0u);
}

TEST(JobTrackerSpeculation, StragglerPastPeerMeanGetsOneTwin) {
  const auto t0 = Clock::now();
  JobTracker jt;
  dispatch_maps(jt, 4, t0, 1ms);
  for (int m = 0; m < 3; ++m) commit(jt, m, 100ms);
  const auto spec =
      jt.speculate(jt.maps, jt.map_times, kKindMap, 1, t0 + 151ms);
  ASSERT_TRUE(spec);
  EXPECT_EQ(spec->first, 3);
  EXPECT_EQ(spec->second, 1);  // the twin is attempt 1
  EXPECT_EQ(jt.speculative_launches, 1u);
  // A task is speculated at most once.
  EXPECT_FALSE(jt.speculate(jt.maps, jt.map_times, kKindMap, 0, t0 + 1s));
}

TEST(JobTrackerSpeculation, NoCommittedPeerFallsBackToThreshold) {
  const auto t0 = Clock::now();
  JobTracker jt;
  dispatch_maps(jt, 1, t0, 50ms);
  EXPECT_FALSE(jt.speculate(jt.maps, jt.map_times, kKindMap, 1, t0 + 40ms));
  EXPECT_TRUE(jt.speculate(jt.maps, jt.map_times, kKindMap, 1, t0 + 60ms));
}

TEST(JobTrackerSpeculation, ThresholdStillBindsAbovePeerMean) {
  // Peers committed in 1 ms: a 10 ms-old attempt straggles relative to
  // them, but stays under the 50 ms threshold.
  const auto t0 = Clock::now();
  JobTracker jt;
  dispatch_maps(jt, 2, t0, 50ms);
  commit(jt, 0, 1ms);
  EXPECT_FALSE(jt.speculate(jt.maps, jt.map_times, kKindMap, 0, t0 + 10ms));
  EXPECT_TRUE(jt.speculate(jt.maps, jt.map_times, kKindMap, 0, t0 + 51ms));
}

}  // namespace
}  // namespace mpid::minihadoop::detail
