// Self-test of the benchmark's output checks: runs each workload's job
// once as the benchmark does, where its check must pass, and once with
// the output damaged (a dropped count, two keys swapped inside a reducer,
// a relabelled vertex), where its check must fail.
//
//   jobbench_selftest            # exit status 0 when every check behaves
#include <cstdio>
#include <exception>

#include "jobs.hpp"

int main() {
  int wrong = 0;
  for (const auto& name : jobbench::workload_names()) {
    try {
      auto workload = jobbench::make_workload(name);
      workload->setup(/*seed=*/1);
      workload->serial_reference();
      const auto clean = workload->run(/*traced=*/false, /*corrupt=*/false);
      const auto damaged = workload->run(/*traced=*/false, /*corrupt=*/true);
      const bool ok = clean.failure.empty() && !damaged.failure.empty();
      std::printf("%-17s clean: %s | damaged: %s -> %s\n", name.c_str(),
                  clean.failure.empty() ? "pass" : clean.failure.c_str(),
                  damaged.failure.empty() ? "pass" : damaged.failure.c_str(),
                  ok ? "ok" : "WRONG");
      wrong += ok ? 0 : 1;
    } catch (const std::exception& e) {
      std::printf("%-17s threw: %s -> WRONG\n", name.c_str(), e.what());
      ++wrong;
    }
  }
  return wrong == 0 ? 0 : 1;
}
