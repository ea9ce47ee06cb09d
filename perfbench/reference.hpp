// The frozen reference build: the simulator as it stood when this benchmark
// was defined (reference/src), run on its own copy of the example inputs
// (reference/inputs). perfbench alternates it with the build under test, one
// set-up pass or repetition each, so a swing in host speed hits both alike
// and cancels in their ratio. Declares no simulator type: the reference
// library lives in namespace axihc_ref.
#pragma once

#include <string>

namespace perfbench_ref {

/// Untraced sweep repetition i runs shard i % kSweepShards of the cells
/// (run_sweep's own sharding), so one repetition stays short. 9 is coprime
/// to every pareto1k axis length, so each shard holds every axis value.
constexpr long kSweepShards = 9;

/// What one reference repetition did and how long it took.
struct Rep {
  double wall_s = 0.0;
  double cycles = 0.0;  ///< simulated cycles, summed over its systems
  double cells = 0.0;   ///< independent simulations it completed
};

/// One set-up pass of `workload` on `text` (parse and elaborate every
/// system, no simulation); returns its wall seconds.
double setup(const std::string& workload, const std::string& text);

/// Timed repetition `index` of `workload` on `text`. The sweep's cache goes
/// under `scratch` and is removed afterwards.
Rep rep(const std::string& workload, const std::string& text,
        const std::string& scratch, long index);

}  // namespace perfbench_ref
