// The L0-L4 layer ladder: one Apply of the workload's input timed at every
// layer of the stack, plus the tree operators around it.
//
//   L0  linalg::fused_apply_chain per task, operands pre-gathered
//   L1  ops::apply_task_compute per task (block lookups, allocation)
//   L2  ops::apply, serial (enumerate, compute, accumulate, sum_down)
//   L3  the same tasks through a CPU-only rt::BatchingEngine
//   L4  world::world_apply on the world's rank threads
//
// L0 and L1 run on 1 and on N plain threads with a static partition.
#pragma once

#include <cstddef>
#include <vector>

#include "derive.hpp"
#include "workloads.hpp"

namespace mh::perfbench {

struct LadderResult {
  /// L0_1t, L0_Nt, L1_1t, L1_Nt, L2, L3, L4 (same flops on every rung).
  std::vector<Rung> rungs;
  ops::ApplyStats apply;       ///< one Apply of the input
  ops::CacheStats cache;       ///< operator cache traffic during L2
  std::size_t batches = 0;     ///< L3 batches dispatched
  double mean_batch_items = 0.0;
  world::World::Stats comm;    ///< world traffic during L4
  double max_abs_dev = 0.0;    ///< L4 result vs L2, largest coefficient
  double accumulate_s = 0.0;   ///< L2's accumulate + sum_down, alone
  std::size_t verified = 0;    ///< L3/L4 results checked against L2
  std::size_t failed = 0;
  // Tree operators on the Apply result (medians over the repetitions).
  double mra_compress_s = 0.0;
  double mra_reconstruct_s = 0.0;
  double world_compress_s = 0.0;
  double world_truncate_s = 0.0;
  double world_reconstruct_s = 0.0;
  double gather_s = 0.0;       ///< dht: gather of the scattered input

  const Rung& rung(const char* name) const;
};

/// Run the ladder `reps` times and report per-rung medians. `threads` is N
/// for the parallel rungs and the BatchingEngine pool; the world's rank
/// count is used for L4. Every L3 and L4 result is checked against L2.
LadderResult run_ladder(const Setup& s, world::World& world,
                        std::size_t threads, std::size_t reps,
                        obs::TraceSession* trace);

}  // namespace mh::perfbench
