// The benchmark's three workloads: seeded inputs, set-up, the timed solve
// and its verification against a serial reference.
//
//   coulomb-k10  3-D three-site density, k=10: GEMM-bound Apply
//   coulomb-k5   the same density at k=5: task-bound Apply (tiny tasks)
//   tdse4d       4-D wave packet, k=8: N propagation steps through the
//                distributed tree operators (write-heavy, Table VI shape)
//
// The workload name and the seed fully determine the input: the seed
// perturbs the Gaussian sites' centres, widths and amplitudes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "apps/coulomb.hpp"
#include "dht/distributed_function.hpp"
#include "dht/owner_map.hpp"
#include "mra/function.hpp"
#include "obs/trace.hpp"
#include "ops/apply.hpp"
#include "world/world.hpp"

namespace mh::perfbench {

enum class Solve { kCoulomb, kPropagate };

struct WorkloadSpec {
  std::string_view name;
  Solve solve = Solve::kCoulomb;
  mra::FunctionParams fn;         ///< projection parameters
  std::vector<apps::GaussianSite> base_sites;  ///< before seed perturbation
  double coulomb_eps = 0.0;       ///< Coulomb fit accuracy (kCoulomb)
  double prop_width = 0.0;        ///< propagator width (kPropagate)
  std::int64_t max_disp = 2;
  double screen_thresh = 0.0;     ///< operator displacement screening
  int subtree_level = 1;          ///< SubtreeOwnerMap anchor level
  int steps = 1;                  ///< propagation steps per solve
  double rtol = 0.0;              ///< verification relative tolerance
};

/// The spec of a named workload, or nullptr.
const WorkloadSpec* find_workload(std::string_view name);
std::vector<std::string_view> workload_names();

/// The seeded input sites: base sites with perturbed centres (+-0.005),
/// widths (+-3%) and amplitudes (+-5%). The ranges keep every input tree
/// on one plateau of the refinement criterion (the same leaves for every
/// seed), so seeds change the numbers, not the amount of work; tdse4d's
/// per-step truncation still moves a few boxes (at most 4% of its tasks).
std::vector<apps::GaussianSite> seeded_sites(const WorkloadSpec& spec,
                                             std::uint64_t seed);

/// Wall times of one set-up, in seconds.
struct SetupTimes {
  double project_s = 0.0;  ///< mra: adaptive projection of the input
  double warm_s = 0.0;     ///< ops: operator fit + every h_block it uses
  double scatter_s = 0.0;  ///< dht: leaves over the owner map
  double total() const { return project_s + warm_s + scatter_s; }
};

/// Everything a solve needs: the projected input, the operator with a warm
/// block cache, and the input scattered over the SubtreeOwnerMap. Built
/// in place (the operator owns a mutex and cannot move).
class Setup {
 public:
  Setup(const WorkloadSpec& spec, std::uint64_t seed, std::size_t ranks,
        obs::TraceSession* trace);

  const WorkloadSpec& spec;
  SetupTimes times;
  mra::Function input;  ///< reconstructed
  ops::SeparatedConvolution op;
  dht::SubtreeOwnerMap owners;
  dht::DistributedFunction scattered;
  /// The input in compressed form, for the Coulomb self-energy <rho,V>
  /// (not part of the timed set-up).
  mra::Function input_compressed;
};

/// The two verified observables of a solve: the self-energy <rho,V> and
/// ||V|| (Coulomb), or the final mass and norm (propagation).
struct Observables {
  double a = 0.0;
  double b = 0.0;
};

struct SolveResult {
  Observables obs;
  ops::ApplyStats apply;  ///< summed over the solve's Applies
};

/// One timed solve on the world's rank threads. With a non-null `trace`,
/// every call into a layer is wrapped in a span (children of "solve").
SolveResult solve(const Setup& s, world::World& world,
                  obs::TraceSession* trace);

/// The same computation with the serial single-address-space operators
/// (ops::apply, Function compress/truncate/reconstruct).
SolveResult reference_solve(const Setup& s);

/// True when both observables match the reference to the workload's
/// relative tolerance.
bool verify(const WorkloadSpec& spec, const Observables& got,
            const Observables& ref);

/// Largest |coefficient difference| between two reconstructed functions
/// over the union of their leaves (a missing leaf counts as zeros).
double max_abs_dev(const mra::Function& a, const mra::Function& b);

}  // namespace mh::perfbench
