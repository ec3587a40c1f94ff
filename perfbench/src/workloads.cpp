#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <numbers>
#include <optional>
#include <set>
#include <span>

#include "common/rng.hpp"
#include "world/world_apply.hpp"
#include "world/world_compress.hpp"
#include "world/world_reconstruct.hpp"

namespace mh::perfbench {
namespace {

using obs::Category;
using obs::ScopedSpan;

mra::FunctionParams fn_params(std::size_t ndim, std::size_t k, double thresh,
                              int initial_level, int max_level) {
  mra::FunctionParams p;
  p.ndim = ndim;
  p.k = k;
  p.thresh = thresh;
  p.initial_level = initial_level;
  p.max_level = max_level;
  return p;
}

// Three "atoms" of different widths and charges.
const std::vector<apps::GaussianSite> kDensity = {
    {{0.40, 0.50, 0.50}, 0.0875, 1.0},
    {{0.60, 0.52, 0.47}, 0.1125, 0.8},
    {{0.50, 0.38, 0.58}, 0.075, 0.6},
};

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = {
      {.name = "coulomb-k10",
       .solve = Solve::kCoulomb,
       .fn = fn_params(3, 10, 1e-4, 1, 8),
       .base_sites = kDensity,
       .coulomb_eps = 1e-3,
       .max_disp = 2,
       .screen_thresh = 1e-4,
       .subtree_level = 2,
       .rtol = 1e-10},
      {.name = "coulomb-k5",
       .solve = Solve::kCoulomb,
       .fn = fn_params(3, 5, 5e-4, 1, 8),
       .base_sites = kDensity,
       .coulomb_eps = 1e-3,
       .max_disp = 2,
       .screen_thresh = 5e-4,
       .subtree_level = 2,
       .rtol = 1e-10},
      {.name = "tdse4d",
       .solve = Solve::kPropagate,
       .fn = fn_params(4, 8, 1e-6, 2, 3),
       .base_sites = {{{0.3125, 0.3125, 0.3125, 0.3125}, 0.06, 1.0}},
       .prop_width = 0.05,
       .max_disp = 1,
       .screen_thresh = 1e-6,
       .subtree_level = 2,
       .steps = 4,
       .rtol = 1e-10},
  };
  return all;
}

/// Adds the elapsed wall time of its scope to `out` (seconds).
class ScopedTimer {
 public:
  explicit ScopedTimer(double& out)
      : out_(out), t0_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    out_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0_)
                .count();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double& out_;
  std::chrono::steady_clock::time_point t0_;
};

mra::Function project_input(const WorkloadSpec& spec, std::uint64_t seed,
                            double& secs, obs::TraceSession* trace) {
  ScopedSpan span(trace, "mra.project", Category::kPreprocess);
  ScopedTimer timer(secs);
  return mra::Function::project(apps::gaussian_mixture(seeded_sites(spec, seed)),
                                spec.fn);
}

ops::SeparatedConvolution make_operator(const WorkloadSpec& spec,
                                        double& secs,
                                        obs::TraceSession* trace) {
  ScopedSpan span(trace, "ops.cache_warm", Category::kPreprocess);
  ScopedTimer timer(secs);
  const std::size_t d = spec.fn.ndim;
  if (spec.solve == Solve::kCoulomb) {
    return apps::make_coulomb_operator(d, spec.fn.k, spec.coulomb_eps,
                                       spec.max_disp, spec.screen_thresh);
  }
  return apps::make_smoothing_operator(d, spec.fn.k, spec.prop_width,
                                       spec.max_disp, spec.screen_thresh);
}

dht::DistributedFunction scatter(const mra::Function& f,
                                 const dht::OwnerMap& owners, double& secs,
                                 obs::TraceSession* trace) {
  ScopedSpan span(trace, "dht.scatter", Category::kComm);
  ScopedTimer timer(secs);
  return dht::DistributedFunction(f, owners);
}

// Every h_block a solve can touch: all screened displacements of every
// level from the root to the input's finest leaves (truncation can only
// coarsen leaves, and Apply targets stay on the source's level).
void warm_blocks(const WorkloadSpec& spec, const mra::Function& input,
                 const ops::SeparatedConvolution& op, double& secs,
                 obs::TraceSession* trace) {
  ScopedSpan span(trace, "ops.cache_warm", Category::kPreprocess);
  ScopedTimer timer(secs);
  for (int n = 0; n <= input.max_depth(); ++n) {
    std::set<std::int64_t> shifts;
    for (const ops::Displacement& disp : op.displacements(n)) {
      for (std::size_t m = 0; m < spec.fn.ndim; ++m) shifts.insert(disp[m]);
    }
    for (std::size_t mu = 0; mu < op.rank(); ++mu) {
      for (const std::int64_t m : shifts) op.h_block(mu, n, m);
    }
  }
}

double step_mass(const WorkloadSpec& spec) {
  return std::pow(std::sqrt(std::numbers::pi) * spec.prop_width,
                  static_cast<double>(spec.fn.ndim));
}

void add_stats(ops::ApplyStats& into, const ops::ApplyStats& s) {
  into.tasks += s.tasks;
  into.gemms += s.gemms;
  into.flops += s.flops;
  into.rank_reduced_gemms += s.rank_reduced_gemms;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& s : specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string_view> workload_names() {
  std::vector<std::string_view> out;
  for (const WorkloadSpec& s : specs()) out.push_back(s.name);
  return out;
}

std::vector<apps::GaussianSite> seeded_sites(const WorkloadSpec& spec,
                                             std::uint64_t seed) {
  Rng rng(hash_combine(seed, fnv1a(std::as_bytes(std::span(spec.name)))));
  std::vector<apps::GaussianSite> sites = spec.base_sites;
  for (apps::GaussianSite& site : sites) {
    for (double& c : site.center) c += rng.uniform(-0.005, 0.005);
    site.width *= 1.0 + rng.uniform(-0.03, 0.03);
    site.amplitude *= 1.0 + rng.uniform(-0.05, 0.05);
  }
  return sites;
}

Setup::Setup(const WorkloadSpec& spec_in, std::uint64_t seed,
             std::size_t ranks, obs::TraceSession* trace)
    : spec(spec_in),
      input(project_input(spec, seed, times.project_s, trace)),
      op(make_operator(spec, times.warm_s, trace)),
      owners(ranks, spec.subtree_level),
      scattered(scatter(input, owners, times.scatter_s, trace)),
      input_compressed(input) {
  warm_blocks(spec, input, op, times.warm_s, trace);
  input_compressed.compress();
}

SolveResult solve(const Setup& s, world::World& world,
                  obs::TraceSession* trace) {
  ScopedSpan solve_span(trace, "solve", Category::kOther);
  SolveResult res;
  if (s.spec.solve == Solve::kCoulomb) {
    mra::Function v;
    {
      ScopedSpan span(trace, "world.apply", Category::kCpuCompute);
      v = world::world_apply(world, s.op, s.scattered, &res.apply);
    }
    {
      ScopedSpan span(trace, "mra.compress", Category::kCpuCompute);
      v.compress();
    }
    {
      ScopedSpan span(trace, "mra.inner", Category::kCpuCompute);
      res.obs = {mra::inner(s.input_compressed, v), v.norm2()};
    }
    return res;
  }

  const double mass = step_mass(s.spec);
  const mra::Function* cur = &s.input;
  mra::Function psi;
  for (int step = 0; step < s.spec.steps; ++step) {
    std::optional<dht::DistributedFunction> d;
    {
      ScopedSpan span(trace, "dht.scatter", Category::kComm);
      d.emplace(*cur, s.owners);
    }
    mra::Function a;
    {
      ScopedSpan span(trace, "world.apply", Category::kCpuCompute);
      ops::ApplyStats st;
      a = world::world_apply(world, s.op, *d, &st);
      add_stats(res.apply, st);
    }
    {
      ScopedSpan span(trace, "mra.scale", Category::kCpuCompute);
      a.scale(1.0 / mass);
    }
    std::optional<dht::DistributedFunction> da;
    {
      ScopedSpan span(trace, "dht.scatter", Category::kComm);
      da.emplace(a, s.owners);
    }
    world::DistributedCompressed c;
    {
      ScopedSpan span(trace, "world.compress", Category::kCpuCompute);
      c = world::world_compress(world, *da);
    }
    {
      ScopedSpan span(trace, "world.truncate", Category::kCpuCompute);
      world::world_truncate(world, s.owners, c, s.spec.fn.thresh);
    }
    world::DistributedLeaves leaves;
    {
      ScopedSpan span(trace, "world.reconstruct", Category::kCpuCompute);
      leaves = world::world_reconstruct(world, s.owners, c);
    }
    {
      ScopedSpan span(trace, "dht.gather", Category::kComm);
      psi = leaves.gather();
    }
    cur = &psi;
  }
  {
    ScopedSpan span(trace, "mra.observe", Category::kCpuCompute);
    res.obs = {psi.integral(), psi.norm2()};
  }
  return res;
}

SolveResult reference_solve(const Setup& s) {
  SolveResult res;
  if (s.spec.solve == Solve::kCoulomb) {
    mra::Function v = ops::apply(s.op, s.input, {}, &res.apply);
    v.compress();
    res.obs = {mra::inner(s.input_compressed, v), v.norm2()};
    return res;
  }
  const double mass = step_mass(s.spec);
  mra::Function psi = s.input;
  for (int step = 0; step < s.spec.steps; ++step) {
    psi = ops::apply(s.op, psi, {}, &res.apply);
    psi.scale(1.0 / mass);
    psi.compress();
    psi.truncate(s.spec.fn.thresh);
    psi.reconstruct();
  }
  res.obs = {psi.integral(), psi.norm2()};
  return res;
}

bool verify(const WorkloadSpec& spec, const Observables& got,
            const Observables& ref) {
  const auto close = [&](double x, double r) {
    return std::isfinite(x) && std::abs(x - r) <= spec.rtol * std::abs(r);
  };
  return close(got.a, ref.a) && close(got.b, ref.b);
}

double max_abs_dev(const mra::Function& a, const mra::Function& b) {
  double dev = 0.0;
  const auto one_side = [&](const mra::Function& x, const mra::Function& y) {
    for (const mra::Key& key : x.leaf_keys()) {
      const Tensor& tx = x.leaf_coeffs(key);
      const auto it = y.nodes().find(key);
      const bool leaf = it != y.nodes().end() && !it->second.has_children &&
                        !it->second.coeffs.empty();
      dev = std::max(dev, leaf ? max_abs_diff(tx, it->second.coeffs)
                               : tx.abs_max());
    }
  };
  one_side(a, b);
  one_side(b, a);
  return dev;
}

}  // namespace mh::perfbench
