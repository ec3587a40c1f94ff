#include "ladder.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "linalg/batch_gemm.hpp"
#include "runtime/batching.hpp"
#include "world/world_apply.hpp"
#include "world/world_compress.hpp"
#include "world/world_reconstruct.hpp"

namespace mh::perfbench {
namespace {

using obs::Category;
using obs::ScopedSpan;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall seconds of fn(), under a span named `name`.
template <typename Fn>
double timed(obs::TraceSession* trace, const char* name, Fn&& fn) {
  ScopedSpan span(trace, name, Category::kCpuCompute);
  const auto t0 = Clock::now();
  fn();
  return since(t0);
}

/// Run fn(begin, end) over [0, n) split into `threads` contiguous slices,
/// one plain thread each (inline when threads == 1). Rethrows the first
/// error after every thread has joined.
template <typename Fn>
void parallel_static(std::size_t threads, std::size_t n, Fn&& fn) {
  if (threads <= 1) {
    fn(std::size_t{0}, n);
    return;
  }
  std::vector<std::exception_ptr> errors(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        fn(n * t / threads, n * (t + 1) / threads);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// The operands of every task sharing one (level, displacement): the
/// term-major M*d block views and the term weights, gathered once.
struct OperandGroup {
  std::vector<std::shared_ptr<const Tensor>> blocks;  // keeps views alive
  std::vector<linalg::GemmMat> mats;
  std::vector<double> coeffs;
};

struct PreGathered {
  std::vector<OperandGroup> groups;
  std::vector<std::pair<const double*, std::size_t>> items;  // src, group
};

PreGathered pre_gather(const Setup& s,
                       const std::vector<ops::ApplyTask>& tasks) {
  const std::size_t d = s.spec.fn.ndim;
  PreGathered pg;
  std::map<std::pair<int, ops::Displacement>, std::size_t> index;
  for (const ops::ApplyTask& t : tasks) {
    const int n = t.source.level();
    auto [it, fresh] = index.try_emplace({n, t.disp}, pg.groups.size());
    if (fresh) {
      OperandGroup g;
      for (std::size_t mu = 0; mu < s.op.rank(); ++mu) {
        for (std::size_t m = 0; m < d; ++m) {
          g.blocks.push_back(s.op.h_block(mu, n, t.disp[m]));
          const Tensor& b = *g.blocks.back();
          g.mats.push_back({b.data(), b.dim(0), b.dim(1)});
        }
        g.coeffs.push_back(s.op.term_coeff(mu));
      }
      pg.groups.push_back(std::move(g));
    }
    pg.items.emplace_back(s.input.leaf_coeffs(t.source).data(), it->second);
  }
  return pg;
}

void run_l0(const Setup& s, const PreGathered& pg, std::size_t threads) {
  const std::size_t d = s.spec.fn.ndim;
  const std::size_t k = s.spec.fn.k;
  const std::size_t cube = Tensor::cube(d, k).size();
  parallel_static(threads, pg.items.size(),
                  [&](std::size_t begin, std::size_t end) {
    std::vector<double> result(cube);
    linalg::GemmWorkspace& ws = linalg::thread_workspace();
    for (std::size_t i = begin; i < end; ++i) {
      const OperandGroup& g = pg.groups[pg.items[i].second];
      std::fill(result.begin(), result.end(), 0.0);
      linalg::fused_apply_chain(d, k, pg.items[i].first, g.mats, g.coeffs,
                                {}, result.data(), ws);
    }
  });
}

void run_l1(const Setup& s, const std::vector<ops::ApplyTask>& tasks,
            std::size_t threads, ops::ApplyStats* stats) {
  std::mutex mu;
  parallel_static(threads, tasks.size(),
                  [&](std::size_t begin, std::size_t end) {
    ops::ApplyStats local;
    for (std::size_t i = begin; i < end; ++i) {
      const ops::ApplyTask& t = tasks[i];
      ops::apply_task_compute(s.op, s.input.leaf_coeffs(t.source),
                              t.source.level(), t.disp, {}, &local);
    }
    if (stats == nullptr) return;
    std::scoped_lock lock(mu);
    stats->tasks += local.tasks;
    stats->gemms += local.gemms;
    stats->flops += local.flops;
  });
}

struct BatchInput {
  const Tensor* source = nullptr;
  int level = 0;
  ops::Displacement disp{};
  mra::Key target;
};
struct BatchOutput {
  mra::Key target;
  Tensor r;
};

/// L3: every task through a CPU-only BatchingEngine (preprocess submits,
/// compute runs on the pool, postprocess accumulates under a lock).
mra::Function run_l3(const Setup& s, std::size_t threads, double& secs,
                     std::size_t& batches) {
  using Engine = rt::BatchingEngine<BatchInput, BatchOutput>;
  Engine::Config cfg;
  cfg.cpu_threads = threads;
  cfg.cpu_fraction = 1.0;
  cfg.flush_interval = std::chrono::milliseconds(1);
  cfg.cpu_chunk = 8;
  // Declared before the engine: its destructor drains pending postprocess
  // calls, which write here.
  mra::Function out(s.input.params());
  std::mutex out_mu;
  Engine engine(cfg);
  const rt::KindId kind = engine.register_kind(
      {[&](const BatchInput& in) {
         return BatchOutput{in.target,
                            ops::apply_task_compute(s.op, *in.source,
                                                    in.level, in.disp)};
       },
       {},
       [&](BatchOutput&& o) {
         std::scoped_lock lock(out_mu);
         out.accumulate(o.target, o.r);
       },
       s.spec.fn.k});

  const auto t0 = Clock::now();
  const std::size_t d = s.spec.fn.ndim;
  out.accumulate(mra::Key::root(d), Tensor::cube(d, s.spec.fn.k));
  for (const ops::ApplyTask& t : ops::make_apply_tasks(s.op, s.input)) {
    engine.submit(kind, BatchInput{&s.input.leaf_coeffs(t.source),
                                   t.source.level(), t.disp, t.target});
  }
  engine.wait();
  out.sum_down();
  secs = since(t0);
  batches = engine.stats().batches;
  return out;
}

double abs_max(const mra::Function& f) {
  double m = 0.0;
  for (const mra::Key& key : f.leaf_keys()) {
    m = std::max(m, f.leaf_coeffs(key).abs_max());
  }
  return m;
}

}  // namespace

const Rung& LadderResult::rung(const char* name) const {
  for (const Rung& r : rungs) {
    if (r.name == name) return r;
  }
  throw std::out_of_range(std::string("no ladder rung ") + name);
}

LadderResult run_ladder(const Setup& s, world::World& world,
                        std::size_t threads, std::size_t reps,
                        obs::TraceSession* trace) {
  ScopedSpan ladder_span(trace, "ladder", Category::kOther);
  LadderResult res;
  const std::vector<ops::ApplyTask> tasks = ops::make_apply_tasks(s.op, s.input);
  const PreGathered pg = pre_gather(s, tasks);
  const std::size_t d = s.spec.fn.ndim;
  const std::size_t k = s.spec.fn.k;

  // Wall seconds per repetition, keyed by rung or layer; every step of a
  // repetition runs before the next repetition starts, so slow phases of
  // a shared host spread over all of them.
  std::map<std::string, std::vector<double>> secs;
  mra::Function v2;
  mra::Function v4;
  double tol = 0.0;
  const auto check = [&](const mra::Function& f) {
    const double dev = max_abs_dev(f, v2);
    ++res.verified;
    if (!(dev <= tol)) ++res.failed;
    return dev;
  };
  for (std::size_t rep = 0; rep < reps; ++rep) {
    secs["L0_1t"].push_back(timed(trace, "L0.fused_chain_1t",
                                  [&] { run_l0(s, pg, 1); }));
    secs["L0_Nt"].push_back(timed(trace, "L0.fused_chain_Nt",
                                  [&] { run_l0(s, pg, threads); }));
    res.apply = {};
    secs["L1_1t"].push_back(timed(trace, "L1.task_compute_1t",
                                  [&] { run_l1(s, tasks, 1, &res.apply); }));
    secs["L1_Nt"].push_back(timed(trace, "L1.task_compute_Nt", [&] {
      run_l1(s, tasks, threads, nullptr);
    }));

    const ops::CacheStats c0 = s.op.cache_stats();
    secs["L2"].push_back(timed(trace, "L2.ops_apply",
                               [&] { v2 = ops::apply(s.op, s.input); }));
    const ops::CacheStats c1 = s.op.cache_stats();
    res.cache = {c1.hits - c0.hits, c1.misses - c0.misses};
    tol = s.spec.rtol * abs_max(v2);

    {
      ScopedSpan span(trace, "L3.batch_apply", Category::kCpuCompute);
      double l3 = 0.0;
      check(run_l3(s, threads, l3, res.batches));
      secs["L3"].push_back(l3);
    }

    const world::World::Stats w0 = world.stats();
    secs["L4"].push_back(timed(trace, "L4.world_apply", [&] {
      v4 = world::world_apply(world, s.op, s.scattered);
    }));
    const world::World::Stats w1 = world.stats();
    res.comm.messages = w1.messages - w0.messages;
    res.comm.bytes = w1.bytes - w0.bytes;
    res.comm.send_retries = w1.send_retries - w0.send_retries;
    res.max_abs_dev = std::max(res.max_abs_dev, check(v4));

    // The accumulate share of L2 measured directly: every task's k^d
    // contribution into a fresh tree, then sum_down.
    const Tensor contribution = Tensor::cube(d, k);
    secs["accumulate"].push_back(timed(trace, "mra.accumulate", [&] {
      mra::Function out(s.input.params());
      out.accumulate(mra::Key::root(d), contribution);
      for (const ops::ApplyTask& t : tasks) {
        out.accumulate(t.target, contribution);
      }
      out.sum_down();
    }));

    // Tree operators on the Apply result: serial, then distributed.
    mra::Function f = v2;
    secs["mra.compress"].push_back(
        timed(trace, "mra.compress", [&] { f.compress(); }));
    secs["mra.reconstruct"].push_back(
        timed(trace, "mra.reconstruct", [&] { f.reconstruct(); }));
    std::optional<dht::DistributedFunction> dv;
    timed(trace, "dht.scatter", [&] { dv.emplace(v4, s.owners); });
    world::DistributedCompressed c;
    secs["world.compress"].push_back(timed(trace, "world.compress", [&] {
      c = world::world_compress(world, *dv);
    }));
    secs["world.truncate"].push_back(timed(trace, "world.truncate", [&] {
      world::world_truncate(world, s.owners, c, s.spec.fn.thresh);
    }));
    secs["world.reconstruct"].push_back(
        timed(trace, "world.reconstruct",
              [&] { world::world_reconstruct(world, s.owners, c); }));
    secs["gather"].push_back(timed(trace, "dht.gather", [&] {
      const mra::Function gathered = s.scattered.gather();
    }));
  }

  const auto add = [&](const char* name, std::size_t nt) {
    res.rungs.push_back({name, nt, median(secs[name]), res.apply.flops});
  };
  add("L0_1t", 1);
  add("L0_Nt", threads);
  add("L1_1t", 1);
  add("L1_Nt", threads);
  add("L2", 1);
  add("L3", threads);
  add("L4", world.ranks());
  res.mean_batch_items = res.batches == 0
                             ? 0.0
                             : static_cast<double>(res.apply.tasks) /
                                   static_cast<double>(res.batches);
  res.accumulate_s = median(secs["accumulate"]);
  res.mra_compress_s = median(secs["mra.compress"]);
  res.mra_reconstruct_s = median(secs["mra.reconstruct"]);
  res.world_compress_s = median(secs["world.compress"]);
  res.world_truncate_s = median(secs["world.truncate"]);
  res.world_reconstruct_s = median(secs["world.reconstruct"]);
  res.gather_s = median(secs["gather"]);
  return res;
}

}  // namespace mh::perfbench
