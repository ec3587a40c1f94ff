// mh_perfbench: wall-clock benchmark of the real Apply stack.
//
//   mh_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--trace-out <file.json>]
//
// --trace 0 times whole solves on R rank threads and prints the end-to-end
// metrics; --trace 1 records spans around every call into a layer, runs the
// L0-L4 ladder, and prints the per-layer metrics (see perfbench/README.md).
// Every solve is verified against a serial reference. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "derive.hpp"
#include "ladder.hpp"
#include "linalg/batch_gemm.hpp"
#include "tensor/transform.hpp"
#include "workloads.hpp"

namespace mh::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxRanks = 4;
constexpr int kSetupReps = 5;
constexpr std::size_t kMinSolves = 3;
constexpr std::size_t kMaxLadderReps = 3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mh_perfbench: %s\nusage: mh_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Ordered (name, value, unit) list printed as text and as the JSON line.
class Metrics {
 public:
  void add(const char* name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  /// A non-finite value has no JSON number: it prints as null and makes
  /// the run incorrect.
  void print(bool correct, std::size_t attempted, std::size_t failed) const {
    for (const Item& m : items_) {
      correct = correct && std::isfinite(m.value);
      std::printf("metric %-32s %.6g %s\n", m.name, m.value, m.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ",
                  items_[i].name);
      if (std::isfinite(items_[i].value)) {
        std::printf("%.17g", items_[i].value);
      } else {
        std::printf("null");
      }
      std::printf(", \"unit\": \"%s\"}", items_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  struct Item {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

/// Set up kSetupReps times (fresh projection, operator and scatter each
/// time); keeps the last set-up and every repetition's timings.
std::unique_ptr<Setup> repeated_setup(const WorkloadSpec& spec,
                                      const Args& args, std::size_t ranks,
                                      obs::TraceSession* trace,
                                      std::vector<SetupTimes>& times) {
  std::unique_ptr<Setup> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.reset();
    obs::ScopedSpan span(trace, "setup", obs::Category::kPreprocess);
    s = std::make_unique<Setup>(spec, args.seed, ranks, trace);
    times.push_back(s->times);
  }
  return s;
}

template <typename Fn>
double median_of(const std::vector<SetupTimes>& times, Fn&& field) {
  std::vector<double> v;
  for (const SetupTimes& t : times) v.push_back(field(t));
  return median(std::move(v));
}

struct SolveLoop {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  ops::ApplyStats apply;       ///< of one solve
  std::size_t messages = 0;    ///< active messages of one solve
};

/// One untimed warm-up solve, then solves until `seconds` have passed (at
/// least kMinSolves). With a trace session, two traced and two untraced
/// solves alternate, so the tracing overhead is measured in-process and
/// the rest of the run's budget goes to the ladder.
SolveLoop run_solves(const Setup& s, world::World& world,
                     const Observables& ref, double seconds,
                     obs::TraceSession* trace) {
  SolveLoop loop;
  const auto run = [&](obs::TraceSession* session) {
    const auto t0 = Clock::now();
    const SolveResult r = solve(s, world, session);
    const double secs = since(t0);
    ++loop.attempted;
    if (!verify(s.spec, r.obs, ref)) {
      ++loop.failed;
      std::printf("verify FAILED: got (%.17g, %.17g) want (%.17g, %.17g)\n",
                  r.obs.a, r.obs.b, ref.a, ref.b);
    }
    loop.apply = r.apply;
    return secs;
  };
  const world::World::Stats w0 = world.stats();
  run(nullptr);
  loop.messages = world.stats().messages - w0.messages;

  const auto start = Clock::now();
  const std::size_t per_mode = trace != nullptr ? 2 : kMinSolves;
  for (std::size_t i = 0;; ++i) {
    const bool traced = trace != nullptr && i % 2 == 0;
    const double secs = run(traced ? trace : nullptr);
    (traced ? loop.traced_s : loop.untraced_s).push_back(secs);
    const bool enough = loop.untraced_s.size() >= per_mode &&
                        (trace == nullptr || loop.traced_s.size() >= per_mode);
    if (enough && (trace != nullptr || since(start) >= seconds)) break;
  }
  return loop;
}

void print_host(std::size_t nproc, std::size_t ranks) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf("host: nproc=%zu ranks=%zu avx2_kernels=%s build=%s llc_kib=%ld\n",
              nproc, ranks, linalg::packed_kernels_use_avx2() ? "yes" : "no",
              MH_PERFBENCH_BUILD_TYPE, llc > 0 ? llc / 1024 : 0L);
}

void print_counts(const Setup& s, const SolveLoop& loop) {
  std::printf("input: workload=%.*s leaves=%zu nodes=%zu depth=%d "
              "operator_terms=%zu\n",
              static_cast<int>(s.spec.name.size()), s.spec.name.data(),
              s.input.num_leaves(), s.input.num_nodes(), s.input.max_depth(),
              s.op.rank());
  std::printf("per solve: tasks=%zu gemms=%zu gflop=%.3f messages=%zu\n",
              loop.apply.tasks, loop.apply.gemms, loop.apply.flops * 1e-9,
              loop.messages);
}

/// Per-layer self time of the traced solves, from the session's spans:
/// name -> total self seconds over every traced solve.
struct SolveBreakdown {
  std::map<std::string, double> self_s;
  double solve_total_s = 0.0;
  std::size_t solves = 0;
};

SolveBreakdown solve_breakdown(const obs::TraceSession& session) {
  const std::vector<obs::Span> spans = session.snapshot();
  std::vector<SpanRec> recs;
  recs.reserve(spans.size());
  for (const obs::Span& sp : spans) {
    recs.push_back({sp.id, sp.parent, sp.start_us, sp.end_us()});
  }
  const std::vector<double> self = self_times_us(recs);
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  // A span belongs to a solve when a chain of parents reaches "solve".
  const auto in_solve = [&](std::size_t i) {
    for (;;) {
      if (std::strcmp(spans[i].name, "solve") == 0) return true;
      const auto it = index.find(spans[i].parent);
      if (spans[i].parent == 0 || it == index.end()) return false;
      i = it->second;
    }
  };
  SolveBreakdown b;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!in_solve(i)) continue;
    b.self_s[spans[i].name] += self[i] * 1e-6;
    if (std::strcmp(spans[i].name, "solve") == 0) {
      b.solve_total_s += spans[i].dur_us * 1e-6;
      ++b.solves;
    }
  }
  return b;
}

void print_ladder(const LadderResult& lad, std::size_t reps) {
  const std::vector<double> ratio = ladder_ratios(lad.rungs);
  std::printf("\nL0-L4 ladder (one Apply, %.3f GFLOP; median of %zu):\n",
              lad.apply.flops * 1e-9, reps);
  std::printf("  %-8s %8s %10s %9s %12s\n", "rung", "threads", "seconds",
              "GFLOPS", "vs previous");
  for (std::size_t i = 0; i < lad.rungs.size(); ++i) {
    const Rung& r = lad.rungs[i];
    std::printf("  %-8s %8zu %10.4f %9.3f %11.3fx\n", r.name.c_str(),
                r.threads, r.seconds, r.gflops(), ratio[i]);
  }
}

int run_untraced(const WorkloadSpec& spec, const Args& args,
                 std::size_t ranks) {
  std::vector<SetupTimes> setups;
  const std::unique_ptr<Setup> s =
      repeated_setup(spec, args, ranks, nullptr, setups);
  const auto t_ref = Clock::now();
  const SolveResult ref = reference_solve(*s);
  std::printf("serial reference: %.3f s, observables (%.12g, %.12g)\n",
              since(t_ref), ref.obs.a, ref.obs.b);

  world::World world(ranks);
  const SolveLoop loop = run_solves(*s, world, ref.obs, args.seconds, nullptr);
  print_counts(*s, loop);
  std::printf("solves: %zu timed (plus 1 warm-up), failed_frac=%g, "
              "seconds:", loop.untraced_s.size(),
              failed_fraction(loop.failed, loop.attempted));
  for (const double t : loop.untraced_s) std::printf(" %.4f", t);
  std::printf("\n");

  Metrics m;
  m.add("solve_s", median(loop.untraced_s), "s");
  m.add("setup_s", median_of(setups, [](const SetupTimes& t) {
          return t.total();
        }), "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("verified_frac",
        1.0 - failed_fraction(loop.failed, loop.attempted), "frac");
  m.print(loop.failed == 0, loop.attempted, loop.failed);
  return 0;
}

int run_traced(const WorkloadSpec& spec, const Args& args, std::size_t ranks) {
  obs::TraceSession session;
  obs::set_thread_label("perfbench-main");
  std::vector<SetupTimes> setups;
  const std::unique_ptr<Setup> s =
      repeated_setup(spec, args, ranks, &session, setups);
  SolveResult ref;
  double ref_s = 0.0;
  {
    obs::ScopedSpan span(&session, "reference", obs::Category::kOther);
    const auto t0 = Clock::now();
    ref = reference_solve(*s);
    ref_s = since(t0);
  }
  world::World world(ranks);
  const SolveLoop loop =
      run_solves(*s, world, ref.obs, args.seconds, &session);
  print_counts(*s, loop);
  // A ladder repetition costs about five serial references; repeat it (up
  // to kMaxLadderReps) as far as the --seconds budget allows.
  const std::size_t reps = std::clamp<std::size_t>(
      static_cast<std::size_t>(args.seconds / (5.0 * ref_s)), 1,
      kMaxLadderReps);
  const LadderResult lad = run_ladder(*s, world, ranks, reps, &session);
  print_ladder(lad, reps);

  const SolveBreakdown b = solve_breakdown(session);
  double self_sum = 0.0;
  std::printf("\ntraced solve, self time per layer (mean of %zu solves):\n",
              b.solves);
  for (const auto& [name, secs] : b.self_s) {
    self_sum += secs;
    std::printf("  %-20s %9.4f s %6.1f%%\n", name.c_str(),
                secs / static_cast<double>(b.solves),
                100.0 * secs / b.solve_total_s);
  }

  if (!args.trace_out.empty() &&
      !session.write_chrome_trace_file(args.trace_out)) {
    std::fprintf(stderr, "mh_perfbench: could not write %s\n",
                 args.trace_out.c_str());
    return 1;
  }

  const double l0_1 = lad.rung("L0_1t").seconds;
  const double l1_1 = lad.rung("L1_1t").seconds;
  const double l2 = lad.rung("L2").seconds;
  const double l3 = lad.rung("L3").seconds;
  const double l4 = lad.rung("L4").seconds;
  const std::size_t d = spec.fn.ndim;
  const std::size_t k = spec.fn.k;
  const double cube_bytes = 8.0 * static_cast<double>(Tensor::cube(d, k).size());
  // Computed (not measured) traffic of one task: read the source, read
  // M*d k x k blocks, write the result.
  const double task_bytes =
      2.0 * cube_bytes +
      8.0 * static_cast<double>(s->op.rank() * d * k * k);
  const double task_flops = static_cast<double>(s->op.rank()) *
                            transform_flops(d, k);

  Metrics m;
  m.add("linalg.fused_gflops_1t", lad.rung("L0_1t").gflops(), "GFLOP/s");
  m.add("linalg.fused_gflops_4t", lad.rung("L0_Nt").gflops(), "GFLOP/s");
  m.add("linalg.flops", loop.apply.flops, "flop");
  m.add("linalg.flop_per_byte_computed", task_flops / task_bytes, "flop/B");
  m.add("ops.task_compute_s", l1_1, "s");
  m.add("ops.task_overhead_frac", 1.0 - l0_1 / l1_1, "frac");
  m.add("ops.task_scaling_4t", l1_1 / lad.rung("L1_Nt").seconds, "x");
  m.add("ops.serial_apply_s", l2, "s");
  m.add("ops.serial_apply_gflops", lad.rung("L2").gflops(), "GFLOP/s");
  m.add("ops.cache_hits", static_cast<double>(lad.cache.hits), "count");
  m.add("ops.cache_misses", static_cast<double>(lad.cache.misses), "count");
  m.add("ops.cache_warm_s",
        median_of(setups, [](const SetupTimes& t) { return t.warm_s; }), "s");
  m.add("ops.tasks", static_cast<double>(lad.apply.tasks), "count");
  m.add("ops.gemms", static_cast<double>(lad.apply.gemms), "count");
  m.add("mra.project_s",
        median_of(setups, [](const SetupTimes& t) { return t.project_s; }),
        "s");
  m.add("mra.leaves", static_cast<double>(s->input.num_leaves()), "count");
  m.add("mra.nodes", static_cast<double>(s->input.num_nodes()), "count");
  m.add("mra.accumulate_s", lad.accumulate_s, "s");
  m.add("mra.compress_s", lad.mra_compress_s, "s");
  m.add("mra.reconstruct_s", lad.mra_reconstruct_s, "s");
  m.add("dht.scatter_s",
        median_of(setups, [](const SetupTimes& t) { return t.scatter_s; }),
        "s");
  m.add("dht.gather_s", lad.gather_s, "s");
  m.add("dht.load_imbalance", load_imbalance(s->scattered.apply_loads(s->op)),
        "x");
  m.add("runtime.batch_apply_s", l3, "s");
  m.add("runtime.batch_speedup", l2 / l3, "x");
  m.add("runtime.batches", static_cast<double>(lad.batches), "count");
  m.add("runtime.mean_batch_items", lad.mean_batch_items, "count");
  m.add("world.apply_s", l4, "s");
  m.add("world.parallel_efficiency", parallel_efficiency(l2, ranks, l4),
        "frac");
  m.add("world.messages", static_cast<double>(lad.comm.messages), "count");
  m.add("world.bytes", lad.comm.bytes, "B");
  m.add("world.send_retries", static_cast<double>(lad.comm.send_retries),
        "count");
  m.add("world.compress_s", lad.world_compress_s, "s");
  m.add("world.truncate_s", lad.world_truncate_s, "s");
  m.add("world.reconstruct_s", lad.world_reconstruct_s, "s");
  m.add("world.max_abs_dev", lad.max_abs_dev, "abs");
  const double traced = median(loop.traced_s);
  const double untraced = median(loop.untraced_s);
  m.add("trace.solve_s", traced, "s");
  m.add("trace.overhead_frac", traced / untraced - 1.0, "frac");
  m.add("trace.self_sum_frac", self_sum / b.solve_total_s, "frac");

  const std::size_t attempted = loop.attempted + lad.verified;
  const std::size_t failed = loop.failed + lad.failed;
  m.print(failed == 0, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace mh::perfbench

int main(int argc, char** argv) {
  using namespace mh::perfbench;
  const Args args = parse(argc, argv);
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::string msg = "unknown workload; choose one of:";
    for (const std::string_view n : workload_names()) {
      msg += ' ';
      msg += n;
    }
    usage(msg.c_str());
  }
  const std::size_t nproc = online_cpus();
  const std::size_t ranks = std::min(kMaxRanks, nproc);
  print_host(nproc, ranks);
  try {
    return args.trace ? run_traced(*spec, args, ranks)
                      : run_untraced(*spec, args, ranks);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mh_perfbench: %s\n", e.what());
    return 1;
  }
}
