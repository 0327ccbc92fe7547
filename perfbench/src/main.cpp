// End-to-end job benchmark of qclab-cpp.
//
//   qclab_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--self-test]
//
// Runs one workload as a closed loop with one client (this thread issues
// the next job only when the previous one has completed) for --seconds.
// --trace 0 prints the end-to-end metrics; --trace 1 runs every job once
// untraced and once as a chain of timed layer calls and prints per-layer
// metrics.  The last line of standard output is one JSON object.  The
// OpenMP pool size comes from OMP_NUM_THREADS and is printed.

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Set-up is repeated this often per run and reported as the median.
constexpr int kSetupRepeats = 3;
/// A run holds at least this many jobs even when --seconds is shorter.
constexpr std::uint64_t kMinJobs = 3;

struct Metric {
  std::string name;
  const char* unit;
};

/// The per-layer metrics a traced run reports, on every workload (0 where
/// the workload does not reach the layer).
const std::vector<Metric>& perLayerMetrics() {
  static const std::vector<Metric> metrics = [] {
    std::vector<Metric> m = {
        {"io.parse_ms", "ms"},
        {"io.parse_mb_per_s", "MB/s"},
        {"dispatch.analyze_ms", "ms"},
        {"dispatch.tableau_frac", "frac"},
        {"dispatch.fallbacks", "count"},
        {"stabilizer.job_ms", "ms"},
        {"fusion.plan_ms", "ms"},
        {"fusion.blocks_per_gate", "ratio"},
        {"blocking.schedule_ms", "ms"},
        {"blocking.blocked_frac", "frac"},
        {"state.alloc_ms", "ms"},
        {"state.peak_mib", "MiB"},
    };
    const auto add = [&m](std::string name, const char* unit) {
      m.push_back({std::move(name), unit});
    };
    for (const qclab::sim::KernelPath path : kUnfusedPaths) {
      const std::string prefix =
          std::string("kernels.") + qclab::sim::kernelPathName(path);
      add(prefix + ".ms", "ms");
      add(prefix + ".calls", "count");
      add(prefix + ".gbps", "GB/s");
      add(prefix + ".ceiling_frac", "ratio");
    }
    for (const char* kind : {"fused.dense_k", "fused.diag_k"}) {
      for (int k = 1; k <= qclab::sim::FusionOptions{}.maxQubits; ++k) {
        add(kind + std::to_string(k) + ".gbps", "GB/s");
      }
    }
    const std::vector<Metric> rest = {
        {"fused.blocked.gbps", "GB/s"},
        {"fused.exec_ms", "ms"},
        {"sample.counts_ms", "ms"},
        {"batch.rebind_ms", "ms"},
        {"batch.member_exec_ms", "ms"},
        {"observable.expect_ms", "ms"},
        {"observable.terms_per_s", "1/s"},
        {"trajectory.per_traj_ms", "ms"},
        {"noise.jumps_per_traj", "count"},
        {"noise.channels_per_traj", "count"},
        {"simulate.residual_ms", "ms"},
        {"trace.coverage", "ratio"},
        {"trace.overhead", "ratio"},
        {"stream.l2_gbps", "GB/s"},
        {"stream.l3_gbps", "GB/s"},
        {"stream.dram_gbps", "GB/s"},
        {"stream.l2_1t_gbps", "GB/s"},
        {"stream.l3_1t_gbps", "GB/s"},
        {"stream.dram_1t_gbps", "GB/s"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return metrics;
}

/// The end-to-end metric (and workload) a per-layer metric should move.
std::string moves(const std::string& name) {
  static const std::pair<const char*, const char*> kTable[] = {
      {"io.", "job_p50_ms on qasm-jobs"},
      {"dispatch.", "job_p50_ms, job_tail_ms on qasm-jobs"},
      {"stabilizer.", "job_p50_ms, job_tail_ms on qasm-jobs"},
      {"fusion.", "job_p50_ms on deep-fused; setup_s on qaoa-sweep"},
      {"blocking.", "job_p50_ms on deep-fused"},
      {"state.alloc", "job_p50_ms on deep-fused"},
      {"state.peak", "peak_rss_mib everywhere"},
      {"kernels.", "gates_per_s on qasm-jobs, noisy-traj"},
      {"fused.", "gates_per_s on deep-fused"},
      {"sample.", "job_p50_ms on qasm-jobs"},
      {"batch.", "job_p50_ms on qaoa-sweep"},
      {"observable.", "job_p50_ms on qaoa-sweep"},
      {"trajectory.", "job_p50_ms on noisy-traj"},
      {"noise.", "job_p50_ms on noisy-traj"},
      {"simulate.", "job_p50_ms (time no layer call reaches)"},
  };
  for (const auto& [prefix, target] : kTable) {
    if (name.rfind(prefix, 0) == 0) return std::string("-> ") + target;
  }
  return "";  // trace.* and stream.* describe the measurement itself
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  bool selfTest = false;
};

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.selfTest = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      haveSeed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || !haveSeed || !(args.seconds > 0) ||
      (args.trace != 0 && args.trace != 1)) {
    throw std::invalid_argument(
        "usage: --workload <name> --seed <n> --seconds <s> --trace <0|1> "
        "[--self-test]");
  }
  return args;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "qasm-jobs") return std::make_unique<QasmJobs>(seed);
  if (name == "deep-fused") return std::make_unique<DeepFused>(seed);
  if (name == "qaoa-sweep") return std::make_unique<QaoaSweep>(seed);
  if (name == "noisy-traj") return std::make_unique<NoisyTraj>(seed);
  throw std::invalid_argument("unknown workload " + name +
                              " (qasm-jobs, deep-fused, qaoa-sweep, noisy-traj)");
}

/// Best-of-passes STREAM triad a[i] = b[i] + s c[i] over a working set of
/// `bytes` (three arrays) on `threads` OpenMP threads.  Counts 24 bytes per
/// element, as STREAM does.
double triadGbps(std::size_t bytes, int threads, int minPasses, double minMs) {
  // Floor of 64 Ki elements per array when sysfs reports no cache size.
  const std::size_t n =
      std::max<std::size_t>(bytes / (3 * sizeof(double)), std::size_t{1} << 16);
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  const auto len = static_cast<std::int64_t>(n);
#pragma omp parallel for schedule(static) num_threads(threads)
  for (std::int64_t i = 0; i < len; ++i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  }
  double best = 0.0;
  const auto start = Clock::now();
  for (int pass = 0; pass < minPasses || msSince(start) < minMs; ++pass) {
    const auto t = Clock::now();
#pragma omp parallel for schedule(static) num_threads(threads)
    for (std::int64_t i = 0; i < len; ++i) a[i] = b[i] + 3.0 * c[i];
    const double ms = msSince(t);
    best = std::max(best, 24.0 * static_cast<double>(n) / (ms * 1e6));
  }
  if (a[n / 2] != 7.0) throw std::runtime_error("STREAM triad miscomputed");
  return best;
}

void printMetric(const char* name, double value, const char* unit,
                 const std::string& note = "") {
  std::printf("  %-42s %14.6g %-6s %s\n", name, value, unit, note.c_str());
}

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

int run(const Args& args) {
  const std::vector<std::string> overrides = qclabOverrides();
  if (!overrides.empty()) {
    std::string list;
    for (const auto& name : overrides) list += " " + name;
    std::fprintf(stderr,
                 "perfbench: refusing to run with QCLAB_* overrides set:%s "
                 "(they change the route being measured)\n",
                 list.c_str());
    return 3;
  }
#ifdef QCLAB_HAS_OPENMP
  omp_set_dynamic(0);
#endif
  const Environment env = probeEnvironment();
  std::printf(
      "env: nproc=%ld threads=%d l2=%zu KiB/core l3=%zu KiB simd=%s "
      "build=%s obs=%s\n",
      env.nproc, env.threads, env.l2Bytes >> 10, env.l3Bytes >> 10,
      env.simd.c_str(), env.build.c_str(), env.obs ? "on" : "off");

  std::unique_ptr<Workload> workload = makeWorkload(args.workload, args.seed);
  auto lap = Clock::now();
  workload->prepare();
  const double prepareS = msSince(lap) / 1e3;

  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    lap = Clock::now();
    workload->setup();
    setups.push_back(msSince(lap) / 1e3);
  }

  if (args.selfTest) {
    const bool corruptedFailed =
        !workload->job(0, true).ok || workload->verifyDeferred() > 0;
    const bool cleanPassed =
        workload->job(0, false).ok && workload->verifyDeferred() == 0;
    std::printf("self-test %s: corrupted result %s, clean result %s\n",
                args.workload.c_str(),
                corruptedFailed ? "counted as failed" : "ACCEPTED",
                cleanPassed ? "passed" : "FAILED");
    return corruptedFailed && cleanPassed ? 0 : 1;
  }

  std::vector<double> latencies;  // jobs that threw have no latency
  std::uint64_t attempted = 0;
  double gates = 0.0;
  double jobMsSum = 0.0;
  std::uint64_t failed = 0;
  Layers layers;
  double tracedWall = 0.0;
  double layerMs = 0.0;
  // peak_rss_mib covers the timed loop only, not prepare() or set-up.
  const bool rssReset = resetPeakRss();
  const auto loopStart = Clock::now();
  for (std::uint64_t index = 0;
       index < kMinJobs || msSince(loopStart) < args.seconds * 1e3; ++index) {
    JobResult result;
    try {
      result = workload->job(index, false);
      if (args.trace == 1) {
        const TracedJob traced = workload->tracedJob(index, layers);
        tracedWall += traced.wallMs;
        layerMs += traced.layerMs;
        result.ok = result.ok && traced.ok;
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "job %llu threw: %s\n",
                   static_cast<unsigned long long>(index), error.what());
      result = JobResult{0.0, 0.0, false};
    }
    ++attempted;
    failed += result.ok ? 0 : 1;
    if (result.ms > 0.0) {
      latencies.push_back(result.ms);
      jobMsSum += result.ms;
      gates += result.gates;
    }
  }
  const double loopS = msSince(loopStart) / 1e3;
  const double rss = peakRssMiB();
  const double heldMiB = workload->heldReferenceMiB();
  failed += workload->verifyDeferred();
  const std::size_t jobs = static_cast<std::size_t>(attempted);
  const double failedFrac =
      static_cast<double>(failed) / static_cast<double>(attempted);

  std::printf(
      "workload %s: closed loop, 1 client, %zu jobs in %.3f s (seed %llu, "
      "prepare %.3f s untimed)\n",
      args.workload.c_str(), jobs, loopS,
      static_cast<unsigned long long>(args.seed), prepareS);

  std::vector<std::pair<std::string, std::pair<double, const char*>>> out;
  if (args.trace == 0) {
    const double setupS = median(setups);
    const double p50 = median(latencies);
    const double gatesPerS = gates / (jobMsSum / 1e3);
    const Tail tail = tailLatency(latencies);
    char note[128];
    std::snprintf(note, sizeof note, "(median of %d set-ups)", kSetupRepeats);
    printMetric("setup_s", setupS, "s", note);
    printMetric("job_p50_ms", p50, "ms");
    if (tail.reported) {
      std::snprintf(note, sizeof note, "(p%g, %zu of %zu jobs beyond it)",
                    tail.percentile, tail.beyond, latencies.size());
      printMetric("job_tail_ms", tail.value, "ms", note);
    } else {
      std::printf("  %-42s %14s %-6s (not reported: %zu jobs < 100)\n",
                  "job_tail_ms", "-", "ms", latencies.size());
    }
    printMetric("gates_per_s", gatesPerS, "1/s");
    if (rssReset) {
      std::snprintf(note, sizeof note,
                    "(VmHWM of the timed loop; includes %.1f MiB of check "
                    "references)",
                    heldMiB);
    } else {
      std::snprintf(note, sizeof note,
                    "(whole-process peak: VmHWM reset refused; includes "
                    "%.1f MiB of check references)",
                    heldMiB);
    }
    printMetric("peak_rss_mib", rss, "MiB", note);
    std::snprintf(note, sizeof note, "(%llu of %zu jobs)",
                  static_cast<unsigned long long>(failed), jobs);
    printMetric("failed_frac", failedFrac, "frac", note);
    out = {{"setup_s", {setupS, "s"}},
           {"job_p50_ms", {p50, "ms"}},
           {"gates_per_s", {gatesPerS, "1/s"}},
           {"peak_rss_mib", {rss, "MiB"}}};
  } else {
    // Cache ceilings, each on the pool and on one thread: half an L2 per
    // thread, half the LLC, and 4x the LLC.
    const std::size_t l2Pool =
        env.l2Bytes / 2 * static_cast<std::size_t>(env.threads);
    const std::size_t l2Single = env.l2Bytes / 2;
    const std::size_t l3Set = env.l3Bytes / 2;
    const std::size_t dramSet = 4 * env.l3Bytes;
    layers.set("stream.l2_gbps", triadGbps(l2Pool, env.threads, 20, 100.0));
    layers.set("stream.l3_gbps", triadGbps(l3Set, env.threads, 5, 200.0));
    layers.set("stream.dram_gbps", triadGbps(dramSet, env.threads, 3, 0.0));
    layers.set("stream.l2_1t_gbps", triadGbps(l2Single, 1, 20, 100.0));
    layers.set("stream.l3_1t_gbps", triadGbps(l3Set, 1, 5, 200.0));
    layers.set("stream.dram_1t_gbps", triadGbps(dramSet, 1, 3, 0.0));
    std::printf(
        "STREAM triad working sets: L2 %zu KiB on %d threads (half of each "
        "%zu KiB L2) and %zu KiB on 1 thread, L3 %zu MiB (half of %zu MiB), "
        "DRAM %zu MiB (4x the %zu MiB LLC); _1t ceilings ran on 1 thread\n",
        l2Pool >> 10, env.threads, env.l2Bytes >> 10, l2Single >> 10,
        l3Set >> 20, env.l3Bytes >> 20, dramSet >> 20, env.l3Bytes >> 20);

    const double n = static_cast<double>(jobs);
    workload->finishTrace(layers, n, env);
    layers.set("state.peak_mib",
               static_cast<double>(qclab::obs::metrics().peakStateBytes()) /
                   (1 << 20));
    layers.set("simulate.residual_ms", (jobMsSum - layerMs) / n);
    layers.set("trace.coverage", layerMs / jobMsSum);
    layers.set("trace.overhead", tracedWall / jobMsSum);
    std::printf("traced layers (per job unless stated; bandwidths are "
                "computed from state sizes):\n");
    for (const Metric& metric : perLayerMetrics()) {
      std::string note = "(not reached on this workload)";
      if (layers.has(metric.name)) {
        note = moves(metric.name);
        const std::string extra = layers.noteOf(metric.name);
        if (!extra.empty()) note += (note.empty() ? "" : "; ") + extra;
      }
      printMetric(metric.name.c_str(), layers.get(metric.name), metric.unit,
                  note);
      out.push_back({metric.name, {layers.get(metric.name), metric.unit}});
    }
  }

  std::string json = "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(jobs) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    json += (i == 0 ? "\"" : ", \"") + out[i].first + "\": {\"value\": " +
            number(out[i].second.first) + ", \"unit\": \"" +
            out[i].second.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parseArgs(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
