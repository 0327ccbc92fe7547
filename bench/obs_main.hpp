#pragma once

/// \file obs_main.hpp
/// \brief Drop-in replacement for BENCHMARK_MAIN() that gives every
/// google-benchmark binary the shared `--obs-json <path>` flag: after the
/// benchmarks run, the process-wide obs counters and each benchmark's real
/// time per iteration (`ns/op`, the unit the regression gate compares) are
/// exported as one BENCH_*.json-shaped object.  Output on stdout follows
/// `--benchmark_format` as usual.  With `--benchmark_repetitions` the JSON
/// keeps one row per benchmark, its median.  Usage (instead of
/// BENCHMARK_MAIN()):
///
///   QCLAB_BENCH_MAIN("bench_gate_apply")

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "qclab/obs/report.hpp"
#include "obs_cli.hpp"

namespace qclab::benchutil {

/// True for a run that ended in an error or was skipped.  google-benchmark
/// 1.8 replaced `Run::error_occurred` by `Run::skipped`.
template <typename Run>
bool runFailed(const Run& run) {
  if constexpr (requires { run.skipped; }) {
    return static_cast<bool>(run.skipped);
  } else {
    return run.error_occurred;
  }
}

/// Display reporter that forwards everything to the default one (so
/// `--benchmark_format` and colour still apply) and keeps one real time
/// per iteration, in nanoseconds, per benchmark: the `median` aggregate
/// when repetitions produce one, else the benchmark's iteration run.
class TimingCollector final : public benchmark::BenchmarkReporter {
 public:
  struct Timing {
    std::string name;
    double ns;
    bool median;
  };

  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) record(run);
    display_->ReportRuns(runs);
  }

  void Finalize() override { display_->Finalize(); }

  std::vector<Timing> timings;

 private:
  void record(const Run& run) {
    const bool median = run.run_type == Run::RT_Aggregate &&
                        run.aggregate_name == "median";
    if (runFailed(run) || (run.run_type != Run::RT_Iteration && !median)) {
      return;
    }
    const std::string name = run.run_name.str();
    const double ns = run.GetAdjustedRealTime() * 1e9 /
                      benchmark::GetTimeUnitMultiplier(run.time_unit);
    const auto it = std::find_if(timings.begin(), timings.end(),
                                 [&](const Timing& t) { return t.name == name; });
    if (it == timings.end()) {
      timings.push_back({name, ns, median});
    } else if (median || !it->median) {
      *it = {name, ns, median};
    }
  }

  // Owned by google-benchmark (a process-wide instance).
  benchmark::BenchmarkReporter* display_ =
      benchmark::CreateDefaultDisplayReporter();
};

inline int obsMain(int argc, char** argv, const char* benchName) {
  std::string obsJsonPath = extractObsJsonPath(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  TimingCollector collector;
  benchmark::RunSpecifiedBenchmarks(&collector);
  benchmark::Shutdown();
  if (obsJsonPath.empty()) return 0;
  obs::Report report(benchName);
  for (const auto& timing : collector.timings) {
    report.add(timing.name, timing.ns, "ns/op");
  }
  if (!report.writeJson(obsJsonPath)) {
    std::fprintf(stderr, "error: cannot write obs JSON to %s\n",
                 obsJsonPath.c_str());
    return 1;
  }
  return 0;
}

}  // namespace qclab::benchutil

#define QCLAB_BENCH_MAIN(benchName)                              \
  int main(int argc, char** argv) {                              \
    return qclab::benchutil::obsMain(argc, argv, benchName);     \
  }
