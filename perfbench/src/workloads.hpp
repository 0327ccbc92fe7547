#pragma once

// The four closed-loop workloads.  Each one generates its inputs from the
// run seed, times only the library calls of a job, and checks every output
// it checks against a reference computed outside the timed interval.

#include <cstdio>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <qclab/noise/trajectory.hpp>

#include "common.hpp"

namespace perfbench {

using qclab::QCircuit;
using qclab::Simulation;

/// Job index of the warm-up job inside set-up; never reached by a run.
inline constexpr std::uint64_t kWarmupJob = ~std::uint64_t{0} >> 1;
inline constexpr std::uint64_t kShots = 1000;

struct JobResult {
  double ms = 0.0;     ///< timed library work of the job
  double gates = 0.0;  ///< input gates as written x members or trajectories
  bool ok = true;      ///< every check of the job passed
};

struct TracedJob {
  double wallMs = 0.0;   ///< the traced job, timers included
  double layerMs = 0.0;  ///< sum of the layer times measured inside it
  bool ok = true;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the seeded inputs and the references the checks compare
  /// against.  Not timed.
  virtual void prepare() = 0;
  /// One-time work before the first timed job: construction or shape
  /// compile where the workload has one, plus a warm-up job.  Timed as
  /// setup_s; calling it again redoes all of it.
  virtual void setup() = 0;
  /// One job.  Only the library calls are timed; the checks run after the
  /// clock stops.  `corrupt` perturbs the output before it is checked.
  virtual JobResult job(std::uint64_t index, bool corrupt) = 0;
  /// The same job as a chain of public layer calls, each timed from
  /// outside.  Adds its tallies to `layers`.
  virtual TracedJob tracedJob(std::uint64_t index, Layers& layers) = 0;
  /// Turns the tallies of `jobs` traced jobs into per-layer metrics.
  virtual void finishTrace(Layers& layers, double jobs,
                           const Environment& env) = 0;
  /// Runs the checks a workload defers until after the loop (and after
  /// peak_rss_mib is read, so references do not count as job memory).
  /// Returns the number of jobs that passed their own checks but fail a
  /// deferred one.
  virtual std::uint64_t verifyDeferred() { return 0; }
  /// Memory the workload holds for its checks while jobs run (it counts in
  /// peak_rss_mib).
  virtual double heldReferenceMiB() const { return 0.0; }
};

inline std::string angle(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// OpenQASM operand of qubit `qubit` of register q.
inline std::string qubitRef(int qubit) {
  return "q[" + std::to_string(qubit) + "]";
}

/// The all-zero basis state of `nbQubits` qubits, as simulate takes it.
inline std::string zeroBits(int nbQubits) {
  return std::string(static_cast<std::size_t>(nbQubits), '0');
}

/// io.parse_ms per job and io.parse_mb_per_s from the parse tallies.
inline void finishParse(Layers& layers, double jobs) {
  const double parseMs = layers.get("io.parse_ms");
  layers.set("io.parse_mb_per_s",
             layers.get("io.parse_bytes") / 1e6 / (parseMs / 1e3));
  layers.set("io.parse_ms", parseMs / jobs);
}

inline double maxAbsDiff(const Complex* a, const Complex* b, std::size_t n) {
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

/// Per-path kernel metrics of a traced run: time and calls per job,
/// computed GB/s, and ceiling_frac, the time the path's bytes would take
/// at the STREAM ceiling of each call (its cache level, one thread or the
/// pool) over the time they took.  The note names the ceilings used and
/// their shares of the path's bytes.
inline void reportKernels(const TimingBackend& timing, Layers& layers,
                          double jobs, const Environment& env) {
  for (const qclab::sim::KernelPath path : kUnfusedPaths) {
    double ms = 0.0, calls = 0.0, bytes = 0.0, ceilingMs = 0.0;
    std::map<std::string, double> bytesByCeiling;
    for (const auto& [key, stat] : timing.stats()) {
      if (key.path != path) continue;
      const std::string ceiling =
          ceilingOf(static_cast<double>(key.stateBytes), key.parallel, env);
      ms += stat.ms;
      calls += stat.calls;
      bytes += stat.bytes;
      ceilingMs += stat.bytes / (layers.get(ceiling) * 1e6);
      bytesByCeiling[ceiling] += stat.bytes;
    }
    if (calls == 0) continue;
    const std::string prefix =
        std::string("kernels.") + qclab::sim::kernelPathName(path);
    std::string note = "vs";
    for (const auto& [ceiling, share] : bytesByCeiling) {
      char part[80];
      std::snprintf(part, sizeof part, " %s %.0f%%", ceiling.c_str(),
                    100.0 * share / bytes);
      note += part;
    }
    layers.set(prefix + ".ms", ms / jobs);
    layers.set(prefix + ".calls", calls / jobs);
    layers.set(prefix + ".gbps", ms > 0 ? bytes / (ms * 1e6) : 0.0);
    layers.set(prefix + ".ceiling_frac", ms > 0 ? ceilingMs / ms : 0.0);
    layers.note(prefix + ".ceiling_frac", note + " of bytes");
  }
}

// ---- qasm-jobs ------------------------------------------------------------

/// Many small, unrelated circuits given as OpenQASM text: per-call cost
/// (parse, dispatch analysis, tableau routing, allocation, branching,
/// sampling) dominates and no two jobs share work.
class QasmJobs final : public Workload {
 public:
  explicit QasmJobs(std::uint64_t seed) : seed_(seed) {}

  void prepare() override {}

  void setup() override {
    const JobResult warm = job(kWarmupJob, false);
    if (!warm.ok) throw std::runtime_error("qasm-jobs warm-up job failed");
  }

  JobResult job(std::uint64_t index, bool corrupt) override {
    const Input input = generate(index);
    qclab::random::Rng rng = jobRng(seed_, index, 1);
    JobResult result;
    result.gates = input.gates;
    const auto start = Clock::now();
    const QCircuit<double> circuit = qclab::io::parseQasm<double>(input.text);
    qclab::SimulateOptions options;
    options.dispatch = qclab::sim::DispatchMode::kAuto;
    Simulation<double> simulation = circuit.simulate(zeroBits(input.nbQubits), options);
    const std::uint64_t drawn = sampleTerminal(simulation, kShots, rng);
    result.ms = msSince(start);

    result.ok = drawn == kShots;
    if (corrupt) simulation.branches().front().state.data()[0] += 1e-3;
    if (result.ok && (corrupt || checked(index))) {
      deferred_.push_back({index, distribution(simulation)});
    }
    return result;
  }

  std::uint64_t verifyDeferred() override {
    std::uint64_t failed = 0;
    for (const Deferred& check : deferred_) {
      const Input input = generate(check.index);
      const QCircuit<double> circuit = qclab::io::parseQasm<double>(input.text);
      const auto want =
          distribution(circuit.simulate(zeroBits(input.nbQubits), reference_));
      failed += sameDistribution(check.got, want) ? 0 : 1;
    }
    deferred_.clear();
    return failed;
  }

  double heldReferenceMiB() const override {
    double bytes = 0.0;
    for (const Deferred& check : deferred_) {
      for (const auto& [result, p] : check.got) {
        bytes += static_cast<double>(p.size() * sizeof(double));
      }
    }
    return bytes / (1 << 20);
  }

  TracedJob tracedJob(std::uint64_t index, Layers& layers) override {
    const Input input = generate(index);
    qclab::random::Rng rng = jobRng(seed_, index, 1);
    const std::uint64_t fallbacksBefore =
        qclab::obs::metrics().dispatchFallbacks();
    const double kernelBefore = timing_.totalMs();
    const auto start = Clock::now();

    auto lap = Clock::now();
    const QCircuit<double> circuit = qclab::io::parseQasm<double>(input.text);
    const double parseMs = msSince(lap);

    lap = Clock::now();
    const auto analysis = qclab::sim::analyzeCircuit(circuit);
    const double analyzeMs = msSince(lap);

    // The kAuto rule of DispatchRunner: route through the tableau when the
    // Clifford prefix is long enough.
    const bool tableau =
        analysis.cliffordPrefixOps >=
        static_cast<std::size_t>(
            qclab::sim::DispatchOptions{}.minCliffordPrefixOps);
    Simulation<double> simulation;
    double allocMs = 0.0;
    double stabilizerMs = 0.0;
    if (tableau) {
      qclab::SimulateOptions options;
      options.dispatch = qclab::sim::DispatchMode::kAuto;
      lap = Clock::now();
      simulation = circuit.simulate(zeroBits(input.nbQubits), options, timing_);
      // The router repeats the analysis; that share is already counted.
      stabilizerMs = msSince(lap) - (timing_.totalMs() - kernelBefore) -
                     analyzeMs;
    } else {
      lap = Clock::now();
      auto state = qclab::sim::StateBuffer<double>::zeros(
          std::size_t{1} << input.nbQubits);
      state.data()[0] = Complex(1.0);
      allocMs = msSince(lap);
      simulation = circuit.simulate(std::move(state),
                                    qclab::SimulateOptions{}, timing_);
    }
    const double kernelMs = timing_.totalMs() - kernelBefore;

    lap = Clock::now();
    const std::uint64_t drawn = sampleTerminal(simulation, kShots, rng);
    const double countsMs = msSince(lap);

    TracedJob traced;
    traced.wallMs = msSince(start);
    traced.layerMs =
        parseMs + analyzeMs + allocMs + kernelMs + stabilizerMs + countsMs;
    traced.ok = drawn == kShots;
    layers.add("io.parse_ms", parseMs);
    layers.add("io.parse_bytes", static_cast<double>(input.text.size()));
    layers.add("dispatch.analyze_ms", analyzeMs);
    layers.add("dispatch.tableau_jobs", tableau ? 1.0 : 0.0);
    layers.add("dispatch.fallbacks",
               static_cast<double>(qclab::obs::metrics().dispatchFallbacks() -
                                   fallbacksBefore));
    layers.add("stabilizer.total_ms", stabilizerMs);
    layers.add("state.alloc_ms", allocMs);
    layers.add("sample.counts_ms", countsMs);
    return traced;
  }

  void finishTrace(Layers& layers, double jobs,
                   const Environment& env) override {
    finishParse(layers, jobs);
    layers.set("dispatch.analyze_ms", layers.get("dispatch.analyze_ms") / jobs);
    const double tableauJobs = layers.get("dispatch.tableau_jobs");
    layers.set("dispatch.tableau_frac", tableauJobs / jobs);
    if (tableauJobs > 0) {
      layers.set("stabilizer.job_ms",
                 layers.get("stabilizer.total_ms") / tableauJobs);
    }
    layers.set("state.alloc_ms", layers.get("state.alloc_ms") / jobs);
    layers.set("sample.counts_ms", layers.get("sample.counts_ms") / jobs);
    reportKernels(timing_, layers, jobs, env);
  }

 private:
  /// Every 16th of the first 512 jobs is checked against the
  /// sparse-Kronecker reference, which costs up to ~1 s at 16 qubits.  The
  /// outcome distributions wait for the reference until the loop has ended.
  static constexpr std::uint64_t kCheckEvery = 16;
  static constexpr std::uint64_t kMaxChecks = 32;

  using Distribution = std::map<std::string, std::vector<double>>;

  struct Deferred {
    std::uint64_t index = 0;
    Distribution got;
  };

  struct Input {
    std::string text;
    int nbQubits = 0;
    double gates = 0.0;
  };

  bool checked(std::uint64_t index) const {
    return index % kCheckEvery == 0 && index / kCheckEvery < kMaxChecks;
  }

  /// A random circuit over the gates parseQasm accepts: 6-16 qubits,
  /// 5-25 layers; 1/5 Clifford-only, 1/5 with 1-2 mid-circuit measure or
  /// reset ops.  The shape (qubits, layers, kind) of job i cycles through
  /// all 11 x 21 x 5 combinations by i mod 11, 21 and 5, so every run sees
  /// the same mix of sizes; the seed draws gates, operands, angles and
  /// cut positions.  The warm-up job takes the largest general shape with
  /// seed-independent content, so set-up time does not depend on the seed.
  Input generate(std::uint64_t index) const {
    static const char* const kClifford1[] = {"x", "y", "z", "h", "s", "sdg"};
    static const char* const kClifford2[] = {"cx", "cy", "cz", "swap"};
    static const char* const kOther1[] = {"t", "tdg", "sx", "sxdg", "p",
                                          "rx", "ry", "rz", "u2", "u3"};
    static const char* const kOther2[] = {"ch", "cp", "crx", "cry", "crz",
                                          "iswap", "rxx", "ryy", "rzz", "cu3"};
    static const char* const kThree[] = {"ccx", "cswap"};
    const bool warmup = index == kWarmupJob;
    qclab::random::Rng rng = jobRng(warmup ? 0 : seed_, index, 0);
    Input input;
    const int n = warmup ? 16 : 6 + static_cast<int>(index % 11);
    const int depth = warmup ? 25 : 5 + static_cast<int>(index % 21);
    const bool clifford = !warmup && index % 5 == 0;
    const bool midCircuit = !warmup && index % 5 == 1;
    std::set<int> cuts;  // layers followed by a measure or reset
    if (midCircuit) {
      const std::size_t count = 1 + rng.uniformInt(2);
      while (cuts.size() < count) {
        cuts.insert(static_cast<int>(rng.uniformInt(depth - 1)));
      }
    }
    const auto pick = [&rng](const auto& table) {
      return std::string(table[rng.uniformInt(std::size(table))]);
    };
    const auto angles = [&rng](const std::string& gate) {
      int count = 0;
      if (gate == "u3" || gate == "cu3") {
        count = 3;
      } else if (gate == "u2") {
        count = 2;
      } else if (gate == "p" || gate[0] == 'r' || gate == "cp" ||
                 gate == "crx" || gate == "cry" || gate == "crz") {
        count = 1;
      }
      std::string text;
      for (int i = 0; i < count; ++i) {
        text += (i == 0 ? "(" : ",") + angle(rng.uniform(-M_PI, M_PI));
      }
      return count == 0 ? text : text + ")";
    };

    std::string& s = input.text;
    s = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" + std::to_string(n) +
        "];\ncreg c[" + std::to_string(n) + "];\n";
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int layer = 0; layer < depth; ++layer) {
      std::iota(order.begin(), order.end(), 0);
      for (std::size_t i = order.size() - 1; i > 0; --i) {
        std::swap(order[i], order[rng.uniformInt(i + 1)]);
      }
      std::size_t i = 0;
      while (i < order.size()) {
        const std::size_t left = order.size() - i;
        const double u = rng.uniform();
        std::string gate;
        std::string operands;
        if (!clifford && left >= 3 && u < 0.04) {
          gate = pick(kThree);
          operands = qubitRef(order[i]) + "," + qubitRef(order[i + 1]) + "," + qubitRef(order[i + 2]);
          i += 3;
        } else if (left >= 2 && u < 0.45) {
          gate = clifford || rng.uniform() < 0.4 ? pick(kClifford2) : pick(kOther2);
          operands = qubitRef(order[i]) + "," + qubitRef(order[i + 1]);
          i += 2;
        } else {
          gate = clifford || rng.uniform() < 0.4 ? pick(kClifford1) : pick(kOther1);
          operands = qubitRef(order[i]);
          i += 1;
        }
        s += gate + angles(gate) + " " + operands + ";\n";
        input.gates += 1.0;
      }
      if (cuts.count(layer) != 0) {
        const int qubit = static_cast<int>(rng.uniformInt(n));
        s += rng.uniform() < 0.5 ? "measure " + qubitRef(qubit) + " -> c[" +
                                       std::to_string(qubit) + "];\n"
                                 : "reset " + qubitRef(qubit) + ";\n";
      }
    }
    input.nbQubits = n;
    return input;
  }

  /// Outcome probabilities per recorded mid-circuit result, summed over
  /// branches: P(result, basis state) = p_branch |amplitude|^2.  Global
  /// phases (tableau-routed jobs) drop out.
  static Distribution distribution(const Simulation<double>& simulation) {
    Distribution out;
    for (const auto& branch : simulation.branches()) {
      auto& p = out[branch.result];
      if (p.empty()) p.assign(branch.state.size(), 0.0);
      for (std::size_t i = 0; i < branch.state.size(); ++i) {
        p[i] += branch.probability * std::norm(branch.state.data()[i]);
      }
    }
    return out;
  }

  static bool sameDistribution(const Distribution& got,
                               const Distribution& want) {
    constexpr double kTolerance = 1e-9;
    const auto mass = [](const std::vector<double>& p) {
      return std::accumulate(p.begin(), p.end(), 0.0);
    };
    for (const auto& [result, p] : got) {
      const auto it = want.find(result);
      if (it == want.end()) {
        if (mass(p) > kTolerance) return false;
        continue;
      }
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (std::abs(p[i] - it->second[i]) > kTolerance) return false;
      }
    }
    for (const auto& [result, p] : want) {
      if (got.count(result) == 0 && mass(p) > kTolerance) return false;
    }
    return true;
  }

  std::uint64_t seed_;
  qclab::sim::SparseKronBackend<double> reference_;
  std::vector<Deferred> deferred_;
  TimingBackend timing_;
};

// ---- deep-fused -----------------------------------------------------------

/// One deep 22-qubit circuit (64 MiB state: above the summed L2, inside
/// the L3) run with default fusion: planning, block scheduling and fused
/// execution dominate; parsing is negligible.
class DeepFused final : public Workload {
 public:
  static constexpr int kQubits = 22;
  static constexpr int kBrickLayers = 1;
  /// Terminal shots read this many qubits.  Full-register sampling is a
  /// multinomial over 2^22 outcomes (~7 s per 1000 shots on a 4-vCPU Xeon)
  /// and would hide the fusion work this workload is for.
  static constexpr int kReadout = 8;

  explicit DeepFused(std::uint64_t seed) : seed_(seed) {}

  /// A QFT followed by brickwork layers of RY/RZ + CX with seeded angles,
  /// so both dense and diagonal blocks occur.
  void prepare() override {
    qclab::random::Rng rng = jobRng(seed_, kWarmupJob, 3);
    std::string& s = qasm_;
    s = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" +
        std::to_string(kQubits) + "];\n";
    const auto add = [&](const std::string& line) {
      s += line;
      gates_ += 1.0;
    };
    for (int j = 0; j < kQubits; ++j) {
      add("h " + qubitRef(j) + ";\n");
      for (int k = j + 1; k < kQubits; ++k) {
        add("cp(" + angle(M_PI / static_cast<double>(1ull << (k - j))) + ") " +
            qubitRef(k) + "," + qubitRef(j) + ";\n");
      }
    }
    for (int j = 0; j < kQubits / 2; ++j) {
      add("swap " + qubitRef(j) + "," + qubitRef(kQubits - 1 - j) + ";\n");
    }
    for (int layer = 0; layer < kBrickLayers; ++layer) {
      for (int j = 0; j < kQubits; ++j) {
        add("ry(" + angle(rng.uniform(-M_PI, M_PI)) + ") " + qubitRef(j) + ";\n");
        add("rz(" + angle(rng.uniform(-M_PI, M_PI)) + ") " + qubitRef(j) + ";\n");
      }
      for (int j = layer % 2; j + 1 < kQubits; j += 2) {
        add("cx " + qubitRef(j) + "," + qubitRef(j + 1) + ";\n");
      }
    }
    // Reference: the plain unfused statevector route.
    const Simulation<double> plain =
        qclab::io::parseQasm<double>(qasm_).simulate(zeroBits(kQubits));
    reference_ = plain.state(0);
  }

  void setup() override {
    const JobResult warm = job(kWarmupJob, false);
    if (!warm.ok) throw std::runtime_error("deep-fused warm-up job failed");
  }

  JobResult job(std::uint64_t index, bool corrupt) override {
    qclab::random::Rng rng = jobRng(seed_, index, 1);
    JobResult result;
    result.gates = gates_;
    const auto start = Clock::now();
    const QCircuit<double> circuit = qclab::io::parseQasm<double>(qasm_);
    qclab::SimulateOptions options;
    options.fusion = true;
    Simulation<double> simulation = circuit.simulate(zeroBits(kQubits), options);
    const std::uint64_t drawn =
        sampleTerminal(simulation, kShots, rng, kReadout);
    result.ms = msSince(start);

    auto& state = simulation.branches().front().state;
    if (corrupt) state.data()[0] += 1e-3;
    result.ok = drawn == kShots && matchesReference(state.data());
    return result;
  }

  double heldReferenceMiB() const override {
    return static_cast<double>(reference_.size() * sizeof(Complex)) / (1 << 20);
  }

  TracedJob tracedJob(std::uint64_t index, Layers& layers) override {
    qclab::random::Rng rng = jobRng(seed_, index, 1);
    const std::size_t dim = std::size_t{1} << kQubits;
    const std::uint64_t sweepBytes = 2 * dim * sizeof(Complex);
    const auto start = Clock::now();

    auto lap = Clock::now();
    const QCircuit<double> circuit = qclab::io::parseQasm<double>(qasm_);
    const double parseMs = msSince(lap);

    // fuseGates with blocking off yields the same blocks; the schedule it
    // would have built is then timed on its own.
    lap = Clock::now();
    std::vector<qclab::sim::GateRef<double>> run;
    collectGates(circuit, 0, run);
    const qclab::sim::FusionOptions fusion;
    qclab::sim::FusionOptions unblocked = fusion;
    unblocked.blocking = false;
    qclab::sim::FusionPlan<double> plan =
        qclab::sim::fuseGates(run, kQubits, unblocked);
    const double planMs = msSince(lap);

    lap = Clock::now();
    qclab::sim::BlockingOptions blocking;
    blocking.enabled = fusion.blocking;
    blocking.blockQubits = fusion.blockQubits;
    blocking.minRunBlocks = fusion.minBlockRun;
    plan.schedule =
        qclab::sim::buildBlockSchedule<double>(plan.blocks, kQubits, blocking);
    const double scheduleMs = msSince(lap);

    lap = Clock::now();
    auto state = qclab::sim::StateBuffer<double>::zeros(dim);
    state.data()[0] = Complex(1.0);
    const double allocMs = msSince(lap);

    double execMs = 0.0;
    const auto applyOne = [&](const qclab::sim::FusedBlock<double>& block) {
      const auto t = Clock::now();
      qclab::sim::detail::applyFusedBlock(state, kQubits, block, sweepBytes);
      const double ms = msSince(t);
      const std::string key =
          std::string(block.diagonal ? "fused.diag_k" : "fused.dense_k") +
          std::to_string(block.qubits.size());
      layers.add(key + ".ms", ms);
      layers.add(key + ".sweeps", 1.0);
      execMs += ms;
    };
    double blockedBlocks = 0.0;
    if (plan.schedule.items.empty()) {
      for (const auto& block : plan.blocks) applyOne(block);
    } else {
      for (const auto& item : plan.schedule.items) {
        if (!item.blocked) {
          for (std::size_t b = item.first; b < item.first + item.count; ++b) {
            applyOne(plan.blocks[b]);
          }
          continue;
        }
        const auto t = Clock::now();
        qclab::sim::applyBlockedRun(state, kQubits, plan.blocks, item.first,
                                    item.count, plan.schedule.blockQubits);
        const double ms = msSince(t);
        layers.add("fused.blocked.ms", ms);
        layers.add("fused.blocked.sweeps", 1.0);
        blockedBlocks += static_cast<double>(item.count);
        execMs += ms;
      }
    }

    lap = Clock::now();
    const Simulation<double> simulation(kQubits, std::move(state));
    const std::uint64_t drawn =
        sampleTerminal(simulation, kShots, rng, kReadout);
    const double countsMs = msSince(lap);

    TracedJob traced;
    traced.wallMs = msSince(start);
    traced.layerMs =
        parseMs + planMs + scheduleMs + allocMs + execMs + countsMs;
    traced.ok = drawn == kShots &&
                matchesReference(simulation.branches().front().state.data());
    layers.add("io.parse_ms", parseMs);
    layers.add("io.parse_bytes", static_cast<double>(qasm_.size()));
    layers.add("fusion.plan_ms", planMs);
    layers.add("fusion.blocks", static_cast<double>(plan.blocks.size()));
    layers.add("fusion.gates", gates_);
    layers.add("blocking.schedule_ms", scheduleMs);
    layers.add("blocking.blocked_blocks", blockedBlocks);
    layers.add("state.alloc_ms", allocMs);
    layers.add("fused.exec_ms", execMs);
    layers.add("sample.counts_ms", countsMs);
    return traced;
  }

  void finishTrace(Layers& layers, double jobs, const Environment&) override {
    finishParse(layers, jobs);
    const double blocks = layers.get("fusion.blocks");
    layers.set("fusion.plan_ms", layers.get("fusion.plan_ms") / jobs);
    layers.set("fusion.blocks_per_gate", blocks / layers.get("fusion.gates"));
    layers.set("blocking.schedule_ms", layers.get("blocking.schedule_ms") / jobs);
    layers.set("blocking.blocked_frac",
               layers.get("blocking.blocked_blocks") / blocks);
    layers.set("state.alloc_ms", layers.get("state.alloc_ms") / jobs);
    layers.set("fused.exec_ms", layers.get("fused.exec_ms") / jobs);
    layers.set("sample.counts_ms", layers.get("sample.counts_ms") / jobs);
    const double sweepBytes =
        2.0 * static_cast<double>(std::size_t{1} << kQubits) * sizeof(Complex);
    for (const char* kind : {"fused.dense_k", "fused.diag_k"}) {
      for (int k = 1; k <= qclab::sim::FusionOptions{}.maxQubits; ++k) {
        const std::string key = kind + std::to_string(k);
        if (layers.has(key + ".ms")) {
          layers.set(key + ".gbps", layers.get(key + ".sweeps") * sweepBytes /
                                        (layers.get(key + ".ms") * 1e6));
        }
      }
    }
    if (layers.has("fused.blocked.ms")) {
      layers.set("fused.blocked.gbps",
                 layers.get("fused.blocked.sweeps") * sweepBytes /
                     (layers.get("fused.blocked.ms") * 1e6));
    }
  }

 private:
  bool matchesReference(const Complex* state) const {
    return maxAbsDiff(state, reference_.data(), reference_.size()) <= 1e-9;
  }

  std::uint64_t seed_;
  std::string qasm_;
  double gates_ = 0.0;
  std::vector<Complex> reference_;
};

// ---- qaoa-sweep -----------------------------------------------------------

/// A MaxCut QAOA shape compiled once; every job is one optimizer step of
/// 32 members sharing that shape (rebinding, diagonal sweeps and Pauli
/// expectation dominate).
class QaoaSweep final : public Workload {
 public:
  static constexpr int kVertices = 16;
  static constexpr int kDepth = 2;  // QAOA p
  static constexpr std::size_t kMembers = 32;

  explicit QaoaSweep(std::uint64_t seed) : seed_(seed) {}

  void prepare() override {
    graph_ = randomRegularGraph();
    prototype_ = std::make_unique<QCircuit<double>>(
        qclab::algorithms::qaoaCircuit<double>(
            graph_, std::vector<double>(kDepth, 0.1),
            std::vector<double>(kDepth, 0.1)));
    hamiltonian_ = std::make_unique<qclab::Observable<double>>(
        qclab::algorithms::maxCutHamiltonian<double>(graph_));
    std::vector<qclab::sim::GateRef<double>> gates;
    collectGates(*prototype_, 0, gates);
    gatesPerMember_ = static_cast<double>(gates.size());
    // Cut value of every basis state: the reference energy is computed from
    // probabilities, independent of Observable::expectation.
    cut_.assign(std::size_t{1} << kVertices, 0.0);
    for (std::size_t i = 0; i < cut_.size(); ++i) {
      for (const auto& [a, b] : graph_.edges) {
        cut_[i] += qclab::util::getBit(i, qclab::util::bitPosition(a, kVertices)) !=
                   qclab::util::getBit(i, qclab::util::bitPosition(b, kVertices));
      }
    }
  }

  void setup() override {
    engine_ = std::make_unique<qclab::sim::BatchedSimulation<double>>(*prototype_);
    if (engine_->nbParameters() !=
        kDepth * (graph_.edges.size() + kVertices)) {
      throw std::runtime_error("qaoa-sweep: unexpected parameter layout");
    }
    const JobResult warm = job(kWarmupJob, false);
    if (!warm.ok) throw std::runtime_error("qaoa-sweep warm-up job failed");
  }

  JobResult job(std::uint64_t index, bool corrupt) override {
    const auto sets = angleSets(index);
    JobResult result;
    result.gates = gatesPerMember_ * kMembers;
    std::vector<double> energies(kMembers);
    const auto start = Clock::now();
    const auto members = engine_->run(sets);
    for (std::size_t m = 0; m < kMembers; ++m) {
      energies[m] = hamiltonian_->expectation(members[m].state(0));
    }
    result.ms = msSince(start);

    if (corrupt) energies[0] += 1e-3;
    qclab::random::Rng rng = jobRng(seed_, index, 2);
    std::vector<std::size_t> checks = {rng.uniformInt(kMembers),
                                       rng.uniformInt(kMembers)};
    if (corrupt) checks.push_back(0);
    for (const std::size_t m : checks) {
      result.ok = result.ok && std::abs(energies[m] - referenceEnergy(sets[m])) <= 1e-9;
    }
    return result;
  }

  TracedJob tracedJob(std::uint64_t index, Layers& layers) override {
    if (!replica_) buildReplica(layers);
    const auto sets = angleSets(index);
    std::vector<double> energies(kMembers);
    const auto start = Clock::now();
    auto lap = Clock::now();
    const auto members = engine_->run(sets);
    const double batchMs = msSince(lap);
    lap = Clock::now();
    for (std::size_t m = 0; m < kMembers; ++m) {
      energies[m] = hamiltonian_->expectation(members[m].state(0));
    }
    const double expectMs = msSince(lap);
    TracedJob traced;
    traced.wallMs = msSince(start);
    traced.layerMs = batchMs + expectMs;
    traced.ok = std::abs(energies[0] - referenceEnergy(sets[0])) <= 1e-9;

    // Rebinding is private to the engine; replay it serially on a replica
    // shaped like the engine's own worker (same plan, same prefix cut).
    double rebindMs = 0.0;
    for (const auto& set : sets) {
      lap = Clock::now();
      binding_->bind(set);
      qclab::sim::rebindFusionPlan(plan_, run_, firstRebound_);
      rebindMs += msSince(lap);
    }
    layers.add("batch.run_ms", batchMs);
    layers.add("batch.members", static_cast<double>(kMembers));
    layers.add("batch.rebind_ms", rebindMs);
    layers.add("observable.expect_ms", expectMs);
    layers.add("observable.terms",
               static_cast<double>(kMembers * hamiltonian_->nbTerms()));
    return traced;
  }

  void finishTrace(Layers& layers, double jobs, const Environment&) override {
    layers.set("fusion.blocks_per_gate",
               layers.get("fusion.blocks") / gatesPerMember_);
    layers.set("batch.member_exec_ms",
               layers.get("batch.run_ms") / layers.get("batch.members"));
    layers.set("batch.rebind_ms", layers.get("batch.rebind_ms") / jobs);
    const double expectMs = layers.get("observable.expect_ms");
    layers.set("observable.terms_per_s",
               layers.get("observable.terms") / (expectMs / 1e3));
    layers.set("observable.expect_ms", expectMs / jobs);
  }

 private:
  /// A random 3-regular graph (configuration model, resampled until simple).
  qclab::algorithms::Graph randomRegularGraph() const {
    qclab::random::Rng rng = jobRng(seed_, kWarmupJob, 4);
    for (;;) {
      std::vector<int> stubs;
      for (int v = 0; v < kVertices; ++v) stubs.insert(stubs.end(), 3, v);
      for (std::size_t i = stubs.size() - 1; i > 0; --i) {
        std::swap(stubs[i], stubs[rng.uniformInt(i + 1)]);
      }
      std::set<std::pair<int, int>> edges;
      bool simple = true;
      for (std::size_t i = 0; i < stubs.size() && simple; i += 2) {
        const int a = std::min(stubs[i], stubs[i + 1]);
        const int b = std::max(stubs[i], stubs[i + 1]);
        simple = a != b && edges.insert({a, b}).second;
      }
      if (simple) return {kVertices, {edges.begin(), edges.end()}};
    }
  }

  /// Slot vectors of kMembers seeded (gamma, beta) schedules, in
  /// ParameterBinding order: per layer, one RZZ(-gamma) per edge, then one
  /// RX(2 beta) per vertex.
  std::vector<std::vector<double>> angleSets(std::uint64_t index) const {
    qclab::random::Rng rng = jobRng(seed_, index, 0);
    std::vector<std::vector<double>> sets(kMembers);
    for (auto& set : sets) {
      for (int layer = 0; layer < kDepth; ++layer) {
        const double gamma = rng.uniform(0.0, M_PI);
        const double beta = rng.uniform(0.0, M_PI / 2);
        set.insert(set.end(), graph_.edges.size(), -gamma);
        set.insert(set.end(), kVertices, 2.0 * beta);
      }
    }
    return sets;
  }

  /// Standalone bind + simulate, energy from the outcome probabilities.
  double referenceEnergy(const std::vector<double>& parameters) const {
    QCircuit<double> circuit(*prototype_);
    qclab::ParameterBinding<double>(circuit).bind(parameters);
    const Simulation<double> simulation =
        circuit.simulate(zeroBits(kVertices));
    const auto& state = simulation.state(0);
    double energy = 0.0;
    for (std::size_t i = 0; i < state.size(); ++i) {
      energy += std::norm(state[i]) * cut_[i];
    }
    return energy;
  }

  /// Also times the shape compile's fuseGates call: fusion.plan_ms is a
  /// one-time cost here, part of setup_s.
  void buildReplica(Layers& layers) {
    replica_ = std::make_unique<QCircuit<double>>(*prototype_);
    binding_ = std::make_unique<qclab::ParameterBinding<double>>(*replica_);
    collectGates(*replica_, 0, run_);
    const auto lap = Clock::now();
    plan_ = qclab::sim::fuseGates(run_, kVertices,
                                  qclab::sim::BatchOptions{}.fusionOptions);
    layers.set("fusion.plan_ms", msSince(lap));
    layers.set("fusion.blocks", static_cast<double>(plan_.blocks.size()));
    firstRebound_ =
        engine_->prefixPlanCount() == 0 ? engine_->prefixBlockCount() : 0;
  }

  std::uint64_t seed_;
  qclab::algorithms::Graph graph_{kVertices, {}};
  std::unique_ptr<QCircuit<double>> prototype_;
  std::unique_ptr<qclab::Observable<double>> hamiltonian_;
  std::unique_ptr<qclab::sim::BatchedSimulation<double>> engine_;
  std::vector<double> cut_;
  double gatesPerMember_ = 0.0;
  // Traced-run replica of one engine worker.
  std::unique_ptr<QCircuit<double>> replica_;
  std::unique_ptr<qclab::ParameterBinding<double>> binding_;
  std::vector<qclab::sim::GateRef<double>> run_;
  qclab::sim::FusionPlan<double> plan_;
  std::size_t firstRebound_ = 0;
};

// ---- noisy-traj -----------------------------------------------------------

/// Monte Carlo trajectories of a layered RY/CZ circuit with depolarizing
/// gate noise and readout noise: thousands of short unfused sweeps on an
/// L2-resident state, OpenMP across trajectories.
class NoisyTraj final : public Workload {
 public:
  static constexpr int kQubits = 12;
  static constexpr int kLayers = 6;
  static constexpr std::size_t kTrajectories = 128;
  static constexpr double kGateNoise = 0.01;
  static constexpr double kReadoutNoise = 0.02;
  /// Qubits measured at the end (outcome index = 2 * q0 + q1).
  static constexpr int kMeasured = 2;

  explicit NoisyTraj(std::uint64_t seed) : seed_(seed) {}

  void prepare() override {
    qclab::random::Rng rng = jobRng(seed_, kWarmupJob, 5);
    for (int layer = 0; layer < kLayers; ++layer) {
      for (int q = 0; q < kQubits; ++q) {
        ops_.push_back({q, -1, rng.uniform(-M_PI, M_PI)});
      }
      for (int q = layer % 2; q + 1 < kQubits; q += 2) {
        ops_.push_back({q, q + 1, 0.0});
      }
    }
    circuit_ = build(ops_, kQubits, [](int q) { return q; });
    reference_ = lightConeReference();
  }

  void setup() override {
    qclab::noise::TrajectoryOptions options;
    options.seed = seed_;
    options.nbTrajectories = kTrajectories;
    simulator_ = std::make_unique<qclab::noise::TrajectorySimulator<double>>(
        circuit_, model(), options);
    first_ = simulator_->run(zeroBits(kQubits)).counts();
    if (!statisticallyConsistent(first_)) {
      throw std::runtime_error("noisy-traj warm-up job failed its check");
    }
  }

  JobResult job(std::uint64_t, bool corrupt) override {
    JobResult result;
    result.gates = static_cast<double>(ops_.size() * kTrajectories);
    const auto start = Clock::now();
    const auto outcome = simulator_->run(zeroBits(kQubits));
    std::vector<std::uint64_t> counts = outcome.counts();
    result.ms = msSince(start);

    if (corrupt) counts[0] += kTrajectories / 2;
    // One seed per run: every job must reproduce the first bit for bit,
    // and agree with the density-matrix reference within sampling error.
    result.ok = counts == first_ && statisticallyConsistent(counts);
    return result;
  }

  TracedJob tracedJob(std::uint64_t, Layers& layers) override {
    const std::uint64_t channelsBefore =
        qclab::obs::metrics().noiseChannelApplications();
    const auto start = Clock::now();
    const auto outcome = simulator_->run(zeroBits(kQubits));
    const std::vector<std::uint64_t> counts = outcome.counts();
    TracedJob traced;
    traced.wallMs = msSince(start);
    traced.layerMs = traced.wallMs;
    traced.ok = counts == first_;
    layers.add("trajectory.run_ms", traced.wallMs);
    layers.add("trajectory.count", static_cast<double>(kTrajectories));
    layers.add("noise.channels",
               static_cast<double>(qclab::obs::metrics().noiseChannelApplications() -
                                   channelsBefore));

    // The engine's backend is internal: time the same gates, noise-free,
    // once through the timing backend on a state of the same size.
    std::vector<Complex> state(std::size_t{1} << kQubits);
    state[0] = Complex(1.0);
    std::vector<qclab::sim::GateRef<double>> gates;
    collectGates(circuit_, 0, gates);
    for (const auto& ref : gates) {
      timing_.applyGate(state, kQubits, *ref.gate, ref.offset);
    }
    replays_ += 1.0;
    return traced;
  }

  void finishTrace(Layers& layers, double, const Environment& env) override {
    const double trajectories = layers.get("trajectory.count");
    layers.set("trajectory.per_traj_ms",
               layers.get("trajectory.run_ms") / trajectories);
    const double channels = layers.get("noise.channels") / trajectories;
    layers.set("noise.channels_per_traj", channels);
    // Depolarizing(p) leaves the state alone with probability 1 - 3p/4
    // whatever the state; symmetric readout(p) flips with probability p.
    layers.set("noise.jumps_per_traj",
               (channels - kMeasured) * 0.75 * kGateNoise +
                   kMeasured * kReadoutNoise);
    reportKernels(timing_, layers, replays_, env);
  }

 private:
  struct Op {
    int a = 0;
    int b = -1;  ///< -1: RY(theta) on a; otherwise CZ(a, b)
    double theta = 0.0;
  };

  static qclab::noise::NoiseModel<double> model() {
    qclab::noise::NoiseModel<double> noise;
    noise.gateNoise = qclab::noise::KrausChannel<double>::depolarizing(kGateNoise);
    noise.measurementNoise =
        qclab::noise::KrausChannel<double>::readout(kReadoutNoise);
    return noise;
  }

  template <typename Map>
  static QCircuit<double> build(const std::vector<Op>& ops, int nbQubits,
                                Map&& map) {
    QCircuit<double> circuit(nbQubits);
    for (const Op& op : ops) {
      if (op.b < 0) {
        circuit.push_back(qclab::qgates::RotationY<double>(map(op.a), op.theta));
      } else {
        circuit.push_back(qclab::qgates::CZ<double>(map(op.a), map(op.b)));
      }
    }
    for (int q = 0; q < kMeasured; ++q) {
      circuit.push_back(qclab::Measurement<double>(q));
    }
    return circuit;
  }

  /// simulateDensity on the backward light cone of the measured qubits:
  /// gates outside it (and their noise) cannot change the measured
  /// marginal, and the cone keeps the density matrix small.
  std::vector<double> lightConeReference() const {
    std::set<int> cone;
    for (int q = 0; q < kMeasured; ++q) cone.insert(q);
    std::vector<Op> kept;
    for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
      const bool touches = cone.count(it->a) != 0 ||
                           (it->b >= 0 && cone.count(it->b) != 0);
      if (!touches) continue;
      kept.insert(kept.begin(), *it);
      cone.insert(it->a);
      if (it->b >= 0) cone.insert(it->b);
    }
    const std::vector<int> members(cone.begin(), cone.end());
    const auto local = [&members](int q) {
      return static_cast<int>(
          std::lower_bound(members.begin(), members.end(), q) - members.begin());
    };
    const int width = static_cast<int>(members.size());
    const auto rho = qclab::noise::simulateDensity(
        build(kept, width, local), zeroBits(width),
        model());
    std::vector<int> measured(kMeasured);
    std::iota(measured.begin(), measured.end(), 0);
    return rho.probabilities(measured);
  }

  /// Every outcome frequency within 5 sigma (plus 2/N) of the reference.
  bool statisticallyConsistent(const std::vector<std::uint64_t>& counts) const {
    if (counts.size() != reference_.size()) return false;
    const double n = static_cast<double>(kTrajectories);
    for (std::size_t k = 0; k < counts.size(); ++k) {
      const double p = reference_[k];
      const double sigma = std::sqrt(p * (1.0 - p) / n);
      if (std::abs(static_cast<double>(counts[k]) / n - p) > 5.0 * sigma + 2.0 / n) {
        return false;
      }
    }
    return true;
  }

  std::uint64_t seed_;
  std::vector<Op> ops_;
  QCircuit<double> circuit_{1};
  std::vector<double> reference_;
  std::unique_ptr<qclab::noise::TrajectorySimulator<double>> simulator_;
  std::vector<std::uint64_t> first_;
  TimingBackend timing_;
  double replays_ = 0.0;
};

}  // namespace perfbench
