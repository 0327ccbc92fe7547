#pragma once

// Shared plumbing of the end-to-end benchmark: clocks, statistics, the
// run environment, the per-layer tally and the kernel-timing backend.

#include <qclab/qclab.hpp>

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <compare>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#ifdef QCLAB_HAS_OPENMP
#include <omp.h>
#endif

extern char** environ;

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Complex = std::complex<double>;

inline double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The highest nearest-rank percentile with at least ten samples above it.
/// Left unreported below 100 samples, where it would be a max in disguise.
struct Tail {
  bool reported = false;
  double percentile = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;
};

inline Tail tailLatency(std::vector<double> values) {
  Tail tail;
  const std::size_t n = values.size();
  if (n < 100) return tail;
  std::sort(values.begin(), values.end());
  for (double p : {99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n - rank >= 10) {
      tail = {true, p, values[rank - 1], n - rank};
      return tail;
    }
  }
  return tail;
}

/// Resets the process's resident-memory high-water mark (VmHWM) to its
/// current resident size, so a later peakRssMiB() covers only what ran
/// since.  False where the kernel refuses it.
inline bool resetPeakRss() {
  std::ofstream clearRefs("/proc/self/clear_refs");
  clearRefs << "5";
  clearRefs.flush();
  return static_cast<bool>(clearRefs);
}

/// Peak resident memory: VmHWM, or getrusage's whole-process peak where
/// /proc is unavailable.
inline double peakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      if (status >> kib) return kib / 1024.0;
      break;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- environment ----------------------------------------------------------

/// Size in bytes of the data/unified cache of `level` on cpu0 (sysfs), or 0.
inline std::size_t cacheBytes(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream levelFile(dir + "/level");
    std::ifstream typeFile(dir + "/type");
    std::ifstream sizeFile(dir + "/size");
    int found = 0;
    std::string type, size;
    if (!(levelFile >> found) || !(typeFile >> type) || !(sizeFile >> size)) {
      continue;
    }
    if (found != level || type == "Instruction") continue;
    std::size_t bytes = std::strtoull(size.c_str(), nullptr, 10);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    return bytes;
  }
  return 0;
}

struct Environment {
  long nproc = 0;
  int threads = 0;
  std::size_t l2Bytes = 0;  ///< per core
  std::size_t l3Bytes = 0;  ///< last-level cache
  std::string simd;
  std::string build;
  bool obs = false;
};

inline Environment probeEnvironment() {
  Environment env;
  env.nproc = sysconf(_SC_NPROCESSORS_ONLN);
#ifdef QCLAB_HAS_OPENMP
  env.threads = omp_get_max_threads();
#else
  env.threads = 1;
#endif
  env.l2Bytes = cacheBytes(2);
  env.l3Bytes = cacheBytes(3);
  env.simd = qclab::sim::simdLevelName(qclab::sim::activeSimdLevel());
  env.build = PERFBENCH_BUILD_TYPE;
  env.obs = qclab::obs::kEnabled;
  return env;
}

/// QCLAB_* variables silently change the route being measured (dispatch,
/// state tier, SIMD level, block size, obs knobs), so runs refuse them.
inline std::vector<std::string> qclabOverrides() {
  std::vector<std::string> found;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string variable(*entry);
    if (variable.rfind("QCLAB_", 0) == 0) {
      found.push_back(variable.substr(0, variable.find('=')));
    }
  }
  return found;
}

// ---- per-layer tally ------------------------------------------------------

/// Accumulated per-layer quantities of a traced run, keyed by metric name,
/// plus an optional note printed next to a metric.
class Layers {
 public:
  void add(const std::string& name, double value) { values_[name] += value; }
  void set(const std::string& name, double value) { values_[name] = value; }
  double get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  bool has(const std::string& name) const { return values_.count(name) != 0; }
  void note(const std::string& name, std::string text) {
    notes_[name] = std::move(text);
  }
  std::string noteOf(const std::string& name) const {
    const auto it = notes_.find(name);
    return it == notes_.end() ? "" : it->second;
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> notes_;
};

/// The STREAM ceiling a kernel call is held to: the cache level its state
/// occupies and whether the call ran on one thread or on the pool.  A
/// parallel sweep splits the state across the pool's L2 caches.
inline std::string ceilingOf(double stateBytes, bool parallel,
                             const Environment& env) {
  const double l2 = static_cast<double>(env.l2Bytes) *
                    (parallel ? static_cast<double>(env.threads) : 1.0);
  const char* level = stateBytes <= l2 ? "l2"
                      : stateBytes <= static_cast<double>(env.l3Bytes) ? "l3"
                                                                       : "dram";
  return std::string("stream.") + level + (parallel ? "_gbps" : "_1t_gbps");
}

// ---- kernel timing --------------------------------------------------------

/// Whether the default backend runs this call of `gate` on the OpenMP pool.
/// Mirrors the `if` clauses of sim/kernels.hpp: a kernel goes parallel when
/// its independent work items (amplitudes for diagonal paths, groups of
/// 2^k amplitudes for a k-qubit dense or permuting path, the active
/// subspace for controlled paths) reach kOmpThreshold.
inline bool runsParallel(qclab::sim::KernelPath path,
                         const qclab::qgates::QGate<double>& gate,
                         int nbQubits) {
  using qclab::sim::KernelPath;
  int itemsLog2 = nbQubits;
  switch (path) {
    case KernelPath::kDiagonal1:
    case KernelPath::kDiagonalK:
      break;
    case KernelPath::kDense1:
      itemsLog2 -= 1;
      break;
    case KernelPath::kSwap:
      itemsLog2 -= 2;
      break;
    case KernelPath::kControlled1:
    case KernelPath::kControlledDiagonal1:
      itemsLog2 -= static_cast<int>(gate.controls().size()) + 1;
      break;
    default:
      itemsLog2 -= static_cast<int>(gate.qubits().size());
      break;
  }
#ifdef QCLAB_HAS_OPENMP
  const bool pool = omp_get_max_threads() > 1;
#else
  const bool pool = false;
#endif
  return pool && itemsLog2 >= 0 &&
         (std::int64_t{1} << itemsLog2) >= qclab::sim::kOmpThreshold;
}

/// Times every Backend::applyGate call from outside the library, keyed by
/// the kernel path the default backend dispatches the gate to, whether the
/// call ran on the pool, and the state size.  Bytes are computed from the
/// state size: one read and one write of every amplitude the path touches
/// (half of them for SWAP, the 2^-c active subspace for c controls).
/// Single-threaded use: the library calls it from the thread that called
/// simulate.
class TimingBackend final : public qclab::sim::Backend<double> {
 public:
  struct Key {
    qclab::sim::KernelPath path;
    bool parallel;
    std::size_t stateBytes;
    auto operator<=>(const Key&) const = default;
  };
  struct Stat {
    double ms = 0.0;
    double calls = 0.0;
    double bytes = 0.0;
  };

  void applyGate(qclab::sim::StateSpan<double> state, int nbQubits,
                 const qclab::qgates::QGate<double>& gate,
                 int offset = 0) const override {
    const qclab::sim::KernelPath path = qclab::sim::classifyKernelPath(gate);
    const bool parallel = runsParallel(path, gate, nbQubits);
    const auto start = Clock::now();
    inner_.applyGate(state, nbQubits, gate, offset);
    const double ms = msSince(start);
    const std::size_t stateBytes = state.size() * sizeof(Complex);
    double touched = 1.0;
    if (path == qclab::sim::KernelPath::kSwap) touched = 0.5;
    touched /= static_cast<double>(std::uint64_t{1} << gate.controls().size());
    Stat& stat = stats_[Key{path, parallel, stateBytes}];
    stat.ms += ms;
    stat.calls += 1.0;
    stat.bytes += 2.0 * static_cast<double>(stateBytes) * touched;
    totalMs_ += ms;
  }

  const char* name() const noexcept override { return "perfbench-timing"; }

  double totalMs() const noexcept { return totalMs_; }
  const std::map<Key, Stat>& stats() const noexcept { return stats_; }

 private:
  qclab::sim::KernelBackend<double> inner_;
  mutable std::map<Key, Stat> stats_;
  mutable double totalMs_ = 0.0;
};

/// The unfused kernel paths classifyKernelPath can return.
inline constexpr qclab::sim::KernelPath kUnfusedPaths[] = {
    qclab::sim::KernelPath::kSwap,
    qclab::sim::KernelPath::kControlled1,
    qclab::sim::KernelPath::kDiagonal1,
    qclab::sim::KernelPath::kDense1,
    qclab::sim::KernelPath::kDiagonalK,
    qclab::sim::KernelPath::kDenseK,
    qclab::sim::KernelPath::kControlledDiagonal1,
};

// ---- shared job helpers ---------------------------------------------------

/// Deterministic per-(seed, job, stream) generator: the same seed always
/// yields the same inputs, independent of how many jobs a run reaches.
inline qclab::random::Rng jobRng(std::uint64_t seed, std::uint64_t job,
                                 std::uint64_t stream) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull ^ (job + 1) * 0xBF58476D1CE4E5B9ull ^
                    (stream + 1) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return qclab::random::Rng(x);
}

/// Samples `shots` terminal outcomes of qubits [0, readout) (0 = the full
/// register): branches are chosen by their probability, outcomes from each
/// branch's amplitudes.  Returns the number of shots drawn.
inline std::uint64_t sampleTerminal(const qclab::Simulation<double>& simulation,
                                    std::uint64_t shots,
                                    qclab::random::Rng& rng, int readout = 0) {
  std::vector<int> qubits(static_cast<std::size_t>(
      readout > 0 ? readout : simulation.nbQubits()));
  std::iota(qubits.begin(), qubits.end(), 0);
  std::vector<double> weights;
  for (const auto& branch : simulation.branches()) {
    weights.push_back(branch.probability);
  }
  const std::vector<std::uint64_t> perBranch = rng.multinomial(shots, weights);
  std::uint64_t drawn = 0;
  for (std::size_t b = 0; b < perBranch.size(); ++b) {
    if (perBranch[b] == 0) continue;
    for (std::uint64_t count : qclab::sampleStateCounts(
             simulation.branches()[b].state, qubits, perBranch[b], rng)) {
      drawn += count;
    }
  }
  return drawn;
}

/// Collects the unitary gates of `circuit` in execution order with their
/// accumulated offsets (the walk the fused simulate path does).
inline void collectGates(const qclab::QCircuit<double>& circuit, int offset,
                         std::vector<qclab::sim::GateRef<double>>& gates) {
  const int total = offset + circuit.offset();
  for (const auto& object : circuit) {
    if (object->objectType() == qclab::ObjectType::kGate) {
      gates.push_back(
          {static_cast<const qclab::qgates::QGate<double>*>(object.get()),
           total});
    } else if (object->objectType() == qclab::ObjectType::kCircuit) {
      collectGates(static_cast<const qclab::QCircuit<double>&>(*object),
                   total, gates);
    }
  }
}

}  // namespace perfbench
