/// \file bench_gate_apply.cpp
/// \brief Experiment P2: per-gate-type application cost of the QCLAB++-style
/// kernel backend as a function of register size.  The expected shape is
/// O(2^n) per gate with diagonal < single-qubit < controlled < general
/// two-qubit constants.

#include <benchmark/benchmark.h>

#include "obs_main.hpp"

#include "qclab/qclab.hpp"

namespace {

using T = double;
using C = std::complex<T>;

std::vector<C> makeState(int nbQubits) {
  std::vector<C> state(std::size_t{1} << nbQubits);
  state[0] = C(1);
  return state;
}

void BM_Hadamard(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto psi = makeState(n);
  const auto u = qclab::qgates::Hadamard<T>(0).matrix();
  for (auto _ : state) {
    qclab::sim::apply1(psi, n, n / 2, u);
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) *
                          sizeof(C));
}
BENCHMARK(BM_Hadamard)->DenseRange(8, 20, 4);

void BM_DiagonalRz(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto psi = makeState(n);
  const auto u = qclab::qgates::RotationZ<T>(0, 0.7).matrix();
  for (auto _ : state) {
    qclab::sim::applyDiagonal1(psi, n, n / 2, u(0, 0), u(1, 1));
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) *
                          sizeof(C));
}
BENCHMARK(BM_DiagonalRz)->DenseRange(8, 20, 4);

void BM_Cnot(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto psi = makeState(n);
  for (auto _ : state) {
    qclab::sim::applyControlled1(psi, n, {0}, {1}, n - 1,
                                 qclab::dense::pauliX<T>());
    benchmark::DoNotOptimize(psi.data());
  }
}
BENCHMARK(BM_Cnot)->DenseRange(8, 20, 4);

void BM_Toffoli(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto psi = makeState(n);
  for (auto _ : state) {
    qclab::sim::applyControlled1(psi, n, {0, 1}, {1, 1}, n - 1,
                                 qclab::dense::pauliX<T>());
    benchmark::DoNotOptimize(psi.data());
  }
}
BENCHMARK(BM_Toffoli)->DenseRange(8, 20, 4);

void BM_Swap(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto psi = makeState(n);
  for (auto _ : state) {
    qclab::sim::applySwap(psi, n, 0, n - 1);
    benchmark::DoNotOptimize(psi.data());
  }
}
BENCHMARK(BM_Swap)->DenseRange(8, 20, 4);

void BM_GeneralTwoQubit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto psi = makeState(n);
  const auto u = qclab::qgates::RotationXX<T>(0, 1, 0.9).matrix();
  for (auto _ : state) {
    qclab::sim::applyK(psi, n, {0, n - 1}, u);
    benchmark::DoNotOptimize(psi.data());
  }
}
BENCHMARK(BM_GeneralTwoQubit)->DenseRange(8, 20, 4);

// ---- SIMD tier: scalar vs vectorized, long vs short runs --------------
//
// Arg 0 is the register size, arg 1 the dispatch level (0 = scalar,
// 1 = highest detected).  Low qubit INDEX = high bit position = long
// unit-stride runs (the SIMD-friendly case); qubit n-1 has stride-1
// runs where the vector kernels cannot engage.

qclab::sim::SimdLevel benchLevel(const benchmark::State& state) {
  return state.range(1) ? qclab::sim::detectedSimdLevel()
                        : qclab::sim::SimdLevel::kScalar;
}

void BM_Apply1LongRuns(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto previous = qclab::sim::setSimdLevel(benchLevel(state));
  auto psi = makeState(n);
  const auto u = qclab::qgates::Hadamard<T>(0).matrix();
  for (auto _ : state) {
    qclab::sim::apply1(psi, n, 0, u);
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) * sizeof(C));
  state.SetLabel(qclab::sim::simdLevelName(qclab::sim::activeSimdLevel()));
  qclab::sim::setSimdLevel(previous);
}
BENCHMARK(BM_Apply1LongRuns)
    ->ArgsProduct({{8, 12, 16, 20}, {0, 1}});

void BM_Apply1ShortRuns(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto previous = qclab::sim::setSimdLevel(benchLevel(state));
  auto psi = makeState(n);
  const auto u = qclab::qgates::Hadamard<T>(0).matrix();
  for (auto _ : state) {
    qclab::sim::apply1(psi, n, n - 1, u);
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) * sizeof(C));
  state.SetLabel(qclab::sim::simdLevelName(qclab::sim::activeSimdLevel()));
  qclab::sim::setSimdLevel(previous);
}
BENCHMARK(BM_Apply1ShortRuns)
    ->ArgsProduct({{8, 12, 16, 20}, {0, 1}});

void BM_DiagonalLongRuns(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto previous = qclab::sim::setSimdLevel(benchLevel(state));
  auto psi = makeState(n);
  const auto u = qclab::qgates::RotationZ<T>(0, 0.7).matrix();
  for (auto _ : state) {
    qclab::sim::applyDiagonal1(psi, n, 0, u(0, 0), u(1, 1));
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) * sizeof(C));
  state.SetLabel(qclab::sim::simdLevelName(qclab::sim::activeSimdLevel()));
  qclab::sim::setSimdLevel(previous);
}
BENCHMARK(BM_DiagonalLongRuns)
    ->ArgsProduct({{8, 12, 16, 20}, {0, 1}});

// The fused-2 hot path: a dense 4x4 block (what a fused pair of gates
// becomes) applied through apply2's quad-run kernel, per level, and
// through applyK, which routes k = 2 to the same kernel.
void BM_Fused2Apply2(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto previous = qclab::sim::setSimdLevel(benchLevel(state));
  auto psi = makeState(n);
  const auto u = qclab::qgates::RotationXX<T>(0, 1, 0.9).matrix();
  for (auto _ : state) {
    qclab::sim::apply2(psi, n, 0, 1, u);
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) * sizeof(C));
  state.SetLabel(qclab::sim::simdLevelName(qclab::sim::activeSimdLevel()));
  qclab::sim::setSimdLevel(previous);
}
BENCHMARK(BM_Fused2Apply2)
    ->ArgsProduct({{8, 12, 16, 20}, {0, 1}});

void BM_Fused2ApplyK(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto psi = makeState(n);
  const auto u = qclab::qgates::RotationXX<T>(0, 1, 0.9).matrix();
  for (auto _ : state) {
    qclab::sim::applyK(psi, n, {0, 1}, u);
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) * sizeof(C));
}
BENCHMARK(BM_Fused2ApplyK)->DenseRange(8, 20, 4);

// Dense k-qubit gates (fused blocks of width k) by gate width and target
// position, Qulacs-style.  Arg 0 is k, arg 1 the lowest gate bit position
// (0 = bit 0, where the AVX2 tier folds gate bits into the lanes; 1 = the
// middle of the register; 2 = the top k bits, one group spanning the
// whole state), arg 2 the dispatch level as above.  The gate bits are
// contiguous from that lowest position, on n = 20.
void BM_DenseK(benchmark::State& state) {
  const int n = 20;
  const int k = static_cast<int>(state.range(0));
  const int lowest = state.range(1) == 0   ? 0
                     : state.range(1) == 1 ? (n - k) / 2
                                           : n - k;
  const auto previous = qclab::sim::setSimdLevel(
      state.range(2) ? qclab::sim::detectedSimdLevel()
                     : qclab::sim::SimdLevel::kScalar);
  auto psi = makeState(n);
  std::vector<int> qubits;
  for (int i = k - 1; i >= 0; --i) {
    qubits.push_back(qclab::util::bitPosition(lowest + i, n));
  }
  const auto u =
      qclab::algorithms::qft<T>(k).matrix();  // dense, every entry nonzero
  for (auto _ : state) {
    qclab::sim::applyK(psi, n, qubits, u);
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(psi.size()) * sizeof(C));
  state.SetLabel(std::string(qclab::sim::simdLevelName(
                     qclab::sim::activeSimdLevel())) +
                 " lowest bit " + std::to_string(lowest));
  qclab::sim::setSimdLevel(previous);
}
BENCHMARK(BM_DenseK)->ArgsProduct({{3, 4, 5}, {0, 1, 2}, {0, 1}});

void BM_MeasureProbability(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  auto psi = makeState(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qclab::sim::measureProbability0(psi, n, n / 2));
  }
}
BENCHMARK(BM_MeasureProbability)->DenseRange(8, 20, 4);

}  // namespace

QCLAB_BENCH_MAIN("bench_gate_apply")
