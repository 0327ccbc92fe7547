/// \file bench_observable.cpp
/// \brief Experiment P8 (extension): cost of Pauli-observable expectation
/// values as a function of register size and term count — the primitive of
/// variational-algorithm prototyping on top of the simulator.
///
/// BM_MaxCutEnergy is the QAOA optimizer-step shape (16 qubits, a 3-regular
/// graph with 24 edges: one diagonal X-mask group); BM_MixedXYZEnergy mixes
/// diagonal, X- and Y-carrying terms, so several X-mask groups (XX and YY
/// bonds share one) each take their own pass.

#include <benchmark/benchmark.h>

#include "obs_main.hpp"

#include "qclab/qclab.hpp"

namespace {

using T = double;
using C = std::complex<T>;

std::vector<C> uniformState(int nbQubits) {
  const std::size_t dim = std::size_t{1} << nbQubits;
  return std::vector<C>(dim, C(1.0 / std::sqrt(static_cast<double>(dim))));
}

void BM_SinglePauliString(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::string paulis(static_cast<std::size_t>(n), 'I');
  paulis[0] = 'X';
  paulis[static_cast<std::size_t>(n / 2)] = 'Z';
  paulis[static_cast<std::size_t>(n - 1)] = 'Y';
  const qclab::PauliString<T> term(paulis, 0.5);
  const auto psi = uniformState(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(term.expectation(psi));
  }
}
BENCHMARK(BM_SinglePauliString)->DenseRange(8, 18, 2);

void BM_IsingEnergy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto hamiltonian = qclab::isingHamiltonian<T>(n, 1.0, 0.5);
  const auto psi = uniformState(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hamiltonian.expectation(psi));
  }
  state.counters["terms"] = static_cast<double>(hamiltonian.nbTerms());
}
BENCHMARK(BM_IsingEnergy)->DenseRange(4, 16, 4);

void BM_IsingVariance(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto hamiltonian = qclab::isingHamiltonian<T>(n, 1.0, 0.5);
  const auto psi = uniformState(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hamiltonian.variance(psi));
  }
}
BENCHMARK(BM_IsingVariance)->DenseRange(4, 16, 4);

void BM_MaxCutEnergy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  // Möbius ladder: a ring plus the n/2 long diagonals, 3-regular.
  qclab::algorithms::Graph graph{n, {}};
  for (int v = 0; v < n; ++v) graph.edges.push_back({v, (v + 1) % n});
  for (int v = 0; v < n / 2; ++v) graph.edges.push_back({v, v + n / 2});
  const auto cost = qclab::algorithms::maxCutHamiltonian<T>(graph);
  const auto psi = uniformState(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cost.expectation(psi));
  }
  state.counters["terms"] = static_cast<double>(cost.nbTerms());
}
BENCHMARK(BM_MaxCutEnergy)->Arg(16);

void BM_MixedXYZEnergy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  // Heisenberg chain XX + YY + ZZ with X fields and Y Z Y three-body terms.
  qclab::Observable<T> hamiltonian(n);
  const auto place = [n](std::initializer_list<std::pair<int, char>> factors) {
    std::string paulis(static_cast<std::size_t>(n), 'I');
    for (const auto& [qubit, pauli] : factors) {
      paulis[static_cast<std::size_t>(qubit)] = pauli;
    }
    return paulis;
  };
  for (int i = 0; i + 1 < n; ++i) {
    for (const char pauli : {'X', 'Y', 'Z'}) {
      hamiltonian.add(place({{i, pauli}, {i + 1, pauli}}), 1.0);
    }
    hamiltonian.add(place({{i, 'X'}}), 0.5);
  }
  for (int i = 0; i + 2 < n; ++i) {
    hamiltonian.add(place({{i, 'Y'}, {i + 1, 'Z'}, {i + 2, 'Y'}}), 0.25);
  }
  const auto psi = uniformState(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hamiltonian.expectation(psi));
  }
  state.counters["terms"] = static_cast<double>(hamiltonian.nbTerms());
}
BENCHMARK(BM_MixedXYZEnergy)->DenseRange(8, 16, 4);

void BM_EntanglementEntropy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const auto circuit = qclab::algorithms::ghz<T>(n);
  const auto psi = circuit.simulate(std::string(n, '0')).state(0);
  std::vector<int> half;
  for (int q = 0; q < n / 2; ++q) half.push_back(q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(qclab::density::entanglementEntropy(psi, half));
  }
}
BENCHMARK(BM_EntanglementEntropy)->DenseRange(4, 10, 2);

}  // namespace

QCLAB_BENCH_MAIN("bench_observable")
