/// \file test_batch.cpp
/// \brief Tests of the batched multi-circuit execution engine:
/// differential fuzz against standalone simulate (bit-identical members
/// across scalar types, fusion/blocking modes, and thread counts),
/// shared-plan re-entrancy from many threads (TSan-covered), the
/// parameter-free prefix cache, rebinding between runs, and input
/// validation.

#include <gtest/gtest.h>

#include <atomic>
#include <complex>
#include <cstring>
#include <vector>

#include "test_helpers.hpp"

namespace qclab {
namespace {

using namespace qclab::qgates;

template <typename StateA, typename StateB>
bool bitIdentical(const StateA& a, const StateB& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

/// Standalone reference run: bind `values` on a private clone and
/// simulate with the options the batch engine uses internally.
template <typename T>
std::vector<std::complex<T>> standalone(const QCircuit<T>& prototype,
                                        const std::vector<T>& values,
                                        const sim::BatchOptions& options) {
  QCircuit<T> instance(prototype);
  ParameterBinding<T> binding(instance);
  binding.bind(values);
  SimulateOptions simulate;
  simulate.fusion = options.fusion;
  simulate.fusionOptions = options.fusionOptions;
  std::string bits = options.initialBits;
  if (bits.empty()) {
    bits.assign(static_cast<std::size_t>(prototype.nbQubits()), '0');
  }
  auto simulation = instance.simulate(bits, simulate);
  return simulation.branches().front().state.toVector();
}

/// Runs `members` random parameter vectors through one engine and checks
/// every member against its standalone run, bit for bit.
template <typename T>
void fuzzOnce(random::Rng& rng, const sim::BatchOptions& options) {
  const int n = 3 + static_cast<int>(rng.uniformInt(4));  // 3..6 qubits
  QCircuit<T> circuit(n);
  test::addRandomGates(circuit, 20 + static_cast<int>(rng.uniformInt(20)),
                       rng);

  sim::BatchedSimulation<T> engine(circuit, options);
  const std::size_t members = 4 + rng.uniformInt(5);
  std::vector<std::vector<T>> parameterSets(members);
  for (auto& values : parameterSets) {
    values.resize(engine.nbParameters());
    for (auto& value : values) {
      value = static_cast<T>(rng.uniform(-3.0, 3.0));
    }
  }

  auto results = engine.run(parameterSets);
  ASSERT_EQ(results.size(), members);
  for (std::size_t m = 0; m < members; ++m) {
    const auto reference = standalone(circuit, parameterSets[m], options);
    EXPECT_TRUE(bitIdentical(results[m].branches().front().state, reference))
        << "member " << m << " diverges from its standalone simulate";
  }
}

TEST(BatchDifferential, FuzzFusionBlockingDouble) {
  random::Rng rng(0xbadc0de);
  for (int trial = 0; trial < 6; ++trial) {
    sim::BatchOptions options;
    options.fusion = true;
    options.fusionOptions.blocking = trial % 2 == 0;
    fuzzOnce<double>(rng, options);
  }
}

TEST(BatchDifferential, FuzzFusionOffDouble) {
  random::Rng rng(1234);
  for (int trial = 0; trial < 4; ++trial) {
    sim::BatchOptions options;
    options.fusion = false;
    fuzzOnce<double>(rng, options);
  }
}

TEST(BatchDifferential, FuzzFloat) {
  random::Rng rng(5678);
  for (int trial = 0; trial < 4; ++trial) {
    sim::BatchOptions options;
    options.fusion = trial % 2 == 0;
    fuzzOnce<float>(rng, options);
  }
}

TEST(BatchDifferential, ThreadCountDoesNotChangeBits) {
  random::Rng rng(42);
  const int n = 6;
  QCircuit<double> circuit(n);
  test::addRandomGates(circuit, 40, rng);

  std::vector<std::vector<double>> parameterSets(16);
  {
    sim::BatchedSimulation<double> probe(circuit);
    for (auto& values : parameterSets) {
      values.resize(probe.nbParameters());
      for (auto& value : values) value = rng.uniform(-3.0, 3.0);
    }
  }

  sim::BatchOptions serial;
  serial.nbThreads = 1;
  sim::BatchOptions wide;
  wide.nbThreads = 4;
  auto a = sim::BatchedSimulation<double>(circuit, serial).run(parameterSets);
  auto b = sim::BatchedSimulation<double>(circuit, wide).run(parameterSets);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    EXPECT_TRUE(bitIdentical(a[m].branches().front().state,
                             b[m].branches().front().state))
        << "member " << m << " depends on the thread count";
  }
}

// ---- re-entrancy (TSan-covered: suite name matches the Batch filter) ---

TEST(BatchReentrancy, EightThreadsShareOneShapePlan) {
  // One engine, eight worker threads, every thread rebinding + applying
  // clones of the same master plan.  Under TSan this validates that no
  // mutable state is shared across members.
  random::Rng rng(99);
  const int n = 7;
  QCircuit<double> circuit(n);
  test::addRandomGates(circuit, 30, rng);

  sim::BatchOptions options;
  options.nbThreads = 8;
  sim::BatchedSimulation<double> engine(circuit, options);

  std::vector<std::vector<double>> parameterSets(32);
  for (auto& values : parameterSets) {
    values.resize(engine.nbParameters());
    for (auto& value : values) value = rng.uniform(-3.0, 3.0);
  }

  std::atomic<std::size_t> delivered{0};
  engine.forEach(parameterSets, [&](std::size_t, Simulation<double>&& sim) {
    ASSERT_EQ(sim.branches().size(), 1u);
    delivered.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(delivered.load(), parameterSets.size());

  // And the parallel results still match the standalone reference.
  auto results = engine.run(parameterSets);
  const auto reference = standalone(circuit, parameterSets[17], options);
  EXPECT_TRUE(bitIdentical(results[17].branches().front().state, reference));
}

TEST(BatchReentrancy, WorkerClonesFinishBeforeTheMasterRebinds) {
  // Worker threads copy the master's fusion plans while thread 0 rebinds
  // them in place; a copy taken mid-rebind would lose a block's recipe
  // and throw inside the OpenMP region (process abort).  Repeated
  // 4-thread runs of a many-block plan keep reopening that window; under
  // TSan any overlap of the copy and the rebind is a reported race.
  random::Rng rng(2024);
  const int n = 8;
  QCircuit<double> circuit(n);
  test::addRandomGates(circuit, 160, rng);

  sim::BatchOptions options;
  options.nbThreads = 4;
  sim::BatchOptions serial = options;
  serial.nbThreads = 1;
  std::vector<std::vector<double>> parameterSets(4);
  {
    sim::BatchedSimulation<double> probe(circuit);
    for (auto& values : parameterSets) {
      values.resize(probe.nbParameters());
      for (auto& value : values) value = rng.uniform(-3.0, 3.0);
    }
  }
  const auto reference =
      sim::BatchedSimulation<double>(circuit, serial).run(parameterSets);
  for (int round = 0; round < 40; ++round) {
    const auto results = circuit.simulateBatch(parameterSets, options);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t m = 0; m < results.size(); ++m) {
      EXPECT_TRUE(bitIdentical(results[m].branches().front().state,
                               reference[m].branches().front().state))
          << "round " << round << ", member " << m;
    }
  }
}

// ---- prefix cache ------------------------------------------------------

TEST(BatchPrefix, LeadingParameterFreeLayerIsCached) {
  // H layer then a parametrized layer: the H blocks are member-invariant
  // and must be absorbed into the cached prefix without changing bits.
  const int n = 4;
  QCircuit<double> circuit(n);
  for (int q = 0; q < n; ++q) circuit.push_back(Hadamard<double>(q));
  for (int q = 0; q < n; ++q) {
    circuit.push_back(RotationZ<double>(q, 0.1 * (q + 1)));
  }

  sim::BatchOptions options;
  sim::BatchedSimulation<double> engine(circuit, options);
  EXPECT_GT(engine.prefixPlanCount() + engine.prefixBlockCount(), 0u);

  std::vector<std::vector<double>> parameterSets = {
      {0.3, -0.4, 0.5, 2.0}, {1.0, 1.0, 1.0, 1.0}};
  auto results = engine.run(parameterSets);
  for (std::size_t m = 0; m < parameterSets.size(); ++m) {
    EXPECT_TRUE(bitIdentical(results[m].branches().front().state,
                             standalone(circuit, parameterSets[m], options)));
  }
}

TEST(BatchPrefix, FullyParameterFreeCircuitRunsFromCacheAlone) {
  QCircuit<double> circuit(3);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(CX<double>(0, 1));
  circuit.push_back(CX<double>(1, 2));

  sim::BatchOptions options;
  sim::BatchedSimulation<double> engine(circuit, options);
  EXPECT_EQ(engine.nbParameters(), 0u);

  std::vector<std::vector<double>> parameterSets(3);
  auto results = engine.run(parameterSets);
  const auto reference = standalone(circuit, {}, options);
  for (const auto& result : results) {
    EXPECT_TRUE(bitIdentical(result.branches().front().state, reference));
  }
}

// ---- engine surface ----------------------------------------------------

TEST(BatchEngine, RebindBetweenRunsChangesResults) {
  // Engine-level stale-theta regression: the second run must see the new
  // parameters, not the matrices bound during the first.
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(RotationZZ<double>(0, 1, 0.0));

  sim::BatchedSimulation<double> engine(circuit);
  auto first = engine.run({{0.3}});
  auto second = engine.run({{-2.1}});
  EXPECT_FALSE(bitIdentical(first[0].branches().front().state,
                            second[0].branches().front().state));
  EXPECT_TRUE(bitIdentical(second[0].branches().front().state,
                           standalone(circuit, {-2.1}, sim::BatchOptions{})));
}

TEST(BatchEngine, ParametersOfRoundTrips) {
  QCircuit<double> circuit(2);
  circuit.push_back(RotationX<double>(0, 0.25));
  circuit.push_back(CPhase<double>(0, 1, -0.5));
  const auto values =
      sim::BatchedSimulation<double>::parametersOf(circuit);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_NEAR(values[0], 0.25, test::tol<double>());
  EXPECT_NEAR(values[1], -0.5, test::tol<double>());
}

TEST(BatchEngine, SimulateBatchEntryPoint) {
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(RotationZZ<double>(0, 1, 0.0));

  auto results = circuit.simulateBatch({{0.7}, {1.4}});
  ASSERT_EQ(results.size(), 2u);
  for (std::size_t m = 0; m < 2; ++m) {
    const auto reference =
        standalone(circuit, {0.7 + 0.7 * m}, sim::BatchOptions{});
    EXPECT_TRUE(bitIdentical(results[m].branches().front().state, reference));
  }
}

TEST(BatchEngine, RejectsMeasurementsAndWrongArity) {
  QCircuit<double> circuit(2);
  circuit.push_back(Hadamard<double>(0));
  circuit.push_back(Measurement<double>(0));
  EXPECT_THROW(sim::BatchedSimulation<double>{circuit},
               InvalidArgumentError);

  QCircuit<double> unitary(1);
  unitary.push_back(RotationX<double>(0, 0.0));
  sim::BatchedSimulation<double> engine(unitary);
  EXPECT_THROW(engine.run({{0.1, 0.2}}), InvalidArgumentError);
}

}  // namespace
}  // namespace qclab
