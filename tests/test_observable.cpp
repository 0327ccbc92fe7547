/// \file test_observable.cpp
/// \brief Unit tests for Pauli-string observables and expectation values.

#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>

#include "test_helpers.hpp"

namespace qclab {
namespace {

using C = std::complex<double>;
using M = dense::Matrix<double>;

TEST(PauliString, ConstructionAndValidation) {
  const PauliString<double> p("XIZY", 1.5);
  EXPECT_EQ(p.nbQubits(), 4);
  EXPECT_EQ(p.paulis(), "XIZY");
  EXPECT_EQ(p.coefficient(), 1.5);
  EXPECT_EQ(p.weight(), 3);
  // Lowercase accepted and normalized.
  EXPECT_EQ(PauliString<double>("xz").paulis(), "XZ");
  EXPECT_THROW(PauliString<double>(""), InvalidArgumentError);
  EXPECT_THROW(PauliString<double>("XA"), InvalidArgumentError);
}

TEST(PauliString, MatrixMatchesKron) {
  const PauliString<double> p("XZ", 2.0);
  const auto expected =
      dense::kron(dense::pauliX<double>(), dense::pauliZ<double>()) * C(2.0);
  qclab::test::expectMatrixNear(p.matrix(), expected);
}

TEST(PauliString, ApplyMatchesMatrix) {
  random::Rng rng(1);
  for (const std::string paulis : {"X", "Y", "Z", "IXYZ", "YYXZ", "IIII"}) {
    const PauliString<double> p(paulis, 0.7);
    const int n = p.nbQubits();
    const auto state = qclab::test::randomState<double>(n, rng);
    const auto viaKernels = p.apply(state);
    const auto viaMatrix = p.matrix().apply(state);
    qclab::test::expectStateNear(viaKernels, viaMatrix, 1e-12);
  }
}

TEST(PauliString, ExpectationOfEigenstates) {
  // <0|Z|0> = 1, <1|Z|1> = -1, <+|X|+> = 1, <0|X|0> = 0.
  EXPECT_NEAR(PauliString<double>("Z").expectation(basisState<double>("0")),
              1.0, 1e-14);
  EXPECT_NEAR(PauliString<double>("Z").expectation(basisState<double>("1")),
              -1.0, 1e-14);
  const double h = 1.0 / std::sqrt(2.0);
  const std::vector<C> plus = {C(h), C(h)};
  EXPECT_NEAR(PauliString<double>("X").expectation(plus), 1.0, 1e-14);
  EXPECT_NEAR(PauliString<double>("X").expectation(basisState<double>("0")),
              0.0, 1e-14);
}

TEST(PauliString, BellCorrelations) {
  // For the Bell state: <XX> = <ZZ> = 1, <YY> = -1, single-qubit <Z> = 0.
  const double h = 1.0 / std::sqrt(2.0);
  const std::vector<C> bell = {C(h), C(0), C(0), C(h)};
  EXPECT_NEAR(PauliString<double>("XX").expectation(bell), 1.0, 1e-14);
  EXPECT_NEAR(PauliString<double>("ZZ").expectation(bell), 1.0, 1e-14);
  EXPECT_NEAR(PauliString<double>("YY").expectation(bell), -1.0, 1e-14);
  EXPECT_NEAR(PauliString<double>("ZI").expectation(bell), 0.0, 1e-14);
}

TEST(Observable, AddMergesDuplicateStrings) {
  Observable<double> obs(2);
  obs.add("ZZ", 1.0);
  obs.add("XI", 0.5);
  obs.add("ZZ", 2.0);
  EXPECT_EQ(obs.nbTerms(), 2u);
  EXPECT_NEAR(obs.terms()[0].coefficient(), 3.0, 1e-15);
}

TEST(Observable, Validation) {
  Observable<double> obs(2);
  EXPECT_THROW(obs.add("ZZZ", 1.0), InvalidArgumentError);
  EXPECT_THROW(Observable<double>(0), InvalidArgumentError);
}

TEST(Observable, ExpectationMatchesMatrix) {
  random::Rng rng(2);
  auto hamiltonian = isingHamiltonian<double>(3, 1.0, 0.5);
  const auto state = qclab::test::randomState<double>(3, rng);
  const auto matrix = hamiltonian.matrix();
  const auto hPsi = matrix.apply(state);
  const double viaMatrix = std::real(dense::inner(state, hPsi));
  EXPECT_NEAR(hamiltonian.expectation(state), viaMatrix, 1e-11);
}

TEST(Observable, MatrixIsHermitian) {
  const auto hamiltonian = isingHamiltonian<double>(4, 1.3, 0.7, true);
  EXPECT_TRUE(hamiltonian.matrix().isHermitian(1e-13));
}

TEST(Observable, VarianceOfEigenstateIsZero) {
  // |00> is an eigenstate of -J Z0 Z1 (no field).
  const auto hamiltonian = isingHamiltonian<double>(2, 1.0, 0.0);
  const auto state = basisState<double>("00");
  EXPECT_NEAR(hamiltonian.variance(state), 0.0, 1e-12);
  EXPECT_NEAR(hamiltonian.expectation(state), -1.0, 1e-13);
}

TEST(Observable, VarianceNonNegativeAndMatchesMoments) {
  random::Rng rng(3);
  const auto hamiltonian = isingHamiltonian<double>(3, 0.8, 0.6);
  for (int trial = 0; trial < 5; ++trial) {
    const auto state = qclab::test::randomState<double>(3, rng);
    const double variance = hamiltonian.variance(state);
    EXPECT_GE(variance, -1e-10);
    // Reference via dense matrices.
    const auto h = hamiltonian.matrix();
    const auto hPsi = h.apply(state);
    const double mean = std::real(dense::inner(state, hPsi));
    const double second = dense::normSquared(hPsi);
    EXPECT_NEAR(variance, second - mean * mean, 1e-10);
  }
}

TEST(Observable, IsingStructure) {
  // Open chain of 4: 3 bonds + 4 fields.
  EXPECT_EQ(isingHamiltonian<double>(4, 1.0, 1.0).nbTerms(), 7u);
  // Periodic chain of 4: 4 bonds + 4 fields.
  EXPECT_EQ(isingHamiltonian<double>(4, 1.0, 1.0, true).nbTerms(), 8u);
  // Zero-field terms still present as explicit 0-coefficient terms.
  const auto h = isingHamiltonian<double>(3, 1.0, 0.0);
  EXPECT_EQ(h.nbTerms(), 5u);
}

TEST(Observable, GroundStateEnergyOfTwoSiteIsing) {
  // H = -J Z0 Z1 - h (X0 + X1) for J = h = 1: ground energy of the 4x4
  // matrix; compare eigh result with the known value -sqrt(1 + ...).
  const auto hamiltonian = isingHamiltonian<double>(2, 1.0, 1.0);
  const auto eig = dense::eigh(hamiltonian.matrix());
  // Exact ground energy for two-site TFIM with J=h=1: -sqrt(5) ... verify
  // against direct numerical value instead of a closed form.
  EXPECT_NEAR(eig.values[0], -std::sqrt(5.0), 1e-10);
}

TEST(Observable, EnergyAfterCircuitEvolution) {
  // Rotating |0> by RX(pi) flips <Z> from +1 to -1.
  Observable<double> z(1);
  z.add("Z", 1.0);
  QCircuit<double> circuit(1);
  circuit.push_back(qgates::RotationX<double>(0, M_PI));
  const auto state = circuit.simulate("0").state(0);
  EXPECT_NEAR(z.expectation(state), -1.0, 1e-12);
}

TEST(Observable, BranchAveragedExpectation) {
  // H then measure: branches |0> and |1> at 1/2 each; <Z> averages to 0
  // while each branch individually gives +-1.
  Observable<double> z(1);
  z.add("Z", 1.0);
  QCircuit<double> circuit(1);
  circuit.push_back(qgates::Hadamard<double>(0));
  circuit.push_back(Measurement<double>(0));
  const auto simulation = circuit.simulate("0");
  const double averaged = simulation.average(
      [&](const Branch<double>& branch) { return z.expectation(branch.state); });
  EXPECT_NEAR(averaged, 0.0, 1e-12);
  EXPECT_NEAR(z.expectation(simulation.state(0)), 1.0, 1e-12);
  EXPECT_NEAR(z.expectation(simulation.state(1)), -1.0, 1e-12);
}

TEST(Observable, AverageOfUnityIsOne) {
  auto circuit = qclab::test::randomCircuit<double>(3, 10, 4);
  circuit.push_back(Measurement<double>(0));
  circuit.push_back(Measurement<double>(2));
  const auto simulation = circuit.simulate("000");
  EXPECT_NEAR(simulation.average([](const Branch<double>&) { return 1.0; }),
              1.0, 1e-10);
}

class PauliApplySweep : public ::testing::TestWithParam<int> {};

TEST_P(PauliApplySweep, RandomStringsMatchMatrices) {
  const int n = 4;
  random::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::string paulis;
  const char alphabet[4] = {'I', 'X', 'Y', 'Z'};
  for (int q = 0; q < n; ++q) {
    paulis += alphabet[rng.uniformInt(4)];
  }
  const PauliString<double> p(paulis, rng.uniform(-2.0, 2.0));
  const auto state = qclab::test::randomState<double>(n, rng);
  qclab::test::expectStateNear(p.apply(state), p.matrix().apply(state),
                               1e-12);
  // Pauli strings square to coefficient^2 * identity.
  PauliString<double> unit(paulis, 1.0);
  qclab::test::expectStateNear(unit.apply(unit.apply(state)), state, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PauliApplySweep, ::testing::Range(1, 11));

// ---- X/Z-mask evaluation -------------------------------------------------

TEST(PauliString, LowersToMsbFirstMasks) {
  // Qubit q is bit n-1-q: X on qubit 0 -> bit 3, Z on qubit 2 -> bit 1,
  // Y on qubit 3 -> bit 0 of both masks.
  const PauliString<double> p("XIZY");
  EXPECT_EQ(p.xMask(), 0b1001u);
  EXPECT_EQ(p.zMask(), 0b0011u);
  EXPECT_EQ(p.nbY(), 1);
  const PauliString<double> identity("III");
  EXPECT_EQ(identity.xMask(), 0u);
  EXPECT_EQ(identity.zMask(), 0u);
}

TEST(PauliString, MaskWidthIsATypedEvaluationError) {
  // 64 qubits do not fit a 64-bit mask: constructible, not evaluable.
  const std::string wide(64, 'Z');
  const PauliString<double> p(wide, 0.5);
  EXPECT_EQ(p.nbQubits(), 64);
  EXPECT_EQ(p.weight(), 64);
  const std::vector<C> tiny(2, C(1));
  EXPECT_THROW(p.expectation(tiny), QubitRangeError);
  EXPECT_THROW(p.apply(tiny), QubitRangeError);
  Observable<double> h(64);
  h.add(p);
  h.add(std::string(63, 'I') + "X", 1.0);
  EXPECT_EQ(h.nbTerms(), 2u);
  EXPECT_THROW(h.expectation(tiny), QubitRangeError);
  EXPECT_THROW(h.apply(tiny), QubitRangeError);
  EXPECT_THROW(h.variance(tiny), QubitRangeError);
  // 63 qubits fit; a state of the wrong size is an argument error.
  const PauliString<double> widest(std::string(63, 'Y'));
  EXPECT_EQ(widest.xMask(), (util::index_t{1} << 63) - 1);
  EXPECT_THROW(widest.expectation(tiny), InvalidArgumentError);
}

/// The copy-and-apply evaluation the mask path replaced: a state copy per
/// term, one kernel sweep per non-identity factor, then an inner product.
template <typename T>
std::vector<std::complex<T>> kernelApply(const PauliString<T>& p,
                                         const std::vector<std::complex<T>>& state) {
  std::vector<std::complex<T>> result = state;
  const int n = p.nbQubits();
  for (int q = 0; q < n; ++q) {
    switch (p.paulis()[static_cast<std::size_t>(q)]) {
      case 'X': sim::apply1(result, n, q, dense::pauliX<T>()); break;
      case 'Y': sim::apply1(result, n, q, dense::pauliY<T>()); break;
      case 'Z':
        sim::applyDiagonal1(result, n, q, std::complex<T>(1),
                            std::complex<T>(-1));
        break;
      default: break;
    }
  }
  for (auto& amplitude : result) amplitude *= p.coefficient();
  return result;
}

template <typename T>
std::vector<std::complex<T>> kernelApply(const Observable<T>& h,
                                         const std::vector<std::complex<T>>& state) {
  std::vector<std::complex<T>> result(state.size());
  for (const auto& term : h.terms()) {
    const auto contribution = kernelApply(term, state);
    for (std::size_t i = 0; i < result.size(); ++i) result[i] += contribution[i];
  }
  return result;
}

/// A random Pauli sum on n qubits in one of four shapes: uniform strings,
/// Y-heavy strings, strings over three shared X-masks (repeated X-masks,
/// differing Z parts), and an identity-only observable.
template <typename T>
Observable<T> randomPauliSum(int n, int shape, random::Rng& rng) {
  Observable<T> h(n);
  const auto coefficient = [&] { return static_cast<T>(rng.uniform(-2.0, 2.0)); };
  if (shape == 3) {
    h.add(std::string(static_cast<std::size_t>(n), 'I'), coefficient());
    return h;
  }
  std::vector<util::index_t> xMasks(3);
  for (auto& x : xMasks) x = rng.uniformInt(util::index_t{1} << n);
  const int nbTerms = 1 + static_cast<int>(rng.uniformInt(8));
  for (int t = 0; t < nbTerms; ++t) {
    std::string paulis;
    const util::index_t x = xMasks[rng.uniformInt(xMasks.size())];
    for (int q = 0; q < n; ++q) {
      const bool flips = util::getBit(x, util::bitPosition(q, n)) != 0;
      const bool phase = rng.uniform() < 0.5;
      switch (shape) {
        case 0: paulis += "IXYZ"[rng.uniformInt(4)]; break;
        case 1: paulis += rng.uniform() < 0.7 ? 'Y' : "IXZ"[rng.uniformInt(3)]; break;
        default: paulis += flips ? (phase ? 'Y' : 'X') : (phase ? 'Z' : 'I'); break;
      }
    }
    h.add(paulis, coefficient());
  }
  return h;
}

template <typename T>
class PauliMaskDifferential : public ::testing::Test {
 protected:
  /// Tolerance for sums of at most a few dozen O(1) terms.
  static T tolerance() { return std::is_same_v<T, float> ? T(2e-4) : T(1e-11); }
};

using PauliScalarTypes = ::testing::Types<float, double>;
TYPED_TEST_SUITE(PauliMaskDifferential, PauliScalarTypes);

TYPED_TEST(PauliMaskDifferential, MatchesMatrixAndKernelPath) {
  using T = TypeParam;
  const T tolerance = TestFixture::tolerance();
  random::Rng rng(2024);
  // n = 1..5 sit below the 6-bit tile width; n = 12 spans 64 tiles.
  for (int n = 1; n <= 12; ++n) {
    for (int shape = 0; shape < 4; ++shape) {
      SCOPED_TRACE("n = " + std::to_string(n) + ", shape " + std::to_string(shape));
      const auto h = randomPauliSum<T>(n, shape, rng);
      const auto state = qclab::test::randomState<T>(n, rng);
      const auto reference = kernelApply(h, state);
      const T mean = std::real(dense::inner(state, reference));
      const T variance = dense::normSquared(reference) - mean * mean;

      EXPECT_NEAR(h.expectation(state), mean, tolerance);
      EXPECT_NEAR(h.variance(state), variance, 4 * tolerance);
      qclab::test::expectStateNear(h.apply(state), reference, tolerance);
      for (const auto& term : h.terms()) {
        const auto termReference = kernelApply(term, state);
        EXPECT_NEAR(term.expectation(state),
                    std::real(dense::inner(state, termReference)), tolerance);
        qclab::test::expectStateNear(term.apply(state), termReference,
                                     tolerance);
      }
      if (n <= 7) {
        const auto viaMatrix = h.matrix().apply(state);
        EXPECT_NEAR(h.expectation(state),
                    std::real(dense::inner(state, viaMatrix)), tolerance);
        qclab::test::expectStateNear(h.apply(state), viaMatrix, tolerance);
      }
    }
  }
}

TYPED_TEST(PauliMaskDifferential, TieredBuffersReadInPlace) {
  using T = TypeParam;
  random::Rng rng(77);
  const int n = 10;
  const auto h = randomPauliSum<T>(n, 0, rng);
  const auto state = qclab::test::randomState<T>(n, rng);
  const T viaVector = h.expectation(state);
  const T termViaVector = h.terms().front().expectation(state);

  sim::StateTierOptions mmapOptions;
  mmapOptions.tier = sim::StateTier::kMmap;
  auto mapped = sim::StateBuffer<T>::zeros(state.size(), mmapOptions);
#if defined(__unix__) || defined(__APPLE__)
  EXPECT_EQ(mapped.tier(), sim::StateTier::kMmap);
#endif
  std::copy(state.begin(), state.end(), mapped.data());
  const sim::StateBuffer<T> heap(state);
  EXPECT_EQ(heap.tier(), sim::StateTier::kHeap);

  const sim::StateBuffer<T>& mappedView = mapped;
  for (const sim::StateBuffer<T>* buffer : {&heap, &mappedView}) {
    const T viaBuffer = h.expectation(*buffer);
    const T termViaBuffer = h.terms().front().expectation(*buffer);
    EXPECT_EQ(std::memcmp(&viaBuffer, &viaVector, sizeof(T)), 0);
    EXPECT_EQ(std::memcmp(&termViaBuffer, &termViaVector, sizeof(T)), 0);
  }
}

TEST(Observable, MergedTermsReweightTheirLoweredForm) {
  random::Rng rng(8);
  Observable<double> merged(3);
  merged.add("XYZ", 0.5);
  merged.add("ZZI", 1.0);
  merged.add("XYZ", -2.0);  // same string: coefficient -1.5
  merged.add("XYI", 0.25);  // same X-mask, shares the group
  Observable<double> direct(3);
  direct.add("XYZ", -1.5);
  direct.add("ZZI", 1.0);
  direct.add("XYI", 0.25);
  const auto state = qclab::test::randomState<double>(3, rng);
  EXPECT_EQ(merged.nbTerms(), 3u);
  EXPECT_NEAR(merged.expectation(state), direct.expectation(state), 1e-14);
  const auto viaMatrix = direct.matrix().apply(state);
  EXPECT_NEAR(merged.expectation(state),
              std::real(dense::inner(state, viaMatrix)), 1e-12);
}

#ifdef QCLAB_HAS_OPENMP
TEST(Observable, TrajectoryExpectationsAreThreadCountInvariant) {
  random::Rng rng(41);
  QCircuit<double> circuit(4);
  qclab::test::addRandomGates(circuit, 12, rng);
  const auto h = randomPauliSum<double>(4, 0, rng);
  const auto model = noise::NoiseModel<double>::depolarizing(0.05);
  std::vector<std::vector<double>> expectations;
  std::vector<double> means;
  for (int threads : {1, 4}) {
    noise::TrajectoryOptions options;
    options.seed = 5;
    options.nbTrajectories = 64;
    options.nbThreads = threads;
    const noise::TrajectorySimulator<double> simulator(circuit, model, options);
    const auto result = simulator.run("0000", h);
    expectations.push_back(result.expectations());
    means.push_back(result.expectation());
  }
  ASSERT_EQ(expectations[0].size(), expectations[1].size());
  EXPECT_EQ(std::memcmp(expectations[0].data(), expectations[1].data(),
                        expectations[0].size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&means[0], &means[1], sizeof(double)), 0);
}
#endif

}  // namespace
}  // namespace qclab
