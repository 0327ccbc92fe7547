/// \file test_kernels.cpp
/// \brief Unit tests for the in-place gate-application kernels against
/// dense Kronecker-product references.

#include <gtest/gtest.h>

#include "qclab/dense/ops.hpp"
#include "qclab/qgates/qgates.hpp"
#include "qclab/sim/kernels.hpp"
#include "test_helpers.hpp"

namespace qclab::sim {
namespace {

using C = std::complex<double>;
using M = dense::Matrix<double>;

/// Dense reference: embeds `u` acting on (sorted, MSB-first) `qubits` of an
/// n-qubit register via Kronecker products and permutation-free expansion.
M embedDense(int nbQubits, const std::vector<int>& qubits, const M& u) {
  // Build via controlledMatrix with no controls over the full register:
  // treat all non-gate qubits as extra "targets" of an identity? Simpler:
  // start from u and kron with identities, then fix ordering via explicit
  // index mapping.
  const std::size_t dim = std::size_t{1} << nbQubits;
  const int k = static_cast<int>(qubits.size());
  M full(dim, dim);
  for (util::index_t row = 0; row < dim; ++row) {
    // Gate-subspace index of this row.
    util::index_t gateRow = 0;
    for (int i = 0; i < k; ++i) {
      gateRow = (gateRow << 1) |
                util::getBit(row, util::bitPosition(qubits[i], nbQubits));
    }
    for (util::index_t gateCol = 0; gateCol < (util::index_t{1} << k);
         ++gateCol) {
      const C value = u(gateRow, gateCol);
      if (value == C(0)) continue;
      util::index_t col = row;
      for (int i = 0; i < k; ++i) {
        const int pos = util::bitPosition(qubits[i], nbQubits);
        col = util::getBit(gateCol, util::bitPosition(i, k))
                  ? util::setBit(col, pos)
                  : util::clearBit(col, pos);
      }
      full(row, col) = value;
    }
  }
  return full;
}

TEST(Kernels, Apply1MatchesKron) {
  const int n = 4;
  random::Rng rng(1);
  const auto u = qclab::test::randomUnitary1<double>(rng);
  for (int qubit = 0; qubit < n; ++qubit) {
    auto state = qclab::test::randomState<double>(n, rng);
    const auto expected = embedDense(n, {qubit}, u).apply(state);
    apply1(state, n, qubit, u);
    qclab::test::expectStateNear(state, expected);
  }
}

TEST(Kernels, Apply1SingleQubitRegister) {
  const auto h = qgates::Hadamard<double>(0).matrix();
  std::vector<C> state = {C(1), C(0)};
  apply1(state, 1, 0, h);
  const double invSqrt2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(state[0] - C(invSqrt2)), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(state[1] - C(invSqrt2)), 0.0, 1e-15);
}

TEST(Kernels, Apply1Validation) {
  std::vector<C> state(4);
  EXPECT_THROW(apply1(state, 2, 2, M::identity(2)), QubitRangeError);
  EXPECT_THROW(apply1(state, 2, -1, M::identity(2)), QubitRangeError);
  EXPECT_THROW(apply1(state, 2, 0, M::identity(4)), InvalidArgumentError);
}

TEST(Kernels, ApplyDiagonal1MatchesApply1) {
  const int n = 3;
  random::Rng rng(2);
  const auto rz = qgates::RotationZ<double>(0, 0.77).matrix();
  for (int qubit = 0; qubit < n; ++qubit) {
    auto stateA = qclab::test::randomState<double>(n, rng);
    auto stateB = stateA;
    apply1(stateA, n, qubit, rz);
    applyDiagonal1(stateB, n, qubit, rz(0, 0), rz(1, 1));
    qclab::test::expectStateNear(stateA, stateB);
  }
}

TEST(Kernels, ApplyControlled1MatchesEmbeddedMatrix) {
  const int n = 4;
  random::Rng rng(3);
  const auto u = qclab::test::randomUnitary1<double>(rng);
  for (int control = 0; control < n; ++control) {
    for (int target = 0; target < n; ++target) {
      if (control == target) continue;
      for (int controlState : {0, 1}) {
        auto state = qclab::test::randomState<double>(n, rng);
        const qgates::QControlledGate2<double>* gate = nullptr;
        // Build reference through controlledMatrix + embedDense.
        const auto gateMatrix = qgates::controlledMatrix<double>(
            {std::min(control, target), std::max(control, target)}, {control},
            {controlState}, {target}, u);
        (void)gate;
        const auto expected =
            embedDense(n, {std::min(control, target), std::max(control, target)},
                       gateMatrix)
                .apply(state);
        applyControlled1(state, n, {control}, {controlState}, target, u);
        qclab::test::expectStateNear(state, expected);
      }
    }
  }
}

TEST(Kernels, ApplyControlled1MultipleControls) {
  const int n = 5;
  random::Rng rng(4);
  auto state = qclab::test::randomState<double>(n, rng);
  auto expectedState = state;
  // MCX({0, 3}, 2, {1, 0}) via the kernel and via the gate matrix.
  const qgates::MCX<double> gate({0, 3}, 2, {1, 0});
  const auto full = embedDense(n, gate.qubits(), gate.matrix());
  expectedState = full.apply(expectedState);
  applyControlled1(state, n, {0, 3}, {1, 0}, 2, dense::pauliX<double>());
  qclab::test::expectStateNear(state, expectedState);
}

TEST(Kernels, ApplySwapMatchesMatrix) {
  const int n = 4;
  random::Rng rng(5);
  for (int q0 = 0; q0 < n; ++q0) {
    for (int q1 = q0 + 1; q1 < n; ++q1) {
      auto state = qclab::test::randomState<double>(n, rng);
      const auto expected =
          embedDense(n, {q0, q1}, qgates::SWAP<double>(0, 1).matrix())
              .apply(state);
      applySwap(state, n, q0, q1);
      qclab::test::expectStateNear(state, expected);
    }
  }
}

TEST(Kernels, ApplyKMatchesEmbeddedMatrix) {
  const int n = 5;
  random::Rng rng(6);
  // Random 2-qubit unitary on every ascending pair (contiguous or not).
  const auto u = QCircuit<double>(2).matrix();  // identity to start
  for (int q0 = 0; q0 < n; ++q0) {
    for (int q1 = q0 + 1; q1 < n; ++q1) {
      auto circuit = qclab::test::randomCircuit<double>(2, 6, 100 + q0 * n + q1);
      const auto gateMatrix = circuit.matrix();
      auto state = qclab::test::randomState<double>(n, rng);
      const auto expected = embedDense(n, {q0, q1}, gateMatrix).apply(state);
      applyK(state, n, {q0, q1}, gateMatrix);
      qclab::test::expectStateNear(state, expected);
    }
  }
  (void)u;
}

TEST(Kernels, ApplyKThreeQubitsNonContiguous) {
  const int n = 6;
  random::Rng rng(7);
  auto circuit = qclab::test::randomCircuit<double>(3, 10, 11);
  const auto gateMatrix = circuit.matrix();
  auto state = qclab::test::randomState<double>(n, rng);
  const std::vector<int> qubits = {0, 2, 5};
  const auto expected = embedDense(n, qubits, gateMatrix).apply(state);
  applyK(state, n, qubits, gateMatrix);
  qclab::test::expectStateNear(state, expected);
}

TEST(Kernels, ApplyKWideGatesMatchEmbeddedMatrix) {
  // Gates wider than kMaxDenseK run the runtime-width scalar tier of the
  // dense-k kernel; one-qubit gates route through apply1.
  const int n = 7;
  random::Rng rng(12);
  const std::vector<std::vector<int>> qubitSets = {
      {0, 1, 2, 3, 4, 5}, {1, 2, 3, 4, 5, 6}, {0, 2, 3, 4, 5, 6},
      {0, 1, 2, 3, 4, 5, 6}, {3}};
  for (const auto& qubits : qubitSets) {
    const int k = static_cast<int>(qubits.size());
    const auto gateMatrix =
        qclab::test::randomCircuit<double>(k, 4 * k, 200u + k).matrix();
    auto state = qclab::test::randomState<double>(n, rng);
    const auto expected = embedDense(n, qubits, gateMatrix).apply(state);
    applyK(state, n, qubits, gateMatrix);
    qclab::test::expectStateNear(state, expected);
  }
}

TEST(Kernels, ApplyKValidation) {
  std::vector<C> state(8);
  EXPECT_THROW(applyK(state, 3, {1, 0}, M::identity(4)),
               InvalidArgumentError);
  EXPECT_THROW(applyK(state, 3, {0, 1}, M::identity(8)),
               InvalidArgumentError);
}

TEST(Kernels, ApplyDiagonalKMatchesApplyK) {
  const int n = 5;
  random::Rng rng(8);
  // Random diagonal unitary on a non-contiguous qubit triple.
  const std::vector<int> qubits = {0, 2, 4};
  std::vector<C> diagonal(8);
  M u(8, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    diagonal[i] = std::polar(1.0, rng.uniform(-M_PI, M_PI));
    u(i, i) = diagonal[i];
  }
  auto state = qclab::test::randomState<double>(n, rng);
  auto expected = state;
  applyK(expected, n, qubits, u);
  applyDiagonalK(state, n, qubits, diagonal);
  qclab::test::expectStateNear(state, expected);
}

TEST(Kernels, ApplyDiagonalKValidation) {
  std::vector<C> state(8);
  const std::vector<C> diag2 = {C(1), C(1)};
  const std::vector<C> diag4 = {C(1), C(1), C(1), C(1)};
  // Out-of-order and duplicate qubit lists must throw, like applyK.
  EXPECT_THROW(applyDiagonalK(state, 3, {1, 0}, diag4),
               InvalidArgumentError);
  EXPECT_THROW(applyDiagonalK(state, 3, {1, 1}, diag4),
               InvalidArgumentError);
  // Diagonal length must be 2^k.
  EXPECT_THROW(applyDiagonalK(state, 3, {0, 1}, diag2),
               InvalidArgumentError);
  EXPECT_NO_THROW(applyDiagonalK(state, 3, {0, 1}, diag4));
}

TEST(Kernels, ApplyControlledDiagonal1MatchesApplyControlled1) {
  const int n = 4;
  random::Rng rng(9);
  for (int control = 0; control < n; ++control) {
    for (int target = 0; target < n; ++target) {
      if (control == target) continue;
      for (int controlState : {0, 1}) {
        M u(2, 2);
        u(0, 0) = std::polar(1.0, rng.uniform(-M_PI, M_PI));
        u(1, 1) = std::polar(1.0, rng.uniform(-M_PI, M_PI));
        auto state = qclab::test::randomState<double>(n, rng);
        auto expected = state;
        applyControlled1(expected, n, {control}, {controlState}, target, u);
        applyControlledDiagonal1(state, n, {control}, {controlState}, target,
                                 u(0, 0), u(1, 1));
        qclab::test::expectStateNear(state, expected);
      }
    }
  }
}

TEST(Kernels, ApplyControlledDiagonal1MultipleControls) {
  const int n = 5;
  random::Rng rng(10);
  // Multi-controlled Z with mixed control states, against embedDense.
  const qgates::MCZ<double> gate({0, 3}, 2, {1, 0});
  auto state = qclab::test::randomState<double>(n, rng);
  auto expected = embedDense(n, gate.qubits(), gate.matrix()).apply(state);
  applyControlledDiagonal1(state, n, {0, 3}, {1, 0}, 2, C(1), C(-1));
  qclab::test::expectStateNear(state, expected);
}

TEST(Kernels, MeasureProbability0) {
  // |psi> = sqrt(0.3)|0> + sqrt(0.7)|1> on one qubit.
  std::vector<C> state = {C(std::sqrt(0.3)), C(std::sqrt(0.7))};
  EXPECT_NEAR(measureProbability0(state, 1, 0), 0.3, 1e-14);

  // Bell state: each qubit is 50/50.
  const double h = 1.0 / std::sqrt(2.0);
  std::vector<C> bell = {C(h), C(0), C(0), C(h)};
  EXPECT_NEAR(measureProbability0(bell, 2, 0), 0.5, 1e-14);
  EXPECT_NEAR(measureProbability0(bell, 2, 1), 0.5, 1e-14);
}

TEST(Kernels, CollapseNormalizesAndZeroes) {
  const double h = 1.0 / std::sqrt(2.0);
  std::vector<C> bell = {C(h), C(0), C(0), C(h)};
  collapse(bell, 2, 0, 1, 0.5);
  // Collapsed onto qubit0 = 1: state must be |11>.
  EXPECT_NEAR(std::abs(bell[3] - C(1)), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(bell[0]), 0.0, 1e-14);
  EXPECT_NEAR(dense::norm2(bell), 1.0, 1e-14);
}

TEST(Kernels, CollapseValidation) {
  std::vector<C> state = {C(1), C(0)};
  EXPECT_THROW(collapse(state, 1, 0, 2, 0.5), InvalidArgumentError);
  EXPECT_THROW(collapse(state, 1, 0, 0, 0.0), InvalidArgumentError);
}

class Apply1QubitPositionSweep : public ::testing::TestWithParam<int> {};

TEST_P(Apply1QubitPositionSweep, NormPreservedOnLargerRegisters) {
  const int n = 10;
  const int qubit = GetParam();
  random::Rng rng(static_cast<std::uint64_t>(qubit) + 50);
  auto state = qclab::test::randomState<double>(n, rng);
  const auto u = qclab::test::randomUnitary1<double>(rng);
  apply1(state, n, qubit, u);
  EXPECT_NEAR(dense::norm2(state), 1.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Positions, Apply1QubitPositionSweep,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace qclab::sim
