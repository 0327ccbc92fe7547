#pragma once

/// \file kernel_path.hpp
/// \brief The closed set of gate-application strategies a backend can
/// dispatch to.
///
/// Kept in its own dependency-free header so that both the simulation
/// backends (which dispatch on it) and the observability layer (which
/// counts by it) can name the paths without pulling in each other.

namespace qclab::sim {

/// Which specialized routine a backend uses for a given gate.
enum class KernelPath : int {
  kSwap = 0,             ///< SWAP: pure index permutation
  kControlled1,          ///< controlled gate, single target: active subspace only
  kDiagonal1,            ///< uncontrolled single-qubit diagonal: one multiply/amp
  kDense1,               ///< uncontrolled single-qubit dense 2x2 apply
  kDiagonalK,            ///< multi-qubit diagonal (RZZ, ...): one multiply/amp
  kDenseK,               ///< general k-qubit dense apply
  kSparseKron,           ///< sparse extended unitary I (x) U (x) I times state
  kControlledDiagonal1,  ///< controlled diagonal target (CZ, CPhase, CRZ):
                         ///< one multiply per active-subspace amplitude
  kFusedDenseK,          ///< fusion engine: dense block of merged gates
  kFusedDiagonalK,       ///< fusion engine: diagonal-only block of merged gates
  kTrajectory,           ///< noise engine: one full Monte Carlo trajectory
  kSimdDense1,           ///< SIMD tier: vectorized single-qubit dense apply
  kSimdDiagonal1,        ///< SIMD tier: vectorized single-qubit diagonal
  kSimdDenseK,           ///< SIMD tier: vectorized 2..5-qubit dense apply
  kBlocked,              ///< cache-blocked executor: one streamed sweep
                         ///< applying a whole low-qubit gate run per chunk
  kBatch,                ///< batched engine: one parameter-rebound member
                         ///< executed against a shared circuit-shape plan
  kStabilizer,           ///< CHP tableau engine: one O(n^2) Clifford
                         ///< gate / measurement on the binary tableau
  kDispatch,             ///< adaptive router: one routed circuit execution
                         ///< (stabilizer prefix, conversion, or fallback)
};

/// Number of enumerators in KernelPath (for counter arrays).
inline constexpr int kKernelPathCount = 18;

/// Stable short name of a kernel path (used in reports and traces).
inline const char* kernelPathName(KernelPath path) noexcept {
  switch (path) {
    case KernelPath::kSwap:                return "swap";
    case KernelPath::kControlled1:         return "controlled1";
    case KernelPath::kDiagonal1:           return "diagonal1";
    case KernelPath::kDense1:              return "dense1";
    case KernelPath::kDiagonalK:           return "diagonal-k";
    case KernelPath::kDenseK:              return "dense-k";
    case KernelPath::kSparseKron:          return "sparse-kron";
    case KernelPath::kControlledDiagonal1: return "controlled-diagonal1";
    case KernelPath::kFusedDenseK:         return "fused-k";
    case KernelPath::kFusedDiagonalK:      return "fused-diagonal-k";
    case KernelPath::kTrajectory:          return "trajectory";
    case KernelPath::kSimdDense1:          return "simd-dense1";
    case KernelPath::kSimdDiagonal1:       return "simd-diagonal1";
    case KernelPath::kSimdDenseK:          return "simd-dense-k";
    case KernelPath::kBlocked:             return "blocked";
    case KernelPath::kBatch:               return "batch";
    case KernelPath::kStabilizer:          return "stabilizer";
    case KernelPath::kDispatch:            return "dispatch";
  }
  return "unknown";
}

}  // namespace qclab::sim
