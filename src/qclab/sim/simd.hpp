#pragma once

/// \file simd.hpp
/// \brief SIMD kernel tier: runtime CPU dispatch + span-level gate kernels.
///
/// The gate kernels in kernels.hpp are wrappers over the *span* kernels
/// defined here: serial routines that update a contiguous span of
/// amplitudes in place.  Every span kernel exploits the run structure of
/// bit-indexed pair updates — for a target bit position `pos`, the |0>
/// and |1> partners of each 2^{pos+1}-aligned group form two unit-stride
/// runs of 2^pos amplitudes — and dispatches each run either to the
/// explicit AVX2+FMA kernels of simd_avx2.hpp or to a portable scalar
/// loop written in split re/im arithmetic (branch-free, autovectorizable,
/// and free of the __muldc3 inf/nan fixup call that std::complex
/// operator* can emit).
///
/// Dispatch is decided once at runtime:
///  - compile-time gate: the QCLAB_SIMD CMake option defines
///    QCLAB_HAS_SIMD; without it only the scalar tier exists,
///  - cpuid: detectedSimdLevel() probes AVX2 + FMA via
///    __builtin_cpu_supports, so a binary built with the SIMD tier still
///    runs correctly on hardware without it,
///  - override: the QCLAB_SIMD_LEVEL environment variable ("scalar" or
///    "avx2") or setSimdLevel() force a level, clamped to what the build
///    and the CPU support — this is how both paths are tested on one
///    machine.
///
/// Dispatch matrix (per span kernel, W = complex lanes per 256-bit
/// register: 2 for double, 4 for float):
///
///   kernel          | AVX2 level, run >= W lanes | otherwise
///   ----------------+----------------------------+------------------
///   apply1Span      | avx2::apply1Runs           | portable pairs
///   applyDiag1Span  | avx2::scaleRun             | portable scale
///   apply2Span      | avx2::apply2Runs           | portable quads
///   DenseKGate      | avx2::applyDenseKSlots     | portable slots
///   (k = 3..5)      | (any positions: bits below |
///                   |  W fold into the lanes)    |
///   DenseKGate k>5  | portable slots             | portable slots
///   applyDiagonal-  | avx2::scaleRun per run     | per-amplitude
///   RunsSpan        | (runs >= 4 amplitudes)     | delta walk

#include <algorithm>
#include <array>
#include <atomic>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "qclab/dense/matrix.hpp"
#include "qclab/sim/kernel_path.hpp"
#include "qclab/util/bits.hpp"
#include "qclab/util/errors.hpp"

#if defined(QCLAB_HAS_SIMD) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define QCLAB_SIMD_X86 1
#include "qclab/sim/simd_avx2.hpp"
#endif

namespace qclab::sim {

/// The closed set of SIMD tiers the kernel layer can dispatch to.
enum class SimdLevel : int {
  kScalar = 0,  ///< portable split re/im loops
  kAvx2 = 1,    ///< 256-bit AVX2 + FMA kernels (x86 only)
};

/// Stable short name of a SIMD level ("scalar" / "avx2").
inline const char* simdLevelName(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalar: return "scalar";
    case SimdLevel::kAvx2:   return "avx2";
  }
  return "unknown";
}

/// Highest level this build *and* this CPU support (cpuid, cached).
inline SimdLevel detectedSimdLevel() noexcept {
#ifdef QCLAB_SIMD_X86
  static const SimdLevel detected =
      (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
          ? SimdLevel::kAvx2
          : SimdLevel::kScalar;
  return detected;
#else
  return SimdLevel::kScalar;
#endif
}

namespace detail {

/// Clamps a requested level to what the build + CPU support.
inline SimdLevel clampSimdLevel(SimdLevel level) noexcept {
  return static_cast<int>(level) <= static_cast<int>(detectedSimdLevel())
             ? level
             : detectedSimdLevel();
}

/// Initial level: the QCLAB_SIMD_LEVEL environment override if set and
/// recognized, otherwise the detected level.  Unknown values are ignored
/// (the dispatch must never fail at startup over a typo).
inline SimdLevel initialSimdLevel() noexcept {
  const char* env = std::getenv("QCLAB_SIMD_LEVEL");
  if (env != nullptr) {
    if (std::strcmp(env, "scalar") == 0) return SimdLevel::kScalar;
    if (std::strcmp(env, "avx2") == 0) {
      return clampSimdLevel(SimdLevel::kAvx2);
    }
  }
  return detectedSimdLevel();
}

/// The mutable active level (-1 = not yet initialized from the env).
inline std::atomic<int>& activeSimdLevelCell() noexcept {
  static std::atomic<int> cell{-1};
  return cell;
}

}  // namespace detail

/// The level the kernels currently dispatch to (env-initialized, clamped).
inline SimdLevel activeSimdLevel() noexcept {
  std::atomic<int>& cell = detail::activeSimdLevelCell();
  int level = cell.load(std::memory_order_relaxed);
  if (level < 0) {
    level = static_cast<int>(detail::initialSimdLevel());
    int expected = -1;
    cell.compare_exchange_strong(expected, level, std::memory_order_relaxed);
    level = cell.load(std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(level);
}

/// Forces the dispatch level (clamped to build/CPU support; used by the
/// differential tests and benches to exercise both tiers in one process).
/// Returns the previous level.
inline SimdLevel setSimdLevel(SimdLevel level) noexcept {
  const SimdLevel previous = activeSimdLevel();
  detail::activeSimdLevelCell().store(
      static_cast<int>(detail::clampSimdLevel(level)),
      std::memory_order_relaxed);
  return previous;
}

/// True when the vector tier is the active dispatch target.
inline bool simdActive() noexcept {
  return activeSimdLevel() != SimdLevel::kScalar;
}

namespace simd {

/// Widest gate with a vector dense-k kernel and inline coefficient
/// tables; wider gates run the scalar tier of the same loop nest.
inline constexpr int kMaxDenseK = 5;

}  // namespace simd

/// The kernel path a gate application should be COUNTED under when the
/// SIMD tier is active: the dispatch rules (classifyKernelPath) are
/// unchanged — the same fast path is selected — but the obs layer
/// attributes the application to the vectorized variant so reports show
/// which tier did the work.  `gateQubits` disambiguates kDenseK: the
/// quad-run kernel (k = 2) and the dense-k kernel (k = 3..kMaxDenseK) are
/// vectorized at every position, wider gates stay scalar.
inline KernelPath simdCountedPath(KernelPath path, int gateQubits) noexcept {
  if (!simdActive()) return path;
  switch (path) {
    case KernelPath::kDense1:    return KernelPath::kSimdDense1;
    case KernelPath::kDiagonal1: return KernelPath::kSimdDiagonal1;
    case KernelPath::kDenseK:
      return gateQubits >= 2 && gateQubits <= simd::kMaxDenseK
                 ? KernelPath::kSimdDenseK
                 : path;
    default:                     return path;
  }
}

namespace simd {

/// Complex lanes per 256-bit register for scalar type T.
template <typename T>
inline constexpr std::int64_t kVectorLanes =
    static_cast<std::int64_t>(32 / (2 * sizeof(T)));

// ---- portable run kernels (split re/im, autovectorizable) -------------

/// (a0, a1) <- (u00 a0 + u01 a1, u10 a0 + u11 a1) over unit-stride runs.
template <typename T>
void apply1RunsScalar(std::complex<T>* a0, std::complex<T>* a1,
                      std::int64_t count, const std::complex<T> u[4]) {
  const T u00r = u[0].real(), u00i = u[0].imag();
  const T u01r = u[1].real(), u01i = u[1].imag();
  const T u10r = u[2].real(), u10i = u[2].imag();
  const T u11r = u[3].real(), u11i = u[3].imag();
  for (std::int64_t j = 0; j < count; ++j) {
    const T x0r = a0[j].real(), x0i = a0[j].imag();
    const T x1r = a1[j].real(), x1i = a1[j].imag();
    a0[j] = std::complex<T>(u00r * x0r - u00i * x0i + u01r * x1r - u01i * x1i,
                            u00r * x0i + u00i * x0r + u01r * x1i + u01i * x1r);
    a1[j] = std::complex<T>(u10r * x0r - u10i * x0i + u11r * x1r - u11i * x1i,
                            u10r * x0i + u10i * x0r + u11r * x1i + u11i * x1r);
  }
}

/// a <- d * a over a unit-stride run.
template <typename T>
void scaleRunScalar(std::complex<T>* a, std::int64_t count,
                    std::complex<T> d) {
  const T dr = d.real(), di = d.imag();
  for (std::int64_t j = 0; j < count; ++j) {
    const T xr = a[j].real(), xi = a[j].imag();
    a[j] = std::complex<T>(dr * xr - di * xi, dr * xi + di * xr);
  }
}

/// a[r] <- sum_c u[4r + c] a[c] over four unit-stride runs.  The matrix
/// is hoisted into split re/im locals and the (disjoint) runs marked
/// restrict: without both, every u load aliases the a[r][j] stores (same
/// complex type) and the compiler reloads the matrix per element.
template <typename T>
void apply2RunsScalar(std::complex<T>* const a[4], std::int64_t count,
                      const std::complex<T> u[16]) {
  T ur[16], ui[16];
  for (int e = 0; e < 16; ++e) {
    ur[e] = u[e].real();
    ui[e] = u[e].imag();
  }
  std::complex<T>* __restrict__ const r0 = a[0];
  std::complex<T>* __restrict__ const r1 = a[1];
  std::complex<T>* __restrict__ const r2 = a[2];
  std::complex<T>* __restrict__ const r3 = a[3];
  for (std::int64_t j = 0; j < count; ++j) {
    const T inr[4] = {r0[j].real(), r1[j].real(), r2[j].real(), r3[j].real()};
    const T ini[4] = {r0[j].imag(), r1[j].imag(), r2[j].imag(), r3[j].imag()};
    T outr[4], outi[4];
    for (int r = 0; r < 4; ++r) {
      T re = 0, im = 0;
      for (int c = 0; c < 4; ++c) {
        re += ur[4 * r + c] * inr[c] - ui[4 * r + c] * ini[c];
        im += ur[4 * r + c] * ini[c] + ui[4 * r + c] * inr[c];
      }
      outr[r] = re;
      outi[r] = im;
    }
    r0[j] = std::complex<T>(outr[0], outi[0]);
    r1[j] = std::complex<T>(outr[1], outi[1]);
    r2[j] = std::complex<T>(outr[2], outi[2]);
    r3[j] = std::complex<T>(outr[3], outi[3]);
  }
}

// ---- dispatched run kernels -------------------------------------------

/// Pair update over unit-stride runs, dispatched on `level`.
template <typename T>
inline void apply1Runs(std::complex<T>* a0, std::complex<T>* a1,
                       std::int64_t count, const std::complex<T> u[4],
                       SimdLevel level) {
#ifdef QCLAB_SIMD_X86
  if (level == SimdLevel::kAvx2 && count >= kVectorLanes<T>) {
    avx2::apply1Runs(a0, a1, count, u);
    return;
  }
#else
  (void)level;
#endif
  apply1RunsScalar(a0, a1, count, u);
}

/// Constant complex scale over a unit-stride run, dispatched on `level`.
template <typename T>
inline void scaleRun(std::complex<T>* a, std::int64_t count,
                     std::complex<T> d, SimdLevel level) {
#ifdef QCLAB_SIMD_X86
  if (level == SimdLevel::kAvx2 && count >= kVectorLanes<T>) {
    avx2::scaleRun(a, count, d);
    return;
  }
#else
  (void)level;
#endif
  scaleRunScalar(a, count, d);
}

/// Quad update over four unit-stride runs, dispatched on `level`.
template <typename T>
inline void apply2Runs(std::complex<T>* const a[4], std::int64_t count,
                       const std::complex<T> u[16], SimdLevel level) {
#ifdef QCLAB_SIMD_X86
  if (level == SimdLevel::kAvx2 && count >= kVectorLanes<T>) {
    avx2::apply2Runs(a, count, u);
    return;
  }
#else
  (void)level;
#endif
  apply2RunsScalar(a, count, u);
}

// ---- span kernels (serial; `dim` must cover whole aligned groups) -----

/// 2x2 dense gate at bit position `pos` over `dim` amplitudes.  `dim`
/// must be a multiple of 2^{pos+1} and `state` 2^{pos+1}-group aligned.
/// Short runs (stride below a vector width) take a hoisted-matrix index
/// walk instead of a per-pair run call — same scalar accumulation order
/// the run dispatch would have picked at that count, so the path split
/// never changes results.
template <typename T>
void apply1Span(std::complex<T>* state, std::int64_t dim, int pos,
                const std::complex<T> u[4], SimdLevel level) {
  const std::int64_t stride = std::int64_t{1} << pos;
  if (stride < kVectorLanes<T>) {
    const T u00r = u[0].real(), u00i = u[0].imag();
    const T u01r = u[1].real(), u01i = u[1].imag();
    const T u10r = u[2].real(), u10i = u[2].imag();
    const T u11r = u[3].real(), u11i = u[3].imag();
    std::complex<T>* __restrict__ psi = state;
    for (std::int64_t base = 0; base < dim; base += 2 * stride) {
      for (std::int64_t j = base; j < base + stride; ++j) {
        const T x0r = psi[j].real(), x0i = psi[j].imag();
        const T x1r = psi[j + stride].real(), x1i = psi[j + stride].imag();
        psi[j] =
            std::complex<T>(u00r * x0r - u00i * x0i + u01r * x1r - u01i * x1i,
                            u00r * x0i + u00i * x0r + u01r * x1i + u01i * x1r);
        psi[j + stride] =
            std::complex<T>(u10r * x0r - u10i * x0i + u11r * x1r - u11i * x1i,
                            u10r * x0i + u10i * x0r + u11r * x1i + u11i * x1r);
      }
    }
    return;
  }
  for (std::int64_t base = 0; base < dim; base += 2 * stride) {
    apply1Runs(state + base, state + base + stride, stride, u, level);
  }
}

/// diag(d0, d1) at bit position `pos` over `dim` amplitudes (same
/// alignment contract as apply1Span).  Branch-free: the two runs of each
/// group are scaled by their own constant — no per-element bit test.
template <typename T>
void applyDiagonal1Span(std::complex<T>* state, std::int64_t dim, int pos,
                        std::complex<T> d0, std::complex<T> d1,
                        SimdLevel level) {
  const std::int64_t stride = std::int64_t{1} << pos;
  for (std::int64_t base = 0; base < dim; base += 2 * stride) {
    scaleRun(state + base, stride, d0, level);
    scaleRun(state + base + stride, stride, d1, level);
  }
}

/// apply2Span for short runs (sLo below a vector width): the run path
/// re-hoists the 4x4 matrix into split locals and builds a pointer quad
/// per FOUR amplitudes, which dominates at these strides (a contiguous
/// qubit pair at the bottom of the register was ~6x slower than a strided
/// one).  This variant hoists the matrix once and walks the groups with
/// index arithmetic, using the same per-amplitude accumulation order as
/// apply2RunsScalar.
template <typename T>
void apply2SpanShortRuns(std::complex<T>* state, std::int64_t dim, int posHi,
                         int posLo, const std::complex<T> u[16]) {
  T ur[16], ui[16];
  for (int e = 0; e < 16; ++e) {
    ur[e] = u[e].real();
    ui[e] = u[e].imag();
  }
  const std::int64_t sHi = std::int64_t{1} << posHi;
  const std::int64_t sLo = std::int64_t{1} << posLo;
  std::complex<T>* __restrict__ psi = state;
  for (std::int64_t b2 = 0; b2 < dim; b2 += 2 * sHi) {
    for (std::int64_t b1 = b2; b1 < b2 + sHi; b1 += 2 * sLo) {
      for (std::int64_t j = 0; j < sLo; ++j) {
        const std::int64_t i0 = b1 + j;
        const std::int64_t i1 = i0 + sLo;
        const std::int64_t i2 = i0 + sHi;
        const std::int64_t i3 = i2 + sLo;
        const T inr[4] = {psi[i0].real(), psi[i1].real(), psi[i2].real(),
                          psi[i3].real()};
        const T ini[4] = {psi[i0].imag(), psi[i1].imag(), psi[i2].imag(),
                          psi[i3].imag()};
        T outr[4], outi[4];
        for (int r = 0; r < 4; ++r) {
          T re = 0, im = 0;
          for (int c = 0; c < 4; ++c) {
            re += ur[4 * r + c] * inr[c] - ui[4 * r + c] * ini[c];
            im += ur[4 * r + c] * ini[c] + ui[4 * r + c] * inr[c];
          }
          outr[r] = re;
          outi[r] = im;
        }
        psi[i0] = std::complex<T>(outr[0], outi[0]);
        psi[i1] = std::complex<T>(outr[1], outi[1]);
        psi[i2] = std::complex<T>(outr[2], outi[2]);
        psi[i3] = std::complex<T>(outr[3], outi[3]);
      }
    }
  }
}

/// 4x4 dense gate at bit positions posHi > posLo over `dim` amplitudes
/// (`dim` a multiple of 2^{posHi+1}, group-aligned).  `u` is MSB-first
/// over (bit at posHi, bit at posLo).  The path choice depends only on
/// the positions, never on `dim`, so chunked and full sweeps stay
/// bit-identical.
template <typename T>
void apply2Span(std::complex<T>* state, std::int64_t dim, int posHi,
                int posLo, const std::complex<T> u[16], SimdLevel level) {
  const std::int64_t sHi = std::int64_t{1} << posHi;
  const std::int64_t sLo = std::int64_t{1} << posLo;
  if (sLo < kVectorLanes<T>) {
    apply2SpanShortRuns(state, dim, posHi, posLo, u);
    return;
  }
  for (std::int64_t b2 = 0; b2 < dim; b2 += 2 * sHi) {
    for (std::int64_t b1 = b2; b1 < b2 + sHi; b1 += 2 * sLo) {
      std::complex<T>* const quad[4] = {state + b1, state + b1 + sLo,
                                        state + b1 + sHi,
                                        state + b1 + sHi + sLo};
      apply2Runs(quad, sLo, u, level);
    }
  }
}

/// Portable tier of the dense k-qubit kernel: the slot walk of
/// avx2::applyDenseKSlots with one amplitude per slot, in split re/im
/// arithmetic over the hoisted re/im tables (re at [r * D + c], im at
/// D * D + [r * D + c]).  K = 0 takes the gate width at run time (gates
/// wider than kMaxDenseK).
template <typename T, int K>
void applyDenseKSlotsScalar(std::complex<T>* state, std::int64_t first,
                            std::int64_t last, int k, const int* positions,
                            const std::int64_t* offsets, const T* coef) {
  const int width = K > 0 ? K : k;
  const int rows = 1 << width;
  constexpr int kInline = K > 0 ? 1 << K : 1;
  T inlineRe[kInline], inlineIm[kInline];
  std::vector<T> wide(K > 0 ? 0 : 2 * static_cast<std::size_t>(rows));
  T* const xr = K > 0 ? inlineRe : wide.data();
  T* const xi = K > 0 ? inlineIm : wide.data() + rows;
  const T* __restrict__ mr = coef;
  const T* __restrict__ mi = coef + rows * rows;
  const std::int64_t runMask = (std::int64_t{1} << positions[0]) - 1;
  for (std::int64_t o = first; o < last;) {
    util::index_t base = static_cast<util::index_t>(o);
    for (int i = 0; i < width; ++i) {
      base = util::insertZeroBit(base, positions[i]);
    }
    const std::int64_t runEnd = std::min(last, (o | runMask) + 1);
    for (std::complex<T>* slot = state + base; o < runEnd; ++o, ++slot) {
      for (int c = 0; c < rows; ++c) {
        xr[c] = slot[offsets[c]].real();
        xi[c] = slot[offsets[c]].imag();
      }
      for (int r = 0; r < rows; ++r) {
        T re(0), im(0);
        for (int c = 0; c < rows; ++c) {
          re += mr[r * rows + c] * xr[c] - mi[r * rows + c] * xi[c];
          im += mr[r * rows + c] * xi[c] + mi[r * rows + c] * xr[c];
        }
        slot[offsets[r]] = std::complex<T>(re, im);
      }
    }
  }
}

/// A dense k-qubit gate (k >= 3) lowered once for the dense-k span
/// kernel.  The lowering depends only on the gate width, its bit
/// positions and the SIMD level — never on the length of the span it
/// later runs on — so full-state, tiled and chunked sweeps share one
/// arithmetic per amplitude and stay bit-identical by construction.
///
/// For ascending gate bit positions p_0 < ... < p_{k-1} (row bit j of the
/// matrix is the state bit at p_j), a span splits into SLOTS: on the AVX2
/// tier the gate bits below the register width fold into the lanes and
/// the remaining "high" bits index 2^{k_high} unit-stride runs, one slot
/// being a register-wide column across those runs; on the scalar tier a
/// slot is one amplitude of each of the 2^k runs.  Slots are numbered so
/// that consecutive slots within a run are adjacent in memory, and the
/// walk recomputes the slot address once per run.
///
/// The coefficient table is split into re/im (and, for folded lanes,
/// pre-broadcast per lane) here: once per applyK call, once per blocked
/// run.  Up to kMaxDenseK it lives inline, so a stack-built gate costs no
/// heap allocation.
template <typename T>
class DenseKGate {
 public:
  /// Lowers `u` (2^k x 2^k) acting on `positions[0..k)`, ascending.
  DenseKGate(const dense::Matrix<T>& u, const int* positions, int k,
             SimdLevel level)
      : k_(k) {
    util::require(k >= 3 && k < 64, "DenseKGate: gate width out of range");
    const std::size_t rowsK = std::size_t{1} << k;
    util::require(u.rows() == rowsK && u.cols() == rowsK,
                  "DenseKGate: matrix dimension mismatch");
    std::copy(positions, positions + k, positions_);
    kernel_ = scalarKernel(k);
#ifdef QCLAB_SIMD_X86
    if (level == SimdLevel::kAvx2 && k <= kMaxDenseK) {
      laneBits_ = kVectorLanes<T> == 2 ? 1 : 2;
      while (folded_ < k && positions_[folded_] < laneBits_) {
        laneMask_ |= 1 << positions_[folded_++];
      }
      kernel_ = kVectorKernels[static_cast<std::size_t>(k - 3)]
                              [static_cast<std::size_t>(laneMask_)];
    }
#else
    (void)level;
#endif
    const int high = k - folded_;
    const std::int64_t rows = std::int64_t{1} << high;
    std::int64_t* off = offsets_;
    T* coef = coef_;
    if (k > kMaxDenseK) {
      wideOffsets_.resize(static_cast<std::size_t>(rows));
      wideCoef_.resize(2 * rowsK * rowsK);
      off = wideOffsets_.data();
      coef = wideCoef_.data();
    }
    for (std::int64_t c = 0; c < rows; ++c) {
      std::int64_t offset = 0;
      for (int i = 0; i < high; ++i) {
        if ((c >> i) & 1) offset |= std::int64_t{1} << positions_[folded_ + i];
      }
      off[c] = offset;
    }
    if (folded_ == 0) {
      for (std::size_t r = 0; r < rowsK; ++r) {
        for (std::size_t c = 0; c < rowsK; ++c) {
          coef[r * rowsK + c] = u(r, c).real();
          coef[rowsK * rowsK + r * rowsK + c] = u(r, c).imag();
        }
      }
      return;
    }
    // Folded lanes: per (high row, high column, lane flip f) one re and
    // one im register whose lane l holds the element pairing output lane
    // l with input lane l ^ deposit(f) — the low row/column bits are the
    // lane's folded gate bits.
    constexpr int kLanes = static_cast<int>(kVectorLanes<T>);
    const int flips = 1 << folded_;
    const auto lowBits = [&](int lane) {
      int bits = 0;
      for (int i = 0; i < folded_; ++i) {
        bits |= ((lane >> positions_[i]) & 1) << i;
      }
      return bits;
    };
    T* e = coef;
    for (std::int64_t rh = 0; rh < rows; ++rh) {
      for (std::int64_t ch = 0; ch < rows; ++ch) {
        for (int f = 0; f < flips; ++f, e += 4 * kLanes) {
          for (int lane = 0; lane < kLanes; ++lane) {
            const int low = lowBits(lane);
            const std::complex<T> m =
                u(static_cast<std::size_t>((rh << folded_) | low),
                  static_cast<std::size_t>((ch << folded_) | (low ^ f)));
            e[2 * lane] = e[2 * lane + 1] = m.real();
            e[2 * kLanes + 2 * lane] = e[2 * kLanes + 2 * lane + 1] = m.imag();
          }
        }
      }
    }
  }

  /// Amplitudes per slot, as a power of two.
  int slotBits() const noexcept { return laneBits_ + k_ - folded_; }

  /// Applies the gate to slots [first, last) of `state`, a span of whole
  /// 2^{p_{k-1}+1}-amplitude groups.
  void apply(std::complex<T>* state, std::int64_t first,
             std::int64_t last) const {
    const bool wide = k_ > kMaxDenseK;
    kernel_(state, first, last, k_, positions_,
            wide ? wideOffsets_.data() : offsets_,
            wide ? wideCoef_.data() : coef_);
  }

  /// Applies the gate to a whole span of `dim` amplitudes.
  void applySpan(std::complex<T>* state, std::int64_t dim) const {
    apply(state, 0, dim >> slotBits());
  }

 private:
  using Kernel = void (*)(std::complex<T>*, std::int64_t, std::int64_t, int,
                          const int*, const std::int64_t*, const T*);

  /// Table capacity for k <= kMaxDenseK: the folded layout with one
  /// folded bit is the largest (2^{2k-1} entries of 4 lanes-wide rows).
  static constexpr std::size_t kCoefCapacity =
      (std::size_t{1} << (2 * kMaxDenseK - 1)) * 4 * kVectorLanes<T>;

  static Kernel scalarKernel(int k) noexcept {
    switch (k) {
      case 3: return &applyDenseKSlotsScalar<T, 3>;
      case 4: return &applyDenseKSlotsScalar<T, 4>;
      case 5: return &applyDenseKSlotsScalar<T, 5>;
      default: return &applyDenseKSlotsScalar<T, 0>;
    }
  }

#ifdef QCLAB_SIMD_X86
  /// avx2::applyDenseKSlots by [k - 3][lane mask]; the lane masks of a
  /// register with W complex lanes are 0..W-1.
  template <int K, int... Masks>
  static constexpr std::array<Kernel, sizeof...(Masks)> vectorKernels(
      std::integer_sequence<int, Masks...>) noexcept {
    return {&avx2::applyDenseKSlots<T, K, Masks>...};
  }
  static constexpr auto kLaneMasks =
      std::make_integer_sequence<int, static_cast<int>(kVectorLanes<T>)>{};
  static constexpr std::array<
      std::array<Kernel, static_cast<std::size_t>(kVectorLanes<T>)>, 3>
      kVectorKernels = {vectorKernels<3>(kLaneMasks),
                        vectorKernels<4>(kLaneMasks),
                        vectorKernels<5>(kLaneMasks)};
#endif

  int k_;
  int laneBits_ = 0;  ///< log2 complex lanes per slot (0: scalar tier)
  int folded_ = 0;    ///< gate bits folded into the lanes
  int laneMask_ = 0;  ///< their lane-index bits
  Kernel kernel_;
  int positions_[64];
  std::int64_t offsets_[std::size_t{1} << kMaxDenseK];
  alignas(32) T coef_[kCoefCapacity];
  std::vector<std::int64_t> wideOffsets_;  ///< k > kMaxDenseK
  std::vector<T> wideCoef_;                ///< k > kMaxDenseK
};

/// Run-structured diagonal k-qubit gate over `dim` amplitudes: the row
/// index is constant over every unit-stride run of 2^minPos amplitudes
/// (minPos = the lowest gate bit position), so instead of a per-amplitude
/// bit-gather of the row index the table row is computed once per run
/// and the run is scaled through the dispatched scaleRun kernel.  Row
/// indices walk by XOR deltas: bit-gathering distributes over XOR and a
/// sequential counter flips exactly its ctz+1 low bits per increment, so
/// after precomputing the gather of each of the m+1 possible flip patterns
/// the per-step gather collapses to one ctz plus one XOR.  Three paths:
///  - gate bits contiguous at position 0 (the full-window / suffix case):
///    row = i mod 2^k, a sequential cyclic table walk,
///  - runs of >= 4 amplitudes: delta-walked row + scaleRun per run,
///  - short runs: per-amplitude delta-walked row.
/// The path choice depends only on `positions`, never on `dim`, so chunked
/// (blocked) and full-state sweeps stay bit-identical.
template <typename T>
void applyDiagonalRunsSpan(std::complex<T>* state, std::int64_t dim,
                           const std::vector<int>& positions,
                           const std::vector<std::complex<T>>& diagonal,
                           SimdLevel level) {
  const int k = static_cast<int>(positions.size());
  // `positions` is MSB-first over ascending qubits => strictly descending,
  // so front() is the highest bit and back() the lowest.
  if (positions.front() == k - 1) {
    // Contiguous suffix [0, k): row = i mod 2^k, cyclic table walk.
    const util::index_t mask = (util::index_t{1} << k) - 1;
    std::complex<T>* __restrict__ psi = state;
    const std::complex<T>* __restrict__ diag = diagonal.data();
    for (std::int64_t i = 0; i < dim; ++i) {
      const std::complex<T> d = diag[static_cast<util::index_t>(i) & mask];
      const T xr = psi[i].real(), xi = psi[i].imag();
      psi[i] = std::complex<T>(d.real() * xr - d.imag() * xi,
                               d.real() * xi + d.imag() * xr);
    }
    return;
  }
  const int minPos = positions.back();
  const std::int64_t runLen = std::int64_t{1} << minPos;
  // deltas[j]: gather of the flip pattern with j low counter bits set —
  // counter bit c lives at span position shift + c, and row bit (k-1-i)
  // collects span position positions[i].
  const int shift = runLen >= 4 ? minPos : 0;
  const int counterBits = [&] {
    int m = 0;
    while ((std::int64_t{1} << (m + shift)) < dim) ++m;
    return m;
  }();
  util::index_t deltas[64];
  for (int j = 0; j <= counterBits; ++j) {
    util::index_t g = 0;
    for (int i = 0; i < k; ++i) {
      const int c = positions[static_cast<std::size_t>(i)] - shift;
      if (c >= 0 && c < j) g |= util::index_t{1} << (k - 1 - i);
    }
    deltas[j] = g;
  }
  if (runLen >= 4) {
    const std::int64_t runs = dim >> minPos;
    util::index_t row = 0;
    for (std::int64_t t = 0;;) {
      scaleRun(state + (t << minPos), runLen, diagonal[row], level);
      if (++t == runs) break;
      row ^= deltas[util::countTrailingZeros(
                        static_cast<util::index_t>(t)) + 1];
    }
    return;
  }
  // Short runs: per-amplitude delta walk (same multiply as the naive
  // gather, only the row indexing is cheaper).
  std::complex<T>* __restrict__ psi = state;
  const std::complex<T>* __restrict__ diag = diagonal.data();
  util::index_t row = 0;
  for (std::int64_t i = 0;;) {
    const std::complex<T> d = diag[row];
    const T xr = psi[i].real(), xi = psi[i].imag();
    psi[i] = std::complex<T>(d.real() * xr - d.imag() * xi,
                             d.real() * xi + d.imag() * xr);
    if (++i == dim) break;
    row ^= deltas[util::countTrailingZeros(
                      static_cast<util::index_t>(i)) + 1];
  }
}

}  // namespace simd
}  // namespace qclab::sim
