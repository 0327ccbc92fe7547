#pragma once

/// \file simd_avx2.hpp
/// \brief AVX2 + FMA gate kernels over unit-stride amplitude runs.
///
/// Every routine here operates on *contiguous* runs of amplitudes: the
/// run structure of the pair update (i, i + 2^pos) means that for any
/// target bit position the |0> and |1> halves of each 2^{pos+1}-aligned
/// group are themselves unit-stride arrays of 2^pos amplitudes, so the
/// kernels take one pointer per matrix column and stream them with plain
/// 256-bit loads — no gather instructions.
///
/// Complex arithmetic uses the interleaved-lane FMA pattern: for an
/// amplitude vector a = [re0, im0, re1, im1, ...] and a gate coefficient
/// c, the product c*a is fmaddsub(a, re(c), swap(a) * im(c)) where swap
/// exchanges the re/im lanes — one shuffle, one multiply, one FMA per
/// complex multiply, with a single rounding on the fused lanes.
///
/// All functions carry __attribute__((target("avx2,fma"))), so this
/// header compiles without -mavx2/-mfma on the command line and the
/// resulting code is only reached through the runtime cpuid dispatch in
/// simd.hpp (detectedSimdLevel).  The surrounding translation unit never
/// executes an AVX2 instruction on hardware that lacks it.

#include <algorithm>
#include <complex>
#include <cstdint>
#include <immintrin.h>

#include "qclab/util/bits.hpp"

#define QCLAB_AVX2_TARGET __attribute__((target("avx2,fma")))

namespace qclab::sim::avx2 {

// ---- double: 2 complex amplitudes per __m256d -------------------------

/// Lanes swapped within each complex slot: [im0, re0, im1, re1].
QCLAB_AVX2_TARGET inline __m256d swapLanes(__m256d x) noexcept {
  return _mm256_permute_pd(x, 0x5);
}

/// c * a for every complex lane of `a`, with c split into broadcast
/// re/im registers (cr = set1(re c), ci = set1(im c)).
QCLAB_AVX2_TARGET inline __m256d cmul(__m256d a, __m256d cr,
                                      __m256d ci) noexcept {
  return _mm256_fmaddsub_pd(a, cr, _mm256_mul_pd(swapLanes(a), ci));
}

/// In-place 2x2 dense update of the unit-stride runs a0 / a1 (`count`
/// complex amplitudes each): (a0, a1) <- (u00 a0 + u01 a1, u10 a0 + u11 a1).
QCLAB_AVX2_TARGET inline void apply1Runs(std::complex<double>* a0,
                                         std::complex<double>* a1,
                                         std::int64_t count,
                                         const std::complex<double> u[4]) {
  const __m256d u00r = _mm256_set1_pd(u[0].real());
  const __m256d u00i = _mm256_set1_pd(u[0].imag());
  const __m256d u01r = _mm256_set1_pd(u[1].real());
  const __m256d u01i = _mm256_set1_pd(u[1].imag());
  const __m256d u10r = _mm256_set1_pd(u[2].real());
  const __m256d u10i = _mm256_set1_pd(u[2].imag());
  const __m256d u11r = _mm256_set1_pd(u[3].real());
  const __m256d u11i = _mm256_set1_pd(u[3].imag());
  double* p0 = reinterpret_cast<double*>(a0);
  double* p1 = reinterpret_cast<double*>(a1);
  const std::int64_t vec = (count / 2) * 2;
  for (std::int64_t j = 0; j < vec; j += 2) {
    const __m256d v0 = _mm256_loadu_pd(p0 + 2 * j);
    const __m256d v1 = _mm256_loadu_pd(p1 + 2 * j);
    const __m256d r0 = _mm256_add_pd(cmul(v0, u00r, u00i),
                                     cmul(v1, u01r, u01i));
    const __m256d r1 = _mm256_add_pd(cmul(v0, u10r, u10i),
                                     cmul(v1, u11r, u11i));
    _mm256_storeu_pd(p0 + 2 * j, r0);
    _mm256_storeu_pd(p1 + 2 * j, r1);
  }
  for (std::int64_t j = vec; j < count; ++j) {
    const std::complex<double> x0 = a0[j];
    const std::complex<double> x1 = a1[j];
    a0[j] = std::complex<double>(
        u[0].real() * x0.real() - u[0].imag() * x0.imag() +
            u[1].real() * x1.real() - u[1].imag() * x1.imag(),
        u[0].real() * x0.imag() + u[0].imag() * x0.real() +
            u[1].real() * x1.imag() + u[1].imag() * x1.real());
    a1[j] = std::complex<double>(
        u[2].real() * x0.real() - u[2].imag() * x0.imag() +
            u[3].real() * x1.real() - u[3].imag() * x1.imag(),
        u[2].real() * x0.imag() + u[2].imag() * x0.real() +
            u[3].real() * x1.imag() + u[3].imag() * x1.real());
  }
}

/// In-place scale of a unit-stride run by the complex constant d.
QCLAB_AVX2_TARGET inline void scaleRun(std::complex<double>* a,
                                       std::int64_t count,
                                       std::complex<double> d) {
  const __m256d dr = _mm256_set1_pd(d.real());
  const __m256d di = _mm256_set1_pd(d.imag());
  double* p = reinterpret_cast<double*>(a);
  const std::int64_t vec = (count / 2) * 2;
  for (std::int64_t j = 0; j < vec; j += 2) {
    _mm256_storeu_pd(p + 2 * j, cmul(_mm256_loadu_pd(p + 2 * j), dr, di));
  }
  for (std::int64_t j = vec; j < count; ++j) {
    const std::complex<double> x = a[j];
    a[j] = std::complex<double>(d.real() * x.real() - d.imag() * x.imag(),
                                d.real() * x.imag() + d.imag() * x.real());
  }
}

/// In-place 4x4 dense update of the four unit-stride runs a[0..3]
/// (`count` complex amplitudes each, MSB-first row order):
/// a[r] <- sum_c u[4r + c] a[c].
QCLAB_AVX2_TARGET inline void apply2Runs(std::complex<double>* const a[4],
                                         std::int64_t count,
                                         const std::complex<double> u[16]) {
  __m256d cr[16], ci[16];
  for (int e = 0; e < 16; ++e) {
    cr[e] = _mm256_set1_pd(u[e].real());
    ci[e] = _mm256_set1_pd(u[e].imag());
  }
  const std::int64_t vec = (count / 2) * 2;
  for (std::int64_t j = 0; j < vec; j += 2) {
    __m256d in[4];
    for (int c = 0; c < 4; ++c) {
      in[c] = _mm256_loadu_pd(reinterpret_cast<double*>(a[c] + j));
    }
    for (int r = 0; r < 4; ++r) {
      __m256d acc = cmul(in[0], cr[4 * r], ci[4 * r]);
      for (int c = 1; c < 4; ++c) {
        acc = _mm256_add_pd(acc, cmul(in[c], cr[4 * r + c], ci[4 * r + c]));
      }
      _mm256_storeu_pd(reinterpret_cast<double*>(a[r] + j), acc);
    }
  }
  for (std::int64_t j = vec; j < count; ++j) {
    std::complex<double> in[4] = {a[0][j], a[1][j], a[2][j], a[3][j]};
    for (int r = 0; r < 4; ++r) {
      double re = 0, im = 0;
      for (int c = 0; c < 4; ++c) {
        re += u[4 * r + c].real() * in[c].real() -
              u[4 * r + c].imag() * in[c].imag();
        im += u[4 * r + c].real() * in[c].imag() +
              u[4 * r + c].imag() * in[c].real();
      }
      a[r][j] = std::complex<double>(re, im);
    }
  }
}

// ---- float: 4 complex amplitudes per __m256 ---------------------------

QCLAB_AVX2_TARGET inline __m256 swapLanes(__m256 x) noexcept {
  return _mm256_permute_ps(x, 0xB1);
}

QCLAB_AVX2_TARGET inline __m256 cmul(__m256 a, __m256 cr, __m256 ci) noexcept {
  return _mm256_fmaddsub_ps(a, cr, _mm256_mul_ps(swapLanes(a), ci));
}

QCLAB_AVX2_TARGET inline void apply1Runs(std::complex<float>* a0,
                                         std::complex<float>* a1,
                                         std::int64_t count,
                                         const std::complex<float> u[4]) {
  const __m256 u00r = _mm256_set1_ps(u[0].real());
  const __m256 u00i = _mm256_set1_ps(u[0].imag());
  const __m256 u01r = _mm256_set1_ps(u[1].real());
  const __m256 u01i = _mm256_set1_ps(u[1].imag());
  const __m256 u10r = _mm256_set1_ps(u[2].real());
  const __m256 u10i = _mm256_set1_ps(u[2].imag());
  const __m256 u11r = _mm256_set1_ps(u[3].real());
  const __m256 u11i = _mm256_set1_ps(u[3].imag());
  float* p0 = reinterpret_cast<float*>(a0);
  float* p1 = reinterpret_cast<float*>(a1);
  const std::int64_t vec = (count / 4) * 4;
  for (std::int64_t j = 0; j < vec; j += 4) {
    const __m256 v0 = _mm256_loadu_ps(p0 + 2 * j);
    const __m256 v1 = _mm256_loadu_ps(p1 + 2 * j);
    const __m256 r0 = _mm256_add_ps(cmul(v0, u00r, u00i),
                                    cmul(v1, u01r, u01i));
    const __m256 r1 = _mm256_add_ps(cmul(v0, u10r, u10i),
                                    cmul(v1, u11r, u11i));
    _mm256_storeu_ps(p0 + 2 * j, r0);
    _mm256_storeu_ps(p1 + 2 * j, r1);
  }
  for (std::int64_t j = vec; j < count; ++j) {
    const std::complex<float> x0 = a0[j];
    const std::complex<float> x1 = a1[j];
    a0[j] = std::complex<float>(
        u[0].real() * x0.real() - u[0].imag() * x0.imag() +
            u[1].real() * x1.real() - u[1].imag() * x1.imag(),
        u[0].real() * x0.imag() + u[0].imag() * x0.real() +
            u[1].real() * x1.imag() + u[1].imag() * x1.real());
    a1[j] = std::complex<float>(
        u[2].real() * x0.real() - u[2].imag() * x0.imag() +
            u[3].real() * x1.real() - u[3].imag() * x1.imag(),
        u[2].real() * x0.imag() + u[2].imag() * x0.real() +
            u[3].real() * x1.imag() + u[3].imag() * x1.real());
  }
}

QCLAB_AVX2_TARGET inline void scaleRun(std::complex<float>* a,
                                       std::int64_t count,
                                       std::complex<float> d) {
  const __m256 dr = _mm256_set1_ps(d.real());
  const __m256 di = _mm256_set1_ps(d.imag());
  float* p = reinterpret_cast<float*>(a);
  const std::int64_t vec = (count / 4) * 4;
  for (std::int64_t j = 0; j < vec; j += 4) {
    _mm256_storeu_ps(p + 2 * j, cmul(_mm256_loadu_ps(p + 2 * j), dr, di));
  }
  for (std::int64_t j = vec; j < count; ++j) {
    const std::complex<float> x = a[j];
    a[j] = std::complex<float>(d.real() * x.real() - d.imag() * x.imag(),
                               d.real() * x.imag() + d.imag() * x.real());
  }
}

QCLAB_AVX2_TARGET inline void apply2Runs(std::complex<float>* const a[4],
                                         std::int64_t count,
                                         const std::complex<float> u[16]) {
  __m256 cr[16], ci[16];
  for (int e = 0; e < 16; ++e) {
    cr[e] = _mm256_set1_ps(u[e].real());
    ci[e] = _mm256_set1_ps(u[e].imag());
  }
  const std::int64_t vec = (count / 4) * 4;
  for (std::int64_t j = 0; j < vec; j += 4) {
    __m256 in[4];
    for (int c = 0; c < 4; ++c) {
      in[c] = _mm256_loadu_ps(reinterpret_cast<float*>(a[c] + j));
    }
    for (int r = 0; r < 4; ++r) {
      __m256 acc = cmul(in[0], cr[4 * r], ci[4 * r]);
      for (int c = 1; c < 4; ++c) {
        acc = _mm256_add_ps(acc, cmul(in[c], cr[4 * r + c], ci[4 * r + c]));
      }
      _mm256_storeu_ps(reinterpret_cast<float*>(a[r] + j), acc);
    }
  }
  for (std::int64_t j = vec; j < count; ++j) {
    std::complex<float> in[4] = {a[0][j], a[1][j], a[2][j], a[3][j]};
    for (int r = 0; r < 4; ++r) {
      float re = 0, im = 0;
      for (int c = 0; c < 4; ++c) {
        re += u[4 * r + c].real() * in[c].real() -
              u[4 * r + c].imag() * in[c].imag();
        im += u[4 * r + c].real() * in[c].imag() +
              u[4 * r + c].imag() * in[c].real();
      }
      a[r][j] = std::complex<float>(re, im);
    }
  }
}

// ---- dense k-qubit gates: 2^k unit-stride runs through one matrix -----

/// The register operations the dense k-qubit kernel needs, per scalar
/// type.  `flip<Mask>` exchanges the complex lanes whose lane index
/// differs by Mask (the partner amplitude of a gate bit folded into the
/// lanes).
template <typename T>
struct Lanes;

template <>
struct Lanes<double> {
  using V = __m256d;
  static constexpr int kComplex = 2;
  QCLAB_AVX2_TARGET static V load(const double* p) noexcept {
    return _mm256_loadu_pd(p);
  }
  QCLAB_AVX2_TARGET static void store(double* p, V x) noexcept {
    _mm256_storeu_pd(p, x);
  }
  QCLAB_AVX2_TARGET static V broadcast(const double* p) noexcept {
    return _mm256_broadcast_sd(p);
  }
  QCLAB_AVX2_TARGET static V zero() noexcept { return _mm256_setzero_pd(); }
  QCLAB_AVX2_TARGET static V fma(V a, V b, V c) noexcept {
    return _mm256_fmadd_pd(a, b, c);
  }
  QCLAB_AVX2_TARGET static V addsub(V a, V b) noexcept {
    return _mm256_addsub_pd(a, b);
  }
  QCLAB_AVX2_TARGET static V swapReIm(V x) noexcept { return swapLanes(x); }
  template <int Mask>
  QCLAB_AVX2_TARGET static V flip(V x) noexcept {
    static_assert(Mask == 1);
    return _mm256_permute2f128_pd(x, x, 0x01);
  }
};

template <>
struct Lanes<float> {
  using V = __m256;
  static constexpr int kComplex = 4;
  QCLAB_AVX2_TARGET static V load(const float* p) noexcept {
    return _mm256_loadu_ps(p);
  }
  QCLAB_AVX2_TARGET static void store(float* p, V x) noexcept {
    _mm256_storeu_ps(p, x);
  }
  QCLAB_AVX2_TARGET static V broadcast(const float* p) noexcept {
    return _mm256_broadcast_ss(p);
  }
  QCLAB_AVX2_TARGET static V zero() noexcept { return _mm256_setzero_ps(); }
  QCLAB_AVX2_TARGET static V fma(V a, V b, V c) noexcept {
    return _mm256_fmadd_ps(a, b, c);
  }
  QCLAB_AVX2_TARGET static V addsub(V a, V b) noexcept {
    return _mm256_addsub_ps(a, b);
  }
  QCLAB_AVX2_TARGET static V swapReIm(V x) noexcept { return swapLanes(x); }
  template <int Mask>
  QCLAB_AVX2_TARGET static V flip(V x) noexcept {
    static_assert(Mask >= 1 && Mask <= 3);
    if constexpr (Mask == 1) return _mm256_permute_ps(x, 0x4E);
    if constexpr (Mask == 2) return _mm256_permute2f128_ps(x, x, 0x01);
    if constexpr (Mask == 3) {
      const V pairs = _mm256_permute_ps(x, 0x4E);
      return _mm256_permute2f128_ps(pairs, pairs, 0x01);
    }
  }
};

/// Spreads the low bits of `value` over the set bits of `mask` (pdep).
constexpr int depositBits(int value, int mask) noexcept {
  int out = 0;
  for (int bit = 0; mask != 0; mask &= mask - 1, ++bit) {
    if ((value >> bit) & 1) out |= mask & -mask;
  }
  return out;
}

/// Dense k-qubit gate over slots [first, last) of a span (the slot layout
/// and coefficient tables are built by simd::DenseKGate).  A slot is one
/// register-wide column of the gate's 2^k partner runs: one vector load
/// per high (run-structured) gate bit combination, with the gate bits
/// below the register width (LaneMask) folded into the lanes.  Each
/// output row keeps two accumulators — x * re(m) and swap(x) * im(m) —
/// and one addsub finishes the complex product, so every matrix element
/// costs two FMAs and no shuffle; four rows in flight hide the FMA
/// latency.  All inputs of a slot are loaded before any row is stored,
/// so the update is in place with no gather buffer.  On a cache-resident
/// state this runs at the FMA bound (2^k / 2 cycles per double
/// amplitude).
///
/// `positions` are the K ascending gate bit positions, the folded ones
/// first; `offsets` the 2^{k_high} run offsets.  `coef` layout: with no
/// folded bits, split re/im scalars broadcast per use (re at [r * D + c],
/// im at D * D + [r * D + c]); with folded bits, per (row, column, lane
/// flip) one re and one im register of lane-specific coefficients.
template <typename T, int K, int LaneMask>
QCLAB_AVX2_TARGET void applyDenseKSlots(std::complex<T>* state,
                                        std::int64_t first, std::int64_t last,
                                        int /*k*/, const int* positions,
                                        const std::int64_t* offsets,
                                        const T* coef) {
  using L = Lanes<T>;
  using V = typename L::V;
  constexpr int kLaneBits = L::kComplex == 2 ? 1 : 2;
  constexpr int kStep = 2 * L::kComplex;  // scalars per register
  constexpr int kFolded = __builtin_popcount(LaneMask);
  constexpr int kHigh = K - kFolded;
  constexpr int kRows = 1 << kHigh;
  constexpr int kFlips = 1 << kFolded;
  constexpr int kBlock = kRows < 4 ? kRows : 4;  // rows in flight
  T* const psi = reinterpret_cast<T*>(state);
  const int* const highPos = positions + kFolded;
  const std::int64_t runMask =
      (std::int64_t{1} << (highPos[0] - kLaneBits)) - 1;
  for (std::int64_t o = first; o < last;) {
    util::index_t base = static_cast<util::index_t>(o) << kLaneBits;
    for (int i = 0; i < kHigh; ++i) base = util::insertZeroBit(base, highPos[i]);
    const std::int64_t runEnd = std::min(last, (o | runMask) + 1);
    for (T* slot = psi + 2 * base; o < runEnd; ++o, slot += kStep) {
      V in[kRows][kFlips], crossed[kRows][kFlips];
      for (int c = 0; c < kRows; ++c) {
        const V x = L::load(slot + 2 * offsets[c]);
        in[c][0] = x;
        if constexpr (kFlips > 1) {
          in[c][1] = L::template flip<depositBits(1, LaneMask)>(x);
        }
        if constexpr (kFlips > 2) {
          in[c][2] = L::template flip<depositBits(2, LaneMask)>(x);
          in[c][3] = L::template flip<depositBits(3, LaneMask)>(x);
        }
        for (int f = 0; f < kFlips; ++f) crossed[c][f] = L::swapReIm(in[c][f]);
      }
      for (int r0 = 0; r0 < kRows; r0 += kBlock) {
        V accRe[kBlock], accIm[kBlock];
        for (int i = 0; i < kBlock; ++i) {
          accRe[i] = L::zero();
          accIm[i] = L::zero();
        }
        for (int c = 0; c < kRows; ++c) {
          for (int f = 0; f < kFlips; ++f) {
            for (int i = 0; i < kBlock; ++i) {
              V mr, mi;
              if constexpr (kFolded == 0) {
                const int e = (r0 + i) * kRows + c;
                mr = L::broadcast(coef + e);
                mi = L::broadcast(coef + kRows * kRows + e);
              } else {
                const T* e =
                    coef + (((r0 + i) * kRows + c) * kFlips + f) * 2 * kStep;
                mr = L::load(e);
                mi = L::load(e + kStep);
              }
              accRe[i] = L::fma(in[c][f], mr, accRe[i]);
              accIm[i] = L::fma(crossed[c][f], mi, accIm[i]);
            }
          }
        }
        for (int i = 0; i < kBlock; ++i) {
          L::store(slot + 2 * offsets[r0 + i], L::addsub(accRe[i], accIm[i]));
        }
      }
    }
  }
}

}  // namespace qclab::sim::avx2

#undef QCLAB_AVX2_TARGET
