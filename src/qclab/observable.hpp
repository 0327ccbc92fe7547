#pragma once

/// \file observable.hpp
/// \brief Pauli-string observables and expectation values.
///
/// QCLAB is positioned as a prototyping platform for quantum algorithm
/// research (paper §1); measuring expectation values of Pauli observables
/// is the core primitive of that workflow (VQE-style energy evaluation,
/// tomography generalizations).  No operator matrix is ever materialized
/// and no gate kernel runs: each PauliString is lowered once, at
/// construction, into bit masks over the basis index (qubit q is bit
/// util::bitPosition(q, n) = n-1-q):
///
///   P |j> = i^{nbY} (-1)^{popcount(j & z)} |j ^ x>,
///
/// x marking the X and Y factors, z the Z and Y factors.
///
/// Cost model:
/// - Observable::expectation groups its terms by X-mask and makes one
///   read-only pass over the state per group, with no allocation and no
///   copy.  The pass walks tiles of 2^kPauliTileBits indices.  Per tile it
///   forms |a_j|^2 (the diagonal group, x = 0, e.g. all of MaxCut) or
///   conj(a_{j^x}) a_j over the indices with x's top bit clear (each pair
///   j, j^x is read once).  It then takes one dot product of those values
///   with each precomputed +-1 table of a Z-mask over the tile's low bits
///   (terms agreeing on their low bits share a table), and adds each
///   term's weight times its table's dot, signed by the term's parity over
///   the tile's high bits.  Cost per group: 2^n amplitude reads,
///   min(terms, 2 * 2^kPauliTileBits) * 2^n multiply-adds and
///   terms * 2^(n - kPauliTileBits) parities.  The pass is serial, so the
///   value does not depend on the thread count.
/// - PauliString::expectation is the same pass with one term.
/// - apply / variance accumulate coefficient * i^{nbY} * sign * a_j into
///   out[j ^ x] of one output vector: O(terms * 2^n), one allocation.
/// - Masks live in 64-bit indices: evaluating a string on more than 63
///   qubits throws QubitRangeError (such strings stay constructible, e.g.
///   for stabilizer tableaus).

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <complex>
#include <string>
#include <vector>

#include "qclab/dense/ops.hpp"
#include "qclab/sim/state_buffer.hpp"
#include "qclab/util/bits.hpp"
#include "qclab/util/errors.hpp"

namespace qclab {

namespace detail {

/// Index bits per tile of the expectation pass (64 amplitudes: the tile's
/// values and one sign table stay in L1).
inline constexpr int kPauliTileBits = 6;
inline constexpr std::size_t kPauliTile = std::size_t{1} << kPauliTileBits;

/// Widest register whose Pauli masks fit a 64-bit basis index.
inline constexpr int kMaxPauliQubits = 63;

/// Throws unless a `nbQubits`-qubit Pauli operator can act on a state of
/// `size` amplitudes.
inline void requirePauliState(int nbQubits, std::size_t size) {
  if (nbQubits > kMaxPauliQubits) {
    throw QubitRangeError("Pauli operator on " + std::to_string(nbQubits) +
                          " qubits exceeds the 63-qubit mask width");
  }
  util::require(size == (std::size_t{1} << nbQubits),
                "state dimension does not match Pauli string length");
}

/// sum_k values[k] * signs[k] over one tile of `len` (a power of two)
/// entries, in a fixed order that vectorizes.
template <typename T>
T signedTileSum(const T* values, const T* signs, std::size_t len) {
  if (len < 8) {
    T sum(0);
    for (std::size_t k = 0; k < len; ++k) sum += values[k] * signs[k];
    return sum;
  }
  T acc[8] = {};
  for (std::size_t k = 0; k < len; k += 8) {
    for (std::size_t l = 0; l < 8; ++l) acc[l] += values[k + l] * signs[k + l];
  }
  return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
         ((acc[4] + acc[5]) + (acc[6] + acc[7]));
}

/// The signs (-1)^{popcount(k & zLow)} of a Z-mask over one tile's low
/// index bits k, and which part of the tile values they weigh.  Terms of a
/// group that agree on both share one table, so a pass takes at most
/// 2 * kPauliTile dot products per tile however many terms it evaluates
/// (on the 16-qubit MaxCut H_C, 25 terms on 12 tables, 1.5x faster than
/// one table per term on a 4-vCPU Xeon).
template <typename T>
struct PauliSignTable {
  util::index_t zLow = 0;
  bool imaginary = false;
  std::array<T, kPauliTile> signs{};
};

template <typename T>
PauliSignTable<T> pauliSignTable(util::index_t zLow, bool imaginary) {
  PauliSignTable<T> table{zLow, imaginary, {}};
  for (std::size_t k = 0; k < kPauliTile; ++k) {
    table.signs[k] = (std::popcount(k & zLow) & 1) ? T(-1) : T(1);
  }
  return table;
}

/// One term of an X-mask group, lowered for the expectation pass.
template <typename T>
struct PauliSweepTerm {
  /// Z-mask in the pass's index space (x's top bit removed).
  util::index_t z = 0;
  /// Real factor of the term's summed tile values (see pauliSweepTerm).
  T weight = T(0);
  /// Sums Im(conj(a_{j^x}) a_j) instead of the real part.
  bool imaginary = false;
  /// Index of the group's PauliSignTable for (z's low bits, imaginary).
  std::size_t table = 0;
};

/// Lowers `coefficient * P` (masks x, z; nbY Y factors) for the pass.
/// With q_j = conj(a_{j^x}) a_j, <P> = i^{nbY} sum_j s(j) q_j.  For x != 0
/// the partner j^x has sign s(j) (-1)^{nbY} and q_{j^x} = conj(q_j), so the
/// sum over j with x's top bit clear is i^{nbY} sum_j s(j) (q_j + (-1)^{nbY}
/// conj(q_j)): 2 Re q_j times +-1 for even nbY, 2 Im q_j times -+1 for odd.
template <typename T>
PauliSweepTerm<T> pauliSweepTerm(util::index_t x, util::index_t z, int nbY,
                                 T coefficient) {
  if (x == 0) return {z, coefficient, false, 0};
  const int top = std::bit_width(x) - 1;
  const T sign = (nbY & 3) == 0 || (nbY & 3) == 3 ? T(1) : T(-1);
  return {util::removeBit(z, top), T(2) * sign * coefficient, (nbY & 1) != 0,
          0};
}

/// sum_t weight_t * (signed tile values of term t) for the terms sharing
/// X-mask `x`, in one read-only pass over the 2^n amplitudes `a`.  The
/// `nbTables` (at most 2 * kPauliTile) sign tables are distinct.
template <typename T>
T pauliGroupExpectation(const std::complex<T>* a, int n, util::index_t x,
                        const PauliSignTable<T>* tables, std::size_t nbTables,
                        const PauliSweepTerm<T>* terms, std::size_t nbTerms) {
  const int top = x == 0 ? 0 : std::bit_width(x) - 1;
  const int bits = x == 0 ? n : n - 1;
  const std::size_t tile = std::size_t{1} << std::min(kPauliTileBits, bits);
  const util::index_t end = util::index_t{1} << bits;
  T re[kPauliTile];
  T im[kPauliTile];
  T dots[2 * kPauliTile];
  T total(0);
  for (util::index_t base = 0; base < end; base += tile) {
    if (x == 0) {
      for (std::size_t k = 0; k < tile; ++k) re[k] = std::norm(a[base + k]);
    } else {
      for (std::size_t k = 0; k < tile; ++k) {
        const util::index_t j = util::insertZeroBit(base + k, top);
        const std::complex<T> u = a[j];
        const std::complex<T> v = a[j ^ x];
        re[k] = v.real() * u.real() + v.imag() * u.imag();
        im[k] = v.real() * u.imag() - v.imag() * u.real();
      }
    }
    for (std::size_t s = 0; s < nbTables; ++s) {
      dots[s] = signedTileSum(tables[s].imaginary ? im : re,
                              tables[s].signs.data(), tile);
    }
    T tileSum(0);
    for (std::size_t t = 0; t < nbTerms; ++t) {
      const PauliSweepTerm<T>& term = terms[t];
      const T value = term.weight * dots[term.table];
      tileSum += (std::popcount(base & term.z) & 1) ? -value : value;
    }
    total += tileSum;
  }
  return total;
}

/// out[j ^ x] += coefficient * i^{nbY} * (-1)^{popcount(j & z)} * in[j]
/// for all 2^n indices j.
template <typename T>
void accumulatePauli(const std::complex<T>* in, std::complex<T>* out, int n,
                     util::index_t x, util::index_t z, int nbY,
                     T coefficient) {
  // i^{nbY} is +-1 (even nbY) or +-i (odd nbY: multiply by i rotates).
  const T scale = (nbY & 2) ? -coefficient : coefficient;
  const bool rotate = (nbY & 1) != 0;
  const std::size_t tile = std::size_t{1} << std::min(kPauliTileBits, n);
  const util::index_t end = util::index_t{1} << n;
  const auto signs = pauliSignTable<T>(z, false).signs;
  for (util::index_t base = 0; base < end; base += tile) {
    const T factor = (std::popcount(base & z) & 1) ? -scale : scale;
    for (std::size_t k = 0; k < tile; ++k) {
      const T w = factor * signs[k];
      const std::complex<T> a = in[base + k];
      out[(base + k) ^ x] += rotate ? std::complex<T>(-w * a.imag(), w * a.real())
                                    : std::complex<T>(w * a.real(), w * a.imag());
    }
  }
}

}  // namespace detail

/// A weighted Pauli string, e.g. 1.5 * "XIZY": character k acts on
/// qubit k ('I', 'X', 'Y', 'Z'; case-insensitive).
template <typename T>
class PauliString {
 public:
  /// Builds `coefficient * paulis`.  Throws on characters outside IXYZ.
  explicit PauliString(std::string paulis, T coefficient = T(1))
      : paulis_(std::move(paulis)), coefficient_(coefficient) {
    util::require(!paulis_.empty(), "empty Pauli string");
    const int n = nbQubits();
    for (int q = 0; q < n; ++q) {
      char& c = paulis_[static_cast<std::size_t>(q)];
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      util::require(c == 'I' || c == 'X' || c == 'Y' || c == 'Z',
                    "Pauli string may contain only I, X, Y, Z");
      if (c == 'I' || n > detail::kMaxPauliQubits) continue;
      const util::index_t bit = util::index_t{1} << util::bitPosition(q, n);
      if (c != 'Z') xMask_ |= bit;
      if (c != 'X') zMask_ |= bit;
      if (c == 'Y') ++nbY_;
    }
  }

  /// Number of qubits the string is defined on.
  int nbQubits() const noexcept { return static_cast<int>(paulis_.size()); }

  /// The Pauli characters.
  const std::string& paulis() const noexcept { return paulis_; }

  /// The real coefficient.
  T coefficient() const noexcept { return coefficient_; }
  void setCoefficient(T coefficient) noexcept { coefficient_ = coefficient; }

  /// Number of non-identity factors.
  int weight() const noexcept {
    int w = 0;
    for (char c : paulis_) {
      if (c != 'I') ++w;
    }
    return w;
  }

  /// Basis-index masks of the X and Y factors (xMask) and of the Z and Y
  /// factors (zMask); qubit q is bit util::bitPosition(q, nbQubits()).
  /// Both are 0 for strings longer than 63 qubits, which cannot be
  /// evaluated on a state.
  util::index_t xMask() const noexcept { return xMask_; }
  util::index_t zMask() const noexcept { return zMask_; }
  /// Number of Y factors.
  int nbY() const noexcept { return nbY_; }

  /// coefficient * P |state>.
  std::vector<std::complex<T>> apply(
      const std::vector<std::complex<T>>& state) const {
    detail::requirePauliState(nbQubits(), state.size());
    std::vector<std::complex<T>> result(state.size());
    detail::accumulatePauli(state.data(), result.data(), nbQubits(), xMask_,
                            zMask_, nbY_, coefficient_);
    return result;
  }

  /// Expectation value <psi| coefficient * P |psi> (real for real
  /// coefficients), in one read-only pass over the state.
  T expectation(const std::vector<std::complex<T>>& state) const {
    return expectation(state.data(), state.size());
  }

  /// Expectation on a tiered state buffer, read in place (any tier).
  T expectation(const sim::StateBuffer<T>& state) const {
    return expectation(state.data(), state.size());
  }

  /// Dense matrix of `coefficient * P` (tests / small registers).
  dense::Matrix<T> matrix() const {
    dense::Matrix<T> m(1, 1);
    m(0, 0) = std::complex<T>(coefficient_);
    for (char c : paulis_) {
      switch (c) {
        case 'X': m = dense::kron(m, dense::pauliX<T>()); break;
        case 'Y': m = dense::kron(m, dense::pauliY<T>()); break;
        case 'Z': m = dense::kron(m, dense::pauliZ<T>()); break;
        default: m = dense::kron(m, dense::pauliI<T>()); break;
      }
    }
    return m;
  }

 private:
  T expectation(const std::complex<T>* state, std::size_t size) const {
    detail::requirePauliState(nbQubits(), size);
    const auto term =
        detail::pauliSweepTerm(xMask_, zMask_, nbY_, coefficient_);
    const auto table = detail::pauliSignTable<T>(
        term.z & (detail::kPauliTile - 1), term.imaginary);
    return detail::pauliGroupExpectation(state, nbQubits(), xMask_, &table,
                                         1, &term, 1);
  }

  std::string paulis_;
  T coefficient_;
  util::index_t xMask_ = 0;
  util::index_t zMask_ = 0;
  int nbY_ = 0;
};

/// A Hermitian observable: a real-weighted sum of Pauli strings on a fixed
/// register size.
template <typename T>
class Observable {
 public:
  /// Empty observable on `nbQubits` qubits.
  explicit Observable(int nbQubits) : nbQubits_(nbQubits) {
    util::require(nbQubits >= 1, "observable needs at least one qubit");
  }

  int nbQubits() const noexcept { return nbQubits_; }

  /// Adds a term; its string length must match the register size.  Terms
  /// with identical Pauli strings are merged.
  Observable& add(PauliString<T> term) {
    util::require(term.nbQubits() == nbQubits_,
                  "Pauli string length does not match the observable");
    for (std::size_t i = 0; i < terms_.size(); ++i) {
      if (terms_[i].paulis() == term.paulis()) {
        terms_[i].setCoefficient(terms_[i].coefficient() + term.coefficient());
        lower(i);
        return *this;
      }
    }
    terms_.push_back(std::move(term));
    lower(terms_.size() - 1);
    return *this;
  }

  /// Convenience: add(coefficient * paulis).
  Observable& add(const std::string& paulis, T coefficient) {
    return add(PauliString<T>(paulis, coefficient));
  }

  const std::vector<PauliString<T>>& terms() const noexcept { return terms_; }
  std::size_t nbTerms() const noexcept { return terms_.size(); }

  /// H |psi>.
  std::vector<std::complex<T>> apply(
      const std::vector<std::complex<T>>& state) const {
    detail::requirePauliState(nbQubits_, state.size());
    std::vector<std::complex<T>> result(state.size());
    for (const auto& term : terms_) {
      detail::accumulatePauli(state.data(), result.data(), nbQubits_,
                              term.xMask(), term.zMask(), term.nbY(),
                              term.coefficient());
    }
    return result;
  }

  /// <psi| H |psi>, in one read-only pass over the state per X-mask group.
  T expectation(const std::vector<std::complex<T>>& state) const {
    return expectation(state.data(), state.size());
  }

  /// <psi| H |psi> on a tiered state buffer, read in place (any tier).
  T expectation(const sim::StateBuffer<T>& state) const {
    return expectation(state.data(), state.size());
  }

  /// Var(H) = <H^2> - <H>^2 for the given state.
  T variance(const std::vector<std::complex<T>>& state) const {
    const auto hPsi = apply(state);
    const T squared = dense::normSquared(hPsi);               // <H^2>
    const T mean = std::real(dense::inner(state, hPsi));      // <H>
    return squared - mean * mean;
  }

  /// Dense matrix (tests / small registers).
  dense::Matrix<T> matrix() const {
    const std::size_t dim = std::size_t{1} << nbQubits_;
    dense::Matrix<T> m(dim, dim);
    for (const auto& term : terms_) {
      m += term.matrix();
    }
    return m;
  }

 private:
  /// Terms sharing one X-mask, lowered for the expectation pass.
  struct Group {
    util::index_t x;
    std::vector<std::size_t> termIndices;  // into terms_
    std::vector<detail::PauliSweepTerm<T>> lowered;
    std::vector<detail::PauliSignTable<T>> tables;
  };

  /// (Re)lowers terms_[index] into its X-mask group.
  void lower(std::size_t index) {
    const PauliString<T>& term = terms_[index];
    auto lowered = detail::pauliSweepTerm(term.xMask(), term.zMask(),
                                          term.nbY(), term.coefficient());
    auto group = std::find_if(groups_.begin(), groups_.end(),
                              [&](const Group& g) { return g.x == term.xMask(); });
    if (group == groups_.end()) {
      groups_.push_back({term.xMask(), {}, {}, {}});
      group = groups_.end() - 1;
    }
    const auto slot = std::find(group->termIndices.begin(),
                                group->termIndices.end(), index);
    if (slot != group->termIndices.end()) {
      auto& merged =
          group->lowered[static_cast<std::size_t>(slot - group->termIndices.begin())];
      merged.weight = lowered.weight;
      return;
    }
    const util::index_t zLow = lowered.z & (detail::kPauliTile - 1);
    const auto table = std::find_if(
        group->tables.begin(), group->tables.end(), [&](const auto& t) {
          return t.zLow == zLow && t.imaginary == lowered.imaginary;
        });
    lowered.table = static_cast<std::size_t>(table - group->tables.begin());
    if (table == group->tables.end()) {
      group->tables.push_back(
          detail::pauliSignTable<T>(zLow, lowered.imaginary));
    }
    group->termIndices.push_back(index);
    group->lowered.push_back(lowered);
  }

  T expectation(const std::complex<T>* state, std::size_t size) const {
    detail::requirePauliState(nbQubits_, size);
    T total(0);
    for (const Group& group : groups_) {
      total += detail::pauliGroupExpectation(
          state, nbQubits_, group.x, group.tables.data(), group.tables.size(),
          group.lowered.data(), group.lowered.size());
    }
    return total;
  }

  int nbQubits_;
  std::vector<PauliString<T>> terms_;
  std::vector<Group> groups_;
};

/// Transverse-field Ising Hamiltonian on a chain:
///   H = -J * sum_i Z_i Z_{i+1} - h * sum_i X_i
/// (periodic adds the wrap-around ZZ bond).  The canonical benchmark
/// observable for time-evolution compilers like F3C built on QCLAB.
template <typename T>
Observable<T> isingHamiltonian(int nbQubits, T coupling, T field,
                               bool periodic = false) {
  Observable<T> hamiltonian(nbQubits);
  const auto bond = [&](int i, int j) {
    std::string paulis(static_cast<std::size_t>(nbQubits), 'I');
    paulis[static_cast<std::size_t>(i)] = 'Z';
    paulis[static_cast<std::size_t>(j)] = 'Z';
    hamiltonian.add(paulis, -coupling);
  };
  for (int i = 0; i + 1 < nbQubits; ++i) bond(i, i + 1);
  if (periodic && nbQubits > 2) bond(nbQubits - 1, 0);
  for (int i = 0; i < nbQubits; ++i) {
    std::string paulis(static_cast<std::size_t>(nbQubits), 'I');
    paulis[static_cast<std::size_t>(i)] = 'X';
    hamiltonian.add(paulis, -field);
  }
  return hamiltonian;
}

}  // namespace qclab
