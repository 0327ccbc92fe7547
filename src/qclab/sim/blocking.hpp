#pragma once

/// \file blocking.hpp
/// \brief Cache-blocked execution of low-qubit gate runs.
///
/// A gate whose target bit positions are all below `b` permutes and mixes
/// amplitudes only *within* each 2^b-aligned chunk of the state: chunks
/// are closed under its index transform.  So a run of consecutive fused
/// blocks that all live in the low-position window can be applied with a
/// SINGLE streaming sweep of the state — load one 2^b-amplitude chunk
/// (sized to fit L2), apply the whole gate run to it while it is
/// cache-hot, store it, move on — instead of one full-state sweep per
/// block.  The chunked execution is bit-identical to the sequential
/// unblocked sweeps: every chunk sees the same span kernels, in the same
/// order, over the same amplitudes.
///
/// In the MSB-first qubit convention, bit position = nbQubits - 1 - qubit,
/// so the low-position window is the HIGH-index qubits [nbQubits - b,
/// nbQubits) — exactly the targets with long unit-stride runs that the
/// SIMD tier (simd.hpp) vectorizes best.  Blocking and SIMD compose: the
/// per-chunk kernels below are the same dispatched span kernels.
///
/// The scheduler here is generic over any block type exposing `.qubits`
/// (ascending), `.diagonal`, and the matching payload (`.matrix` for
/// dense blocks, the `.diag` table for diagonal ones), so fusion.hpp can
/// build a BlockSchedule into its FusionPlan without a dependency cycle.

#include <algorithm>
#include <chrono>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "qclab/dense/matrix.hpp"
#include "qclab/obs/sentinel.hpp"
#include "qclab/obs/trace.hpp"
#include "qclab/sim/memory_advisor.hpp"
#include "qclab/sim/simd.hpp"
#include "qclab/util/bits.hpp"
#include "qclab/util/errors.hpp"

#ifdef QCLAB_HAS_OPENMP
#include <omp.h>
#endif

namespace qclab::sim {

/// Tuning knobs of the cache-blocking scheduler.
struct BlockingOptions {
  /// Master switch; off leaves every fused block on its own full sweep.
  bool enabled = true;
  /// Chunk size in qubits; 0 = size to l2Bytes (autoBlockQubits).
  int blockQubits = 0;
  /// Assumed per-core L2 capacity used by the automatic chunk sizing.
  std::size_t l2Bytes = std::size_t{1} << 20;
  /// Minimum consecutive blockable fused blocks worth a blocked sweep;
  /// a single block gains nothing from chunking (same one sweep).
  std::size_t minRunBlocks = 2;
};

/// Largest b such that a 2^b-amplitude chunk fills at most half of
/// l2Bytes (leaving room for gate data and the streaming frontier).
template <typename T>
int autoBlockQubits(std::size_t l2Bytes) noexcept {
  const std::size_t perChunk = 2 * sizeof(std::complex<T>);
  int b = 0;
  while ((std::size_t{2} << b) * perChunk <= l2Bytes) ++b;
  return b;
}

/// Applies the QCLAB_L2_BYTES / QCLAB_BLOCK_QUBITS environment
/// overrides to `options` (mirroring QCLAB_DISPATCH /
/// resolveDispatchMode): chunk sizing becomes tunable without a
/// rebuild.  Unparsable or out-of-range values are ignored.
inline BlockingOptions resolveBlockingOptions(
    BlockingOptions options) noexcept {
  if (const char* env = std::getenv("QCLAB_L2_BYTES")) {
    char* end = nullptr;
    const unsigned long long value = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && value > 0) {
      options.l2Bytes = static_cast<std::size_t>(value);
    }
  }
  if (const char* env = std::getenv("QCLAB_BLOCK_QUBITS")) {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value > 0 && value < 63) {
      options.blockQubits = static_cast<int>(value);
    }
  }
  return options;
}

/// One scheduled run of consecutive fused blocks [first, first + count).
struct BlockItem {
  std::size_t first = 0;  ///< index of the first fused block in the run
  std::size_t count = 0;  ///< number of consecutive fused blocks
  bool blocked = false;   ///< true: one chunked sweep; false: plain sweeps
};

/// An ordered partition of a fused-block list into blocked and plain runs.
/// An empty item list means "no blocking" (every block on its own sweep).
struct BlockSchedule {
  std::vector<BlockItem> items;
  int blockQubits = 0;  ///< chunk size used by the blocked items

  /// Number of blocked runs in the schedule.
  std::size_t blockedRuns() const noexcept {
    std::size_t n = 0;
    for (const auto& item : items) n += item.blocked ? 1 : 0;
    return n;
  }
};

/// Partitions `blocks` into maximal runs of consecutive blocks whose
/// qubits all live in the low-position window of `blockQubits` bits
/// (i.e. every qubit index >= nbQubits - b).  Runs shorter than
/// minRunBlocks stay unblocked — a lone block gains nothing from
/// chunking.  Returns an empty schedule when blocking cannot help
/// (disabled, or the whole state already fits one chunk).
template <typename T = double, typename Block>
BlockSchedule buildBlockSchedule(const std::vector<Block>& blocks,
                                 int nbQubits,
                                 const BlockingOptions& options = {}) {
  const obs::ScopedSpan span("fusion/block-schedule", "stage");
  BlockSchedule schedule;
  const BlockingOptions resolved = resolveBlockingOptions(options);
  if (!resolved.enabled || blocks.empty()) return schedule;

  int b = resolved.blockQubits;
  if (b <= 0) {
    // Size the chunk by the ACTUAL amplitude width: a float state fits
    // twice the amplitudes of a double state in the same l2Bytes, so
    // sizing for double would leave half the configured cache unused.
    b = autoBlockQubits<T>(resolved.l2Bytes);
  }
  b = std::min(b, nbQubits);
  // Whole state fits one chunk: every gate is already "cache-blocked".
  if (b >= nbQubits) return schedule;
  schedule.blockQubits = b;

  const int lowestBlockableQubit = nbQubits - b;
  const auto blockable = [&](const Block& block) {
    return !block.qubits.empty() && block.qubits.front() >= lowestBlockableQubit;
  };

  bool sawBlockedRun = false;
  std::size_t i = 0;
  while (i < blocks.size()) {
    std::size_t j = i;
    const bool runBlockable = blockable(blocks[i]);
    while (j < blocks.size() && blockable(blocks[j]) == runBlockable) ++j;
    BlockItem item;
    item.first = i;
    item.count = j - i;
    item.blocked = runBlockable && (j - i) >= resolved.minRunBlocks;
    sawBlockedRun = sawBlockedRun || item.blocked;
    schedule.items.push_back(item);
    i = j;
  }
  if (!sawBlockedRun) schedule.items.clear();  // nothing gained: plain plan
  return schedule;
}

namespace detail {

/// Which per-chunk routine a compiled block dispatches to.
enum class ChunkKernel { kDiagonal1, kDense1, kDense2, kDiagonalK, kDenseK };

/// A fused block lowered to chunk-local form: bit positions instead of
/// qubit indices (identical inside a chunk, since all positions < b) and
/// the kernel-specific coefficient layout, computed once per blocked run.
template <typename T>
struct CompiledBlock {
  ChunkKernel kernel = ChunkKernel::kDenseK;
  std::vector<int> positions;   ///< MSB-first (all but kDenseK)
  std::complex<T> u2[4] = {};   ///< kDense1: row-major 2x2
  std::complex<T> u4[16] = {};  ///< kDense2: row-major 4x4, MSB-first
  std::vector<std::complex<T>> diagonal;  ///< kDiagonal1 / kDiagonalK
  /// kDenseK: the same lowered gate applyK builds per call.
  std::unique_ptr<const simd::DenseKGate<T>> denseK;
};

/// Lowers one fused block to its chunk-local compiled form for `level`.
template <typename T, typename Block>
CompiledBlock<T> compileBlock(const Block& block, int nbQubits,
                              SimdLevel level) {
  CompiledBlock<T> compiled;
  const int k = static_cast<int>(block.qubits.size());
  // MSB-first positions: qubits ascending => positions descending; this
  // order matches the MSB-first row indexing of the block matrix.
  std::vector<int> msbFirst(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) {
    msbFirst[static_cast<std::size_t>(i)] =
        util::bitPosition(block.qubits[static_cast<std::size_t>(i)], nbQubits);
  }

  if (block.diagonal) {
    compiled.diagonal = block.diag;
    compiled.kernel =
        k == 1 ? ChunkKernel::kDiagonal1 : ChunkKernel::kDiagonalK;
    compiled.positions = std::move(msbFirst);
    return compiled;
  }

  if (k == 1) {
    compiled.kernel = ChunkKernel::kDense1;
    compiled.positions = std::move(msbFirst);
    for (int i = 0; i < 4; ++i) {
      compiled.u2[i] = block.matrix(static_cast<std::size_t>(i / 2),
                                    static_cast<std::size_t>(i % 2));
    }
    return compiled;
  }

  if (k == 2) {
    compiled.kernel = ChunkKernel::kDense2;
    compiled.positions = std::move(msbFirst);  // {posHi, posLo}
    for (int i = 0; i < 16; ++i) {
      compiled.u4[i] = block.matrix(static_cast<std::size_t>(i / 4),
                                    static_cast<std::size_t>(i % 4));
    }
    return compiled;
  }

  compiled.kernel = ChunkKernel::kDenseK;
  const std::vector<int> ascending(msbFirst.rbegin(), msbFirst.rend());
  compiled.denseK = std::make_unique<const simd::DenseKGate<T>>(
      block.matrix, ascending.data(), k, level);
  return compiled;
}

/// Applies a compiled gate run to one chunk via the dispatched span
/// kernels of simd.hpp.  Serial: the caller parallelizes over chunks.
template <typename T>
void applyCompiledChunk(std::complex<T>* chunk, std::int64_t chunkDim,
                        const std::vector<CompiledBlock<T>>& run,
                        SimdLevel level) {
  for (const auto& block : run) {
    switch (block.kernel) {
      case ChunkKernel::kDiagonal1:
        simd::applyDiagonal1Span(chunk, chunkDim, block.positions[0],
                                 block.diagonal[0], block.diagonal[1], level);
        break;
      case ChunkKernel::kDense1:
        simd::apply1Span(chunk, chunkDim, block.positions[0], block.u2,
                         level);
        break;
      case ChunkKernel::kDense2:
        simd::apply2Span(chunk, chunkDim, block.positions[0],
                         block.positions[1], block.u4, level);
        break;
      case ChunkKernel::kDiagonalK:
        simd::applyDiagonalRunsSpan(chunk, chunkDim, block.positions,
                                    block.diagonal, level);
        break;
      case ChunkKernel::kDenseK:
        block.denseK->applySpan(chunk, chunkDim);
        break;
    }
  }
}

}  // namespace detail

/// Applies the run of fused blocks [first, first + count) with ONE
/// streaming sweep of the state in 2^blockQubits-amplitude chunks.  Every
/// block in the run must have all its qubits >= nbQubits - blockQubits
/// (enforced by buildBlockSchedule).  Bit-identical to applying the
/// blocks sequentially with full sweeps.
///
/// Generic over the state container.  When the container exposes a
/// prefetch advisor (the out-of-core tier of sim::StateBuffer), each
/// thread walks its OWN contiguous chunk range — the same
/// staticPartition split the NUMA first-touch pass used — keeping a
/// WILLNEED window one advisor granule ahead of the chunk being
/// computed and DONTNEED-retiring granules it has fully streamed past,
/// so the resident set stays a few granules per thread regardless of
/// state size.
template <typename State, typename Block>
void applyBlockedRun(State& state, int nbQubits,
                     const std::vector<Block>& blocks, std::size_t first,
                     std::size_t count, int blockQubits) {
  using T = typename State::value_type::value_type;
  util::require(blockQubits >= 1 && blockQubits < nbQubits,
                "applyBlockedRun: chunk size out of range");
  const SimdLevel level = activeSimdLevel();
  std::vector<detail::CompiledBlock<T>> run;
  run.reserve(count);
  for (std::size_t i = first; i < first + count; ++i) {
    const Block& block = blocks[i];
    util::require(!block.qubits.empty() &&
                      block.qubits.front() >= nbQubits - blockQubits,
                  "applyBlockedRun: block escapes the chunk window");
    run.push_back(detail::compileBlock<T>(block, nbQubits, level));
  }

  const std::int64_t chunkDim = std::int64_t{1} << blockQubits;
  const std::int64_t chunks = std::int64_t{1} << (nbQubits - blockQubits);

  // Out-of-core states expose a prefetch advisor; plain vectors (and
  // the heap/NUMA tiers) do not, and the walk below compiles away.
  MemoryAdvisor* advisor = nullptr;
  if constexpr (requires { state.advisor(); }) {
    advisor = state.advisor();
  }

  // Numerical-health sentinel: when this run's check is due, each chunk is
  // scanned right after its kernels while it is still cache-hot, per-thread
  // partials are merged once, and ONE report covers the whole sweep — the
  // sentinel cost rides the blocking win instead of forcing its own
  // full-state pass.
  const bool sentinelDue = obs::sentinel().shouldCheck();
  double sentinelNormSq = 0.0;
  double sentinelMaxAmpSq = 0.0;
  bool sentinelNanSeen = false;
  const auto sentinelBegin = sentinelDue
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};

#ifdef QCLAB_HAS_OPENMP
  // Trajectory workers call fusion plans from inside an OMP region;
  // nested teams would only add overhead there.
#pragma omp parallel if (chunks > 1 && !omp_in_parallel())
#endif
  {
    double threadNormSq = 0.0;
    double threadMaxAmpSq = 0.0;
    bool threadNanSeen = false;
    // Manual even static partition instead of `omp for schedule(static)`:
    // the SAME contiguous per-thread ranges the NUMA tier's first-touch
    // pass placed pages for (the affinity contract, DESIGN.md), and the
    // ranges the prefetch walk needs to know explicitly.
#ifdef QCLAB_HAS_OPENMP
    const int nThreads = omp_get_num_threads();
    const int tid = omp_get_thread_num();
#else
    const int nThreads = 1;
    const int tid = 0;
#endif
    const auto [chunkLo, chunkHi] =
        staticPartition(static_cast<std::size_t>(chunks), nThreads, tid);
    const std::uint64_t chunkBytes =
        static_cast<std::uint64_t>(chunkDim) * sizeof(std::complex<T>);
    const std::uint64_t granule = advisor ? advisor->granuleBytes() : 0;
    const std::uint64_t threadEnd = chunkHi * chunkBytes;
    std::uint64_t frontier = chunkLo * chunkBytes;  // willNeed high-water
    std::uint64_t retireMark = frontier;            // retired low-water
    for (std::size_t c = chunkLo; c < chunkHi; ++c) {
      if (advisor != nullptr) {
        // Keep the fault-ahead window one granule past the chunk at hand.
        const std::uint64_t offset = c * chunkBytes;
        const std::uint64_t wanted = std::min(
            threadEnd, std::max(offset + chunkBytes,
                                (offset / granule + 2) * granule));
        if (wanted > frontier) {
          advisor->willNeed(frontier, wanted - frontier);
          frontier = wanted;
        }
      }
      detail::applyCompiledChunk(state.data() + c * chunkDim, chunkDim, run,
                                 level);
      if (sentinelDue) {
        obs::sentinelAccumulateChunk(state.data() + c * chunkDim,
                                     static_cast<std::size_t>(chunkDim),
                                     threadNormSq, threadMaxAmpSq,
                                     threadNanSeen);
      }
      if (advisor != nullptr) {
        // Drop granules streamed fully past, keeping one behind so the
        // chunk straddling the granule boundary is not refaulted.
        const std::uint64_t done = (c + 1) * chunkBytes;
        if (done >= retireMark + 2 * granule) {
          advisor->retire(retireMark, done - granule - retireMark);
          retireMark = done - granule;
        }
      }
    }
    if (advisor != nullptr && threadEnd > retireMark) {
      advisor->retire(retireMark, threadEnd - retireMark);
    }
    if (sentinelDue) {
#ifdef QCLAB_HAS_OPENMP
#pragma omp critical(qclab_blocked_sentinel)
#endif
      {
        sentinelNormSq += threadNormSq;
        if (threadMaxAmpSq > sentinelMaxAmpSq) {
          sentinelMaxAmpSq = threadMaxAmpSq;
        }
        sentinelNanSeen = sentinelNanSeen || threadNanSeen;
      }
    }
  }
  if (sentinelDue) {
    const auto elapsed = std::chrono::steady_clock::now() - sentinelBegin;
    obs::sentinel().report(
        sentinelNormSq, sentinelMaxAmpSq, sentinelNanSeen, "blocked",
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
  }
}

}  // namespace qclab::sim
