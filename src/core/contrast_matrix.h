#ifndef HICS_CORE_CONTRAST_MATRIX_H_
#define HICS_CORE_CONTRAST_MATRIX_H_

#include <cstdint>

#include "common/dataset.h"
#include "common/matrix.h"
#include "common/status.h"
#include "core/contrast.h"

namespace hics {

class ShardPlane;  // engine/shard_plane.h

/// Pairwise contrast matrix: entry (i, j) is the HiCS contrast of the 2-D
/// subspace {i, j} (symmetric; the diagonal is 0 — one-dimensional
/// subspaces have no contrast). A compact, model-free dependence map of
/// the attribute space, analogous to a correlation matrix but sensitive to
/// any (also non-linear, non-monotone) dependence — handy for exploratory
/// analysis and as a cheap preview of what the full lattice search will
/// find at level 2.
struct ContrastMatrixParams {
  ContrastParams contrast;        ///< M and alpha of each estimate
  std::string statistical_test = "welch";
  std::uint64_t seed = 42;
  /// Worker threads (1 = serial, 0 = hardware concurrency). Results are
  /// identical for any value.
  std::size_t num_threads = 1;
};

/// Computes the full D x D matrix. Fails on invalid params or fewer than
/// two attributes / objects. Thin adapter: prepares `dataset` privately
/// and delegates to the ShardPlane overload.
Result<Matrix> ComputeContrastMatrix(const Dataset& dataset,
                                     const ContrastMatrixParams& params = {});

/// The matrix over a data plane: every pair is scored by the plane's
/// lattice level scorer, so entry (i, j) equals RunHicsSearch's level-2
/// score of {i, j} on the same plane under the same seed, bit-identical
/// for every thread count. A PreparedDataset reuses its sorted-attribute
/// index and rank artifacts (shared with RunHicsSearch and the ranking
/// stage); every one-shard plane over the same rows — a PreparedDataset,
/// or a ShardedDataset / StreamingDataset clamped to one shard — gives
/// the same bits as the Dataset overload. With more shards, every pair's
/// estimate fans out over the shards (shard s runs ShardIterations(M, S,
/// s) iterations on its own rows with stream ShardStreamSeed(seed, pair,
/// s)) and the entry is the row-count-weighted average of the per-shard
/// estimates, reduced in shard-ordinal order — a different estimator than
/// the one-shard matrix (agreement within Monte Carlo noise, not
/// bit-equality).
Result<Matrix> ComputeContrastMatrix(const ShardPlane& plane,
                                     const ContrastMatrixParams& params = {});

}  // namespace hics

#endif  // HICS_CORE_CONTRAST_MATRIX_H_
