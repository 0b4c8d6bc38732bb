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
/// and delegates to the PreparedDataset overload.
Result<Matrix> ComputeContrastMatrix(const Dataset& dataset,
                                     const ContrastMatrixParams& params = {});

/// Prepared-path variant: reuses `prepared`'s sorted-attribute index and
/// rank artifacts (shared with RunHicsSearch and the ranking stage)
/// instead of rebuilding them — the second index build the matrix used to
/// pay is gone. Bit-identical to the Dataset overload, and entry (i, j)
/// equals the prepared RunHicsSearch's level-2 score of {i, j} under the
/// same seed.
Result<Matrix> ComputeContrastMatrix(const PreparedDataset& prepared,
                                     const ContrastMatrixParams& params = {});

/// Sharded variant: every pair's estimate fans out over the shards (shard
/// s runs ShardIterations(M, S, s) iterations on its own rows with stream
/// ShardStreamSeed(seed, pair, s)) and the matrix entry is the row-count-
/// weighted average of the per-shard estimates, reduced in shard-ordinal
/// order. Bit-identical for a fixed effective shard count across thread
/// counts and shard completion orders, and entry (i, j) equals the
/// sharded RunHicsSearch's level-2 score of {i, j} under the same seed
/// (both score through the same level scorer) — but it is a different
/// estimator than the unsharded matrix (agreement within Monte Carlo
/// noise, not bit-equality).
Result<Matrix> ComputeContrastMatrix(const ShardPlane& sharded,
                                     const ContrastMatrixParams& params = {});

}  // namespace hics

#endif  // HICS_CORE_CONTRAST_MATRIX_H_
