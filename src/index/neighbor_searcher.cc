#include "index/neighbor_searcher.h"

#include <utility>

namespace hics {

std::unique_ptr<NeighborSearcher> MakeSearcher(const Dataset& dataset,
                                               const Subspace& subspace,
                                               KnnBackend backend) {
  return backend == KnnBackend::kKdTree
             ? MakeKdTreeSearcher(dataset, subspace)
             : MakeBruteForceSearcher(dataset, subspace);
}

KnnBackend ChooseKnnBackend(std::size_t num_objects,
                            std::size_t num_dimensions) {
  // The crossover of all-kNN wall clock per backend over an (N, |S|) grid
  // of uniform data, the tree's worst case (k = 10, index build included,
  // avx512-dispatched kernels), in BENCH_knn_backends.json: with the
  // leaf_screen kernel the tree wins through |S| = 7 at every measured N
  // (by 1.5-1.8x at |S| = 7), and breaks even at |S| = 8 for N >= 2000. Below
  // kProbeMinObjects this verdict is the resolution; above it the probe
  // in ResolveKnnSearcher decides |S| in [kProbeMinDims, kProbeMaxDims].
  // Below the measured range the whole decision is sub-100us — brute
  // force avoids betting on an unmeasured tree-build constant there.
  using namespace knn_policy;
  return num_objects >= kKdTreeMinObjects && num_dimensions <= kKdTreeMaxDims
             ? KnnBackend::kKdTree
             : KnnBackend::kBruteForce;
}

bool InKnnProbeBand(std::size_t num_objects, std::size_t num_dimensions) {
  using namespace knn_policy;
  return num_objects >= kProbeMinObjects && num_dimensions >= kProbeMinDims &&
         num_dimensions <= kProbeMaxDims;
}

std::unique_ptr<NeighborSearcher> ResolveKnnSearcher(const Dataset& dataset,
                                                     const Subspace& subspace,
                                                     std::size_t k) {
  const std::size_t n = dataset.num_objects();
  if (!InKnnProbeBand(n, subspace.size())) {
    return MakeSearcher(dataset, subspace,
                        ChooseKnnBackend(n, subspace.size()));
  }
  // Clustered, strongly dependent attributes — what a contrast search
  // selects — keep the tree pruning well past the static crossover, while
  // uniform data of the same |S| defeats it. The probe tells them apart
  // at the cost of a tree build plus kProbeQueries searches.
  using namespace knn_policy;
  const std::size_t budget =
      static_cast<std::size_t>(kProbeMaxScanFraction * static_cast<double>(n)) *
      kProbeQueries;
  ProbedKdTree probed =
      MakeProbedKdTreeSearcher(dataset, subspace, k, kProbeQueries, budget);
  if (probed.scanned < budget) return std::move(probed.tree);
  probed.tree.reset();  // release the rejected tree before the brute copy
  return MakeBruteForceSearcher(dataset, subspace);
}

}  // namespace hics
