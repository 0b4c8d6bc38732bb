#include "search/ris.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "index/neighbor_searcher.h"
#include "stats/special.h"

namespace hics {

Status RisParams::Validate() const {
  if (eps <= 0.0) return Status::InvalidArgument("eps must be positive");
  if (min_pts < 2) return Status::InvalidArgument("min_pts must be >= 2");
  if (candidate_cutoff == 0) {
    return Status::InvalidArgument("candidate_cutoff must be >= 1");
  }
  if (output_top_k == 0) {
    return Status::InvalidArgument("output_top_k must be >= 1");
  }
  return Status::OK();
}

namespace {

/// Volume of the unit d-ball.
double UnitBallVolume(std::size_t d) {
  const double dd = static_cast<double>(d);
  return std::pow(std::numbers::pi, dd / 2.0) /
         std::exp(stats::LogGamma(dd / 2.0 + 1.0));
}

class RisMethod : public SubspaceSearchMethod {
 public:
  explicit RisMethod(RisParams params) : params_(params) {}

  Result<std::vector<ScoredSubspace>> Search(
      const Dataset& dataset) const override {
    return SearchImpl(dataset, [&](const Subspace& subspace) {
      return MakeBruteForceSearcher(dataset, subspace);
    });
  }

  Result<std::vector<ScoredSubspace>> SearchPrepared(
      const PreparedDataset& prepared) const override {
    // Same lattice walk; per-subspace searchers come from (and are
    // published to) the shared artifact cache, so a later ranking pass
    // over the winning subspaces reuses them.
    return SearchImpl(prepared.dataset(), [&](const Subspace& subspace) {
      return prepared.cache().GetSearcher(subspace,
                                          KnnBackend::kBruteForce);
    });
  }

  std::string name() const override { return "RIS"; }

 private:
  template <typename SearcherProvider>
  Result<std::vector<ScoredSubspace>> SearchImpl(
      const Dataset& dataset, const SearcherProvider& searcher_for) const {
    HICS_RETURN_NOT_OK(params_.Validate());
    if (dataset.num_attributes() < 2) {
      return Status::InvalidArgument("RIS requires at least 2 attributes");
    }
    const std::size_t n = dataset.num_objects();
    if (n < params_.min_pts) {
      return Status::InvalidArgument("dataset smaller than min_pts");
    }

    std::vector<ScoredSubspace> pool;
    std::vector<Subspace> level =
        internal::AllTwoDimensionalSubspaces(dataset.num_attributes());

    while (!level.empty()) {
      if (params_.max_dimensionality != 0 &&
          level.front().size() > params_.max_dimensionality) {
        break;
      }
      std::vector<ScoredSubspace> scored;
      scored.reserve(level.size());
      for (Subspace& s : level) {
        scored.push_back({std::move(s), 0.0});
        scored.back().score =
            Quality(dataset, scored.back().subspace, searcher_for);
      }
      // Only subspaces denser than the uniform expectation qualify.
      std::erase_if(scored,
                    [](const ScoredSubspace& s) { return s.score <= 1.0; });
      KeepTopK(&scored, params_.candidate_cutoff);

      std::vector<Subspace> survivors = PlainSubspaces(scored);
      std::sort(survivors.begin(), survivors.end());
      for (ScoredSubspace& s : scored) pool.push_back(std::move(s));
      level = internal::GenerateCandidates(survivors);
    }

    KeepTopK(&pool, params_.output_top_k);
    return pool;
  }

  /// count[S] / expectation: aggregated eps-neighborhood size over core
  /// objects, divided by the neighborhood mass a uniform distribution over
  /// the subspace's bounding box would yield.
  template <typename SearcherProvider>
  double Quality(const Dataset& dataset, const Subspace& subspace,
                 const SearcherProvider& searcher_for) const {
    const std::size_t n = dataset.num_objects();
    const auto searcher = searcher_for(subspace);
    std::size_t aggregated = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t neighbors =
          searcher->CountRadius(i, params_.eps) +
          1;  // DBSCAN counts the object itself
      if (neighbors >= params_.min_pts) aggregated += neighbors;
    }
    if (aggregated == 0) return 0.0;

    // Expected aggregated count under uniformity: every object is core-ish
    // with |N_eps| ~ N * vol(eps-ball) / vol(bounding box). Assumes
    // min-max normalized data (box = [0,1]^d, volume 1).
    const std::size_t d = subspace.size();
    double ball = UnitBallVolume(d) * std::pow(params_.eps,
                                               static_cast<double>(d));
    ball = std::min(ball, 1.0);
    const double expected = static_cast<double>(n) *
                            (static_cast<double>(n) * ball);
    if (expected <= 0.0) return 0.0;
    return static_cast<double>(aggregated) / expected;
  }

  RisParams params_;
};

}  // namespace

std::unique_ptr<SubspaceSearchMethod> MakeRisMethod(RisParams params) {
  return std::make_unique<RisMethod>(params);
}

}  // namespace hics
