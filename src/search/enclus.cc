#include "search/enclus.h"

#include <algorithm>

#include "cluster/grid.h"
#include "stats/descriptive.h"

namespace hics {

Status EnclusParams::Validate() const {
  if (bins_per_dim == 0) {
    return Status::InvalidArgument("bins_per_dim must be >= 1");
  }
  if (omega <= 0.0 &&
      !(auto_omega_quantile > 0.0 && auto_omega_quantile <= 1.0)) {
    return Status::InvalidArgument(
        "auto_omega_quantile must lie in (0, 1] when omega is adaptive");
  }
  if (candidate_cutoff == 0) {
    return Status::InvalidArgument("candidate_cutoff must be >= 1");
  }
  if (output_top_k == 0) {
    return Status::InvalidArgument("output_top_k must be >= 1");
  }
  return Status::OK();
}

namespace {

class EnclusMethod : public SubspaceSearchMethod {
 public:
  explicit EnclusMethod(EnclusParams params) : params_(params) {}

  Result<std::vector<ScoredSubspace>> Search(
      const Dataset& dataset) const override {
    HICS_RETURN_NOT_OK(params_.Validate());
    if (dataset.num_attributes() < 2) {
      return Status::InvalidArgument("Enclus requires at least 2 attributes");
    }

    // Marginal entropies, reused by every interest computation.
    const std::size_t d = dataset.num_attributes();
    std::vector<double> marginal_entropy(d, 0.0);
    for (std::size_t a = 0; a < d; ++a) {
      marginal_entropy[a] =
          SubspaceGrid(dataset, Subspace{a}, params_.bins_per_dim).Entropy();
    }

    std::vector<ScoredSubspace> pool;
    std::vector<Subspace> level =
        internal::AllTwoDimensionalSubspaces(d);

    // Enclus qualifies a subspace by an *absolute* entropy threshold omega;
    // since grid entropy grows with dimensionality, this is what limits how
    // deep the search can go (the effect the paper observes: Enclus mainly
    // finds 2-D and some 3-D subspaces). In adaptive mode, omega is
    // calibrated once from the 2-D level's entropy distribution and then
    // held fixed.
    double omega = params_.omega;

    while (!level.empty()) {
      if (params_.max_dimensionality != 0 &&
          level.front().size() > params_.max_dimensionality) {
        break;
      }
      // Entropy of every candidate on this level.
      std::vector<double> entropies;
      entropies.reserve(level.size());
      for (const Subspace& s : level) {
        entropies.push_back(
            SubspaceGrid(dataset, s, params_.bins_per_dim).Entropy());
      }
      if (omega <= 0.0) {
        omega = stats::Quantile(entropies, params_.auto_omega_quantile);
      }

      // Qualification: entropy(S) <= omega. Qualifying subspaces enter the
      // pool (ranked by interest) and seed the next level.
      std::vector<ScoredSubspace> qualifying;
      for (std::size_t i = 0; i < level.size(); ++i) {
        if (entropies[i] > omega) continue;
        double interest = -entropies[i];
        for (std::size_t dim : level[i]) interest += marginal_entropy[dim];
        if (interest >= params_.epsilon) {
          qualifying.push_back({level[i], interest});
        }
      }
      KeepTopK(&qualifying, params_.candidate_cutoff);

      std::vector<Subspace> survivors = PlainSubspaces(qualifying);
      std::sort(survivors.begin(), survivors.end());
      for (ScoredSubspace& s : qualifying) pool.push_back(std::move(s));
      level = internal::GenerateCandidates(survivors);
    }

    KeepTopK(&pool, params_.output_top_k);
    return pool;
  }

  std::string name() const override { return "ENCLUS"; }

 private:
  EnclusParams params_;
};

}  // namespace

std::unique_ptr<SubspaceSearchMethod> MakeEnclusMethod(EnclusParams params) {
  return std::make_unique<EnclusMethod>(params);
}

}  // namespace hics
