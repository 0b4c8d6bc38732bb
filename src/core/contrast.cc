#include "core/contrast.h"

#include "stats/descriptive.h"

namespace hics {

Status ContrastParams::Validate() const {
  if (num_iterations == 0) {
    return Status::InvalidArgument("num_iterations must be >= 1");
  }
  if (!(alpha > 0.0 && alpha < 1.0)) {
    return Status::InvalidArgument("alpha must lie in (0, 1)");
  }
  return Status::OK();
}

ContrastEstimator::ContrastEstimator(const PreparedDataset& prepared,
                                     const stats::TwoSampleTest& test,
                                     ContrastParams params)
    : prepared_(&prepared),
      test_(test),
      params_(params),
      sampler_(prepared.dataset(), prepared.sorted_index()) {
  HICS_CHECK(params_.Validate().ok()) << params_.Validate().ToString();
}

ContrastEstimator::ContrastEstimator(const Dataset& dataset,
                                     const stats::TwoSampleTest& test,
                                     ContrastParams params,
                                     std::size_t index_build_threads)
    : owned_prepared_(PreparedDataset::Build(dataset, index_build_threads)),
      prepared_(owned_prepared_.get()),
      test_(test),
      params_(params),
      sampler_(dataset, owned_prepared_->sorted_index()) {
  HICS_CHECK(params_.Validate().ok()) << params_.Validate().ToString();
}

double ContrastEstimator::IterationDeviation(const Subspace& subspace,
                                             Rng* rng,
                                             ContrastScratch* scratch) const {
  // Degenerate slices (empty conditional sample) contribute deviation 0;
  // the test implementations handle small samples the same way.
  sampler_.DrawSelection(subspace, params_.alpha, rng, &scratch->slice,
                         &scratch->selection);
  const std::size_t attribute = scratch->selection.test_attribute;
  stats::SelectionView view;
  view.marginal_sorted = prepared_->SortedColumn(attribute);
  view.marginal_mean = prepared_->MarginalMean(attribute);
  view.marginal_variance = prepared_->MarginalVariance(attribute);
  view.column = prepared_->dataset().Column(attribute);
  view.sorted_order = prepared_->sorted_index().SortedOrder(attribute);
  view.condition_ranks = scratch->selection.condition_ranks;
  view.condition_starts = scratch->selection.condition_starts;
  view.block = scratch->selection.block;
  return test_.DeviationFromSelection(view, &scratch->deviation);
}

double ContrastEstimator::Contrast(const Subspace& subspace, Rng* rng) const {
  ContrastScratch scratch;
  return Contrast(subspace, rng, &scratch);
}

double ContrastEstimator::Contrast(const Subspace& subspace, Rng* rng,
                                   ContrastScratch* scratch) const {
  // A default context never interrupts and injects no faults; sharing one
  // instance keeps this overload allocation-free.
  static const RunContext kUnbounded;
  return Contrast(subspace, rng, scratch, kUnbounded).ValueOrDie();
}

Result<double> ContrastEstimator::Contrast(const Subspace& subspace, Rng* rng,
                                           ContrastScratch* scratch,
                                           const RunContext& ctx,
                                           std::uint64_t fault_ordinal) const {
  HICS_CHECK(rng != nullptr);
  HICS_CHECK(scratch != nullptr);
  HICS_CHECK_GE(subspace.size(), 2u);
  double deviation_sum = 0.0;
  for (std::size_t iteration = 0; iteration < params_.num_iterations;
       ++iteration) {
    HICS_RETURN_NOT_OK(ctx.CheckProgress());
    const std::uint64_t slice_ordinal =
        fault_ordinal == 0
            ? 0
            : (fault_ordinal - 1) * params_.num_iterations + iteration + 1;
    HICS_RETURN_NOT_OK(ctx.InjectFault("contrast.slice", slice_ordinal));
    deviation_sum += IterationDeviation(subspace, rng, scratch);
  }
  return deviation_sum / static_cast<double>(params_.num_iterations);
}

}  // namespace hics
