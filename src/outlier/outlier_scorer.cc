#include "outlier/outlier_scorer.h"

#include <cmath>
#include <cstdio>
#include <mutex>
#include <set>
#include <utility>

#include "engine/sharded_dataset.h"

namespace hics {

std::size_t ClampNeighborhoodSize(std::size_t k, std::size_t num_objects,
                                  const char* who) {
  const std::size_t max_k = num_objects > 1 ? num_objects - 1 : 0;
  if (k <= max_k) return k;
  // Log each clamping call site once per process: a misconfigured k >= N
  // should be visible, but a ranking pass over hundreds of subspaces must
  // not repeat the line per subspace.
  static std::mutex mutex;
  static std::set<std::string>* warned = new std::set<std::string>();
  {
    std::lock_guard<std::mutex> lock(mutex);
    if (warned->insert(who).second) {
      std::fprintf(stderr,
                   "hics: %s: neighborhood size k=%zu >= %zu objects; "
                   "clamping to %zu (every other object is a neighbor)\n",
                   who, k, num_objects, max_k);
    }
  }
  return max_k;
}

std::vector<double> OutlierScorer::ScoreSubspaceSharded(
    const ShardPlane& sharded, const Subspace& subspace) const {
  // Per-shard approximation: score each shard against its own rows only
  // and concatenate in shard order (= object-id order; the partition is
  // contiguous). Every shard's vector is deterministic on its own, so the
  // concatenation is too — but it is a different estimator than scoring
  // the full dataset; see the header contract.
  std::vector<double> scores;
  scores.reserve(sharded.num_objects());
  for (std::size_t s = 0; s < sharded.num_shards(); ++s) {
    // Cached variant: per-shard score vectors are memoized in each
    // shard's own ArtifactCache (bit-identical to the uncached compute by
    // the determinism discipline), so a streaming plane's untouched
    // shards serve their vectors as hits after a slide.
    const std::vector<double> shard_scores =
        ScoreSubspaceCached(sharded.shard(s), subspace);
    HICS_CHECK_EQ(shard_scores.size(), sharded.shard_size(s));
    scores.insert(scores.end(), shard_scores.begin(), shard_scores.end());
  }
  return scores;
}

double OutlierScorer::ScoreOutOfSample(std::span<const double> projected,
                                       std::span<const Neighbor> neighbors,
                                       const TrainedScorerState& state) const {
  (void)projected;
  (void)neighbors;
  (void)state;
  HICS_CHECK(false) << "scorer '" << name()
                    << "' does not support out-of-sample scoring";
  return 0.0;
}

namespace {

/// Validates one scorer output: right size, every value finite. Reports
/// *all* non-finite indices (capped) instead of only the first, so one
/// degraded-run diagnostic names the whole blast radius of a bad
/// subspace.
Status ValidateScoreVector(const std::string& scorer_name,
                           const std::vector<double>& scores,
                           std::size_t num_objects,
                           const Subspace& subspace) {
  if (scores.size() != num_objects) {
    return Status::Internal(
        "scorer '" + scorer_name + "' returned " +
        std::to_string(scores.size()) + " scores for " +
        std::to_string(num_objects) + " objects in subspace " +
        subspace.ToString());
  }
  // Cap the listed indices: diagnostics must name the blast radius, not
  // serialize a million-object vector into one error string.
  constexpr std::size_t kMaxReportedIndices = 8;
  std::size_t bad_count = 0;
  std::string indices;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (std::isfinite(scores[i])) continue;
    ++bad_count;
    if (bad_count <= kMaxReportedIndices) {
      if (!indices.empty()) indices += ", ";
      indices += std::to_string(i);
    }
  }
  if (bad_count == 0) return Status::OK();
  std::string message = "scorer '" + scorer_name + "' produced " +
                        std::to_string(bad_count) +
                        " non-finite score(s) out of " +
                        std::to_string(scores.size()) + " for object(s) " +
                        indices;
  if (bad_count > kMaxReportedIndices) {
    message += ", ... (+" +
               std::to_string(bad_count - kMaxReportedIndices) + " more)";
  }
  message += " in subspace " + subspace.ToString();
  return Status::DataLoss(message);
}

bool AllFinite(const std::vector<double>& scores) {
  for (double v : scores) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

Result<std::vector<double>> OutlierScorer::ScoreSubspacePreparedChecked(
    const PreparedDataset& prepared, const Subspace& subspace,
    const RunContext& ctx, std::uint64_t fault_ordinal) const {
  // Checkpoint and fault probe BEFORE the cache: a warm run must observe
  // the exact fault placement of a cold run, and a fault-skipped subspace
  // must not be served from (or admitted to) the cache.
  HICS_RETURN_NOT_OK(ctx.CheckProgress());
  // The site name is built only when an injector can read it.
  if (ctx.fault_injector() != nullptr) {
    HICS_RETURN_NOT_OK(ctx.InjectFault("scorer." + name(), fault_ordinal));
  }
  const std::string key = cache_key();
  if (!key.empty()) {
    if (auto hit = prepared.cache().FindScores(key, subspace)) {
      return std::vector<double>(*hit);
    }
  }
  std::vector<double> scores = ScoreSubspacePrepared(prepared, subspace);
  HICS_RETURN_NOT_OK(ValidateScoreVector(name(), scores,
                                         prepared.num_objects(), subspace));
  if (!key.empty()) {
    prepared.cache().InsertScores(key, subspace, scores);
  }
  return scores;
}

std::vector<double> OutlierScorer::ScoreSubspaceCached(
    const PreparedDataset& prepared, const Subspace& subspace) const {
  const std::string key = cache_key();
  if (key.empty()) return ScoreSubspacePrepared(prepared, subspace);
  if (auto hit = prepared.cache().FindScores(key, subspace)) {
    return std::vector<double>(*hit);
  }
  std::vector<double> scores = ScoreSubspacePrepared(prepared, subspace);
  // Same admission rule as the checked path: only finite, right-sized
  // vectors enter the cache, so a later degraded run can trust any hit.
  if (scores.size() == prepared.num_objects() && AllFinite(scores)) {
    prepared.cache().InsertScores(key, subspace, scores);
  }
  return scores;
}

}  // namespace hics
