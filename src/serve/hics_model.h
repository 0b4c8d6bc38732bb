#ifndef HICS_SERVE_HICS_MODEL_H_
#define HICS_SERVE_HICS_MODEL_H_

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/run_context.h"
#include "common/status.h"
#include "common/subspace.h"
#include "core/hics.h"
#include "outlier/outlier_scorer.h"
#include "outlier/subspace_ranker.h"

namespace hics {

/// The outlier scorers a HicsModel can embed. An enum (not an arbitrary
/// OutlierScorer*) because the model must be serializable: the scorer is
/// reconstructed from (kind, k) on load, so only scorers whose full
/// configuration fits that pair — and which support out-of-sample scoring —
/// are admissible.
enum class ScorerKind : std::uint32_t {
  kLof = 0,
  kKnnDistance = 1,
  kKnnAverage = 2,
  /// O(N) histogram density tier (GridDensityScorer). Neighbor-free:
  /// fitting stores the per-subspace grid (edges + occupied-cell counts)
  /// as trained state and every query is an O(1) histogram lookup — no
  /// searcher, no kNN table.
  kGridDensity = 3,
};

/// Serializable scorer configuration: the kind plus its integer
/// parameter `k` — the neighborhood size for the kNN-family scorers
/// (LOF's min_pts, the kNN scorers' k), the bins per axis for
/// kGridDensity.
struct ScorerSpec {
  ScorerKind kind = ScorerKind::kLof;
  std::size_t k = 10;

  friend bool operator==(const ScorerSpec& a, const ScorerSpec& b) {
    return a.kind == b.kind && a.k == b.k;
  }
};

/// Instantiates the scorer a spec describes (serial, batch-kernel
/// defaults — performance knobs are not part of the model because they
/// never affect scores). Unknown kinds (e.g. from a corrupted or
/// newer-format model file) yield InvalidArgument, not UB.
Result<std::unique_ptr<OutlierScorer>> MakeScorer(const ScorerSpec& spec);

/// Everything that determines what a fitted model computes: the subspace
/// search configuration, the scorer, and the aggregation rule.
struct HicsModelConfig {
  HicsParams search_params;
  ScorerSpec scorer;
  ScoreAggregation aggregation = ScoreAggregation::kAverage;
  /// Shards of the fit-time data plane (DESIGN.md §5i). 1 (default) is
  /// the classic unsharded fit. Above 1, Fit partitions the training
  /// rows into a ShardedDataset and selects subspaces through the
  /// sharded search (per-shard Monte Carlo streams, row-count-weighted
  /// contrast merge) — typically the fastest fit on large N. Training
  /// scores and trained scorer state are always computed on the full
  /// dataset, so serving and RescoreTrainingSet stay byte-reproducible
  /// regardless of this knob; it changes *which* subspaces get selected
  /// (a different, ensemble-averaged contrast estimator), never the
  /// scoring semantics of the selected set. Persisted in the model
  /// header (format v2) for provenance.
  std::size_t num_shards = 1;
};

/// One selected subspace with its contrast and the scorer's trained state
/// in that projection (LOF: per-training-object k-distance + lrd channels;
/// the kNN scorers are stateless and carry empty channels).
struct TrainedSubspace {
  Subspace subspace;
  double contrast = 0.0;
  TrainedScorerState scorer_state;
};

/// Diagnostics of one ScoreQueries call under a RunContext: which queries
/// were scored, which per-subspace evaluations were isolated as failures
/// (injected faults at site "serve.subspace"), and whether the batch was
/// cut short by deadline or cancellation.
struct ServeDiagnostics {
  std::size_t queries_scored = 0;
  /// Per-(query, subspace) evaluations skipped by an isolated failure; the
  /// query's aggregate renormalizes over the surviving subspaces.
  std::size_t subspace_failures = 0;
  /// Failure tallies keyed by site ("serve.subspace", ...).
  std::map<std::string, std::size_t> error_tally;
  bool deadline_exceeded = false;
  bool cancelled = false;
  /// Searchers this call resolved: every subspace's, on the model's first
  /// kNN query (whichever call and thread makes it); 0 on every other
  /// call and for neighbor-free models. Not a degradation.
  std::size_t searchers_resolved = 0;

  bool degraded() const {
    return subspace_failures > 0 || deadline_exceeded || cancelled;
  }
};

/// An immutable trained HiCS artifact: the high-contrast subspaces found at
/// fit time, the training scores, the scorer configuration, and the
/// per-subspace trained scorer state plus the training points themselves —
/// everything needed to (a) serve out-of-sample queries without refitting
/// and (b) reproduce the training-set ranking byte-for-byte in a fresh
/// process after save/load (model_io.h).
///
/// Scoring queries never mutates the trained state: searchers answer
/// through the const QueryKnnPoint path, so query points are compared
/// against the training set but never inserted into it. The per-subspace
/// searchers are resolved once per model, by the first ScoreQueries call
/// that needs them, and then read without a lock by every query on every
/// thread. They are memoization only — a warm model returns bit-identical
/// scores to a cold one.
class HicsModel {
 public:
  /// Raw constituents of a model, exposed for model_io's deserializer.
  /// FromParts validates cross-field consistency so a structurally valid
  /// but semantically broken file (wrong channel lengths, out-of-range
  /// attributes) is rejected with a precise Status instead of crashing
  /// later.
  struct Parts {
    HicsModelConfig config;
    Dataset training_data;
    std::vector<TrainedSubspace> subspaces;
    std::vector<double> training_scores;
  };

  HicsModel(HicsModel&&) = default;
  HicsModel& operator=(HicsModel&&) = default;
  HicsModel(const HicsModel&) = delete;
  HicsModel& operator=(const HicsModel&) = delete;

  /// Fits a model: runs the HiCS subspace search, then fits each selected
  /// subspace once (OutlierScorer::FitSubspace, in parallel over
  /// subspaces) for its training scores and trained scorer state. The
  /// aggregated training scores are byte-identical to RunHicsPipeline
  /// with the same parameters. The dataset is copied
  /// into the model — a served model must not dangle on caller memory.
  /// Falls back to the full space when the search selects no subspace
  /// (mirroring the pipeline's fallback) so a fitted model always serves.
  static Result<HicsModel> Fit(const Dataset& dataset,
                               const HicsModelConfig& config);

  /// Reassembles a model from deserialized parts, validating invariants:
  /// consistent object counts, in-range subspace attributes, scorer-state
  /// channels of training-set length, and a scorer spec MakeScorer
  /// accepts.
  static Result<HicsModel> FromParts(Parts parts);

  const HicsModelConfig& config() const { return config_; }
  const Dataset& training_data() const { return training_data_; }
  const std::vector<TrainedSubspace>& subspaces() const { return subspaces_; }
  /// Training-set scores computed at fit time (the pipeline's output).
  const std::vector<double>& training_scores() const {
    return training_scores_;
  }
  std::size_t num_attributes() const {
    return training_data_.num_attributes();
  }
  std::size_t num_training_objects() const {
    return training_data_.num_objects();
  }

  /// Scores `num_queries` out-of-sample points (row-major, size
  /// num_queries * num_attributes) against the trained model: per
  /// subspace, the query's k nearest *training* neighbors feed the
  /// scorer's out-of-sample rule, and the per-subspace scores aggregate
  /// exactly like training scores. Deterministic: fresh-fit and
  /// save/load-restored models return bit-identical vectors. Any number
  /// of threads may call it on one model at once.
  Result<std::vector<double>> ScoreQueries(std::span<const double> queries,
                                           std::size_t num_queries) const;

  /// Context-aware overload with graceful degradation: the context is
  /// checked between queries (on interruption the scored prefix is
  /// returned, flagged in `diagnostics`), and a per-(query, subspace)
  /// failure injected at site "serve.subspace" is isolated — the query's
  /// aggregate renormalizes over the surviving subspaces. Fails only when
  /// the batch is malformed or every subspace of a query fails.
  Result<std::vector<double>> ScoreQueries(std::span<const double> queries,
                                           std::size_t num_queries,
                                           const RunContext& ctx,
                                           ServeDiagnostics* diagnostics =
                                               nullptr) const;

  /// Recomputes the training-set ranking from the stored artifact through
  /// the prepared-path RankWithSubspaces call the pipeline makes. A restored
  /// model returns a vector byte-identical to training_scores() — the
  /// durability acceptance check.
  Result<std::vector<double>> RescoreTrainingSet() const;

 private:
  HicsModel(HicsModelConfig config, Dataset training_data,
            std::vector<TrainedSubspace> subspaces,
            std::vector<double> training_scores);

  /// The effective (clamped) neighborhood size used both at fit time and
  /// for every out-of-sample query.
  std::size_t EffectiveK() const;

  /// Every subspace's projected searcher, indexed like subspaces(). The
  /// first call resolves them all (serially, in subspace order) and sets
  /// `*resolved` to their count; it and every later call return the same
  /// slots, which are then read with no lock, no atomic read-modify-write
  /// and no refcount.
  std::span<const std::unique_ptr<const NeighborSearcher>> Searchers(
      std::size_t* resolved) const;

  HicsModelConfig config_;
  Dataset training_data_;
  std::vector<TrainedSubspace> subspaces_;
  std::vector<double> training_scores_;
  std::unique_ptr<OutlierScorer> scorer_;

  /// The searchers, written once under `resolved` and immutable after
  /// it. Boxed so the model stays movable (once_flag is not). Not built
  /// by the constructor: Fit, RescoreTrainingSet and neighbor-free (k ==
  /// 0) models never query them.
  struct Runtime {
    std::once_flag resolved;
    std::vector<std::unique_ptr<const NeighborSearcher>> searchers;
  };
  std::unique_ptr<Runtime> runtime_;
};

}  // namespace hics

#endif  // HICS_SERVE_HICS_MODEL_H_
