#ifndef HICS_COMMON_RUN_CONTEXT_H_
#define HICS_COMMON_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/status.h"

namespace hics {

/// Deterministic fault injector for robustness testing. Rules are keyed by
/// a *site* string naming an injection point in the library (e.g.
/// "contrast.estimate", "scorer.lof"); production code asks the injector
/// via RunContext::InjectFault(site) before doing fallible work and
/// propagates any returned error through the normal Status paths.
///
/// Two rule kinds, both deterministic:
///  - call-count rules fire on an exact set of 1-based call numbers;
///  - probability rules fire pseudo-randomly per call from a fixed seed
///    (splitmix64 over (seed, site-local call number)), so a given
///    (seed, p) pair always fails the same calls.
///
/// Thread-safe: call counters and tallies are mutex-protected, so injection
/// sites may be hit concurrently from ParallelFor workers. By default
/// counting is by arrival order, which under concurrency makes *which*
/// worker observes the fault scheduling-dependent while the fault count
/// stays exact. Call sites inside parallel loops can instead pass an
/// explicit 1-based *ordinal* (their deterministic position in the logical
/// call sequence — e.g. the subspace index in a ranking pass); rules are
/// then evaluated against the ordinal, so fault placement is bit-identical
/// for every thread count. The search and ranking phases do this, which is
/// what makes degraded runs reproducible under parallelism.
class FaultInjector {
 public:
  FaultInjector() = default;

  /// Fires `status` on the n-th call (1-based) at `site`. May be invoked
  /// repeatedly to arm several call numbers for one site.
  void FailNthCall(const std::string& site, std::uint64_t n, Status status);

  /// Fires `status` on calls n, n+1, ... at `site` (every call from the
  /// n-th on). n = 1 means every call fails.
  void FailFromNthCall(const std::string& site, std::uint64_t n,
                       Status status);

  /// Fires `status` on each call at `site` independently with probability
  /// `probability`, derived deterministically from `seed`.
  void FailWithProbability(const std::string& site, double probability,
                           std::uint64_t seed, Status status);

  /// The hook production code calls (via RunContext::InjectFault). Returns
  /// OK when no armed rule fires; advances the site's call counter either
  /// way. Unknown sites are free: no rule, no bookkeeping beyond a counter.
  ///
  /// `ordinal`, when non-zero, is the 1-based deterministic position of
  /// this call in the site's logical sequence; rules are evaluated against
  /// it instead of the arrival count, making placement independent of
  /// thread scheduling. ordinal = 0 keeps the legacy arrival-order
  /// behavior.
  Status OnSite(const std::string& site, std::uint64_t ordinal = 0);

  /// Total calls observed at `site` (fired or not).
  std::uint64_t CallCount(const std::string& site) const;

  /// Number of faults fired at `site`.
  std::uint64_t FiredCount(const std::string& site) const;

  /// Total faults fired across all sites.
  std::uint64_t TotalFired() const;

  /// Per-site fired tallies, for test assertions and reports.
  std::map<std::string, std::uint64_t> FiredTallies() const;

  /// Clears all rules and counters.
  void Reset();

 private:
  struct SiteRules {
    // Exact 1-based call numbers that fail (FailNthCall).
    std::map<std::uint64_t, Status> fail_at;
    // Fail every call >= fail_from (0 = disarmed).
    std::uint64_t fail_from = 0;
    Status fail_from_status;
    // Probability rule (probability <= 0 = disarmed).
    double probability = 0.0;
    std::uint64_t seed = 0;
    Status probability_status;

    std::uint64_t calls = 0;
    std::uint64_t fired = 0;
  };

  mutable std::mutex mutex_;
  std::map<std::string, SiteRules> sites_;
};

/// Per-run execution context carried through the pipeline: a wall-clock
/// deadline, a cooperative cancellation token, and an optional fault
/// injector. Cheap to copy; copies share the same cancellation flag, so a
/// context handed to worker threads can be cancelled from the outside.
///
/// Long-running loops call ShouldStop()/CheckProgress() at natural
/// checkpoints (between Monte Carlo iterations, lattice levels, subspace
/// scorings) and wind down cooperatively, returning best-so-far results
/// with the interruption recorded in their stats — see RunHicsSearch and
/// RunHicsPipeline.
///
/// A default-constructed RunContext has no deadline, no injector, and is
/// never cancelled, so it adds one branch per checkpoint to fault-free runs.
class RunContext {
 public:
  using Clock = std::chrono::steady_clock;

  /// Unbounded context: no deadline, no faults, never cancelled.
  RunContext();

  /// Context whose deadline is `budget` from now. A factory, not a
  /// mutator — `ctx.WithTimeout(...)` on an existing context leaves `ctx`
  /// untouched, hence the nodiscard.
  [[nodiscard]] static RunContext WithTimeout(Clock::duration budget);

  /// Context with an absolute deadline.
  [[nodiscard]] static RunContext WithDeadline(Clock::time_point deadline);

  /// Attaches a fault injector (not owned; must outlive the context).
  /// Returns *this for chaining.
  RunContext& SetFaultInjector(FaultInjector* injector);

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

  /// True once the wall clock has passed the deadline.
  bool DeadlineExpired() const {
    return has_deadline_ && Clock::now() >= deadline_;
  }

  /// Wall-clock budget left before the deadline: Clock::duration::max()
  /// when no deadline is set, zero once it has passed. A probe, not a
  /// reservation — the budget keeps draining while the caller plans.
  Clock::duration RemainingBudget() const {
    if (!has_deadline_) return Clock::duration::max();
    const Clock::time_point now = Clock::now();
    return now >= deadline_ ? Clock::duration::zero() : deadline_ - now;
  }

  /// Deadline-based admission decision for a unit of work expected to take
  /// `estimated_cost`: OK when the work fits the remaining budget,
  /// Cancelled / DeadlineExceeded when the context is already dead, and a
  /// typed Overloaded status when starting `what` now could not finish
  /// before the deadline — reject-early load shedding instead of starting
  /// work the deadline dooms (or queueing it unboundedly). `what` names
  /// the shed unit in the status message (e.g. "batch of 64 queries").
  Status AdmitWork(Clock::duration estimated_cost,
                   const std::string& what) const;

  /// Requests cooperative cancellation; visible to every copy of this
  /// context. Safe to call from any thread, idempotent.
  void RequestCancellation() const {
    cancel_flag_->store(true, std::memory_order_relaxed);
  }

  bool Cancelled() const {
    return cancel_flag_->load(std::memory_order_relaxed);
  }

  /// Cheap checkpoint predicate for inner loops.
  bool ShouldStop() const { return Cancelled() || DeadlineExpired(); }

  /// Checkpoint returning *why* work must stop: Cancelled beats
  /// DeadlineExceeded; OK when the run may continue.
  Status CheckProgress() const;

  /// Fault-injection hook: OK when no injector is attached or no rule
  /// fires; otherwise the armed Status for `site`. A non-zero `ordinal`
  /// (1-based logical call position) makes rule evaluation deterministic
  /// under parallel execution — see FaultInjector::OnSite. With no
  /// injector attached it costs one branch and builds no string.
  Status InjectFault(std::string_view site, std::uint64_t ordinal = 0) const;

  FaultInjector* fault_injector() const { return fault_injector_; }

 private:
  std::shared_ptr<std::atomic<bool>> cancel_flag_;
  Clock::time_point deadline_{};
  bool has_deadline_ = false;
  FaultInjector* fault_injector_ = nullptr;
};

}  // namespace hics

#endif  // HICS_COMMON_RUN_CONTEXT_H_
