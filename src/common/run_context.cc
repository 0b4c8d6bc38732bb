#include "common/run_context.h"

#include <utility>

#include "common/check.h"

namespace hics {

namespace {

/// splitmix64: a statistically solid 64-bit mixer, used to derive an
/// independent per-call coin from (seed, call number) without carrying RNG
/// state per site.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double UniformFromBits(std::uint64_t bits) {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

void FaultInjector::FailNthCall(const std::string& site, std::uint64_t n,
                                Status status) {
  HICS_CHECK_GE(n, 1u) << "call numbers are 1-based";
  HICS_CHECK(!status.ok()) << "cannot inject an OK status";
  std::lock_guard<std::mutex> lock(mutex_);
  sites_[site].fail_at.emplace(n, std::move(status));
}

void FaultInjector::FailFromNthCall(const std::string& site, std::uint64_t n,
                                    Status status) {
  HICS_CHECK_GE(n, 1u) << "call numbers are 1-based";
  HICS_CHECK(!status.ok()) << "cannot inject an OK status";
  std::lock_guard<std::mutex> lock(mutex_);
  SiteRules& rules = sites_[site];
  rules.fail_from = n;
  rules.fail_from_status = std::move(status);
}

void FaultInjector::FailWithProbability(const std::string& site,
                                        double probability,
                                        std::uint64_t seed, Status status) {
  HICS_CHECK_GT(probability, 0.0);
  HICS_CHECK_LE(probability, 1.0);
  HICS_CHECK(!status.ok()) << "cannot inject an OK status";
  std::lock_guard<std::mutex> lock(mutex_);
  SiteRules& rules = sites_[site];
  rules.probability = probability;
  rules.seed = seed;
  rules.probability_status = std::move(status);
}

Status FaultInjector::OnSite(const std::string& site, std::uint64_t ordinal) {
  std::lock_guard<std::mutex> lock(mutex_);
  SiteRules& rules = sites_[site];
  ++rules.calls;
  // Rules match the caller-supplied ordinal when given (deterministic under
  // parallel execution), the arrival count otherwise.
  const std::uint64_t call = ordinal == 0 ? rules.calls : ordinal;

  const auto it = rules.fail_at.find(call);
  if (it != rules.fail_at.end()) {
    ++rules.fired;
    return it->second;
  }
  if (rules.fail_from != 0 && call >= rules.fail_from) {
    ++rules.fired;
    return rules.fail_from_status;
  }
  if (rules.probability > 0.0 &&
      UniformFromBits(Mix64(rules.seed ^ call)) < rules.probability) {
    ++rules.fired;
    return rules.probability_status;
  }
  return Status::OK();
}

std::uint64_t FaultInjector::CallCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.calls;
}

std::uint64_t FaultInjector::FiredCount(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fired;
}

std::uint64_t FaultInjector::TotalFired() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [site, rules] : sites_) total += rules.fired;
  return total;
}

std::map<std::string, std::uint64_t> FaultInjector::FiredTallies() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::uint64_t> tallies;
  for (const auto& [site, rules] : sites_) {
    if (rules.fired > 0) tallies[site] = rules.fired;
  }
  return tallies;
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  sites_.clear();
}

RunContext::RunContext()
    : cancel_flag_(std::make_shared<std::atomic<bool>>(false)) {}

RunContext RunContext::WithTimeout(Clock::duration budget) {
  return WithDeadline(Clock::now() + budget);
}

RunContext RunContext::WithDeadline(Clock::time_point deadline) {
  RunContext ctx;
  ctx.deadline_ = deadline;
  ctx.has_deadline_ = true;
  return ctx;
}

RunContext& RunContext::SetFaultInjector(FaultInjector* injector) {
  fault_injector_ = injector;
  return *this;
}

Status RunContext::CheckProgress() const {
  if (Cancelled()) return Status::Cancelled("run cancelled by caller");
  if (DeadlineExpired()) {
    return Status::DeadlineExceeded("run deadline expired");
  }
  return Status::OK();
}

Status RunContext::AdmitWork(Clock::duration estimated_cost,
                             const std::string& what) const {
  HICS_RETURN_NOT_OK(CheckProgress());
  if (!has_deadline_) return Status::OK();
  const Clock::duration remaining = RemainingBudget();
  if (estimated_cost <= remaining) return Status::OK();
  const auto to_us = [](Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  };
  return Status::Overloaded(
      what + " rejected: estimated cost " +
      std::to_string(to_us(estimated_cost)) + "us exceeds the remaining " +
      "deadline budget of " + std::to_string(to_us(remaining)) + "us");
}

Status RunContext::InjectFault(std::string_view site,
                               std::uint64_t ordinal) const {
  if (fault_injector_ == nullptr) return Status::OK();
  return fault_injector_->OnSite(std::string(site), ordinal);
}

}  // namespace hics
