#include "eval/pricing.hpp"

#include <algorithm>
#include <stdexcept>

namespace ritm::eval {

PricingModel PricingModel::cloudfront_2015() {
  PricingModel m;
  const double TB = 1024.0;
  // {cumulative GB bound, $/GB}; last tier is open-ended.
  m.set_region("NA",
               {{10 * TB, 0.085},
                {50 * TB, 0.080},
                {150 * TB, 0.060},
                {500 * TB, 0.040},
                {1024 * TB, 0.030},
                {1e18, 0.025}},
               0.0075);
  m.set_region("EU",
               {{10 * TB, 0.085},
                {50 * TB, 0.080},
                {150 * TB, 0.060},
                {500 * TB, 0.040},
                {1024 * TB, 0.030},
                {1e18, 0.025}},
               0.0090);
  m.set_region("AS",
               {{10 * TB, 0.140},
                {50 * TB, 0.135},
                {150 * TB, 0.120},
                {500 * TB, 0.100},
                {1024 * TB, 0.080},
                {1e18, 0.070}},
               0.0090);
  m.set_region("IN",
               {{10 * TB, 0.170},
                {50 * TB, 0.130},
                {150 * TB, 0.110},
                {500 * TB, 0.100},
                {1024 * TB, 0.100},
                {1e18, 0.100}},
               0.0090);
  m.set_region("SA",
               {{10 * TB, 0.250},
                {50 * TB, 0.200},
                {150 * TB, 0.180},
                {500 * TB, 0.160},
                {1024 * TB, 0.140},
                {1e18, 0.125}},
               0.0160);
  m.set_region("OC",
               {{10 * TB, 0.140},
                {50 * TB, 0.135},
                {150 * TB, 0.120},
                {500 * TB, 0.100},
                {1024 * TB, 0.095},
                {1e18, 0.090}},
               0.0125);
  m.set_region("ME",
               {{10 * TB, 0.110},
                {50 * TB, 0.105},
                {150 * TB, 0.090},
                {500 * TB, 0.080},
                {1024 * TB, 0.078},
                {1e18, 0.075}},
               0.0090);
  return m;
}

void PricingModel::set_region(const std::string& region,
                              std::vector<Tier> tiers,
                              double usd_per_10k_requests) {
  if (tiers.empty()) throw std::invalid_argument("PricingModel: no tiers");
  tiers_[region] = std::move(tiers);
  request_fees_[region] = usd_per_10k_requests;
}

double PricingModel::transfer_cost(const std::string& region,
                                   double gigabytes) const {
  const auto it = tiers_.find(region);
  if (it == tiers_.end()) {
    throw std::invalid_argument("PricingModel: unknown region " + region);
  }
  double cost = 0.0;
  double used = 0.0;
  for (const Tier& tier : it->second) {
    if (gigabytes <= used) break;
    const double in_tier = std::min(gigabytes, tier.upto_gb) - used;
    if (in_tier > 0) {
      cost += in_tier * tier.usd_per_gb;
      used += in_tier;
    }
  }
  return cost;
}

double PricingModel::request_cost(const std::string& region,
                                  std::uint64_t requests) const {
  const auto it = request_fees_.find(region);
  if (it == request_fees_.end()) {
    throw std::invalid_argument("PricingModel: unknown region " + region);
  }
  return double(requests) / 10'000.0 * it->second;
}

}  // namespace ritm::eval
