// CDN pricing model, calibrated to Amazon CloudFront's 2015-era data-
// transfer-out rate card (the paper's §VII-C cost evaluation uses standard
// CloudFront pricing and notes that negotiated pricing would be lower).
// Rates are tiered per region: the price per GB drops as monthly volume in
// that region crosses tier boundaries.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ritm::eval {

class PricingModel {
 public:
  struct Tier {
    double upto_gb;       // tier upper bound (cumulative GB)
    double usd_per_gb;
  };

  /// CloudFront-like 2015 rate card across the regions used by
  /// cdn::make_global_cdn (NA, EU, AS, IN, SA, OC, ME).
  static PricingModel cloudfront_2015();

  /// Price of serving `gigabytes` in `region` within one billing cycle.
  double transfer_cost(const std::string& region, double gigabytes) const;

  /// Optional HTTPS per-request fee (USD per 10,000 requests). The paper's
  /// simulation prices transfer only; request fees are provided for the
  /// ablation study.
  double request_cost(const std::string& region,
                      std::uint64_t requests) const;

  void set_region(const std::string& region, std::vector<Tier> tiers,
                  double usd_per_10k_requests);

 private:
  std::map<std::string, std::vector<Tier>> tiers_;
  std::map<std::string, double> request_fees_;
};

}  // namespace ritm::eval
