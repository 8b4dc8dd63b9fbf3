// The feed sync endpoint (paper §III: "the RA contacts an edge server
// specifying the number of valid consecutive revocations it has observed")
// as an envelope service, Method::feed_delta: the server side is backed by
// the CAs' live dictionaries and a distribution point's feed cursor, the
// RA reaches it through any svc::Transport.
#pragma once

#include <map>

#include "ca/authority.hpp"
#include "svc/service.hpp"

namespace ritm::ca {

/// Body layouts for Method::feed_delta: the RA's entry have-set plus its
/// feed cursor; the response carries the first feed period the RA still
/// needs, so the cursor skips period objects the sync already subsumes.
/// Fixed-width fields ride *before* the embedded encodings because
/// SyncRequest/SyncResponse decoders consume their whole span.
///
/// Request body:  u64 now_s | u64 cursor_period | dict::SyncRequest
/// Response body: u64 resume_period | dict::SyncResponse
Bytes encode_delta_request(const dict::SyncRequest& req, UnixSeconds now,
                           std::uint64_t cursor_period);
struct DecodedDeltaRequest {
  UnixSeconds now = 0;
  std::uint64_t cursor_period = 0;
  dict::SyncRequest request;
};
std::optional<DecodedDeltaRequest> decode_delta_request(ByteSpan body);

class DistributionPoint;

class SyncService final : public svc::Service {
 public:
  SyncService() = default;

  /// Registers a CA whose dictionary answers sync requests. The authority
  /// must outlive the service.
  void add(const CertificationAuthority* ca);

  /// Wires the feed cursor: `dp` (which must outlive the service) says
  /// which feed period the next publish() writes, so responses can tell
  /// the RA where its cursor may resume. Until wired the service answers
  /// `unavailable` — never unknown_method, which would read as a
  /// capability answer.
  void set_period_source(const DistributionPoint* dp) noexcept {
    periods_ = dp;
  }

  svc::ServeResult handle(const svc::Request& req) override;

 private:
  std::map<cert::CaId, const CertificationAuthority*> cas_;
  const DistributionPoint* periods_ = nullptr;
};

}  // namespace ritm::ca
