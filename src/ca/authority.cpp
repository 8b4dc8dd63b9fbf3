#include "ca/authority.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/io.hpp"

namespace ritm::ca {

namespace {

crypto::Seed seed_from(Rng& rng) {
  crypto::Seed s{};
  const Bytes b = rng.bytes(s.size());
  std::copy(b.begin(), b.end(), s.begin());
  return s;
}

crypto::Digest20 chain_seed_from(Rng& rng) {
  crypto::Digest20 v{};
  const Bytes b = rng.bytes(v.size());
  std::copy(b.begin(), b.end(), v.begin());
  return v;
}

}  // namespace

CertificationAuthority::CertificationAuthority(Config config, Rng& rng,
                                               UnixSeconds now)
    : config_(std::move(config)),
      keypair_(crypto::keypair_from_seed(seed_from(rng))),
      rng_(rng.fork()),
      chain_(chain_seed_from(rng_), config_.chain_length) {
  if (config_.delta <= 0) {
    throw std::invalid_argument("CertificationAuthority: delta must be > 0");
  }
  root_ = dict::SignedRoot::make(config_.id, dict_.root(), dict_.size(),
                                 chain_.anchor(), now, keypair_);
}

cert::Certificate CertificationAuthority::issue(
    const std::string& subject, const crypto::PublicKey& subject_key,
    UnixSeconds not_before, UnixSeconds not_after) {
  cert::Certificate c;
  c.serial = cert::SerialNumber::from_uint(next_serial_++, config_.serial_width);
  c.issuer = config_.id;
  c.subject = subject;
  c.not_before = not_before;
  c.not_after = not_after;
  c.subject_key = subject_key;
  const Bytes tbs = c.tbs();
  c.signature = crypto::sign(ByteSpan(tbs), keypair_.seed, keypair_.public_key);
  return c;
}

void CertificationAuthority::resign(UnixSeconds now) {
  chain_ = crypto::HashChain(chain_seed_from(rng_), config_.chain_length);
  disclosed_period_ = 0;
  root_ = dict::SignedRoot::make(config_.id, dict_.root(), dict_.size(),
                                 chain_.anchor(), now, keypair_);
}

dict::RevocationIssuance CertificationAuthority::revoke(
    std::vector<cert::SerialNumber> serials, UnixSeconds now) {
  dict::RevocationIssuance msg;
  const auto added = dict_.insert(serials);
  msg.serials.reserve(added.size());
  for (const auto& e : added) msg.serials.push_back(e.serial);
  resign(now);  // new signed root committing to a fresh chain (Eq. (1))
  msg.signed_root = root_;
  return msg;
}

std::uint64_t CertificationAuthority::period_at(UnixSeconds now) const {
  if (now <= root_.timestamp) return 0;
  return static_cast<std::uint64_t>((now - root_.timestamp) / config_.delta);
}

crypto::Digest20 CertificationAuthority::freshness_at(UnixSeconds now) const {
  const std::uint64_t p = std::min<std::uint64_t>(period_at(now),
                                                  chain_.length());
  return chain_.statement(p);
}

crypto::Digest20 CertificationAuthority::disclosed_freshness_at(
    UnixSeconds now) const {
  return chain_.statement(std::min(period_at(now), disclosed_period_));
}

FeedMessage CertificationAuthority::refresh(UnixSeconds now) {
  const std::uint64_t p = period_at(now);
  if (p < chain_.length()) {
    disclosed_period_ = std::max(disclosed_period_, p);
    return FeedMessage::of(
        dict::FreshnessStatement{config_.id, chain_.statement(p)});
  }
  // Chain exhausted (p >= m): re-sign with a fresh chain (Fig. 2 refresh,
  // step 3) and disseminate the new root via an empty issuance.
  resign(now);
  dict::RevocationIssuance msg;
  msg.signed_root = root_;
  return FeedMessage::of(std::move(msg));
}

dict::RevocationStatus CertificationAuthority::status_for(
    const cert::SerialNumber& serial, UnixSeconds now) const {
  dict::RevocationStatus status;
  status.proof = dict_.prove(serial);
  status.signed_root = root_;
  status.freshness = freshness_at(now);
  return status;
}

ColdStartObject CertificationAuthority::cold_start_object(
    std::uint64_t upto_period, UnixSeconds now) const {
  ColdStartObject obj;
  obj.ca = config_.id;
  obj.upto_period = upto_period;
  obj.signed_root = root_;
  obj.freshness = freshness_at(now);
  ByteWriter w(obj.dict_snapshot);
  dict_.snapshot_into(w);
  return obj;
}

dict::RevocationIssuance MisbehavingCa::view_without(
    const cert::SerialNumber& hide, UnixSeconds now) const {
  // Rebuild an alternative history that omits `hide` but keeps n by
  // appending a filler serial the CA never really revoked.
  dict::Dictionary fake;
  for (const auto& e : ca_.dict_.entries_from(1)) {
    if (e.serial == hide) continue;
    fake.insert({e.serial});
  }
  fake.insert({cert::SerialNumber::from_uint(0xFFFFFE, 3)});

  dict::RevocationIssuance msg;
  for (const auto& e : fake.entries_from(1)) msg.serials.push_back(e.serial);
  msg.signed_root = dict::SignedRoot::make(
      ca_.config_.id, fake.root(), fake.size(), ca_.chain_.anchor(), now,
      ca_.keypair_.seed);
  return msg;
}

dict::RevocationIssuance MisbehavingCa::reordered_view(UnixSeconds now) const {
  auto entries = ca_.dict_.entries_from(1);
  if (entries.size() >= 2) {
    std::swap(entries[entries.size() - 1].serial,
              entries[entries.size() - 2].serial);
  }
  dict::Dictionary fake;
  for (const auto& e : entries) fake.insert({e.serial});

  dict::RevocationIssuance msg;
  for (const auto& e : entries) msg.serials.push_back(e.serial);
  msg.signed_root = dict::SignedRoot::make(
      ca_.config_.id, fake.root(), fake.size(), ca_.chain_.anchor(), now,
      ca_.keypair_.seed);
  return msg;
}

}  // namespace ritm::ca
