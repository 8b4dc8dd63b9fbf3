// The Certification Authority: issues certificates, maintains its
// append-only authenticated dictionary, and produces the dissemination
// messages of Fig. 2 / Tab. I (revocation issuances, freshness statements,
// periodic re-signed roots when the hash chain runs out).
//
// Fault injection for the §V security analysis lives here too: a
// `MisbehavingCa` can present split views, reorder, or drop revocations —
// which the RA/consistency machinery must detect.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ca/feed.hpp"
#include "cert/certificate.hpp"
#include "common/rng.hpp"
#include "crypto/hash_chain.hpp"
#include "dict/dictionary.hpp"
#include "dict/messages.hpp"
#include "dict/signed_root.hpp"

namespace ritm::ca {

class CertificationAuthority {
 public:
  struct Config {
    cert::CaId id = "CA";
    UnixSeconds delta = 10;          // ∆, seconds between updates
    std::size_t chain_length = 1024; // freshness periods per signed root (m)
    std::size_t serial_width = 3;    // bytes per serial (paper §VII-A)
  };

  /// Keys and hash-chain seeds are drawn from `rng` (deterministic per seed).
  CertificationAuthority(Config config, Rng& rng, UnixSeconds now);

  const cert::CaId& id() const noexcept { return config_.id; }
  const crypto::PublicKey& public_key() const noexcept {
    return keypair_.public_key;
  }
  UnixSeconds delta() const noexcept { return config_.delta; }
  const dict::Dictionary& dictionary() const noexcept { return dict_; }

  /// Issues a certificate with the next sequential serial number.
  cert::Certificate issue(const std::string& subject,
                          const crypto::PublicKey& subject_key,
                          UnixSeconds not_before, UnixSeconds not_after);

  /// Fig. 2 `insert`: revokes `serials`, rebuilds the dictionary, rolls a
  /// fresh hash chain, and returns the issuance message to disseminate.
  dict::RevocationIssuance revoke(std::vector<cert::SerialNumber> serials,
                                  UnixSeconds now);

  /// Fig. 2 `refresh`: called (at least) every ∆ when there is nothing new
  /// to revoke. Returns a freshness statement while the chain lasts
  /// (p < m); re-signs the root with a new chain otherwise.
  FeedMessage refresh(UnixSeconds now);

  /// Latest signed root (Eq. (1)).
  const dict::SignedRoot& signed_root() const noexcept { return root_; }

  /// Freshness statement for the period containing `now` (Eq. (2)).
  crypto::Digest20 freshness_at(UnixSeconds now) const;

  /// freshness_at(now), but never for a period past the newest one
  /// refresh() has disclosed under the current root: what an endpoint may
  /// answer on a requester's clock without releasing future statements.
  crypto::Digest20 disclosed_freshness_at(UnixSeconds now) const;

  /// Current period index p = floor((now - t)/∆) relative to the latest
  /// signed root.
  std::uint64_t period_at(UnixSeconds now) const;

  /// Builds the full revocation status for a serial: proof + signed root +
  /// current freshness (what an up-to-date RA would deliver). Used by tests
  /// and by the CA-side of the sync protocol.
  dict::RevocationStatus status_for(const cert::SerialNumber& serial,
                                    UnixSeconds now) const;

  /// Builds the CDN cold-start object (§VIII, PR 4): the full dictionary
  /// snapshot under the current signed root plus the freshness statement
  /// for `now`, covering feed periods up to and including `upto_period`.
  /// Submitted to the distribution point so a fresh RA bootstraps its
  /// replica in one pull instead of replaying the issuance history.
  ColdStartObject cold_start_object(std::uint64_t upto_period,
                                    UnixSeconds now) const;

 private:
  friend class MisbehavingCa;

  void resign(UnixSeconds now);

  Config config_;
  crypto::KeyPair keypair_;
  Rng rng_;
  dict::Dictionary dict_;
  crypto::HashChain chain_;
  dict::SignedRoot root_;
  std::uint64_t disclosed_period_ = 0;  // newest refresh() under root_
  std::uint64_t next_serial_ = 1;
};

/// A CA that lies (§V "Misbehaving CA"): wraps a real CA and fabricates
/// alternative views with the CA's own key. Every fabricated artefact
/// carries a valid signature — the point of RITM's design is that signatures
/// alone cannot hide the lie; the append-only structure and cross-checks
/// expose it (two signed roots with equal n and different roots).
class MisbehavingCa {
 public:
  explicit MisbehavingCa(CertificationAuthority& ca) : ca_(ca) {}

  /// A split view: a signed issuance over the CA's history with `hide`
  /// removed and a fresh serial appended to keep n equal to the truthful
  /// view — indistinguishable to an isolated RA, detectable by comparison.
  dict::RevocationIssuance view_without(const cert::SerialNumber& hide,
                                        UnixSeconds now) const;

  /// A reordered view: the last two revocations swapped (numbering swap).
  dict::RevocationIssuance reordered_view(UnixSeconds now) const;

 private:
  CertificationAuthority& ca_;
};

}  // namespace ritm::ca
