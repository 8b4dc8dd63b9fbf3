// Fuzz harness for the feed sync parsers (Method::feed_delta), which read
// hostile bytes on both ends of the resync exchange:
//   * the server's request decoder (ca::decode_delta_request) and the
//     embedded dict::SyncRequest decoder;
//   * the RA's dict::SyncResponse decoder;
//   * the whole server handler (ca::SyncService::handle) on an arbitrary
//     feed_delta body, against a small live CA and distribution point.
// Properties checked beyond "no crash":
//   * a decode that succeeds re-encodes to exactly the bytes it consumed
//     (the codecs are canonical);
//   * an ok handler reply is a well-formed u64 resume_period (the
//     distribution point's next period) + SyncResponse for the requested
//     CA, and its freshness statement is never one the CA has not yet
//     released through refresh().
//
// Built like fuzz_frame (CMake): with -DRITM_BUILD_FUZZERS=ON (clang) this
// is a libFuzzer target; otherwise it compiles as a self-driving smoke
// binary that replays a deterministic pseudo-random corpus, registered as
// a ctest (label `fault`).
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "ca/sync_service.hpp"
#include "cdn/cdn.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "crypto/hash_chain.hpp"

namespace {

using namespace ritm;

constexpr UnixSeconds kRootTime = 1000;
constexpr std::uint64_t kDisclosedPeriod = 4;

bool same_bytes(ByteSpan a, ByteSpan b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// A live sync server: one CA with a few hundred revocations that has
/// released freshness statements up to kDisclosedPeriod, and a
/// distribution point with that many feed periods published.
struct SyncTarget {
  ca::CertificationAuthority ca;
  cdn::Cdn cdn = cdn::make_global_cdn(0);
  ca::DistributionPoint dp{&cdn, 10};
  ca::SyncService service;

  static ca::CertificationAuthority build_ca() {
    Rng rng(4343);
    ca::CertificationAuthority::Config cfg;
    cfg.id = "CA-FUZZ";
    cfg.delta = 10;
    cfg.chain_length = 64;
    return ca::CertificationAuthority(cfg, rng, kRootTime);
  }

  SyncTarget() : ca(build_ca()) {
    dp.register_ca(ca.id(), ca.public_key());
    std::vector<cert::SerialNumber> revoked;
    for (std::uint64_t i = 1; i <= 200; ++i) {
      revoked.push_back(cert::SerialNumber::from_uint(i * 5, 4));
    }
    dp.submit(ca::FeedMessage::of(ca.revoke(revoked, kRootTime)));
    dp.publish(from_seconds(kRootTime));
    for (std::uint64_t p = 1; p <= kDisclosedPeriod; ++p) {
      const auto t = kRootTime + static_cast<UnixSeconds>(p) * 10;
      dp.submit(ca.refresh(t));
      dp.publish(from_seconds(t));
    }
    service.add(&ca);
    service.set_period_source(&dp);
  }
};

SyncTarget& sync_target() {
  static SyncTarget t;
  return t;
}

void fuzz_delta_request(ByteSpan input) {
  const auto d = ca::decode_delta_request(input);
  if (!d) return;
  const Bytes re = ca::encode_delta_request(d->request, d->now,
                                            d->cursor_period);
  if (!same_bytes(ByteSpan(re), input)) __builtin_trap();
}

void fuzz_sync_request(ByteSpan input) {
  const auto d = dict::SyncRequest::decode(input);
  if (!d) return;
  if (!same_bytes(ByteSpan(d->encode()), input)) __builtin_trap();
}

void fuzz_sync_response(ByteSpan input) {
  const auto d = dict::SyncResponse::decode(input);
  if (!d) return;
  const Bytes re = d->encode();
  if (re.size() != d->wire_size() || !same_bytes(ByteSpan(re), input)) {
    __builtin_trap();
  }
}

/// True iff `f` is the statement of some period p <= max_period under
/// `anchor` (H^p(f) == anchor).
bool released(const crypto::Digest20& f, const crypto::Digest20& anchor,
              std::uint64_t max_period) {
  for (std::uint64_t p = 0; p <= max_period; ++p) {
    if (crypto::HashChain::verify(f, p, anchor)) return true;
  }
  return false;
}

void fuzz_handle(ByteSpan input) {
  SyncTarget& t = sync_target();
  svc::Request req;
  req.method = svc::Method::feed_delta;
  req.request_id = 91;
  req.body.assign(input.begin(), input.end());
  const svc::ServeResult out = t.service.handle(req);
  if (out.response.request_id != req.request_id) __builtin_trap();
  if (out.response.status != svc::Status::ok) return;

  // Only a decodable request for a registered CA may be answered ok.
  const auto asked = ca::decode_delta_request(input);
  if (!asked || asked->request.ca != t.ca.id()) __builtin_trap();
  ByteReader r{ByteSpan(out.response.body)};
  const auto resume = r.try_u64();
  if (!resume || *resume != t.dp.next_period()) __builtin_trap();
  const ByteSpan tail = ByteSpan(out.response.body).subspan(8);
  const auto resp = dict::SyncResponse::decode(tail);
  if (!resp || resp->ca != t.ca.id() ||
      !same_bytes(ByteSpan(resp->encode()), tail)) {
    __builtin_trap();
  }
  const std::uint64_t n = t.ca.dictionary().size();
  const std::uint64_t have = asked->request.have_n;
  const std::uint64_t want = have >= n ? 0 : n - have;
  if (resp->entries.size() != want) __builtin_trap();
  if (!released(resp->freshness, resp->signed_root.freshness_anchor,
                kDisclosedPeriod)) {
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const ByteSpan input(data, size);
  fuzz_delta_request(input);
  fuzz_sync_request(input);
  fuzz_sync_response(input);
  fuzz_handle(input);
  return 0;
}

#ifndef RITM_LIBFUZZER
namespace {

/// A valid feed_delta body: usually for the live CA, with a clock anywhere
/// from before the root to far past the released statements.
Bytes random_delta_request(Rng& rng) {
  dict::SyncRequest req;
  req.ca = rng.uniform(4) == 0 ? "CA-OTHER" : sync_target().ca.id();
  req.have_n = rng.uniform(4) == 0 ? ~std::uint64_t{0} - rng.uniform(4)
                                   : rng.uniform(260);
  const UnixSeconds now =
      rng.uniform(2) == 0
          ? static_cast<UnixSeconds>(rng.uniform(2000))
          : static_cast<UnixSeconds>(rng.next() >> rng.uniform(64));
  return ca::encode_delta_request(req, now, rng.uniform(16));
}

}  // namespace

// Self-driving smoke mode: a deterministic pseudo-random corpus — raw
// noise, valid delta requests, and the server's real responses (bare and
// with their resume prefix), each possibly bit-flipped or truncated —
// through the same entry point libFuzzer drives.
int main() {
  Rng rng(0x5F1C);
  Bytes buf;
  for (int iter = 0; iter < 20'000; ++iter) {
    const std::uint32_t shape = rng.uniform(4);
    if (shape == 0) {  // raw noise
      buf.assign(rng.uniform(512), 0);
      for (auto& b : buf) b = std::uint8_t(rng.uniform(256));
    } else {
      buf = random_delta_request(rng);
      if (shape >= 2) {  // the server's reply to it
        svc::Request req;
        req.method = svc::Method::feed_delta;
        req.body = buf;
        Bytes reply = sync_target().service.handle(req).response.body;
        if (shape == 3 && reply.size() >= 8) {
          reply.erase(reply.begin(), reply.begin() + 8);
        }
        buf = std::move(reply);
      }
      const std::uint32_t damage = rng.uniform(4);
      if (damage == 1 && !buf.empty()) {
        const std::uint32_t flips = 1 + rng.uniform(4);
        for (std::uint32_t f = 0; f < flips; ++f) {
          buf[rng.uniform(buf.size())] ^= std::uint8_t(1u << rng.uniform(8));
        }
      } else if (damage == 2) {
        buf.resize(rng.uniform(buf.size() + 1));
      }
    }
    LLVMFuzzerTestOneInput(buf.data(), buf.size());
  }
  return 0;
}
#endif
