// Fuzz harness for the gossip parsers, which read hostile bytes from any
// peer RA that opens a connection:
//   * the codecs ra::decode_gossip_digest, ra::decode_gossip_pull and
//     ra::decode_gossip_reply;
//   * the whole server handler (ra::RaService::handle) for gossip_digest,
//     gossip_pull and gossip_roots on an arbitrary body, against a pool
//     holding a few segments of one CA's signed roots.
// Properties checked beyond "no crash":
//   * a decode that succeeds re-encodes to exactly the bytes it consumed
//     (the codecs are canonical);
//   * an ok pull reply holds each held root at most once (no request can
//     buy a reply larger than the pool), and only roots the pool held;
//   * an ok digest reply is the pool's own digest, and only a decodable
//     digest or pull request is answered ok.
//
// Built like fuzz_frame (CMake): with -DRITM_BUILD_FUZZERS=ON (clang) this
// is a libFuzzer target; otherwise it compiles as a self-driving smoke
// binary that replays a deterministic pseudo-random corpus, registered as
// a ctest (label `fault`).
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "ca/authority.hpp"
#include "common/rng.hpp"
#include "ra/gossip.hpp"
#include "ra/service.hpp"
#include "ra/store.hpp"

namespace {

using namespace ritm;

bool same_bytes(ByteSpan a, ByteSpan b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// Every signed root the harness knows: one CA's honest roots n=1..150
/// and a split view at n=150 (valid signature, different root).
struct RootUniverse {
  std::vector<dict::SignedRoot> roots;
  cert::TrustStore keys;

  RootUniverse() {
    Rng rng(0x6055);
    ca::CertificationAuthority::Config cfg;
    cfg.id = "CA-FUZZ";
    cfg.delta = 10;
    cfg.chain_length = 64;
    ca::CertificationAuthority ca(cfg, rng, 1000);
    ca::MisbehavingCa evil(ca);
    for (std::uint64_t i = 1; i <= 150; ++i) {
      roots.push_back(ca.revoke({cert::SerialNumber::from_uint(i)},
                                static_cast<UnixSeconds>(1000 + 10 * i))
                          .signed_root);
    }
    roots.push_back(
        evil.view_without(cert::SerialNumber::from_uint(1), 2600).signed_root);
    keys.add(ca.id(), ca.public_key());
  }
};

/// A live gossip server: holds n=1..100 minus a hole at 70, so digests
/// carry several runs and pulls can ask for roots it lacks.
struct GossipTarget {
  RootUniverse universe;
  ra::DictionaryStore store;
  ra::GossipPool pool{&universe.keys};
  ra::RaService service{&store, &pool};

  GossipTarget() {
    for (std::size_t i = 0; i < 100; ++i) {
      if (i + 1 != 70) pool.observe(universe.roots[i]);
    }
  }
};

GossipTarget& gossip_target() {
  static GossipTarget t;
  return t;
}

using RootKey = std::pair<cert::CaId, std::uint64_t>;

std::set<RootKey> keys_of(const std::vector<dict::SignedRoot>& roots) {
  std::set<RootKey> keys;
  for (const auto& root : roots) keys.emplace(root.ca, root.n);
  return keys;
}

void fuzz_digest(ByteSpan input) {
  const auto d = ra::decode_gossip_digest(input);
  if (!d) return;
  if (!same_bytes(ByteSpan(ra::encode_gossip_digest(*d)), input)) {
    __builtin_trap();
  }
}

void fuzz_pull(ByteSpan input) {
  const auto d = ra::decode_gossip_pull(input);
  if (!d) return;
  if (!same_bytes(ByteSpan(ra::encode_gossip_pull(d->want, d->push)),
                  input)) {
    __builtin_trap();
  }
}

void fuzz_reply(ByteSpan input) {
  const auto d = ra::decode_gossip_reply(input);
  if (!d) return;
  if (!same_bytes(ByteSpan(ra::encode_gossip_reply(*d)), input)) {
    __builtin_trap();
  }
}

svc::Response serve(svc::Method method, ByteSpan input) {
  svc::Request req;
  req.method = method;
  req.request_id = 77;
  req.body.assign(input.begin(), input.end());
  svc::Response resp = gossip_target().service.handle(req).response;
  if (resp.request_id != req.request_id) __builtin_trap();
  return resp;
}

void fuzz_handle(ByteSpan input) {
  ra::GossipPool& pool = gossip_target().pool;

  const auto digest = serve(svc::Method::gossip_digest, input);
  if (digest.status == svc::Status::ok) {
    const auto mine = ra::decode_gossip_digest(ByteSpan(digest.body));
    if (!ra::decode_gossip_digest(input) || !mine || *mine != pool.digest()) {
      __builtin_trap();
    }
  }

  const std::set<RootKey> held = keys_of(pool.roots());
  const auto pull = serve(svc::Method::gossip_pull, input);
  if (pull.status == svc::Status::ok) {
    if (!ra::decode_gossip_pull(input)) __builtin_trap();
    const auto reply = ra::decode_gossip_reply(ByteSpan(pull.body));
    if (!reply) __builtin_trap();
    const std::set<RootKey> sent = keys_of(reply->roots);
    if (sent.size() != reply->roots.size()) __builtin_trap();  // duplicate
    for (const auto& key : sent) {
      if (held.count(key) == 0) __builtin_trap();
    }
  }

  const auto roots = serve(svc::Method::gossip_roots, input);
  if (roots.status == svc::Status::ok) {
    const auto reply = ra::decode_gossip_reply(ByteSpan(roots.body));
    if (!reply || keys_of(reply->roots).size() != reply->roots.size()) {
      __builtin_trap();
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const ByteSpan input(data, size);
  fuzz_digest(input);
  fuzz_pull(input);
  fuzz_reply(input);
  fuzz_handle(input);
  return 0;
}

#ifndef RITM_LIBFUZZER
namespace {

/// Peers over random subsets of the universe (the split view included
/// sometimes), built once: their digests, wants and pushes against the
/// target vary without re-verifying every root per input.
const std::vector<ra::GossipPool>& peers() {
  static const std::vector<ra::GossipPool> pools = [] {
    const RootUniverse& u = gossip_target().universe;
    Rng rng(0x9EE5);
    std::vector<ra::GossipPool> out;
    for (int p = 0; p < 16; ++p) {
      ra::GossipPool pool(&u.keys);
      const std::uint64_t keep = 1 + rng.uniform(4);
      for (const auto& root : u.roots) {
        if (rng.uniform(4) < keep) pool.observe(root);
      }
      out.push_back(std::move(pool));
    }
    return out;
  }();
  return pools;
}

/// A valid request and its method: a digest, a full root list, an honest
/// pull (want_from + push_for against the target), or a hostile pull whose
/// ranges may repeat or overlap.
std::pair<svc::Method, Bytes> random_request(Rng& rng) {
  const ra::GossipPool& peer = peers()[rng.uniform(peers().size())];
  const ra::GossipDigest theirs = gossip_target().pool.digest();
  switch (rng.uniform(4)) {
    case 0:
      return {svc::Method::gossip_digest,
              ra::encode_gossip_digest(peer.digest())};
    case 1:
      return {svc::Method::gossip_roots, ra::encode_gossip_roots(peer.roots())};
    case 2:
      return {svc::Method::gossip_pull,
              ra::encode_gossip_pull(peer.want_from(theirs),
                                     peer.push_for(theirs))};
    default: {
      ra::GossipWant want;
      auto& ranges = want.ranges["CA-FUZZ"];
      const std::uint32_t count = 1 + rng.uniform(6);
      for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint64_t lo = rng.uniform(160);
        ranges.emplace_back(lo, lo + rng.uniform(200));
      }
      return {svc::Method::gossip_pull, ra::encode_gossip_pull(want, {})};
    }
  }
}

}  // namespace

// Self-driving smoke mode: a deterministic pseudo-random corpus — raw
// noise, valid digest / roots / pull bodies, and the server's real replies
// to them, each possibly bit-flipped or truncated — through the same entry
// point libFuzzer drives.
int main() {
  Rng rng(0x6055);
  Bytes buf;
  for (int iter = 0; iter < 5'000; ++iter) {
    const std::uint32_t shape = rng.uniform(3);
    if (shape == 0) {  // raw noise
      buf.assign(rng.uniform(512), 0);
      for (auto& b : buf) b = std::uint8_t(rng.uniform(256));
    } else {
      auto [method, body] = random_request(rng);
      buf = shape == 2 ? serve(method, ByteSpan(body)).body : std::move(body);
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
