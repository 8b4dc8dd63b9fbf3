// The RA's serving endpoint: per-flow status queries (single and batched)
// and the gossip root exchange, as one envelope service over the
// epoch-versioned DictionaryStore. This is the surface an RA exposes to
// clients and peer RAs — in-process for the simulated deployments,
// svc::TcpServer for real sockets (tools/ritm_serve.cpp).
//
// The batched method is the throughput path: N serials ride one envelope
// and fan out over the status-byte cache, so the per-request framing,
// dispatch, and (on TCP) syscall cost is paid once per batch instead of
// once per serial (`svc_status.batch_speedup` in BENCH_throughput.json).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "common/counter.hpp"
#include "ra/gossip.hpp"
#include "ra/store.hpp"
#include "svc/service.hpp"

namespace ritm::ra {

// Body layouts (shared by service, clients, and tools):
//
//   status_query  request:  var8 ca | var8 serial
//                 response: dict::RevocationStatus encoding
//   status_batch  request:  var8 ca | u32 count | count x var8 serial
//                 response: u32 count | count x var24 status encoding
//   gossip_roots  request:  u32 count | count x var16 SignedRoot
//                 response: u32 count | count x var16 SignedRoot (ours),
//                           u32 count | count x (var16, var16) evidence
//   gossip_digest request:  u32 ca_count | ca_count x (var8 ca | u32 runs |
//                           runs x (u64 lo | u64 hi | 20B run hash))
//                 response: the server's digest in the same shape
//   gossip_pull   request:  u32 ca_count | ca_count x (var8 ca | u32 ranges |
//                           ranges x (u64 lo | u64 hi)) — the want set —
//                           then u32 count | count x var16 SignedRoot pushed
//                 response: gossip_roots response shape (wanted roots +
//                           evidence found observing the pushes)
//
// The gossip_digest and gossip_pull decoders accept only what the encoders
// emit: CA entries in strictly ascending order (each CA once), and per CA
// ascending, disjoint runs / ranges. Anything else answers `malformed`.

/// Ceiling on serials per status_batch envelope: at the paper's 500-900 B
/// per status, anything larger would push the *response* past the
/// transport frame limit (svc::kMaxFrameBytes) and be rejected by the
/// requester's own decoder. Oversized batches answer frame_too_large.
inline constexpr std::uint32_t kMaxBatchSerials = 32'768;

Bytes encode_status_query(const cert::CaId& ca,
                          const cert::SerialNumber& serial);
Bytes encode_status_batch(const cert::CaId& ca,
                          const std::vector<cert::SerialNumber>& serials);
std::optional<std::vector<Bytes>> decode_status_batch_reply(ByteSpan body);

Bytes encode_gossip_roots(const std::vector<dict::SignedRoot>& roots);
struct GossipReply {
  std::vector<dict::SignedRoot> roots;          // the peer's observations
  std::vector<MisbehaviourEvidence> evidence;   // conflicts the peer found
};
Bytes encode_gossip_reply(const GossipReply& reply);
std::optional<GossipReply> decode_gossip_reply(ByteSpan body);

Bytes encode_gossip_digest(const GossipDigest& digest);
std::optional<GossipDigest> decode_gossip_digest(ByteSpan body);

Bytes encode_gossip_pull(const GossipWant& want,
                         const std::vector<dict::SignedRoot>& push);
struct GossipPullRequest {
  GossipWant want;                      // ranges the caller is missing
  std::vector<dict::SignedRoot> push;   // roots the caller diffed us to lack
};
std::optional<GossipPullRequest> decode_gossip_pull(ByteSpan body);

/// Thread safety: handle() may be called concurrently from the TCP
/// server's reactors — the status paths ride the store's sharded cache
/// (concurrent readers), counters are relaxed atomics, and the gossip
/// exchange (GossipPool is not thread-safe, and it is off the hot path)
/// is serialized behind its own mutex. Mutating the underlying store
/// still requires external serialization against handle().
class RaService final : public svc::Service {
 public:
  /// `gossip` may be null: gossip_roots then answers `unavailable`. Both
  /// pointers must outlive the service.
  explicit RaService(const DictionaryStore* store,
                     GossipPool* gossip = nullptr);

  svc::ServeResult handle(const svc::Request& req) override;

  struct Stats {
    Counter single_queries;
    Counter batch_queries;
    Counter serials_served;
    Counter gossip_exchanges;
    Counter gossip_digests;  // digest swaps answered
    Counter gossip_pulls;    // pull requests answered
    Counter rejected;        // non-ok responses
  };
  /// Snapshot of the counters (coherent per field under concurrency).
  Stats stats() const noexcept { return stats_; }

 private:
  svc::Response status_query(const svc::Request& req);
  svc::Response status_batch(const svc::Request& req);
  svc::Response gossip_roots(const svc::Request& req);
  svc::Response gossip_digest(const svc::Request& req);
  svc::Response gossip_pull(const svc::Request& req);

  const DictionaryStore* store_;
  GossipPool* gossip_;
  Stats stats_;
  std::mutex gossip_mu_;
};

}  // namespace ritm::ra
