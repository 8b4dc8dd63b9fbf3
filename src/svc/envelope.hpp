// The RITM service envelope (PR 5): the one versioned wire surface every
// cross-component request/response in the system rides on — CDN object GETs,
// the feed sync endpoint, RA<->RA gossip root exchange, and per-flow status
// queries. Before this layer the components were wired together with raw
// pointers and std::function hooks; now every boundary speaks the same
// CRC-framed, length-prefixed protocol, over an in-process transport (the
// simulated deployments) or a real TCP socket (svc/tcp.hpp).
//
// Frame layout (big-endian, common/io):
//
//   u32 frame_len   counts kind..body (so >= kEnvelopeHeaderBytes)
//   u8  kind        0 = request, 1 = response
//   u16 version     protocol version (kProtocolVersion)
//   u16 method      (request)  Method id
//       status      (response) Status code
//   u64 request_id  echoed verbatim in the response
//   ...body         frame_len - kEnvelopeHeaderBytes bytes, method-specific
//   u32 crc32       over exactly the frame_len bytes after the length field
//
// A frame is valid iff it fits the declared length, the length is within
// the transport's limit, the kind is known, and the CRC matches. Decoding
// distinguishes "incomplete, wait for more bytes" (Status::truncated) from
// fatal framing violations (bad_frame / bad_crc / frame_too_large), which
// close the connection after an error envelope is flushed.
//
// Versioning rules: a server answers requests whose version equals its own;
// anything else gets Status::version_skew with the *server's* version in
// the response header, so an old client can log what it must upgrade to.
// New methods may be added freely within a version (unknown ids answer
// unknown_method); any change to the frame header or an existing body
// bumps kProtocolVersion.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bytes.hpp"

namespace ritm::svc {

inline constexpr std::uint16_t kProtocolVersion = 1;

/// kind..request_id — the fixed part counted by frame_len.
inline constexpr std::size_t kEnvelopeHeaderBytes = 1 + 2 + 2 + 8;

/// Full on-wire overhead of an empty-body frame (length + header + CRC).
inline constexpr std::size_t kFrameOverheadBytes = 4 + kEnvelopeHeaderBytes + 4;

/// Default ceiling on frame_len — rejects garbage length fields before they
/// turn into giant allocations, and bounds a peer's buffer commitment.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Method ids of the serving API (request envelopes).
enum class Method : std::uint16_t {
  /// CDN object GET. Body: var16 path, u64 now_ms, u64/u64 client geo
  /// (lat/lon as IEEE-754 bit patterns — the simulated deployments route on
  /// it; a real edge ignores it). Response: u64 version, u64 published_at,
  /// u32 len + object bytes (owned by the response, never a view into the
  /// origin).
  cdn_get = 1,
  // Id 2 is retired: it was a resync RPC without the feed cursor, which
  // feed_delta superseded. It is never reused; servers answer it
  // unknown_method.
  /// RA<->RA gossip root exchange. Body: u32 count + count x var16
  /// SignedRoot. Response: the peer's roots in the same shape, then u32
  /// count + count x (var16 ours, var16 theirs) MisbehaviourEvidence pairs
  /// the peer discovered while observing.
  gossip_roots = 3,
  /// Single status query. Body: var8 ca, var8 serial. Response:
  /// dict::RevocationStatus encoding (Eq. (3)).
  status_query = 4,
  /// Batched status query — N serials, one envelope, fanned out over the
  /// epoch-versioned status-byte cache. Body: var8 ca, u32 count, count x
  /// var8 serial. Response: u32 count, count x var24 status encoding.
  status_batch = 5,
  /// Set-reconciliation gossip, step 1 of 2 (digest swap): the caller's
  /// compact seen-set summary — per CA, segment-aligned runs of contiguous
  /// root sizes with a hash over each run — answered with the peer's own
  /// digest in the same shape. Body layouts in ra/service.hpp. A peer that
  /// answers unknown_method fails the reconciliation; there is no fallback
  /// to the gossip_roots full exchange.
  gossip_digest = 6,
  /// Set-reconciliation gossip, step 2 of 2 (pull-only-missing): want-ranges
  /// diffed from the peer's digest plus the roots the peer was diffed to be
  /// missing. Response: the requested roots + the evidence the peer found
  /// observing the pushed ones (same tail shape as gossip_roots).
  gossip_pull = 7,
  /// Feed resynchronization, the one resync RPC: the RA advertises its
  /// entry have-set *and* its feed cursor; the response is a SyncResponse
  /// plus the first period the RA still needs, so the cursor can skip
  /// period objects the sync already covers. Body layouts in
  /// ca/sync_service.hpp.
  feed_delta = 8,
};

/// The one error taxonomy of the serving surface. Codes < 16 are
/// envelope/transport-level; codes >= 16 are the dictionary acceptance
/// rules of paper §III (ra::ApplyResult is an alias of this enum, so apply
/// paths and wire responses speak the same language).
enum class Status : std::uint16_t {
  ok = 0,
  // --- envelope / transport
  truncated = 1,        // incomplete frame: not an error, wait for bytes
  bad_crc = 2,          // frame CRC mismatch (fatal for the connection)
  bad_frame = 3,        // malformed header / unknown kind (fatal)
  frame_too_large = 4,  // frame_len exceeds the transport limit (fatal)
  version_skew = 5,     // request version != server version
  unknown_method = 6,   // method id the server does not implement
  malformed = 7,        // body failed to decode
  not_found = 8,        // no object at the requested path
  unavailable = 9,      // endpoint exists but cannot serve yet (no root)
  overloaded = 10,      // connection limit / quota / backpressure shed
  transport_error = 11, // socket-level failure (client-side synthesis)
  internal = 12,
  deadline_exceeded = 13, // per-request deadline expired (client synthesis)
  circuit_open = 14,    // circuit breaker refusing calls (client synthesis)
  // --- dictionary acceptance rules (ra::ApplyResult)
  unknown_ca = 16,
  bad_signature = 17,
  stale_root = 18,      // older timestamp/size than what we already verified
  root_mismatch = 19,   // replay produced a different root
  gap_detected = 20,    // issuance skips numbers: need sync
  bad_freshness = 21,   // statement does not hash into the committed anchor
};

const char* to_string(Status s) noexcept;

constexpr bool is_ok(Status s) noexcept { return s == Status::ok; }

struct Request {
  std::uint16_t version = kProtocolVersion;
  Method method = Method::status_query;
  std::uint64_t request_id = 0;  // 0 = let the transport stamp one
  Bytes body;

  bool operator==(const Request&) const = default;
};

struct Response {
  std::uint16_t version = kProtocolVersion;
  Status status = Status::ok;
  std::uint64_t request_id = 0;
  Bytes body;

  bool operator==(const Response&) const = default;
};

/// Appends the full frame (length prefix + envelope + CRC) to `out`.
void encode_frame(const Request& req, Bytes& out);
void encode_frame(const Response& resp, Bytes& out);
Bytes encode_frame(const Request& req);
Bytes encode_frame(const Response& resp);

/// One decoded frame off the head of a byte stream.
///
/// `status` is ok when a whole valid frame was consumed, truncated when the
/// stream ends mid-frame (consumed == 0; append bytes and retry), and a
/// fatal framing code otherwise (consumed == 0; the connection must close).
struct DecodedFrame {
  Status status = Status::truncated;
  bool is_request = false;
  Request request;    // valid when status == ok && is_request
  Response response;  // valid when status == ok && !is_request
  std::size_t consumed = 0;
};

DecodedFrame decode_frame(ByteSpan stream,
                          std::uint32_t max_frame = kMaxFrameBytes);

/// Body of an `overloaded` response: an optional u32 retry-after hint in
/// milliseconds — "come back no sooner than this". Servers that shed or
/// throttle attach it; resilient clients floor their backoff at the hint.
/// An empty body (pre-hint servers) decodes as nullopt.
Bytes encode_retry_after(std::uint32_t retry_after_ms);
std::optional<std::uint32_t> decode_retry_after(ByteSpan body);

}  // namespace ritm::svc
