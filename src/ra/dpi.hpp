// Deep packet inspection for the RA: classify a packet's payload (non-TLS /
// TLS handshake / application data), pull out the handshake messages RITM
// needs, and notice revocation-status records already attached by an
// upstream RA (the multiple-RA rule of §VIII).
//
// Table III of the paper times these two operations separately:
// "TLS detection (DPI)" — is_tls() on arbitrary payloads — and
// "Certificates parsing (DPI)" — extracting the chain from a server flight.
#pragma once

#include <optional>

#include "dict/messages.hpp"
#include "sim/packet.hpp"
#include "tls/handshake.hpp"
#include "tls/record.hpp"

namespace ritm::ra {

struct Inspection {
  enum class Kind {
    not_tls,
    tls_other,       // TLS but nothing RITM cares about (CCS, alerts, ...)
    client_hello,
    server_flight,   // ServerHello (+ Certificate for full handshakes)
    finished,
    app_data,
  };

  Kind kind = Kind::not_tls;

  // client_hello
  bool ritm_offered = false;
  Bytes client_session_id;

  // server_flight
  std::optional<tls::ServerHello> server_hello;
  std::optional<cert::Chain> chain;

  // Status a previous RA already attached (multi-RA handling).
  std::optional<dict::RevocationStatus> existing_status;
  bool malformed_status = false;
};

/// Full inspection of one packet payload.
Inspection inspect(ByteSpan payload);

/// The cheap classification path only ("TLS detection"): true iff the
/// payload parses as TLS records.
bool is_tls(ByteSpan payload) noexcept;

/// Appends a revocation-status record to a packet payload (RA -> client
/// piggybacking, §VIII option 1: dedicated content type), from an
/// already-encoded status (the store's epoch-validated cache): one header
/// write plus a memcpy — the warm per-packet path, no proof assembly or
/// encoding.
void attach_status_bytes(sim::Packet& pkt, ByteSpan encoded);

/// Replaces an existing status record (multi-RA: "replaces a revocation
/// status only if its own version of the dictionary is more recent").
/// Removes every ritm_status record, then appends the new one.
void replace_status_bytes(sim::Packet& pkt, ByteSpan encoded);

/// Removes all ritm_status records (what a RITM client does before handing
/// the packet to its TLS stack). Returns the extracted statuses.
std::vector<dict::RevocationStatus> strip_status(sim::Packet& pkt);

/// Adds the RITM extension to the ServerHello inside a server-flight packet
/// (TLS-terminator deployment, §IV: the terminator confirms RITM support
/// within ServerHello, which TLS integrity-protects against downgrade).
/// Returns false if the payload has no ServerHello.
bool confirm_ritm(sim::Packet& pkt);

}  // namespace ritm::ra
