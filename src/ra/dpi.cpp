#include "ra/dpi.hpp"

namespace ritm::ra {

bool is_tls(ByteSpan payload) noexcept {
  if (!tls::looks_like_tls(payload)) return false;
  return tls::decode_records(payload).has_value();
}

Inspection inspect(ByteSpan payload) {
  Inspection out;
  if (!tls::looks_like_tls(payload)) return out;
  auto records = tls::decode_records(payload);
  if (!records) return out;

  out.kind = Inspection::Kind::tls_other;
  for (const auto& rec : *records) {
    switch (rec.type) {
      case tls::ContentType::ritm_status: {
        auto status = dict::RevocationStatus::decode(ByteSpan(rec.payload));
        if (status) {
          out.existing_status = std::move(*status);
        } else {
          out.malformed_status = true;
        }
        break;
      }
      case tls::ContentType::application_data:
        if (out.kind == Inspection::Kind::tls_other) {
          out.kind = Inspection::Kind::app_data;
        }
        break;
      case tls::ContentType::handshake: {
        auto msgs = tls::decode_handshakes(ByteSpan(rec.payload));
        if (!msgs) continue;  // garbled handshake record: ignore
        for (const auto& m : *msgs) {
          switch (m.type) {
            case tls::HandshakeType::client_hello: {
              auto ch = tls::ClientHello::decode_body(ByteSpan(m.body));
              if (ch) {
                out.kind = Inspection::Kind::client_hello;
                out.ritm_offered = ch->offers_ritm();
                out.client_session_id = ch->session_id;
              }
              break;
            }
            case tls::HandshakeType::server_hello: {
              auto sh = tls::ServerHello::decode_body(ByteSpan(m.body));
              if (sh) {
                out.kind = Inspection::Kind::server_flight;
                out.server_hello = std::move(*sh);
              }
              break;
            }
            case tls::HandshakeType::certificate: {
              auto cm = tls::CertificateMsg::decode_body(ByteSpan(m.body));
              if (cm) out.chain = std::move(cm->chain);
              break;
            }
            case tls::HandshakeType::finished:
              if (out.kind == Inspection::Kind::tls_other) {
                out.kind = Inspection::Kind::finished;
              }
              break;
            default:
              break;
          }
        }
        break;
      }
      default:
        break;
    }
  }
  return out;
}

void attach_status_bytes(sim::Packet& pkt, ByteSpan encoded) {
  pkt.payload.reserve(pkt.payload.size() + 5 + encoded.size());
  tls::encode_record_header_into(tls::ContentType::ritm_status,
                                 encoded.size(), pkt.payload);
  append(pkt.payload, encoded);
}

void replace_status_bytes(sim::Packet& pkt, ByteSpan encoded) {
  if (auto records = tls::decode_records(ByteSpan(pkt.payload))) {
    Bytes rebuilt;
    rebuilt.reserve(pkt.payload.size());
    for (const auto& rec : *records) {
      if (rec.type == tls::ContentType::ritm_status) continue;
      tls::encode_record_into(rec, rebuilt);
    }
    pkt.payload = std::move(rebuilt);
  }
  attach_status_bytes(pkt, encoded);
}

bool confirm_ritm(sim::Packet& pkt) {
  auto records = tls::decode_records(ByteSpan(pkt.payload));
  if (!records) return false;
  bool changed = false;
  Bytes rebuilt;
  for (const auto& rec : *records) {
    if (rec.type != tls::ContentType::handshake || changed) {
      tls::encode_record_into(rec, rebuilt);
      continue;
    }
    auto msgs = tls::decode_handshakes(ByteSpan(rec.payload));
    if (!msgs) {
      tls::encode_record_into(rec, rebuilt);
      continue;
    }
    Bytes new_payload;
    for (const auto& m : *msgs) {
      if (m.type == tls::HandshakeType::server_hello && !changed) {
        auto sh = tls::ServerHello::decode_body(ByteSpan(m.body));
        if (sh) {
          if (!sh->confirms_ritm()) {
            sh->extensions.push_back(tls::Extension{tls::kRitmExtension, {}});
          }
          append(new_payload,
                 ByteSpan(tls::encode_handshake(tls::HandshakeType::server_hello,
                                                ByteSpan(sh->encode_body()))));
          changed = true;
          continue;
        }
      }
      append(new_payload, ByteSpan(tls::encode_handshake(m.type,
                                                         ByteSpan(m.body))));
    }
    tls::encode_record_into(
        tls::Record{tls::ContentType::handshake, std::move(new_payload)},
        rebuilt);
  }
  if (changed) pkt.payload = std::move(rebuilt);
  return changed;
}

std::vector<dict::RevocationStatus> strip_status(sim::Packet& pkt) {
  std::vector<dict::RevocationStatus> out;
  auto records = tls::decode_records(ByteSpan(pkt.payload));
  if (!records) return out;
  Bytes rebuilt;
  for (const auto& rec : *records) {
    if (rec.type == tls::ContentType::ritm_status) {
      auto status = dict::RevocationStatus::decode(ByteSpan(rec.payload));
      if (status) out.push_back(std::move(*status));
      continue;
    }
    tls::encode_record_into(rec, rebuilt);
  }
  pkt.payload = std::move(rebuilt);
  return out;
}

}  // namespace ritm::ra
