// Fuzz harness for the middlebox path, which reads hostile bytes from every
// packet an RA forwards and every flight a RITM client receives. The input
// is one packet payload, driven through:
//   * tls::decode_records and ra::inspect (DPI: records, handshakes,
//     certificates, attached statuses);
//   * dict::RevocationStatus::decode, on the raw input and on every
//     ritm_status record in it;
//   * ra::strip_status, ra::replace_status_bytes and ra::confirm_ritm (the
//     packet rewrites of the client and the RA).
// Properties checked beyond "no crash":
//   * a status decode that succeeds re-encodes to exactly the bytes it
//     consumed (the codec is canonical);
//   * after strip_status, inspect reports no existing and no malformed
//     status (nothing a client hands its TLS stack carries a status).
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
#include "common/rng.hpp"
#include "dict/messages.hpp"
#include "ra/dpi.hpp"
#include "tls/record.hpp"
#include "tls/session.hpp"

namespace {

using namespace ritm;

const sim::Endpoint kClient{0x0A000001, 40000};
const sim::Endpoint kServer{0x0A000002, 443};

bool same_bytes(ByteSpan a, ByteSpan b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

/// A CA with a few revocations: the leaf chain for server flights and two
/// real statuses (one absence, one presence proof) to attach and replace.
struct Corpus {
  cert::Chain chain;
  Bytes valid_status;    // proof of absence for the leaf
  Bytes revoked_status;  // proof of presence

  Corpus() {
    Rng rng(0xD1F1);
    ca::CertificationAuthority::Config cfg;
    cfg.id = "CA-DPI";
    cfg.delta = 10;
    cfg.chain_length = 64;
    ca::CertificationAuthority ca(cfg, rng, 1000);
    std::vector<cert::SerialNumber> revoked;
    for (std::uint64_t i = 1; i <= 40; ++i) {
      revoked.push_back(cert::SerialNumber::from_uint(i * 2 + 1));
    }
    ca.revoke(std::move(revoked), 1000);
    crypto::Seed seed{};
    seed.fill(0x44);
    const auto server = crypto::keypair_from_seed(seed);
    chain = {ca.issue("dpi.example", server.public_key, 0, 10'000'000)};
    valid_status =
        ca.status_for(cert::SerialNumber::from_uint(4), 1005).encode();
    revoked_status =
        ca.status_for(cert::SerialNumber::from_uint(5), 1005).encode();
  }
};

const Corpus& corpus() {
  static const Corpus c;
  return c;
}

void check_status_codec(ByteSpan bytes) {
  const auto status = dict::RevocationStatus::decode(bytes);
  if (status && !same_bytes(ByteSpan(status->encode()), bytes)) {
    __builtin_trap();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const ByteSpan input(data, size);
  check_status_codec(input);
  if (const auto records = tls::decode_records(input)) {
    for (const auto& rec : *records) {
      if (rec.type == tls::ContentType::ritm_status) {
        check_status_codec(ByteSpan(rec.payload));
      }
    }
  }
  (void)ra::is_tls(input);
  (void)ra::inspect(input);

  sim::Packet stripped{kClient, kServer, Bytes(input.begin(), input.end())};
  (void)ra::strip_status(stripped);
  const ra::Inspection after = ra::inspect(ByteSpan(stripped.payload));
  if (after.existing_status || after.malformed_status) __builtin_trap();

  sim::Packet replaced{kClient, kServer, Bytes(input.begin(), input.end())};
  ra::replace_status_bytes(replaced, ByteSpan(corpus().valid_status));
  (void)ra::inspect(ByteSpan(replaced.payload));

  sim::Packet confirmed{kClient, kServer, Bytes(input.begin(), input.end())};
  if (ra::confirm_ritm(confirmed)) {
    (void)ra::inspect(ByteSpan(confirmed.payload));
  }
  return 0;
}

#ifndef RITM_LIBFUZZER
namespace {

/// A well-formed packet payload: a ClientHello, a server flight (with or
/// without RITM confirmation, possibly carrying one or two statuses),
/// application data with a status, a Finished, or a bare status record.
Bytes random_packet(Rng& rng) {
  const Corpus& c = corpus();
  const ByteSpan status(rng.uniform(2) == 0 ? c.valid_status
                                            : c.revoked_status);
  switch (rng.uniform(6)) {
    case 0:
      return tls::make_client_hello(kClient, kServer, rng, rng.uniform(2) == 0)
          .payload;
    case 1: {
      auto pkt = tls::make_server_flight(kClient, kServer, rng, c.chain,
                                         rng.uniform(2) == 0);
      const std::uint64_t statuses = rng.uniform(3);
      for (std::uint64_t i = 0; i < statuses; ++i) {
        ra::attach_status_bytes(pkt, status);
      }
      return pkt.payload;
    }
    case 2: {
      auto pkt = tls::make_app_data(kServer, kClient, rng.bytes(48));
      ra::attach_status_bytes(pkt, status);
      return pkt.payload;
    }
    case 3:
      return tls::make_server_finished(kClient, kServer).payload;
    case 4: {
      Bytes out;
      tls::encode_record_header_into(tls::ContentType::ritm_status,
                                     status.size(), out);
      append(out, status);
      return out;
    }
    default:
      return Bytes(status.begin(), status.end());
  }
}

}  // namespace

// Self-driving smoke mode: a deterministic pseudo-random corpus — raw
// noise and well-formed packets (most carrying a real status), each
// possibly bit-flipped, truncated or extended — through the same entry
// point libFuzzer drives.
int main() {
  Rng rng(0xD1F1);
  Bytes buf;
  for (int iter = 0; iter < 50'000; ++iter) {
    if (rng.uniform(8) == 0) {  // raw noise
      buf = rng.bytes(rng.uniform(512));
    } else {
      buf = random_packet(rng);
      const std::uint64_t damage = rng.uniform(4);
      if (damage == 1 && !buf.empty()) {
        const std::uint64_t flips = 1 + rng.uniform(4);
        for (std::uint64_t f = 0; f < flips; ++f) {
          buf[rng.uniform(buf.size())] ^= std::uint8_t(1u << rng.uniform(8));
        }
      } else if (damage == 2) {
        buf.resize(rng.uniform(buf.size() + 1));
      } else if (damage == 3) {
        append(buf, ByteSpan(rng.bytes(1 + rng.uniform(8))));
      }
    }
    LLVMFuzzerTestOneInput(buf.data(), buf.size());
  }
  return 0;
}
#endif
