// ritm_serve: stand up a real RA status server on a TCP port.
//
// Builds a demo CA with a revocation dictionary, boots an RA replica from
// it, and serves Method::status_query / status_batch / gossip_roots over
// the envelope protocol (svc::TcpServer). Pair with ritm_query:
//
//   ./ritm_serve --port 4717 --entries 100000 &
//   ./ritm_query --port 4717 --serial 0000002a --batch 256
//
// The CA trust anchor is printed as hex so a validating client
// (ritm_query --trust <hex>) can verify the signed roots it receives.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "ca/sync_service.hpp"
#include "cdn/cdn.hpp"
#include "cdn/service.hpp"
#include "ra/gossip.hpp"
#include "ra/service.hpp"
#include "ra/store.hpp"
#include "ra/updater.hpp"
#include "svc/mux.hpp"
#include "svc/tcp.hpp"

using namespace ritm;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: ritm_serve [--port N] [--entries N] [--ca ID] "
               "[--delta SECONDS] [--max-conns N]\n"
               "                  [--quota-rps N] [--quota-burst N] "
               "[--idle-timeout-ms N] [--retry-after-ms N] [--reactors N]\n"
               "                  [--persist-dir DIR] "
               "[--checkpoint-interval-s N]\n"
               "  --port N             TCP port to listen on (default 4717; "
               "0 = ephemeral)\n"
               "  --entries N          revoked serials in the demo dictionary "
               "(default 100000)\n"
               "  --ca ID              CA identifier (default CA-1)\n"
               "  --delta N            update period in seconds (default 10)\n"
               "  --max-conns N        connection limit (default 64)\n"
               "  --quota-rps N        per-client request quota per second "
               "(default 0 = off)\n"
               "  --quota-burst N      per-client request burst size "
               "(default 32)\n"
               "  --idle-timeout-ms N  close connections idle this long "
               "(default 0 = never)\n"
               "  --retry-after-ms N   retry_after hint on sheds; floor of "
               "the quota pause (default 100)\n"
               "  --reactors N         epoll reactor threads; one acceptor "
               "hands them connections\n"
               "                       round-robin (default 0 = one per "
               "hardware thread)\n"
               "  --persist-dir DIR    durable mode: recover from DIR on "
               "start, WAL + snapshot into it\n"
               "  --checkpoint-interval-s N\n"
               "                       background checkpoint period in "
               "seconds (default 30; 0 = only\n"
               "                       the final shutdown checkpoint; "
               "needs --persist-dir)\n");
  std::exit(2);
}

std::uint64_t arg_u64(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage();
  return std::strtoull(argv[++i], nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint16_t port = 4717;
  std::uint64_t entries = 100'000;
  std::string ca_id = "CA-1";
  UnixSeconds delta = 10;
  std::size_t max_conns = 64;
  double quota_rps = 0.0;
  std::uint32_t quota_burst = 32;
  std::uint32_t idle_timeout_ms = 0;
  std::uint32_t retry_after_ms = 100;
  unsigned reactors = 0;
  std::string persist_dir;
  double checkpoint_interval_s = 30.0;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--port")) {
      port = static_cast<std::uint16_t>(arg_u64(argc, argv, i));
    } else if (!std::strcmp(argv[i], "--entries")) {
      entries = arg_u64(argc, argv, i);
    } else if (!std::strcmp(argv[i], "--ca")) {
      if (i + 1 >= argc) usage();
      ca_id = argv[++i];
    } else if (!std::strcmp(argv[i], "--delta")) {
      delta = static_cast<UnixSeconds>(arg_u64(argc, argv, i));
    } else if (!std::strcmp(argv[i], "--max-conns")) {
      max_conns = static_cast<std::size_t>(arg_u64(argc, argv, i));
    } else if (!std::strcmp(argv[i], "--quota-rps")) {
      quota_rps = double(arg_u64(argc, argv, i));
    } else if (!std::strcmp(argv[i], "--quota-burst")) {
      quota_burst = static_cast<std::uint32_t>(arg_u64(argc, argv, i));
    } else if (!std::strcmp(argv[i], "--idle-timeout-ms")) {
      idle_timeout_ms = static_cast<std::uint32_t>(arg_u64(argc, argv, i));
    } else if (!std::strcmp(argv[i], "--retry-after-ms")) {
      retry_after_ms = static_cast<std::uint32_t>(arg_u64(argc, argv, i));
    } else if (!std::strcmp(argv[i], "--reactors")) {
      reactors = static_cast<unsigned>(arg_u64(argc, argv, i));
    } else if (!std::strcmp(argv[i], "--persist-dir")) {
      if (i + 1 >= argc) usage();
      persist_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--checkpoint-interval-s")) {
      if (i + 1 >= argc) usage();
      checkpoint_interval_s = std::strtod(argv[++i], nullptr);
    } else {
      usage();
    }
  }

  // Demo CA + RA replica: every 7th serial in [1, entries*7] is revoked.
  const UnixSeconds now = 1'400'000'000;
  Rng rng(4717);
  ca::CertificationAuthority::Config cfg;
  cfg.id = ca_id;
  cfg.delta = delta;
  ca::CertificationAuthority ca(cfg, rng, now);
  {
    std::vector<cert::SerialNumber> serials;
    serials.reserve(entries);
    for (std::uint64_t i = 0; i < entries; ++i) {
      serials.push_back(cert::SerialNumber::from_uint(i * 7 + 7, 4));
    }
    ca.revoke(std::move(serials), now);
  }

  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), delta);

  // Durable mode: recover the replica from the snapshot + WAL tail before
  // bootstrapping. The demo CA is deterministic, so a recovered replica
  // either matches it (nothing to sync) or trails it (--entries grew);
  // the sync below then only sends the missing suffix — WAL-logged.
  auto global_cdn = cdn::make_global_cdn(60'000);
  cdn::LocalCdn local_cdn(&global_cdn);
  std::unique_ptr<ra::RaUpdater> updater;
  ra::DictionaryStore::RecoveryReport recovery;
  if (!persist_dir.empty()) {
    updater = std::make_unique<ra::RaUpdater>(ra::RaUpdater::Config{}, &store,
                                              &local_cdn.rpc);
    recovery = updater->recover(persist_dir);
    if (!recovery.ok) {
      std::fprintf(stderr, "ritm_serve: recovery from %s failed: %s\n",
                   persist_dir.c_str(), recovery.error.c_str());
      return 1;
    }
  }

  const std::uint64_t have = store.have_n(ca.id());
  if (have > ca.dictionary().size()) {
    std::fprintf(stderr,
                 "ritm_serve: recovered replica has %llu entries but the "
                 "demo CA only %llu; rerun with --entries >= %llu or a "
                 "fresh --persist-dir\n",
                 (unsigned long long)have,
                 (unsigned long long)ca.dictionary().size(),
                 (unsigned long long)have);
    return 1;
  }
  if (!store.has_root(ca.id()) || have < ca.dictionary().size()) {
    dict::SyncResponse boot;
    boot.ca = ca.id();
    boot.entries = ca.dictionary().entries_from(have + 1);
    boot.signed_root = ca.signed_root();
    boot.freshness = ca.freshness_at(now);
    if (store.apply_sync(boot, now) != ra::ApplyResult::ok) {
      std::fprintf(stderr, "ritm_serve: RA bootstrap failed\n");
      return 1;
    }
  }
  if (updater && checkpoint_interval_s > 0.0) {
    updater->start_checkpoints(checkpoint_interval_s);
  }

  cert::TrustStore keys;
  keys.add(ca.id(), ca.public_key());
  ra::GossipPool gossip(&keys);
  gossip.observe(ca.signed_root());

  // One port, full deployment surface: RA status/gossip endpoints plus the
  // CDN object store (cold-start bootstrap) and the CA feed_delta sync
  // endpoints, muxed by method — what a fresh RA or a scenario driver needs
  // to go from nothing to serving without a second address.
  ca::DistributionPoint dp(&global_cdn, delta);
  dp.register_ca(ca.id(), ca.public_key());
  dp.publish(from_seconds(now));  // empty period-0 feed object
  if (dp.publish_cold_start(ca.cold_start_object(0, now),
                            from_seconds(now)) != svc::Status::ok) {
    std::fprintf(stderr, "ritm_serve: cold-start publish failed\n");
    return 1;
  }

  ca::SyncService sync;
  sync.add(&ca);
  sync.set_period_source(&dp);

  ra::RaService service(&store, &gossip);
  svc::MuxService mux;
  mux.set_default(&service);
  mux.route(svc::Method::cdn_get, &local_cdn.service);
  mux.route(svc::Method::feed_delta, &sync);
  svc::TcpServerOptions opts;
  opts.port = port;
  opts.max_connections = max_conns;
  opts.requests_per_sec = quota_rps;
  opts.burst_requests = quota_burst;
  opts.idle_timeout_ms = idle_timeout_ms;
  opts.retry_after_ms = retry_after_ms;
  opts.reactors = reactors;
  svc::TcpServer server(&mux, opts);

  const auto& key = ca.public_key();
  std::printf("ritm_serve: listening on 127.0.0.1:%u\n", server.port());
  std::printf("  ca          %s (delta %llds, %llu revoked serials)\n",
              ca.id().c_str(), (long long)delta,
              (unsigned long long)ca.dictionary().size());
  std::printf("  trust       %s\n",
              to_hex(ByteSpan(key.data(), key.size())).c_str());
  std::printf("  revoked     serials 7, 14, 21, ... (hex width 4)\n");
  std::printf("  protocol    v%u; methods: cdn_get(1) gossip_roots(3) "
              "status_query(4) status_batch(5) "
              "gossip_digest(6) gossip_pull(7) feed_delta(8)\n",
              svc::kProtocolVersion);
  std::printf("  reactors    %u\n", server.reactor_count());
  if (quota_rps > 0.0 || idle_timeout_ms != 0) {
    std::printf("  limits      quota %.0f req/s (burst %u), idle timeout "
                "%u ms, retry_after %u ms\n",
                quota_rps, quota_burst, idle_timeout_ms, retry_after_ms);
  }
  if (updater) {
    std::printf("  persist     %s (recovered %llu entries: snapshot seq "
                "%llu + %llu WAL records; checkpoint every %.1fs)\n",
                persist_dir.c_str(), (unsigned long long)have,
                (unsigned long long)recovery.snapshot_seq,
                (unsigned long long)recovery.replayed, checkpoint_interval_s);
  }
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (!g_stop) {
    pause();  // the epoll loop runs on the server's own thread
  }

  if (updater) {
    updater->stop_checkpoints();
    updater->checkpoint();  // shutdown snapshot: restart replays no WAL
  }

  const auto stats = server.stats();
  const auto svc_stats = service.stats();
  std::printf("\nritm_serve: %llu requests (%llu serials served, "
              "%llu shed, %llu throttled, %llu idle-closed, %llu bad "
              "frames), %llu B in / %llu B out\n",
              (unsigned long long)stats.requests,
              (unsigned long long)svc_stats.serials_served,
              (unsigned long long)stats.shed_over_limit,
              (unsigned long long)stats.throttled,
              (unsigned long long)stats.idle_closed,
              (unsigned long long)stats.fatal_frames,
              (unsigned long long)stats.bytes_in,
              (unsigned long long)stats.bytes_out);
  const auto gs = gossip.stats();
  std::printf("gossip: %llu digest + %llu pull requests served; pool-side "
              "exchanges %llu attempted (%llu failed, %llu digest / %llu "
              "full), %llu B sent / %llu B received, "
              "%llu B saved vs full-list\n",
              (unsigned long long)svc_stats.gossip_digests,
              (unsigned long long)svc_stats.gossip_pulls,
              (unsigned long long)gs.attempted, (unsigned long long)gs.failed,
              (unsigned long long)gs.digest_exchanges,
              (unsigned long long)gs.full_exchanges,
              (unsigned long long)gs.bytes_sent,
              (unsigned long long)gs.bytes_received,
              (unsigned long long)gs.bytes_saved);
  if (updater) {
    const auto cs = updater->checkpoint_stats();
    std::printf("persist: %llu checkpoints (%llu WAL resets, %llu skipped), "
                "last snapshot %llu B, freeze stall last %llu us / max "
                "%llu us\n",
                (unsigned long long)cs.checkpoints,
                (unsigned long long)cs.wal_resets,
                (unsigned long long)cs.wal_reset_skipped,
                (unsigned long long)cs.last_bytes,
                (unsigned long long)cs.last_stall_us,
                (unsigned long long)cs.max_stall_us);
  }
  return 0;
}
