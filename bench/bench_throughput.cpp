// §VII-D throughput claims, measured end to end on this implementation:
//
//   "an RA can process more than 340,000 non-TLS packets per second and
//    more than 50,000 RITM-supported TLS handshakes per second, on average.
//    Clients can validate almost 4,000 revocation statuses per second."
//
// We drive the real agent with wire packets and the real client with RA
// output, using the largest-CRL dictionary.
//
// Results are also written to BENCH_throughput.json (ops/sec, ns/op, rehash
// counts) so successive PRs have a machine-readable perf trajectory.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "cdn/cdn.hpp"
#include "cdn/service.hpp"
#include "client/client.hpp"
#include "common/table.hpp"
#include "crypto/sha256_engine.hpp"
#include "dict/dictionary.hpp"
#include "ra/agent.hpp"
#include "ra/service.hpp"
#include "ra/updater.hpp"
#include "scenario/engine.hpp"
#include "svc/tcp.hpp"
#include "tls/session.hpp"

using namespace ritm;

namespace {
double rate_per_sec(std::size_t ops, std::chrono::steady_clock::duration d) {
  const double secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(d).count();
  return double(ops) / secs;
}

double ns_per_op(std::size_t ops, std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::nano>>(d)
             .count() /
         double(ops);
}

double ms_of(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             d)
      .count();
}

/// Dictionary Δ-batch maintenance (the per-CA hot path): appends `batches`
/// batches of `batch_size` fresh serials past the current maximum and
/// recomputes the root after each, the per-issuance pattern of §III. When
/// `force_full` is set the incremental state is dropped before every root,
/// reproducing the seed's O(n)-hashing-per-batch cost model.
struct DictUpdateResult {
  double entries_per_sec = 0;
  double ns_per_entry = 0;
  std::uint64_t hashes = 0;
};

DictUpdateResult bench_dict_updates(
    const std::vector<std::vector<cert::SerialNumber>>& batches,
    std::uint64_t base_n, bool force_full) {
  dict::Dictionary d;
  std::vector<cert::SerialNumber> base;
  base.reserve(base_n);
  for (std::uint64_t i = 0; i < base_n; ++i) {
    base.push_back(cert::SerialNumber::from_uint(i * 7 + 1, 4));
  }
  d.insert(base);
  (void)d.root();

  const std::uint64_t hashes_before = d.total_hash_count();
  std::size_t entries = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& batch : batches) {
    d.insert(batch);
    if (force_full) d.invalidate_tree();
    (void)d.root();
    entries += batch.size();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;

  DictUpdateResult r;
  r.entries_per_sec = rate_per_sec(entries, elapsed);
  r.ns_per_entry =
      std::chrono::duration_cast<std::chrono::duration<double, std::nano>>(
          elapsed)
          .count() /
      double(entries);
  r.hashes = d.total_hash_count() - hashes_before;
  return r;
}
}  // namespace

int main() {
  constexpr UnixSeconds kDelta = 10;
  Rng rng(17);

  // Largest-CRL dictionary behind the RA.
  ca::CertificationAuthority::Config cfg;
  cfg.id = "CA-1";
  cfg.delta = kDelta;
  ca::CertificationAuthority ca(cfg, rng, 1000);
  {
    std::vector<cert::SerialNumber> serials;
    serials.reserve(339'557);
    for (std::uint64_t i = 0; i < 339'557; ++i) {
      serials.push_back(cert::SerialNumber::from_uint(i * 7 + 1, 4));
    }
    ca.revoke(std::move(serials), 1000);
  }

  ra::DictionaryStore store;
  store.register_ca(ca.id(), ca.public_key(), kDelta);
  {
    dict::SyncResponse boot;
    boot.ca = ca.id();
    boot.entries = ca.dictionary().entries_from(1);
    boot.signed_root = ca.signed_root();
    boot.freshness = ca.freshness_at(1000);
    store.apply_sync(boot, 1000);
  }
  ra::RevocationAgent agent({.delta = kDelta}, &store);

  crypto::Seed skey{};
  skey.fill(1);
  const auto server_kp = crypto::keypair_from_seed(skey);
  auto leaf = ca.issue("www.example.com", server_kp.public_key, 0,
                       2'000'000'000);
  leaf.serial = cert::SerialNumber::from_uint(2, 4);  // not revoked
  const cert::Chain chain = {leaf};

  const sim::Endpoint se{sim::Endpoint::parse_ip("10.0.0.2"), 443};

  Table t({"operation", "rate (ops/s)", "paper (Python)"});
  double non_tls_rate = 0, handshake_rate = 0, validation_rate = 0;

  // --- non-TLS packets through the agent.
  {
    auto pkt = tls::make_plain_packet({1, 1}, se, rng.bytes(512));
    constexpr std::size_t kOps = 2'000'000;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      agent.process(pkt, 1000);
    }
    non_tls_rate = rate_per_sec(kOps, std::chrono::steady_clock::now() - start);
    t.add_row({"RA: non-TLS packets", Table::num(non_tls_rate, 0),
               ">340,000/s"});
  }

  // --- full RITM handshakes (ClientHello + flight + status injection).
  {
    constexpr std::size_t kOps = 20'000;
    // Pre-build packets so we measure the RA, not the generator.
    std::vector<sim::Packet> hellos, flights;
    hellos.reserve(kOps);
    flights.reserve(kOps);
    for (std::size_t i = 0; i < kOps; ++i) {
      const sim::Endpoint ce{std::uint32_t(0x0A000001 + i / 60000),
                             std::uint16_t(1024 + i % 60000)};
      hellos.push_back(tls::make_client_hello(ce, se, rng, true));
      flights.push_back(tls::make_server_flight(ce, se, rng, chain, false));
    }
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      agent.process(hellos[i], 1000);
      agent.process(flights[i], 1000);
    }
    handshake_rate =
        rate_per_sec(kOps, std::chrono::steady_clock::now() - start);
    t.add_row({"RA: RITM handshakes", Table::num(handshake_rate, 0),
               ">50,000/s"});
  }

  // --- client status validations (signature + freshness + proof).
  {
    cert::TrustStore roots;
    roots.add(ca.id(), ca.public_key());
    client::RitmClient client({.delta = kDelta, .expect_ritm = true,
                               .require_server_confirmation = false},
                              roots);
    const auto status = *store.status_for(ca.id(), leaf.serial);
    constexpr std::size_t kOps = 20'000;
    const auto start = std::chrono::steady_clock::now();
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      accepted += client.validate_status(status, leaf, 1000) ==
                  client::Verdict::accepted;
    }
    validation_rate =
        rate_per_sec(kOps, std::chrono::steady_clock::now() - start);
    t.add_row({"client: status validations", Table::num(validation_rate, 0),
               "~4,000/s"});
    if (accepted != kOps) {
      std::printf("unexpected rejections! %zu/%zu\n", accepted, kOps);
      return 1;
    }
  }

  std::printf("== §VII-D throughput ==\n%s", t.render().c_str());
  std::printf("\nRA flows tracked: %zu; statuses attached: %llu\n",
              agent.flow_count(),
              (unsigned long long)agent.stats().statuses_attached);

  // --- status serving: uncached (prove + encode per op) vs the warm
  // epoch-validated cache (lookup + memcpy per op), over a working set of
  // serials against the 339k-entry dictionary.
  double status_cold_ns = 0, status_warm_ns = 0, status_speedup = 0;
  {
    constexpr std::size_t kWorkingSet = 512;
    constexpr std::size_t kOps = 100'000;
    std::vector<cert::SerialNumber> probes;
    probes.reserve(kWorkingSet);
    for (std::size_t i = 0; i < kWorkingSet; ++i) {
      probes.push_back(cert::SerialNumber::from_uint(i * 13 + 5, 4));
    }
    Bytes sink;
    sink.reserve(2048);

    // Cold path: what every packet paid before the cache existed.
    auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      sink.clear();
      const auto status = store.status_for(ca.id(), probes[i % kWorkingSet]);
      status->encode_into(sink);
    }
    status_cold_ns = ns_per_op(kOps, std::chrono::steady_clock::now() - start);

    // Warm path: first kWorkingSet lookups prove once, the rest memcpy.
    start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kOps; ++i) {
      sink.clear();
      const auto cached =
          store.status_bytes_for(ca.id(), probes[i % kWorkingSet]);
      append(sink, ByteSpan(*cached->bytes));
    }
    status_warm_ns = ns_per_op(kOps, std::chrono::steady_clock::now() - start);
    status_speedup = status_cold_ns / status_warm_ns;

    Table tc({"status serving (n=339,557)", "ns/status", "vs uncached"});
    tc.add_row({"uncached: prove + encode", Table::num(status_cold_ns, 0),
                "1.0x"});
    tc.add_row({"warm cache: lookup + memcpy", Table::num(status_warm_ns, 0),
                Table::num(status_speedup, 1) + "x"});
    std::printf("\n== status cache (working set %zu serials) ==\n%s",
                kWorkingSet, tc.render().c_str());
  }

  // --- multi-CA handshakes, cold vs warm cache: every handshake carries a
  // distinct certificate, so the cold pass misses on every serial and the
  // warm pass (same population, new flows) hits on every serial.
  constexpr std::size_t kCas = 4;
  constexpr std::uint64_t kEntriesPerCa = 50'000;
  constexpr std::size_t kHandshakesPerCa = 2'000;
  double multi_cold_rate = 0, multi_warm_rate = 0, multi_hit_rate = 0;
  std::uint64_t multi_invalidations = 0;
  {
    Rng mrng(99);
    std::vector<ca::CertificationAuthority> cas;
    ra::DictionaryStore mstore;
    for (std::size_t c = 0; c < kCas; ++c) {
      ca::CertificationAuthority::Config ccfg;
      ccfg.id = "CA-M" + std::to_string(c);
      ccfg.delta = kDelta;
      cas.emplace_back(ccfg, mrng, 1000);
      std::vector<cert::SerialNumber> serials;
      serials.reserve(kEntriesPerCa);
      for (std::uint64_t i = 0; i < kEntriesPerCa; ++i) {
        serials.push_back(cert::SerialNumber::from_uint(i * 11 + 3, 4));
      }
      cas.back().revoke(std::move(serials), 1000);
      mstore.register_ca(cas.back().id(), cas.back().public_key(), kDelta);
      dict::SyncResponse boot;
      boot.ca = cas.back().id();
      boot.entries = cas.back().dictionary().entries_from(1);
      boot.signed_root = cas.back().signed_root();
      boot.freshness = cas.back().freshness_at(1000);
      mstore.apply_sync(boot, 1000);
    }
    ra::RevocationAgent magent({.delta = kDelta}, &mstore);

    // One pass = kCas * kHandshakesPerCa handshakes, each with its own
    // (never-revoked) certificate. `port_base` separates the passes' flows.
    const auto run_pass = [&](std::uint16_t port_base) {
      std::vector<sim::Packet> hellos, flights;
      hellos.reserve(kCas * kHandshakesPerCa);
      flights.reserve(kCas * kHandshakesPerCa);
      for (std::size_t c = 0; c < kCas; ++c) {
        for (std::size_t i = 0; i < kHandshakesPerCa; ++i) {
          const sim::Endpoint ce{std::uint32_t(0x0B000001 + i),
                                 std::uint16_t(port_base + c)};
          cert::Certificate leaf2;
          leaf2.serial = cert::SerialNumber::from_uint(2 + i * 11, 4);
          leaf2.issuer = cas[c].id();
          leaf2.subject = "bench.example";
          hellos.push_back(tls::make_client_hello(ce, se, mrng, true));
          flights.push_back(
              tls::make_server_flight(ce, se, mrng, {leaf2}, false));
        }
      }
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < hellos.size(); ++i) {
        magent.process(hellos[i], 1000);
        magent.process(flights[i], 1000);
      }
      return rate_per_sec(hellos.size(),
                          std::chrono::steady_clock::now() - start);
    };

    multi_cold_rate = run_pass(20000);  // every serial: cache miss
    multi_warm_rate = run_pass(30000);  // same population: cache hit
    // A new issuance per CA drops that CA's cache — the invalidation count
    // the JSON tracks.
    for (auto& mca : cas) {
      mstore.apply_issuance(
          mca.revoke({cert::SerialNumber::from_uint(1, 4)}, 1010), 1010);
    }
    (void)run_pass(40000);  // re-warm after invalidation
    const auto& cs = mstore.cache_stats();
    multi_invalidations = cs.invalidations;
    multi_hit_rate = double(cs.hits) / double(cs.hits + cs.misses);

    Table tm({"multi-CA handshakes (4 CAs x 50k)", "rate (ops/s)"});
    tm.add_row({"cold cache (all misses)", Table::num(multi_cold_rate, 0)});
    tm.add_row({"warm cache (all hits)", Table::num(multi_warm_rate, 0)});
    std::printf("\n%s", tm.render().c_str());
    std::printf("cache: %llu hits, %llu misses, %llu invalidations "
                "(hit rate %.3f)\n",
                (unsigned long long)cs.hits, (unsigned long long)cs.misses,
                (unsigned long long)cs.invalidations, multi_hit_rate);
  }

  // --- dictionary Δ-batch update throughput (100k-entry dictionary).
  constexpr std::uint64_t kDictBase = 100'000;
  constexpr std::size_t kDictBatches = 200;
  constexpr std::size_t kDictBatchSize = 64;
  std::vector<std::vector<cert::SerialNumber>> delta_batches;
  delta_batches.reserve(kDictBatches);
  for (std::size_t b = 0; b < kDictBatches; ++b) {
    std::vector<cert::SerialNumber> batch;
    batch.reserve(kDictBatchSize);
    for (std::size_t i = 0; i < kDictBatchSize; ++i) {
      // Fresh serials past the base range: the append-heavy issuance stream.
      batch.push_back(cert::SerialNumber::from_uint(
          kDictBase * 7 + 100 + b * kDictBatchSize + i, 4));
    }
    delta_batches.push_back(std::move(batch));
  }
  const auto inc = bench_dict_updates(delta_batches, kDictBase, false);
  const auto full = bench_dict_updates(delta_batches, kDictBase, true);
  const double speedup = full.ns_per_entry / inc.ns_per_entry;

  Table td({"dictionary maintenance", "entries/s", "ns/entry", "SHA-256 ops"});
  td.add_row({"incremental (dirty-range)", Table::num(inc.entries_per_sec, 0),
              Table::num(inc.ns_per_entry, 0), Table::num(inc.hashes)});
  td.add_row({"full rebuild (seed)", Table::num(full.entries_per_sec, 0),
              Table::num(full.ns_per_entry, 0), Table::num(full.hashes)});
  std::printf("\n== dictionary Δ-batch updates (n=%llu, %zu x %zu) ==\n%s",
              (unsigned long long)kDictBase, kDictBatches, kDictBatchSize,
              td.render().c_str());
  std::printf("\nincremental speedup: %.1fx\n", speedup);

  // --- SHA-256 engine: ns/hash per backend on 64-input batches of
  // interior-node-sized (41-byte) messages — the exact shape the rebuild
  // hot loop feeds hash20_batch — plus the end-to-end full-rebuild win.
  const char* engine_active = crypto::sha256_engine().name;
  std::string engine_backends_json;
  double engine_scalar_ns = 0, engine_batch_speedup = 1.0;
  double rebuild_scalar_ms = 0, rebuild_engine_ms = 0, rebuild_speedup = 1.0;
  {
    constexpr std::size_t kBatch = 64;
    constexpr std::size_t kMsgLen = 41;
    constexpr std::size_t kIters = 20'000;  // 1.28M hashes per backend
    std::uint8_t msgs[kBatch][kMsgLen];
    ByteSpan spans[kBatch];
    crypto::Digest20 digests[kBatch];
    Rng erng(4242);
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto bytes = erng.bytes(kMsgLen);
      std::copy(bytes.begin(), bytes.end(), msgs[i]);
      spans[i] = ByteSpan(msgs[i], kMsgLen);
    }
    const auto batch = std::span<const ByteSpan>(spans, kBatch);

    Table te({"sha256 engine (64-msg batches)", "ns/hash", "vs scalar"});
    for (const auto backend : crypto::sha256_available_backends()) {
      crypto::sha256_select_backend(backend);
      for (std::size_t w = 0; w < 200; ++w) {
        crypto::hash20_batch(batch, digests);  // warm-up
      }
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t it = 0; it < kIters; ++it) {
        crypto::hash20_batch(batch, digests);
      }
      const double ns =
          ns_per_op(kBatch * kIters, std::chrono::steady_clock::now() - start);
      const char* name = crypto::sha256_backend_name(backend);
      if (backend == crypto::Sha256Backend::scalar) engine_scalar_ns = ns;
      const double vs = engine_scalar_ns / ns;
      if (vs > engine_batch_speedup) engine_batch_speedup = vs;
      te.add_row({name, Table::num(ns, 1), Table::num(vs, 1) + "x"});
      char row[128];
      std::snprintf(row, sizeof(row), "%s\"%s\": {\"ns_per_hash\": %.1f}",
                    engine_backends_json.empty() ? "" : ", ", name, ns);
      engine_backends_json += row;
    }
    crypto::sha256_reset_backend();

    // Full from-scratch rebuild of a 100k dictionary: scalar engine vs the
    // auto-detected one, identical work, roots asserted equal.
    dict::Dictionary rd;
    std::vector<cert::SerialNumber> base;
    base.reserve(kDictBase);
    for (std::uint64_t i = 0; i < kDictBase; ++i) {
      base.push_back(cert::SerialNumber::from_uint(i * 7 + 1, 4));
    }
    rd.insert(base);
    crypto::sha256_select_backend(crypto::Sha256Backend::scalar);
    rd.invalidate_tree();
    auto start = std::chrono::steady_clock::now();
    const auto scalar_root = rd.root();
    rebuild_scalar_ms = ms_of(std::chrono::steady_clock::now() - start);
    crypto::sha256_reset_backend();
    rd.invalidate_tree();
    start = std::chrono::steady_clock::now();
    const auto engine_root = rd.root();
    rebuild_engine_ms = ms_of(std::chrono::steady_clock::now() - start);
    rebuild_speedup = rebuild_scalar_ms / rebuild_engine_ms;
    if (scalar_root != engine_root) {
      std::printf("SHA-256 backends DIVERGED on the dictionary root!\n");
      return 1;
    }

    std::printf("\n%s", te.render().c_str());
    std::printf("active backend: %s; 100k full rebuild: %.2f ms scalar -> "
                "%.2f ms (%.1fx)\n",
                engine_active, rebuild_scalar_ms, rebuild_engine_ms,
                rebuild_speedup);
  }

  // --- recovery: RA restart via snapshot + WAL tail vs a full feed replay
  // of the issuance history, on a 1M-entry dictionary disseminated over 1k
  // feed periods (1000 revocations each; RITM_BENCH_RECOVERY_ENTRIES
  // overrides the size — the nightly job runs 10M). The durable RA
  // checkpoints 20 periods before the "crash", so restart = mmap the v2
  // snapshot and adopt its arenas (no per-entry re-hash, no per-issuance
  // signature) + replay the log tail; the cold RA re-pulls, re-verifies,
  // and re-applies every period. The tail is 1% of the corpus: with
  // background checkpoints every ~30s a restart sees at most a few periods
  // of tail, and tail replay cost scales with dictionary size, not tail
  // size alone.
  // A second pass restores the same state from the CA's cold-start object
  // (decode + re-hash) and from the mmap snapshot, with no tail, to isolate
  // the zero-copy restart win.
  std::uint64_t kRecEntries = 1'000'000;
  constexpr std::size_t kRecBatch = 1000;
  constexpr std::uint64_t kRecTailPeriods = 10;
  if (const char* env = std::getenv("RITM_BENCH_RECOVERY_ENTRIES")) {
    const std::uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) kRecEntries = v;
  }
  if (kRecEntries < 2 * kRecTailPeriods * kRecBatch) {
    kRecEntries = 2 * kRecTailPeriods * kRecBatch;
  }
  double recovery_replay_ms = 0, recovery_recover_ms = 0;
  double recovery_speedup = 0;
  double recovery_rehash_restore_ms = 0, recovery_v2_restore_ms = 0;
  double recovery_mmap_speedup = 0;
  std::uint64_t recovery_periods = 0;
  double checkpoint_stall_us = 0, checkpoint_max_stall_us = 0;
  std::uint64_t checkpoint_cycles = 0, checkpoint_snapshot_bytes = 0;
  {
    Rng rrng(7);
    auto rcdn = cdn::make_global_cdn(60'000);
    ca::DistributionPoint dp(&rcdn, kDelta);
    ca::CertificationAuthority::Config rcfg;
    rcfg.id = "CA-R";
    rcfg.delta = kDelta;
    ca::CertificationAuthority rca(rcfg, rrng, 1000);
    dp.register_ca(rca.id(), rca.public_key());

    UnixSeconds now_s = 1000;
    std::uint64_t next = 1;
    const auto publish_batches = [&](std::uint64_t upto_serial) {
      while (next <= upto_serial) {
        std::vector<cert::SerialNumber> batch;
        batch.reserve(kRecBatch);
        for (std::size_t i = 0; i < kRecBatch && next <= upto_serial; ++i) {
          batch.push_back(cert::SerialNumber::from_uint(next++ * 7, 5));
        }
        dp.submit(ca::FeedMessage::of(rca.revoke(std::move(batch), now_s)));
        dp.publish(from_seconds(now_s));
        now_s += kDelta;
      }
    };
    publish_batches(kRecEntries - kRecTailPeriods * kRecBatch);

    const std::string dir = "persist-bench";
    std::filesystem::remove_all(dir);
    const sim::GeoPoint here{40.7, -74.0};
    cdn::LocalCdn rcdn_rpc(&rcdn);

    // Durable RA: pull everything published so far, checkpoint, then pull
    // the 20-period tail that only reaches the WAL.
    ra::DictionaryStore dur_store;
    dur_store.register_ca(rca.id(), rca.public_key(), kDelta);
    ra::RaUpdater dur({.location = here}, &dur_store, &rcdn_rpc.rpc);
    dur.enable_persistence(dir);
    dur.pull_up_to(dp.next_period() - 1, from_seconds(now_s));
    dur.checkpoint();
    publish_batches(kRecEntries);
    recovery_periods = dp.next_period();
    dur.pull_up_to(recovery_periods - 1, from_seconds(now_s));
    dur_store.wal()->sync();  // the crash point

    // Restart A: snapshot + WAL tail.
    ra::DictionaryStore rec_store;
    rec_store.register_ca(rca.id(), rca.public_key(), kDelta);
    ra::RaUpdater rec({.location = here}, &rec_store, &rcdn_rpc.rpc);
    auto start = std::chrono::steady_clock::now();
    const auto report = rec.recover(dir);
    recovery_recover_ms = ms_of(std::chrono::steady_clock::now() - start);

    // Restart B: cold RA replaying the full feed.
    ra::DictionaryStore cold_store;
    cold_store.register_ca(rca.id(), rca.public_key(), kDelta);
    ra::RaUpdater cold({.location = here}, &cold_store, &rcdn_rpc.rpc);
    start = std::chrono::steady_clock::now();
    cold.pull_up_to(recovery_periods - 1, from_seconds(now_s));
    recovery_replay_ms = ms_of(std::chrono::steady_clock::now() - start);
    recovery_speedup = recovery_replay_ms / recovery_recover_ms;

    const bool equal =
        report.ok && rec_store.have_n(rca.id()) == kRecEntries &&
        cold_store.have_n(rca.id()) == kRecEntries &&
        rec_store.root_of(rca.id())->encode() ==
            cold_store.root_of(rca.id())->encode() &&
        rec.next_period() == recovery_periods;
    std::printf("\n== recovery (n=%llu over %llu periods, %llu-period WAL "
                "tail) ==\n",
                (unsigned long long)kRecEntries,
                (unsigned long long)recovery_periods,
                (unsigned long long)kRecTailPeriods);
    std::printf("full feed replay: %.1f ms; snapshot+WAL restart: %.1f ms "
                "(%.1fx); states %s\n",
                recovery_replay_ms, recovery_recover_ms, recovery_speedup,
                equal ? "identical" : "DIVERGED!");
    if (!equal) return 1;

    // Rehash vs mmap restore on identical state, no WAL tail: the
    // reference decodes the CA's cold-start object and re-hashes every
    // entry (Dictionary::restore_from plus a signed-root verify, via
    // bootstrap_replica); the snapshot path mmaps the file and adopts the
    // arenas in place.
    const std::string dir_snap = "persist-bench-snap";
    std::filesystem::remove_all(dir_snap);
    cold_store.persist_to(dir_snap);
    const ca::ColdStartObject cold_obj =
        rca.cold_start_object(recovery_periods - 1, now_s);
    bool restore_equal = false;
    {
      ra::DictionaryStore rehash_store;
      rehash_store.register_ca(rca.id(), rca.public_key(), kDelta);
      start = std::chrono::steady_clock::now();
      const auto rehash_result = rehash_store.bootstrap_replica(
          rca.id(), ByteSpan(cold_obj.dict_snapshot), cold_obj.signed_root,
          cold_obj.freshness, now_s);
      recovery_rehash_restore_ms =
          ms_of(std::chrono::steady_clock::now() - start);
      ra::DictionaryStore snap_store;
      snap_store.register_ca(rca.id(), rca.public_key(), kDelta);
      start = std::chrono::steady_clock::now();
      const auto snap_report = snap_store.recover_from(dir_snap);
      recovery_v2_restore_ms =
          ms_of(std::chrono::steady_clock::now() - start);
      recovery_mmap_speedup =
          recovery_rehash_restore_ms / recovery_v2_restore_ms;
      restore_equal = rehash_result == ra::ApplyResult::ok && snap_report.ok &&
                      snap_store.have_n(rca.id()) == kRecEntries &&
                      rehash_store.root_of(rca.id())->encode() ==
                          snap_store.root_of(rca.id())->encode();
    }
    std::printf("restore only: cold-start decode+rehash %.1f ms -> mmap "
                "snapshot %.1f ms (%.1fx); states %s\n",
                recovery_rehash_restore_ms, recovery_v2_restore_ms,
                recovery_mmap_speedup,
                restore_equal ? "identical" : "DIVERGED!");
    std::filesystem::remove_all(dir_snap);
    if (!restore_equal) return 1;

    // Background checkpointing stall: cycles run on the recovered replica
    // while feed pulls keep mutating it. The stall a cycle imposes on the
    // mutation path is its freeze window (the O(#CAs) arena-sharing copy),
    // not the off-lock file write of the full snapshot.
    rec.start_checkpoints(0.001);
    std::uint64_t extra = 0;
    while (rec.checkpoint_stats().checkpoints < 3 && extra < 300) {
      ++extra;
      publish_batches(kRecEntries + extra * kRecBatch);
      rec.pull_up_to(dp.next_period() - 1, from_seconds(now_s));
    }
    rec.stop_checkpoints();
    const auto cs = rec.checkpoint_stats();
    checkpoint_cycles = cs.checkpoints;
    checkpoint_max_stall_us = double(cs.max_stall_us);
    checkpoint_stall_us =
        cs.checkpoints == 0 ? 0.0
                            : double(cs.total_stall_us) / double(cs.checkpoints);
    checkpoint_snapshot_bytes = cs.last_bytes;
    std::printf("\n== background checkpoint (n=%llu + %llu pulled periods "
                "during cycles) ==\n",
                (unsigned long long)kRecEntries, (unsigned long long)extra);
    std::printf("%llu cycles, freeze stall mean %.0f us / max %.0f us, "
                "snapshot %.1f MiB (WAL resets %llu, skipped %llu)\n",
                (unsigned long long)checkpoint_cycles, checkpoint_stall_us,
                checkpoint_max_stall_us,
                double(checkpoint_snapshot_bytes) / (1024.0 * 1024.0),
                (unsigned long long)cs.wal_resets,
                (unsigned long long)cs.wal_reset_skipped);
    std::filesystem::remove_all(dir);
  }

  // --- service envelope: single vs batched status RPS over loopback TCP
  // (the PR 5 headline). Every request rides the real wire protocol through
  // the epoll server; the batch method amortizes framing + syscalls over
  // kSvcBatch serials per envelope, fanned out over the status-byte cache.
  constexpr std::size_t kSvcBatch = 256;
  double svc_single_rps = 0, svc_batch_rps = 0, svc_batch_speedup = 0;
  double svc_inproc_single_rps = 0;
  {
    constexpr std::size_t kWorkingSet = 512;
    constexpr std::size_t kSingleOps = 20'000;
    constexpr std::size_t kBatchOps = 400;  // x kSvcBatch serials each
    std::vector<cert::SerialNumber> probes;
    probes.reserve(kWorkingSet);
    for (std::size_t i = 0; i < kWorkingSet; ++i) {
      probes.push_back(cert::SerialNumber::from_uint(i * 13 + 5, 4));
    }

    ra::RaService service(&store);
    svc::TcpServer server(&service, {.port = 0});
    svc::TcpClient tcp("127.0.0.1", server.port());
    svc::InProcessTransport inproc(&service);

    const auto run_single = [&](svc::Transport& t, std::size_t ops) {
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < ops; ++i) {
        svc::Request req;
        req.method = svc::Method::status_query;
        req.body = ra::encode_status_query(ca.id(),
                                           probes[i % kWorkingSet]);
        const auto r = t.call(req);
        if (!r.ok()) {
          std::printf("svc single query failed: %s\n",
                      svc::to_string(r.response.status));
          std::exit(1);
        }
      }
      return rate_per_sec(ops, std::chrono::steady_clock::now() - start);
    };

    // Warm the status cache + the connection, then measure.
    run_single(tcp, kWorkingSet);
    svc_single_rps = run_single(tcp, kSingleOps);
    svc_inproc_single_rps = run_single(inproc, kSingleOps);

    std::vector<cert::SerialNumber> batch(kSvcBatch);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kBatchOps; ++i) {
      for (std::size_t j = 0; j < kSvcBatch; ++j) {
        batch[j] = probes[(i * kSvcBatch + j) % kWorkingSet];
      }
      svc::Request req;
      req.method = svc::Method::status_batch;
      req.body = ra::encode_status_batch(ca.id(), batch);
      const auto r = tcp.call(req);
      if (!r.ok()) {
        std::printf("svc batch query failed: %s\n",
                    svc::to_string(r.response.status));
        return 1;
      }
    }
    svc_batch_rps = rate_per_sec(kBatchOps * kSvcBatch,
                                 std::chrono::steady_clock::now() - start);
    svc_batch_speedup = svc_batch_rps / svc_single_rps;

    Table ts({"svc status over loopback TCP", "serials/s", "vs single"});
    ts.add_row({"single-serial envelopes", Table::num(svc_single_rps, 0),
                "1.0x"});
    ts.add_row({"batched x" + std::to_string(kSvcBatch),
                Table::num(svc_batch_rps, 0),
                Table::num(svc_batch_speedup, 1) + "x"});
    std::printf("\n== service envelope (n=339,557 dictionary) ==\n%s",
                ts.render().c_str());
    std::printf("in-process single RPS: %.0f; server: %llu requests, "
                "%llu serials served\n",
                svc_inproc_single_rps,
                (unsigned long long)server.stats().requests,
                (unsigned long long)service.stats().serials_served);
  }

  // --- multi-reactor scaling: aggregate batched-status RPS as the reactor
  // count grows (the PR 7 headline). Each configuration runs max(2, R)
  // client threads, every thread pipelining depth-4 batched status queries
  // on its own connection against a server with R reactors, to which the
  // acceptor thread hands the connections round-robin.
  // On a box with >= 8 cores the 4-reactor aggregate must clear 2.5x the
  // 1-reactor number (tools/check_bench.py enforces the floor; on smaller
  // machines the `cores` field documents why it cannot be measured).
  const unsigned mc_reactor_counts[4] = {1, 2, 4, 8};
  double mc_rps[4] = {0, 0, 0, 0};
  const unsigned mc_cores =
      std::max(1u, std::thread::hardware_concurrency());
  {
    constexpr std::size_t kWorkingSet = 512;
    constexpr std::size_t kMcBatch = 256;
    constexpr std::size_t kMcDepth = 4;       // pipelined window per client
    constexpr std::size_t kMcOpsPerThread = 40;  // batches per client thread
    std::vector<cert::SerialNumber> probes;
    probes.reserve(kWorkingSet);
    for (std::size_t i = 0; i < kWorkingSet; ++i) {
      probes.push_back(cert::SerialNumber::from_uint(i * 13 + 5, 4));
    }
    ra::RaService service(&store);

    Table tm({"multi-reactor batched status", "serials/s", "vs 1 reactor"});
    for (int ci = 0; ci < 4; ++ci) {
      const unsigned reactors = mc_reactor_counts[ci];
      svc::TcpServer server(&service, {.port = 0, .reactors = reactors});
      const unsigned n_threads = std::max(2u, reactors);

      std::atomic<bool> go{false};
      std::atomic<bool> failed{false};
      std::vector<std::thread> clients;
      for (unsigned t = 0; t < n_threads; ++t) {
        clients.emplace_back([&, t] {
          svc::TcpClient tcp("127.0.0.1", server.port(),
                             {.max_inflight = kMcDepth});
          std::vector<cert::SerialNumber> batch(kMcBatch);
          for (std::size_t j = 0; j < kMcBatch; ++j) {
            batch[j] = probes[(t * kMcBatch + j) % kWorkingSet];
          }
          svc::Request req;
          req.method = svc::Method::status_batch;
          req.body = ra::encode_status_batch(ca.id(), batch);
          while (!go.load(std::memory_order_acquire)) {
          }
          std::vector<std::uint64_t> window;
          for (std::size_t op = 0; op < kMcOpsPerThread; ++op) {
            if (window.size() == kMcDepth) {
              if (!tcp.collect(window.front()).ok()) {
                failed.store(true);
                return;
              }
              window.erase(window.begin());
            }
            std::uint64_t id = 0;
            if (tcp.submit(req, &id) != svc::Status::ok) {
              failed.store(true);
              return;
            }
            window.push_back(id);
          }
          for (const auto id : window) {
            if (!tcp.collect(id).ok()) {
              failed.store(true);
              return;
            }
          }
        });
      }
      const auto start = std::chrono::steady_clock::now();
      go.store(true, std::memory_order_release);
      for (auto& c : clients) c.join();
      const auto elapsed = std::chrono::steady_clock::now() - start;
      if (failed.load()) {
        std::printf("multicore scaling run failed (reactors=%u)\n", reactors);
        return 1;
      }
      mc_rps[ci] = rate_per_sec(
          std::size_t(n_threads) * kMcOpsPerThread * kMcBatch, elapsed);
      tm.add_row({std::to_string(reactors) + " reactors, " +
                      std::to_string(n_threads) + " clients",
                  Table::num(mc_rps[ci], 0),
                  Table::num(mc_rps[ci] / mc_rps[0], 2) + "x"});
    }
    std::printf("\n== multi-reactor scaling (%u hardware threads) ==\n%s",
                mc_cores, tm.render().c_str());
  }
  const double mc_factor_at_2 = mc_rps[1] / mc_rps[0];
  const double mc_factor_at_4 = mc_rps[2] / mc_rps[0];

  // --- resilience: compliant goodput under a misbehaving flood (the PR 6
  // headline). A compliant client runs batched status queries (well under
  // the per-client request quota) while flooder connections hammer
  // single-serial queries as fast as the socket allows. With quotas on,
  // flooders are throttled to cheap `overloaded` envelopes and the
  // compliant client keeps most of its quiet-server goodput; the no-quota
  // run shows what the flood costs without the protection.
  constexpr std::size_t kResBatch = 256;
  constexpr int kResFlooders = 2;
  double res_baseline_rps = 0, res_quota_rps = 0, res_noquota_rps = 0;
  double res_goodput_ratio = 0;
  unsigned long long res_refused = 0;
  {
    constexpr std::size_t kWorkingSet = 512;
    constexpr std::size_t kResBatches = 120;  // x kResBatch serials each
    std::vector<cert::SerialNumber> probes;
    probes.reserve(kWorkingSet);
    for (std::size_t i = 0; i < kWorkingSet; ++i) {
      probes.push_back(cert::SerialNumber::from_uint(i * 13 + 5, 4));
    }

    ra::RaService service(&store);

    // Flooders pipeline pre-encoded single-serial queries over a raw
    // nonblocking socket — no request/response ping-pong, so the server
    // sees a saturating byte stream, not a self-limiting polite client.
    Bytes flood_blob;
    for (std::size_t j = 0; j < 64; ++j) {
      svc::Request req;
      req.method = svc::Method::status_query;
      req.request_id = j;
      req.body = ra::encode_status_query(ca.id(), probes[j % kWorkingSet]);
      const Bytes frame = svc::encode_frame(req);
      flood_blob.insert(flood_blob.end(), frame.begin(), frame.end());
    }

    const auto measure = [&](const svc::TcpServerOptions& opts, int flooders,
                             unsigned long long* refused) {
      svc::TcpServer server(&service, opts);
      std::atomic<bool> stop{false};
      std::vector<std::thread> flood;
      flood.reserve(flooders);
      for (int f = 0; f < flooders; ++f) {
        flood.emplace_back([&] {
          const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
          if (fd < 0) return;
          sockaddr_in addr{};
          addr.sin_family = AF_INET;
          addr.sin_port = htons(server.port());
          ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
          if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)) != 0) {
            ::close(fd);
            return;
          }
          std::size_t off = 0;
          std::uint8_t sink[64 * 1024];
          while (!stop.load(std::memory_order_relaxed)) {
            const ssize_t n =
                ::send(fd, flood_blob.data() + off, flood_blob.size() - off,
                       MSG_DONTWAIT | MSG_NOSIGNAL);
            if (n > 0) off = (off + std::size_t(n)) % flood_blob.size();
            ssize_t r;
            while ((r = ::recv(fd, sink, sizeof(sink), MSG_DONTWAIT)) > 0) {
            }
            if (r == 0) break;  // server closed the connection
            if (n < 0) {  // send buffer full (server paused us): wait a bit
              pollfd p{fd, POLLIN | POLLOUT, 0};
              ::poll(&p, 1, 1);
            }
          }
          ::close(fd);
        });
      }

      svc::TcpClient good("127.0.0.1", server.port());
      std::vector<cert::SerialNumber> batch(kResBatch);
      const auto do_batch = [&](std::size_t i) {
        for (std::size_t j = 0; j < kResBatch; ++j) {
          batch[j] = probes[(i * kResBatch + j) % kWorkingSet];
        }
        svc::Request req;
        req.method = svc::Method::status_batch;
        req.body = ra::encode_status_batch(ca.id(), batch);
        const auto r = good.call(req);
        if (!r.ok()) {
          std::printf("resilience: compliant batch failed: %s\n",
                      svc::to_string(r.response.status));
          std::exit(1);
        }
      };

      // Let the flood ramp up, warm the connection + status cache.
      if (flooders > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      do_batch(0);
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < kResBatches; ++i) do_batch(i);
      const double rps = rate_per_sec(
          kResBatches * kResBatch, std::chrono::steady_clock::now() - start);
      stop.store(true, std::memory_order_relaxed);
      for (auto& t : flood) t.join();
      if (refused) *refused = server.stats().throttled;
      return rps;
    };

    // A compliant x256 batch client runs at ~2k envelopes/s, so a 5k req/s
    // per-connection quota never touches it, while a pipelining flooder
    // blows through its bucket instantly and spends the rest of each
    // retry_after window paused (reads parked, sends backing up).
    svc::TcpServerOptions quota{.port = 0};
    quota.requests_per_sec = 5'000.0;
    quota.burst_requests = 64;
    quota.retry_after_ms = 250;  // park offenders longer between refusals

    res_baseline_rps = measure(quota, 0, nullptr);
    res_quota_rps = measure(quota, kResFlooders, &res_refused);
    res_noquota_rps = measure({.port = 0}, kResFlooders, nullptr);
    res_goodput_ratio = res_quota_rps / res_baseline_rps;
    const double noquota_ratio = res_noquota_rps / res_baseline_rps;

    Table tq({"compliant goodput (batch x" + std::to_string(kResBatch) + ")",
              "serials/s", "vs quiet"});
    tq.add_row({"quiet server, quota on", Table::num(res_baseline_rps, 0),
                "1.00x"});
    tq.add_row({std::to_string(kResFlooders) + " flooders, quota on",
                Table::num(res_quota_rps, 0),
                Table::num(res_goodput_ratio, 2) + "x"});
    tq.add_row({std::to_string(kResFlooders) + " flooders, quota off",
                Table::num(res_noquota_rps, 0),
                Table::num(noquota_ratio, 2) + "x"});
    std::printf("\n== resilience: per-client quotas under flood ==\n%s",
                tq.render().c_str());
    std::printf("quota run: %llu flood requests refused (overloaded + "
                "retry_after hint)\n",
                res_refused);
  }

  // Gossip set reconciliation (PR 8): 100 RAs in the anti-entropy
  // maintenance posture — every pool holds the full signed-root history
  // except a staggered recent tail and a couple of scattered holes — run to
  // convergence twice over the identical contact schedule: once with the
  // digest/pull path (reconcile_over), once with the full-list exchange
  // (exchange_over). Both paths give a contacted pair the pairwise union,
  // so they converge in the same number of rounds; the bytes they move to
  // get there is the comparison.
  constexpr int kMeshRas = 100;
  constexpr std::size_t kMeshRoots = 256;
  constexpr std::size_t kMeshTail = 48;
  double mesh_bytes_ratio = 0;
  unsigned long long mesh_rounds = 0, mesh_digest_bytes = 0,
                     mesh_full_bytes = 0, mesh_digest_saved = 0;
  {
    ca::CertificationAuthority::Config gcfg;
    gcfg.id = "CA-G";
    gcfg.delta = kDelta;
    Rng grng(23);
    ca::CertificationAuthority gossip_ca(gcfg, grng, 1000);
    std::vector<dict::SignedRoot> history;
    history.reserve(kMeshRoots);
    for (std::size_t i = 0; i < kMeshRoots; ++i) {
      history.push_back(
          gossip_ca.revoke({cert::SerialNumber::from_uint(i + 1, 4)},
                           1000 + 10 * i)
              .signed_root);
    }
    cert::TrustStore keys;
    keys.add(gossip_ca.id(), gossip_ca.public_key());
    ra::DictionaryStore mesh_store;

    const auto run = [&](bool digest_path) {
      std::vector<std::unique_ptr<ra::GossipPool>> pools;
      std::vector<std::unique_ptr<ra::RaService>> services;
      std::vector<std::unique_ptr<svc::InProcessTransport>> rpcs;
      Rng rng(4242);  // identical seeding + schedule for both paths
      for (int r = 0; r < kMeshRas; ++r) {
        pools.push_back(std::make_unique<ra::GossipPool>(&keys));
        services.push_back(
            std::make_unique<ra::RaService>(&mesh_store, pools.back().get()));
        rpcs.push_back(
            std::make_unique<svc::InProcessTransport>(services.back().get()));
        const std::size_t cursor =
            kMeshRoots - kMeshTail + rng.uniform(kMeshTail + 1);
        const std::size_t hole1 = rng.uniform(kMeshRoots);
        const std::size_t hole2 = rng.uniform(kMeshRoots);
        for (std::size_t i = 0; i < cursor; ++i) {
          if (i == hole1 || i == hole2) continue;
          pools[r]->observe(history[i]);
        }
      }
      unsigned long long rounds = 0;
      for (int round = 0; round < 32; ++round) {
        ++rounds;
        for (int r = 0; r < kMeshRas; ++r) {
          int peer;
          do {
            peer = int(rng.uniform(kMeshRas));
          } while (peer == r);
          if (digest_path) {
            (void)pools[r]->reconcile_over(*rpcs[peer]);
          } else {
            (void)pools[r]->exchange_over(*rpcs[peer]);
          }
        }
        bool converged = true;
        for (int r = 0; r < kMeshRas && converged; ++r) {
          converged = pools[r]->size() == kMeshRoots;
        }
        if (converged) break;
      }
      unsigned long long bytes = 0, saved = 0;
      for (int r = 0; r < kMeshRas; ++r) {
        bytes +=
            pools[r]->stats().bytes_sent + pools[r]->stats().bytes_received;
        saved += pools[r]->stats().bytes_saved;
      }
      return std::tuple(rounds, bytes, saved);
    };

    const auto [digest_rounds, digest_bytes, digest_saved] = run(true);
    const auto [full_rounds, full_bytes, full_saved] = run(false);
    (void)full_saved;
    mesh_rounds = digest_rounds;
    mesh_digest_bytes = digest_bytes;
    mesh_full_bytes = full_bytes;
    mesh_digest_saved = digest_saved;
    mesh_bytes_ratio = full_bytes > 0 ? double(digest_bytes) / full_bytes : 0;

    Table tg({"gossip to convergence (" + std::to_string(kMeshRas) + " RAs, " +
                  std::to_string(kMeshRoots) + " roots)",
              "rounds", "bytes moved"});
    tg.add_row({"digest + pull (gossip_digest/gossip_pull)",
                std::to_string(digest_rounds),
                Table::num(double(digest_bytes) / 1024.0, 1) + " KiB"});
    tg.add_row({"full list (gossip_roots)", std::to_string(full_rounds),
                Table::num(double(full_bytes) / 1024.0, 1) + " KiB"});
    std::printf("\n== gossip set reconciliation at mesh scale ==\n%s",
                tg.render().c_str());
    std::printf("digest path moved %.3fx the full-list bytes "
                "(estimated %.1f KiB saved)\n",
                mesh_bytes_ratio, double(digest_saved) / 1024.0);
  }

  // Internet-scale scenario: the heartbleed preset (flash crowd at period
  // 12, 120k mass revocations in one period) driven through the real
  // envelope dispatch in lockstep. CI runs it at RITM_BENCH_SCENARIO_FLOWS
  // (default the full 1M); the gates below watch the attack window the
  // paper bounds at 2∆ and the status-cache hit rate under Zipf traffic.
  scenario::ScenarioReport sc;
  {
    scenario::ScenarioSpec sc_spec = scenario::ScenarioSpec::heartbleed();
    if (const char* env = std::getenv("RITM_BENCH_SCENARIO_FLOWS")) {
      sc_spec.flows = std::strtoull(env, nullptr, 10);
    }
    scenario::ScenarioEngine sc_engine(sc_spec);
    sc = sc_engine.run();

    Table ts({"scenario '" + sc.name + "' (" + std::to_string(sc.drivers) +
                  " drivers, lockstep, inproc)",
              "value"});
    ts.add_row({"flows", std::to_string(sc.flows)});
    ts.add_row({"flows/s", Table::num(sc.flows_per_s, 0)});
    ts.add_row({"revoked verdicts", std::to_string(sc.revoked)});
    ts.add_row({"wrong verdicts", std::to_string(sc.wrong_verdict)});
    ts.add_row({"attack window p50/p99/p999",
                Table::num(sc.attack_window_p50_s, 2) + " / " +
                    Table::num(sc.attack_window_p99_s, 2) + " / " +
                    Table::num(sc.attack_window_p999_s, 2) + " s"});
    ts.add_row({"staleness p50/p99",
                std::to_string(sc.staleness_p50_ms) + " / " +
                    std::to_string(sc.staleness_p99_ms) + " ms"});
    ts.add_row({"status-cache hit rate", Table::num(sc.cache_hit_rate, 4)});
    ts.add_row({"latency p99", std::to_string(sc.latency_p99_us) + " us"});
    ts.add_row({"bytes on wire",
                std::to_string(sc.bytes_sent + sc.bytes_received)});
    ts.add_row({"report digest", sc.digest()});
    std::printf("\n== internet-scale scenario (trace-driven, mass-revocation "
                "day) ==\n%s", ts.render().c_str());
  }

  // Machine-readable trajectory for future PRs.
  if (std::FILE* f = std::fopen("BENCH_throughput.json", "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"ra_non_tls_packets_per_sec\": %.0f,\n"
                 "  \"ra_handshakes_per_sec\": %.0f,\n"
                 "  \"client_validations_per_sec\": %.0f,\n"
                 "  \"status_cache\": {\n"
                 "    \"uncached_ns_per_status\": %.1f,\n"
                 "    \"warm_ns_per_status\": %.1f,\n"
                 "    \"speedup\": %.1f\n"
                 "  },\n"
                 "  \"multi_ca_handshakes\": {\n"
                 "    \"cas\": %zu,\n"
                 "    \"entries_per_ca\": %llu,\n"
                 "    \"cold_per_sec\": %.0f,\n"
                 "    \"warm_per_sec\": %.0f,\n"
                 "    \"cache_hit_rate\": %.4f,\n"
                 "    \"cache_invalidations\": %llu\n"
                 "  },\n"
                 "  \"dict_update\": {\n"
                 "    \"base_entries\": %llu,\n"
                 "    \"batches\": %zu,\n"
                 "    \"batch_size\": %zu,\n"
                 "    \"incremental\": {\"entries_per_sec\": %.0f, "
                 "\"ns_per_entry\": %.1f, \"sha256_ops\": %llu},\n"
                 "    \"full_rebuild\": {\"entries_per_sec\": %.0f, "
                 "\"ns_per_entry\": %.1f, \"sha256_ops\": %llu},\n"
                 "    \"speedup\": %.2f\n"
                 "  },\n"
                 "  \"sha256_engine\": {\n"
                 "    \"active\": \"%s\",\n"
                 "    \"batch_size\": 64,\n"
                 "    \"message_bytes\": 41,\n"
                 "    \"backends\": {%s},\n"
                 "    \"batch64_speedup\": %.2f,\n"
                 "    \"full_rebuild_scalar_ms\": %.2f,\n"
                 "    \"full_rebuild_ms\": %.2f,\n"
                 "    \"full_rebuild_speedup\": %.2f\n"
                 "  },\n"
                 "  \"recovery\": {\n"
                 "    \"entries\": %llu,\n"
                 "    \"feed_periods\": %llu,\n"
                 "    \"wal_tail_periods\": %llu,\n"
                 "    \"full_replay_ms\": %.1f,\n"
                 "    \"snapshot_wal_ms\": %.1f,\n"
                 "    \"speedup\": %.2f,\n"
                 "    \"rehash_restore_ms\": %.1f,\n"
                 "    \"v2_restore_ms\": %.1f,\n"
                 "    \"mmap_speedup\": %.2f\n"
                 "  },\n"
                 "  \"checkpoint\": {\n"
                 "    \"cycles\": %llu,\n"
                 "    \"stall_us\": %.1f,\n"
                 "    \"max_stall_us\": %.1f,\n"
                 "    \"snapshot_bytes\": %llu\n"
                 "  },\n"
                 "  \"svc_status\": {\n"
                 "    \"batch_size\": %zu,\n"
                 "    \"tcp_single_rps\": %.0f,\n"
                 "    \"tcp_batch_rps\": %.0f,\n"
                 "    \"inproc_single_rps\": %.0f,\n"
                 "    \"batch_speedup\": %.2f,\n"
                 "    \"multicore_scaling\": {\n"
                 "      \"cores\": %u,\n"
                 "      \"rps_1\": %.0f,\n"
                 "      \"rps_2\": %.0f,\n"
                 "      \"rps_4\": %.0f,\n"
                 "      \"rps_8\": %.0f,\n"
                 "      \"factor_at_2\": %.2f,\n"
                 "      \"factor_at_4\": %.2f\n"
                 "    }\n"
                 "  },\n"
                 "  \"svc_resilience\": {\n"
                 "    \"batch_size\": %zu,\n"
                 "    \"flooders\": %d,\n"
                 "    \"baseline_goodput_rps\": %.0f,\n"
                 "    \"flood_goodput_quota_rps\": %.0f,\n"
                 "    \"flood_goodput_noquota_rps\": %.0f,\n"
                 "    \"flood_refused\": %llu,\n"
                 "    \"goodput_ratio\": %.3f\n"
                 "  },\n"
                 "  \"gossip_mesh\": {\n"
                 "    \"ras\": %d,\n"
                 "    \"roots\": %zu,\n"
                 "    \"rounds_to_convergence\": %llu,\n"
                 "    \"digest_bytes\": %llu,\n"
                 "    \"full_list_bytes\": %llu,\n"
                 "    \"bytes_saved_estimate\": %llu,\n"
                 "    \"bytes_ratio\": %.4f\n"
                 "  },\n",
                 non_tls_rate, handshake_rate, validation_rate,
                 status_cold_ns, status_warm_ns, status_speedup, kCas,
                 (unsigned long long)kEntriesPerCa, multi_cold_rate,
                 multi_warm_rate, multi_hit_rate,
                 (unsigned long long)multi_invalidations,
                 (unsigned long long)kDictBase, kDictBatches, kDictBatchSize,
                 inc.entries_per_sec, inc.ns_per_entry,
                 (unsigned long long)inc.hashes, full.entries_per_sec,
                 full.ns_per_entry, (unsigned long long)full.hashes, speedup,
                 engine_active, engine_backends_json.c_str(),
                 engine_batch_speedup, rebuild_scalar_ms, rebuild_engine_ms,
                 rebuild_speedup, (unsigned long long)kRecEntries,
                 (unsigned long long)recovery_periods,
                 (unsigned long long)kRecTailPeriods, recovery_replay_ms,
                 recovery_recover_ms, recovery_speedup,
                 recovery_rehash_restore_ms, recovery_v2_restore_ms,
                 recovery_mmap_speedup,
                 (unsigned long long)checkpoint_cycles, checkpoint_stall_us,
                 checkpoint_max_stall_us,
                 (unsigned long long)checkpoint_snapshot_bytes, kSvcBatch,
                 svc_single_rps, svc_batch_rps, svc_inproc_single_rps,
                 svc_batch_speedup, mc_cores, mc_rps[0], mc_rps[1],
                 mc_rps[2], mc_rps[3], mc_factor_at_2, mc_factor_at_4,
                 kResBatch, kResFlooders,
                 res_baseline_rps, res_quota_rps, res_noquota_rps,
                 res_refused, res_goodput_ratio, kMeshRas, kMeshRoots,
                 mesh_rounds, mesh_digest_bytes, mesh_full_bytes,
                 mesh_digest_saved, mesh_bytes_ratio);
    std::fprintf(f,
                 "  \"scenario\": {\n"
                 "    \"preset\": \"%s\",\n"
                 "    \"flows\": %llu,\n"
                 "    \"drivers\": %u,\n"
                 "    \"revoked\": %llu,\n"
                 "    \"wrong_verdict\": %llu,\n"
                 "    \"rpc_errors\": %llu,\n"
                 "    \"attack_window_p50_s\": %.3f,\n"
                 "    \"attack_window_p99_s\": %.3f,\n"
                 "    \"attack_window_p999_s\": %.3f,\n"
                 "    \"staleness_p50_ms\": %llu,\n"
                 "    \"staleness_p99_ms\": %llu,\n"
                 "    \"cache_hit_rate\": %.4f,\n"
                 "    \"latency_p99_us\": %llu,\n"
                 "    \"bytes_on_wire\": %llu,\n"
                 "    \"flows_per_s\": %.0f,\n"
                 "    \"report_digest\": \"%s\"\n"
                 "  }\n"
                 "}\n",
                 sc.name.c_str(), (unsigned long long)sc.flows, sc.drivers,
                 (unsigned long long)sc.revoked,
                 (unsigned long long)sc.wrong_verdict,
                 (unsigned long long)sc.rpc_errors, sc.attack_window_p50_s,
                 sc.attack_window_p99_s, sc.attack_window_p999_s,
                 (unsigned long long)sc.staleness_p50_ms,
                 (unsigned long long)sc.staleness_p99_ms, sc.cache_hit_rate,
                 (unsigned long long)sc.latency_p99_us,
                 (unsigned long long)(sc.bytes_sent + sc.bytes_received),
                 sc.flows_per_s, sc.digest().c_str());
    std::fclose(f);
    std::printf("wrote BENCH_throughput.json\n");
  }
  if (status_speedup < 10.0) {
    std::printf("WARNING: warm-cache status path only %.1fx faster than "
                "uncached (acceptance floor: 10x)\n", status_speedup);
  }
  if (engine_batch_speedup < 2.0 &&
      crypto::sha256_available_backends().size() > 1) {
    std::printf("WARNING: best SHA-256 backend only %.1fx faster than scalar "
                "on 64-input batches (acceptance floor: 2x)\n",
                engine_batch_speedup);
  }
  if (recovery_speedup < 10.0) {
    std::printf("WARNING: snapshot+WAL restart only %.1fx faster than full "
                "feed replay (acceptance floor: 10x)\n", recovery_speedup);
  }
  if (recovery_mmap_speedup < 3.0) {
    std::printf("WARNING: mmap snapshot restore only %.1fx faster than the "
                "cold-start decode+rehash restore (acceptance floor: 3x)\n",
                recovery_mmap_speedup);
  }
  if (checkpoint_stall_us > 5000.0) {
    std::printf("WARNING: background checkpoint freeze stall averaged "
                "%.0f us (acceptance ceiling: 5000 us)\n",
                checkpoint_stall_us);
  }
  if (svc_batch_speedup < 3.0) {
    std::printf("WARNING: batched status envelopes only %.1fx the RPS of "
                "single-serial requests (acceptance floor: 3x)\n",
                svc_batch_speedup);
  }
  if (mc_cores >= 8 && mc_factor_at_4 < 2.5) {
    std::printf("WARNING: 4-reactor aggregate RPS only %.2fx the 1-reactor "
                "number on %u cores (acceptance floor: 2.5x)\n",
                mc_factor_at_4, mc_cores);
  }
  if (res_goodput_ratio < 0.7) {
    std::printf("WARNING: compliant goodput under flood only %.2fx of the "
                "quiet baseline with quotas on (acceptance floor: 0.7)\n",
                res_goodput_ratio);
  }
  if (mesh_bytes_ratio > 0.2) {
    std::printf("WARNING: digest gossip moved %.2fx the full-list bytes at "
                "%d RAs (acceptance ceiling: 0.2x)\n",
                mesh_bytes_ratio, kMeshRas);
  }
  if (mesh_rounds > 12) {
    std::printf("WARNING: gossip mesh took %llu rounds to converge "
                "(acceptance ceiling: 12)\n", mesh_rounds);
  }
  if (sc.wrong_verdict != 0 || sc.decode_errors != 0) {
    std::printf("WARNING: scenario served %llu wrong verdicts and %llu "
                "undecodable statuses (acceptance: 0)\n",
                (unsigned long long)sc.wrong_verdict,
                (unsigned long long)sc.decode_errors);
  }
  if (sc.attack_window_p99_s > 25.0) {
    std::printf("WARNING: scenario attack window p99 %.2f s exceeds the "
                "2*delta+margin bound (acceptance ceiling: 25 s)\n",
                sc.attack_window_p99_s);
  }
  if (sc.cache_hit_rate < 0.5) {
    std::printf("WARNING: scenario status-cache hit rate %.3f under Zipf "
                "traffic (acceptance floor: 0.5)\n", sc.cache_hit_rate);
  }
  return 0;
}
