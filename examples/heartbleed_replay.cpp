// Heartbleed replay: drives the full dissemination pipeline (254 CAs →
// distribution point → CDN → one RA) through the synthetic trace's peak
// week and reports what the RA downloaded per ∆ — the operational story
// behind Fig. 4 and Fig. 7 of the paper.
//
// To keep the demo snappy the trace is scaled down 20x; the shape (quiet
// baseline, two-day spike, decay) is preserved.
#include <cstdio>
#include <map>
#include <memory>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "ca/sync_service.hpp"
#include "cdn/cdn.hpp"
#include "cdn/service.hpp"
#include "eval/trace.hpp"
#include "ra/store.hpp"
#include "ra/updater.hpp"
#include "sim/event_loop.hpp"

using namespace ritm;

int main() {
  constexpr UnixSeconds kDelta = 300;  // 5-minute updates for the demo
  constexpr int kNumCas = 16;         // aggregate the 254 CRLs into 16 CAs

  // Scaled-down trace centred on the Heartbleed week.
  eval::TraceConfig tc;
  tc.days = 10;
  tc.heartbleed_peak_day = 5;
  tc.total_revocations = 12'000;
  tc.heartbleed_extra = 5'000;
  tc.num_cas = kNumCas;
  const eval::RevocationTrace trace(tc);

  std::printf("trace: %llu revocations over %d days, peak day %d (%llu)\n\n",
              (unsigned long long)trace.total(), tc.days, trace.day_of_max(),
              (unsigned long long)trace.max_daily());

  // Deployment: CAs, distribution point, CDN, one RA in Zurich.
  Rng rng(99);
  sim::EventLoop loop;
  cdn::Cdn cdn = cdn::make_global_cdn(/*ttl=*/from_seconds(kDelta));
  ca::DistributionPoint dp(&cdn, kDelta);

  std::vector<std::unique_ptr<ca::CertificationAuthority>> cas;
  ra::DictionaryStore store;
  for (int i = 0; i < kNumCas; ++i) {
    ca::CertificationAuthority::Config cfg;
    cfg.id = "CA-" + std::to_string(i);
    cfg.delta = kDelta;
    cfg.chain_length = 1024;
    cas.push_back(
        std::make_unique<ca::CertificationAuthority>(cfg, rng, 0));
    dp.register_ca(cas.back()->id(), cas.back()->public_key());
    store.register_ca(cas.back()->id(), cas.back()->public_key(), kDelta);
  }

  // Everything the RA talks to is an envelope endpoint (PR 5): the CDN GET
  // and the sync protocol ride the same versioned transport surface.
  cdn::LocalCdn cdn_rpc(&cdn);
  ca::SyncService sync_service;
  for (const auto& ca : cas) sync_service.add(ca.get());
  sync_service.set_period_source(&dp);
  svc::InProcessTransport sync_rpc(&sync_service);
  ra::RaUpdater updater({sim::GeoPoint{47.4, 8.5}}, &store, &cdn_rpc.rpc,
                        &sync_rpc);

  // Revocation events, bucketed per CA per ∆-period.
  const auto events = trace.events(0, tc.days);
  std::size_t cursor = 0;

  std::map<int, std::uint64_t> day_bytes;   // RA download bytes per day
  std::map<int, std::uint64_t> day_pulls;

  loop.schedule_every(0, from_seconds(kDelta), [&](TimeMs at) {
    const UnixSeconds now = to_seconds(at);
    // Each CA flushes its pending revocations for this period.
    std::vector<std::vector<cert::SerialNumber>> pending(kNumCas);
    while (cursor < events.size() && events[cursor].time < now + kDelta) {
      pending[static_cast<std::size_t>(events[cursor].ca)].push_back(
          events[cursor].serial);
      ++cursor;
    }
    for (int i = 0; i < kNumCas; ++i) {
      auto& ca = *cas[static_cast<std::size_t>(i)];
      if (pending[static_cast<std::size_t>(i)].empty()) {
        dp.submit(ca.refresh(now));
      } else {
        dp.submit(ca::FeedMessage::of(
            ca.revoke(std::move(pending[static_cast<std::size_t>(i)]), now)));
      }
    }
    dp.publish(at);

    // The RA pulls right after publication.
    const auto pull = updater.pull_up_to(dp.next_period() - 1, at);
    const int day = int(now / 86400);
    day_bytes[day] += pull.bytes;
    day_pulls[day] += 1;
  });

  loop.run_until(from_seconds(static_cast<UnixSeconds>(tc.days) * 86400));

  std::printf("%-5s %-12s %-14s %-16s\n", "day", "revocations",
              "RA bytes/day", "avg bytes/pull");
  std::printf("---------------------------------------------------\n");
  for (int day = 0; day < tc.days; ++day) {
    const auto bytes = day_bytes[day];
    const auto pulls = day_pulls[day];
    std::printf("%-5d %-12llu %-14llu %-16.1f%s\n", day,
                (unsigned long long)trace.daily()[std::size_t(day)],
                (unsigned long long)bytes,
                pulls ? double(bytes) / double(pulls) : 0.0,
                day == trace.day_of_max() ? "  <-- Heartbleed peak" : "");
  }

  const auto& t = updater.totals();
  std::printf("\nRA totals: %llu pulls, %llu bytes, %llu messages applied, "
              "%llu syncs\n",
              (unsigned long long)t.pulls, (unsigned long long)t.bytes,
              (unsigned long long)t.applied_ok, (unsigned long long)t.syncs);
  std::printf("store: %d dictionaries, %.2f MB storage, %.2f MB memory\n",
              kNumCas, double(store.storage_bytes()) / 1e6,
              double(store.memory_bytes()) / 1e6);

  // Sanity: the RA replica matches every CA.
  for (const auto& ca : cas) {
    if (store.have_n(ca->id()) != ca->dictionary().size()) {
      std::printf("DESYNC at %s!\n", ca->id().c_str());
      return 1;
    }
  }
  std::printf("all %d RA replicas verified against their CAs\n", kNumCas);
  return 0;
}
