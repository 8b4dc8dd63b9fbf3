// revocation_day: writes beside reads. A heartbleed-shaped ScenarioSpec
// (8 CAs, a trace-shaped feed, a flash crowd, a 120k mass revocation in one
// period) compiled from the seed, run in lockstep periods:
//
//   CA revoke/refresh → DistributionPoint::publish → RaUpdater::pull_up_to
//   under the writer lock → one gossip round with in-process peer
//   GossipPools → flows from 3 driver threads over svc::SharedLockService.
//
// The WAL and background checkpoints are on; after the last period a fresh
// store recovers from the persist directory and serves one status. Every
// period invalidates the status cache, so reads run mostly on the
// prove+encode miss path. A run repeats whole days (each from a fresh
// world) until --seconds have passed and reports medians over days.
#include <algorithm>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <numeric>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "dict/messages.hpp"
#include "dict/proof.hpp"
#include "ra/gossip.hpp"
#include "ra/service.hpp"
#include "svc/mux.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr unsigned kDrivers = 3;
constexpr unsigned kPeers = 3;
constexpr double kCheckpointIntervalS = 0.5;

scenario::ScenarioSpec make_spec(std::uint64_t seed) {
  scenario::ScenarioSpec s = scenario::ScenarioSpec::heartbleed();
  s.name = "revocation_day";
  s.seed = seed;
  s.drivers = kDrivers;
  return s;
}

/// One peer RA for gossip: its own pool behind its own RaService.
struct Peer {
  explicit Peer(const cert::TrustStore* trust)
      : pool(trust), service(&store, &pool), rpc(&service) {}
  ra::DictionaryStore store;  // unused by gossip; RaService needs one
  ra::GossipPool pool;
  ra::RaService service;
  svc::InProcessTransport rpc;
};

/// Outcome of one day.
struct Day {
  double setup_s = 0.0;
  double wall_s = 0.0;  // the period loop: update path + flows
  std::uint64_t flows = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> batch_us;  // status_batch round trips, all drivers
  std::vector<double> pull_ms;   // RaUpdater::pull_up_to per period
  double mass_pull_ms = 0.0;
  double revoke_ms = 0.0, publish_ms = 0.0, writer_wait_ms = 0.0;
  double gossip_ms = 0.0;
  std::uint64_t gossip_bytes = 0;
  std::uint64_t feed_bytes = 0;
  std::uint64_t rejected = 0;
  double barrier_wait_ms = 0.0;  // summed over drivers
  std::vector<double> verify_us;  // signed-root verifications, replayed
  ra::RaUpdater::CheckpointStats checkpoints;
  ra::DictionaryStore::CacheStats cache;
  double recover_ms = 0.0;
  double restart_s = 0.0;
  std::uint64_t periods = 0;

  double flows_per_s() const {
    return wall_s == 0.0 ? 0.0 : static_cast<double>(flows) / wall_s;
  }
  void fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
};

/// One client thread: its slice of each period's flows, grouped into
/// per-CA status_batch envelopes, each status checked against the plan.
class Driver {
 public:
  Driver(const scenario::WorkloadPlan& plan, const World& world,
         svc::Service* serving, unsigned index)
      : plan_(plan), world_(world), rpc_(serving), index_(index),
        pending_(world.ids.size()) {}

  void run_period(std::uint64_t p, SpanLog* log) {
    const std::uint64_t begin = plan_.flow_begin(p);
    const std::uint64_t n = plan_.flows_in(p);
    const std::uint64_t lo = begin + n * index_ / kDrivers;
    const std::uint64_t hi = begin + n * (index_ + 1) / kDrivers;
    for (std::uint64_t g = lo; g < hi; ++g) {
      const std::uint64_t word = plan_.flows()[g];
      const auto ca = static_cast<std::size_t>(scenario::flow_ca(word));
      pending_[ca].push_back(scenario::flow_value(word));
      if (pending_[ca].size() >= plan_.spec().batch) flush(ca, p, log);
    }
    for (std::size_t ca = 0; ca < pending_.size(); ++ca) flush(ca, p, log);
  }

  std::uint64_t flows = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> batch_us;
  double barrier_wait_ms = 0.0;

 private:
  void fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }

  void flush(std::size_t ca, std::uint64_t p, SpanLog* log) {
    auto& values = pending_[ca];
    if (values.empty()) return;
    std::vector<cert::SerialNumber> serials;
    serials.reserve(values.size());
    for (auto v : values) {
      serials.push_back(cert::SerialNumber::from_uint(v, world_.width));
    }
    svc::Request req;
    req.method = svc::Method::status_batch;
    req.body = ra::encode_status_batch(world_.ids[ca], serials);
    const std::uint64_t t0 = now_ns();
    const auto result = rpc_.call(req);
    const std::uint64_t t1 = now_ns();
    batch_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    if (log != nullptr) log->record("scenario.flow_batch", p, 0, t0, t1);
    check(result, ca, p, serials, values);
    values.clear();
  }

  void check(const svc::CallResult& result, std::size_t ca, std::uint64_t p,
             const std::vector<cert::SerialNumber>& serials,
             const std::vector<std::uint64_t>& values) {
    flows += values.size();
    if (!result.ok()) {
      fail(std::string("rpc error: ") + svc::to_string(result.error()));
      return;
    }
    const auto statuses = ra::decode_status_batch_reply(result.response.body);
    if (!statuses || statuses->size() != values.size()) {
      fail("undecodable status_batch reply");
      return;
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
      const auto st = dict::RevocationStatus::decode((*statuses)[i]);
      if (!st) {
        fail("undecodable status");
        continue;
      }
      const bool revoked = st->proof.type == dict::Proof::Type::presence;
      if (revoked != plan_.revoked_at(static_cast<int>(ca), values[i], p)) {
        fail("wrong verdict");
      } else if (!dict::verify_proof(st->proof, serials[i], st->signed_root.root,
                                     st->signed_root.n)) {
        fail("proof does not verify");
      }
    }
  }

  const scenario::WorkloadPlan& plan_;
  const World& world_;
  svc::InProcessTransport rpc_;
  unsigned index_;
  std::vector<std::vector<std::uint64_t>> pending_;
};

Day run_day(const scenario::WorkloadPlan& plan, const std::string& dir,
            SpanLog* log) {
  Day day;
  const auto& spec = plan.spec();
  const auto chain = std::max<std::size_t>(64, spec.periods + 8);

  // ------------------------------------------------------------- set-up
  const std::uint64_t setup0 = now_ns();
  auto world = std::make_unique<World>(plan, 0, chain);
  world->updater->enable_persistence(dir);
  world->updater->checkpoint();  // the cold-started replicas, on disk
  world->updater->start_checkpoints(kCheckpointIntervalS);
  std::shared_mutex store_mu;
  ra::RaService ra_service(&world->store, nullptr);
  svc::SharedLockService serving(&ra_service, &store_mu);
  ra::GossipPool gossip(&world->trust);
  std::vector<std::unique_ptr<Peer>> peers;
  for (unsigned k = 0; k < kPeers; ++k) {
    peers.push_back(std::make_unique<Peer>(&world->trust));
  }
  std::vector<std::unique_ptr<Driver>> drivers;
  for (unsigned d = 0; d < kDrivers; ++d) {
    drivers.push_back(std::make_unique<Driver>(plan, *world, &serving, d));
  }
  day.setup_s = seconds_since(setup0);

  // --------------------------------------------------------- the periods
  const auto cache0 = world->store.cache_stats();
  const auto totals0 = world->updater->totals();
  std::barrier<> gate(static_cast<std::ptrdiff_t>(kDrivers) + 1);
  std::vector<SpanLog> driver_logs(kDrivers);
  std::vector<std::thread> threads;
  for (unsigned d = 0; d < kDrivers; ++d) {
    threads.emplace_back([&, d] {
      Driver& drv = *drivers[d];
      SpanLog* dlog = log != nullptr ? &driver_logs[d] : nullptr;
      for (std::uint64_t p = 1; p <= spec.periods; ++p) {
        std::uint64_t w0 = now_ns();
        gate.arrive_and_wait();  // period p published and pulled
        std::uint64_t w1 = now_ns();
        drv.barrier_wait_ms += static_cast<double>(w1 - w0) / 1e6;
        if (dlog != nullptr) dlog->record("scenario.barrier_wait", p, 0, w0, w1);
        drv.run_period(p, dlog);
        w0 = now_ns();
        gate.arrive_and_wait();  // every driver drained period p
        w1 = now_ns();
        drv.barrier_wait_ms += static_cast<double>(w1 - w0) / 1e6;
        if (dlog != nullptr) dlog->record("scenario.barrier_wait", p, 0, w0, w1);
      }
    });
  }

  auto span = [&](const char* name, std::uint64_t p, std::uint64_t s,
                  std::uint64_t e) {
    if (log != nullptr) log->record(name, p, 0, s, e);
    return static_cast<double>(e - s) / 1e6;
  };
  const std::uint64_t loop0 = now_ns();
  for (std::uint64_t p = 1; p <= spec.periods; ++p) {
    const auto t = static_cast<UnixSeconds>(p) * spec.delta;
    std::uint64_t s = now_ns();
    std::vector<ca::FeedMessage> messages;
    for (std::size_t c = 0; c < world->cas.size(); ++c) {
      const std::uint64_t n = plan.feed_count(p, static_cast<int>(c));
      if (n == 0) {
        messages.push_back(world->cas[c]->refresh(t));
        continue;
      }
      const std::uint64_t k0 = plan.revoked_after(static_cast<int>(c), p - 1);
      std::vector<cert::SerialNumber> serials;
      serials.reserve(n);
      for (std::uint64_t k = k0; k < k0 + n; ++k) {
        serials.push_back(cert::SerialNumber::from_uint(2 * k + 1, world->width));
      }
      messages.push_back(
          ca::FeedMessage::of(world->cas[c]->revoke(std::move(serials), t)));
    }
    day.revoke_ms += span("ca.revoke", p, s, now_ns());

    s = now_ns();
    for (auto& m : messages) {
      if (world->dp.submit(std::move(m)) != svc::Status::ok) {
        day.fail("distribution point refused a feed message");
      }
    }
    world->dp.publish(from_seconds(t));
    day.publish_ms += span("ca.publish", p, s, now_ns());

    {
      s = now_ns();
      std::unique_lock lock(store_mu);
      const std::uint64_t locked = now_ns();
      day.writer_wait_ms += span("svc.lock.writer_wait", p, s, locked);
      world->updater->pull_up_to(p, from_seconds(t));
      const double pull = span("ra.updater.pull", p, locked, now_ns());
      day.pull_ms.push_back(pull);
      if (spec.mass_revocation && spec.mass_revocation->period == p) {
        day.mass_pull_ms = pull;
      }
    }

    s = now_ns();
    for (const auto& id : world->ids) {
      if (const auto* root = world->store.root_of(id)) (void)gossip.observe(*root);
    }
    for (std::size_t c = 0; c < world->cas.size(); ++c) {
      (void)peers[c % kPeers]->pool.observe(world->cas[c]->signed_root());
    }
    const auto g0 = gossip.stats();
    for (auto& peer : peers) {
      const auto evidence = gossip.reconcile_over(peer->rpc);
      if (!evidence) {
        day.fail("gossip round failed");
      } else if (!evidence->empty()) {
        day.fail("gossip found equivocation by an honest CA");
      }
    }
    const auto g1 = gossip.stats();
    day.gossip_ms += span("ra.gossip.round", p, s, now_ns());
    day.gossip_bytes += (g1.bytes_sent - g0.bytes_sent) +
                        (g1.bytes_received - g0.bytes_received);

    // The signature checks the pull made, replayed on the accepted roots.
    for (std::size_t c = 0; c < world->cas.size(); ++c) {
      const auto* root = world->store.root_of(world->ids[c]);
      if (root == nullptr) continue;
      s = now_ns();
      const bool ok = root->verify(world->cas[c]->public_key());
      const std::uint64_t e = now_ns();
      if (log != nullptr) log->record("crypto.ed25519.verify", p, 0, s, e);
      day.verify_us.push_back(static_cast<double>(e - s) / 1e3);
      if (!ok) day.fail("accepted root does not verify");
    }

    gate.arrive_and_wait();  // release the drivers into period p
    gate.arrive_and_wait();  // wait for them to drain it
  }
  for (auto& th : threads) th.join();
  day.wall_s = seconds_since(loop0);
  day.periods = spec.periods;

  for (unsigned d = 0; d < kDrivers; ++d) {
    const Driver& drv = *drivers[d];
    day.flows += drv.flows;
    day.failed += drv.failed;
    for (const auto& e : drv.errors) {
      if (day.errors.size() < 8) day.errors.push_back(e);
    }
    day.batch_us.insert(day.batch_us.end(), drv.batch_us.begin(), drv.batch_us.end());
    day.barrier_wait_ms += drv.barrier_wait_ms;
    if (log != nullptr) log->merge(driver_logs[d]);
  }
  const auto cache1 = world->store.cache_stats();
  day.cache = {cache1.hits - cache0.hits, cache1.misses - cache0.misses,
               cache1.invalidations - cache0.invalidations,
               cache1.evictions - cache0.evictions,
               cache1.evicted_bytes - cache0.evicted_bytes};
  const auto& totals = world->updater->totals();
  day.feed_bytes = totals.bytes - totals0.bytes;
  day.rejected = totals.rejected;
  if (totals.rejected != 0) day.fail("the updater rejected feed messages");

  // ------------------------------------------------------------ restart
  world->updater->stop_checkpoints();
  day.checkpoints = world->updater->checkpoint_stats();
  world->updater.reset();  // closes the WAL; no final checkpoint
  {
    const std::uint64_t r0 = now_ns();
    ra::DictionaryStore store;
    for (std::size_t c = 0; c < world->cas.size(); ++c) {
      store.register_ca(world->ids[c], world->cas[c]->public_key(), spec.delta);
    }
    ra::RaUpdater updater({}, &store, &world->cdn_rpc.rpc, &world->sync_rpc);
    const auto report = updater.recover(dir);
    const std::uint64_t r1 = now_ns();
    const auto status = store.status_bytes_for(
        world->ids[0], cert::SerialNumber::from_uint(2, world->width));
    const std::uint64_t r2 = now_ns();
    if (log != nullptr) {
      log->record("persist.recover", 0, 0, r0, r1);
      log->record("persist.restart", 0, 0, r0, r2);
    }
    day.recover_ms = static_cast<double>(r1 - r0) / 1e6;
    day.restart_s = static_cast<double>(r2 - r0) / 1e9;
    if (!report.ok) day.fail("recovery failed: " + report.error);
    if (!status) day.fail("recovered store serves no status");
    for (const auto& id : world->ids) {
      const auto* live = world->store.root_of(id);
      const auto* back = store.root_of(id);
      if (live == nullptr || back == nullptr || !(*live == *back)) {
        day.fail("recovered signed root differs for " + id);
      }
    }
  }
  return day;
}

}  // namespace

Report run_revocation_day(const Options& opts) {
  Report rep;
  const auto plan = scenario::WorkloadPlan::compile(make_spec(opts.seed));

  // Untraced days until --seconds (at least one); a traced run spends half
  // its time on untraced days and half on traced ones.
  std::vector<Day> days, traced_days;
  SpanLog log;
  const std::uint64_t start = now_ns();
  const double untraced_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  int n = 0;
  do {
    const auto dir = make_scratch_dir(opts, "day" + std::to_string(n++));
    days.push_back(run_day(plan, dir, nullptr));
    std::filesystem::remove_all(dir);
  } while (seconds_since(start) < untraced_s);
  if (opts.trace) {
    do {
      const auto dir = make_scratch_dir(opts, "day" + std::to_string(n++));
      traced_days.push_back(run_day(plan, dir, &log));
      std::filesystem::remove_all(dir);
    } while (seconds_since(start) < opts.seconds);
  }
  std::error_code ignored;
  std::filesystem::remove(".bench_run", ignored);  // only when empty

  auto over = [](const std::vector<Day>& ds, auto f) {
    std::vector<double> v;
    for (const auto& d : ds) v.push_back(f(d));
    return median(std::move(v));
  };
  for (const auto* set : {&days, &traced_days}) {
    for (const auto& d : *set) {
      rep.attempted += d.flows;
      rep.failed += d.failed;
      for (const auto& e : d.errors) rep.fail(e);
    }
  }

  const double setup = over(days, [](const Day& d) { return d.setup_s; });
  const double rate = over(days, [](const Day& d) { return d.flows_per_s(); });
  auto batch_q = [&](const std::vector<Day>& ds, double q) {
    return over(ds, [&](const Day& d) { return percentile(d.batch_us, q); });
  };
  const double p50 = batch_q(days, 0.50);
  const double p90 = batch_q(days, 0.90);
  const double p99 = batch_q(days, 0.99);
  const double apply = over(days, [](const Day& d) { return median(d.pull_ms); });
  const double mass = over(days, [](const Day& d) { return d.mass_pull_ms; });
  const double restart = over(days, [](const Day& d) { return d.restart_s; });
  rep.e2e["setup_s"] = setup;
  rep.e2e["throughput_per_s"] = rate;
  rep.e2e["latency_p50_us"] = p50;
  rep.e2e["latency_p90_us"] = p90;
  rep.add_named("setup_s", setup, "s");
  rep.add_named("flows_per_s", rate, "1/s");
  rep.add_named("flow_batch_us_p50", p50, "us");
  rep.add_named("flow_batch_us_p90", p90, "us");
  rep.add_named("flow_batch_us_p99", p99, "us");
  rep.add_named("period_apply_ms_p50", apply, "ms");
  rep.add_named("mass_apply_ms", mass, "ms");
  rep.add_named("restart_s", restart, "s");
  rep.lines.push_back(
      "days: " + std::to_string(days.size()) + " untraced, " +
      std::to_string(traced_days.size()) + " traced; " +
      std::to_string(days.front().flows) + " flows and " +
      std::to_string(days.front().periods) + " periods per day");

  // Per-layer numbers: from the traced days when tracing, else the others.
  const auto& src = opts.trace ? traced_days : days;
  const double periods = static_cast<double>(src.front().periods);
  auto per_period = [&](auto f) {
    return over(src, [&](const Day& d) { return f(d) / periods; });
  };
  rep.layer["ca.revoke_ms"] = per_period([](const Day& d) { return d.revoke_ms; });
  rep.layer["ca.publish_ms"] = per_period([](const Day& d) { return d.publish_ms; });
  rep.layer["ra.updater.pull_ms"] = over(src, [](const Day& d) { return mean(d.pull_ms); });
  rep.layer["ra.updater.pull_ms_p50"] = over(src, [](const Day& d) { return median(d.pull_ms); });
  rep.layer["ra.updater.mass_pull_ms"] = over(src, [](const Day& d) { return d.mass_pull_ms; });
  rep.layer["ra.updater.feed_bytes"] =
      over(src, [](const Day& d) { return static_cast<double>(d.feed_bytes); });
  rep.layer["ra.updater.rejected"] =
      over(src, [](const Day& d) { return static_cast<double>(d.rejected); });
  rep.layer["svc.lock.writer_wait_ms"] =
      per_period([](const Day& d) { return d.writer_wait_ms; });
  rep.layer["ra.gossip.round_ms"] = per_period([](const Day& d) { return d.gossip_ms; });
  rep.layer["ra.gossip.bytes"] =
      per_period([](const Day& d) { return static_cast<double>(d.gossip_bytes); });
  rep.layer["crypto.ed25519.verify_us"] =
      over(src, [](const Day& d) { return mean(d.verify_us); });
  rep.layer["crypto.ed25519.verifies"] =
      over(src, [](const Day& d) { return static_cast<double>(d.verify_us.size()); });
  rep.layer["persist.checkpoint.stall_us"] = over(src, [](const Day& d) {
    return d.checkpoints.checkpoints == 0
               ? 0.0
               : static_cast<double>(d.checkpoints.total_stall_us) /
                     static_cast<double>(d.checkpoints.checkpoints);
  });
  rep.layer["persist.checkpoint.bytes"] =
      over(src, [](const Day& d) { return static_cast<double>(d.checkpoints.last_bytes); });
  rep.layer["persist.checkpoints"] =
      over(src, [](const Day& d) { return static_cast<double>(d.checkpoints.checkpoints); });
  rep.layer["persist.recover_ms"] = over(src, [](const Day& d) { return d.recover_ms; });
  rep.layer["persist.restart_s"] = over(src, [](const Day& d) { return d.restart_s; });
  rep.layer["scenario.barrier_wait_ms"] = over(src, [&](const Day& d) {
    return d.barrier_wait_ms / (kDrivers * periods);
  });
  rep.layer["scenario.flow_batch_us"] = over(src, [](const Day& d) { return mean(d.batch_us); });
  ra::DictionaryStore::CacheStats cache;  // summed over the days
  for (const auto& d : src) {
    cache.hits += d.cache.hits;
    cache.misses += d.cache.misses;
    cache.invalidations += d.cache.invalidations;
    cache.evictions += d.cache.evictions;
  }
  report_cache(rep, {}, cache);

  if (opts.trace) {
    const double traced_rate =
        over(traced_days, [](const Day& d) { return d.flows_per_s(); });
    const double tp50 = batch_q(traced_days, 0.50);
    const double tp99 = batch_q(traced_days, 0.99);
    rep.layer["trace.spans"] = static_cast<double>(log.spans());
    rep.layer["trace.overhead_ratio"] = rate == 0.0 ? 0.0 : (rate - traced_rate) / rate;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "overhead traced-untraced: flows_per_s %+.1f, flow_batch_us_p50 "
                  "%+.3f, flow_batch_us_p99 %+.3f",
                  traced_rate - rate, tp50 - p50, tp99 - p99);
    rep.lines.emplace_back(buf);
    const Day& d = traced_days.front();
    const double update_ms = d.revoke_ms + d.publish_ms + d.writer_wait_ms +
                             std::accumulate(d.pull_ms.begin(), d.pull_ms.end(), 0.0) +
                             d.gossip_ms;
    std::snprintf(buf, sizeof(buf),
                  "coverage day %.1f ms: update path %.1f ms (revoke + publish + "
                  "lock + pull + gossip), driver barrier wait %.1f ms per driver",
                  d.wall_s * 1e3, update_ms, d.barrier_wait_ms / kDrivers);
    rep.lines.emplace_back(buf);
    write_spans(opts, log);
  }
  rep.e2e["peak_rss_mb"] = peak_rss_mb();
  rep.add_named("peak_rss_mb", rep.e2e["peak_rss_mb"], "MB");
  rep.add_named("failed_ratio",
                rep.attempted == 0 ? 0.0
                                   : static_cast<double>(rep.failed) /
                                         static_cast<double>(rep.attempted),
                "ratio");
  return rep;
}

}  // namespace perfbench
