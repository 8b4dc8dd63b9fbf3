// handshake: the paper's middlebox + client path (§VII-D), with no network
// and no mutation. One thread feeds a packet stream through
// RevocationAgent::process — RITM handshakes (ClientHello, server flight,
// Finished) interleaved with non-TLS packets of 64–1500 B and app data —
// and every spliced flight is validated by RitmClient::process_server_flight.
//
// 8 CAs hold dictionaries sized by the trace shares (the largest is the
// paper's largest CRL, 339,557 entries); roots stay fixed. Servers present
// Zipf-popular certificates, every tenth popularity rank a revoked one.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "client/client.hpp"
#include "crypto/hash_chain.hpp"
#include "dict/proof.hpp"
#include "ra/agent.hpp"
#include "ra/dpi.hpp"
#include "tls/session.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr UnixSeconds kNow = 50;  // the fixed roots' freshness period 5
constexpr std::uint64_t kLargestCrl = 339'557;
constexpr std::uint64_t kRanksPerCa = 512;  // distinct certificates per CA
constexpr std::size_t kBatch = 256;         // handshakes generated at once
constexpr std::size_t kWarmup = 1024;       // untimed handshakes first
constexpr int kSetups = 3;
constexpr double kWindowS = 1.0;  // metrics are medians over windows
constexpr unsigned kCore = 1;     // the stream runs pinned here

/// Certificate serial presented at popularity rank r: every tenth rank an
/// odd serial of the initial corpus (revoked), the others even serials
/// (never revoked).
std::uint64_t serial_for_rank(std::uint64_t r) {
  if (r % 10 == 9) return 2 * (r / 10) + 1;
  return 2 * (r - (r + 1) / 10) + 2;
}

scenario::ScenarioSpec make_spec(std::uint64_t seed) {
  scenario::ScenarioSpec s;
  s.name = "handshake";
  s.seed = seed;
  s.cas = 8;
  s.flows = 1u << 18;
  s.serial_space = 1u << 22;
  s.periods = 1;
  s.feed_revocations_per_period = 0;
  s.canary_every = 0;
  s.initial_revocations = corpus_for_largest(s, kLargestCrl);
  return s;
}

struct Setup {
  std::unique_ptr<World> world;
  std::vector<std::vector<cert::Certificate>> certs;  // [ca][serial - 1]
};

Setup build(const scenario::WorkloadPlan& plan) {
  Setup s;
  s.world = std::make_unique<World>(plan, kNow, 64);
  crypto::Seed server_seed{};
  server_seed.fill(7);
  const auto server_key = crypto::keypair_from_seed(server_seed).public_key;
  std::uint64_t max_serial = 0;
  for (std::uint64_t r = 0; r < kRanksPerCa; ++r) {
    max_serial = std::max(max_serial, serial_for_rank(r));
  }
  for (auto& ca : s.world->cas) {
    auto& certs = s.certs.emplace_back();
    certs.reserve(max_serial);
    for (std::uint64_t serial = 1; serial <= max_serial; ++serial) {
      certs.push_back(ca->issue("srv" + std::to_string(serial) + ".example",
                                server_key, 0, 2'000'000'000));
    }
  }
  return s;
}

struct Handshake {
  bool revoked = false;
  sim::Packet hello, plain, flight, finished, app;
};

/// Timings of one wall-clock window of a pass.
struct Window {
  std::uint64_t handshakes = 0;
  std::uint64_t ra_ns = 0;      // inside RevocationAgent::process
  std::uint64_t client_ns = 0;  // inside process_server_flight
  std::vector<double> added_us;
  std::vector<std::uint64_t> added_at;  // when each handshake finished
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double wall_s() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Outcomes of one pass over the stream, split into windows so every
/// metric is a median over windows.
struct Pass {
  std::uint64_t handshakes = 0;
  std::uint64_t packets = 0;
  std::uint64_t failed = 0;
  std::vector<Window> windows;
  std::vector<std::string> errors;
  double wall_s = 0.0;

  template <class F>
  double median_over_windows(F metric) const {
    std::vector<double> v;
    for (const auto& w : windows) {
      if (w.wall_s() >= kWindowS / 2) v.push_back(metric(w));
    }
    return median(std::move(v));
  }
};

class Stream {
 public:
  Stream(const scenario::WorkloadPlan& plan, const Setup& setup,
         std::uint64_t seed)
      : plan_(plan), setup_(setup), rng_(seed ^ 0x9ac4e75ull) {}

  void next_batch(std::vector<Handshake>& out) {
    out.clear();
    const auto& flows = plan_.flows();
    for (std::size_t i = 0; i < kBatch; ++i) {
      const std::uint64_t word = flows[next_flow_++ % flows.size()];
      const int ca = scenario::flow_ca(word);
      const std::uint64_t serial =
          serial_for_rank((scenario::flow_value(word) - 1) % kRanksPerCa);
      const auto& cert =
          setup_.certs[static_cast<std::size_t>(ca)][serial - 1];
      const std::uint64_t n = conn_++;
      const sim::Endpoint client{0x0A000000u + static_cast<std::uint32_t>(n / 50'000),
                                 static_cast<std::uint16_t>(1024 + n % 50'000)};
      const sim::Endpoint server{0xC6336400u + static_cast<std::uint32_t>(ca), 443};
      Handshake h;
      h.revoked = plan_.revoked_at(ca, serial, 0);
      h.hello = tls::make_client_hello(client, server, rng_, true);
      h.plain = tls::make_plain_packet(
          client, server, rng_.bytes(64 + rng_.uniform(1500 - 64 + 1)));
      h.flight = tls::make_server_flight(client, server, rng_, {cert}, false);
      h.finished = tls::make_server_finished(client, server);
      h.app = tls::make_app_data(server, client,
                                 rng_.bytes(64 + rng_.uniform(1400)));
      out.push_back(std::move(h));
    }
  }

 private:
  const scenario::WorkloadPlan& plan_;
  const Setup& setup_;
  Rng rng_;
  std::uint64_t next_flow_ = 0;
  std::uint64_t conn_ = 0;
};

class Runner {
 public:
  Runner(const scenario::WorkloadPlan& plan, Setup& setup, std::uint64_t seed)
      : world_(*setup.world),
        agent_({.delta = plan.spec().delta}, &world_.store),
        client_({.delta = plan.spec().delta, .expect_ritm = true},
                 world_.trust),
        stream_(plan, setup, seed) {}

  /// Runs the stream for `seconds` (or `handshakes`, when non-zero);
  /// records spans and stage replays into `log` when given.
  Pass run(double seconds, std::size_t handshakes, SpanLog* log) {
    Pass pass;
    std::vector<Handshake> batch;
    const std::uint64_t start = now_ns();
    pass.windows.emplace_back().start_ns = start;
    while (handshakes != 0 ? pass.handshakes < handshakes
                           : seconds_since(start) < seconds) {
      if (seconds_since(pass.windows.back().start_ns) >= kWindowS) {
        const std::uint64_t t = now_ns();
        pass.windows.back().end_ns = t;
        pass.windows.emplace_back().start_ns = t;
      }
      stream_.next_batch(batch);
      for (auto& h : batch) handshake(h, pass, log);
      passthrough(batch, pass, log);
      for (const auto& h : batch) {
        const auto key = sim::FlowKey::of(h.hello);
        agent_.close_flow(key);
        client_.close_connection(key);
      }
    }
    pass.windows.back().end_ns = now_ns();
    pass.wall_s = seconds_since(start);
    return pass;
  }

  const ra::DictionaryStore& store() const { return world_.store; }

  /// A second replica, cold-started from the same CDN objects, for the
  /// traced run's stage replays (so they never touch the agent's cache).
  void add_shadow() {
    shadow_ = std::make_unique<ra::DictionaryStore>();
    for (std::size_t c = 0; c < world_.ids.size(); ++c) {
      shadow_->register_ca(world_.ids[c], world_.cas[c]->public_key(),
                           agent_.delta());
    }
    ra::RaUpdater updater({}, shadow_.get(), &world_.cdn_rpc.rpc,
                          &world_.sync_rpc);
    for (const auto& id : world_.ids) {
      if (updater.bootstrap(id, from_seconds(kNow)) != svc::Status::ok) {
        throw std::runtime_error("shadow bootstrap refused for " + id);
      }
    }
  }

 private:
  void check(Pass& pass, bool ok, const char* what) {
    if (ok) return;
    ++pass.failed;
    if (pass.errors.size() < 8) pass.errors.emplace_back(what);
  }

  void handshake(Handshake& h, Pass& pass, SpanLog* log) {
    const std::uint64_t id = ++request_;
    SpanLog::Open root;
    sim::Packet original;
    if (log != nullptr) {
      root = log->open("handshake", id, 0, now_ns());
      original = h.flight;
    }

    const std::uint64_t t0 = now_ns();
    const auto hello = agent_.process(h.hello, kNow);
    const std::uint64_t t1 = now_ns();
    const std::uint64_t t2 = now_ns();
    const auto flight = agent_.process(h.flight, kNow);
    const std::uint64_t t3 = now_ns();
    sim::Packet spliced;
    if (log != nullptr) {
      log->record("ra.agent.hello", id, root.id, t0, t1);
      log->record("ra.agent.flight", id, root.id, t2, t3);
      replay_agent(original, id, root.id, *log);
      spliced = h.flight;
    }
    const std::uint64_t t4 = now_ns();
    const auto verdict = client_.process_server_flight(h.flight, kNow);
    const std::uint64_t t5 = now_ns();
    if (log != nullptr) {
      log->record("client.flight", id, root.id, t4, t5);
      replay_client(spliced, id, root.id, *log);
      log->close(root, now_ns());
    }

    ++pass.handshakes;
    pass.packets += 2;
    Window& w = pass.windows.back();
    ++w.handshakes;
    w.ra_ns += (t1 - t0) + (t3 - t2);
    w.client_ns += t5 - t4;
    w.added_at.push_back(t5);
    w.added_us.push_back(static_cast<double>((t1 - t0) + (t3 - t2) +
                                                (t5 - t4)) /
                            1e3);
    check(pass, hello == ra::RevocationAgent::Action::state_created,
          "ClientHello did not create flow state");
    check(pass, flight == ra::RevocationAgent::Action::status_attached,
          "server flight got no status");
    check(pass,
          verdict == (h.revoked ? client::Verdict::revoked
                                : client::Verdict::accepted),
          h.revoked ? "revoked certificate not reported revoked"
                    : "valid certificate rejected");
  }

  void passthrough(std::vector<Handshake>& batch, Pass& pass, SpanLog* log) {
    using Action = ra::RevocationAgent::Action;
    bool ok = true;
    const std::uint64_t t0 = now_ns();
    if (log == nullptr) {
      for (auto& h : batch) {
        ok &= agent_.process(h.plain, kNow) == Action::passed;
        ok &= agent_.process(h.finished, kNow) == Action::established;
        ok &= agent_.process(h.app, kNow) == Action::passed;
      }
    } else {
      for (auto& h : batch) {
        for (auto* pkt : {&h.plain, &h.finished, &h.app}) {
          const std::uint64_t s = now_ns();
          const auto action = agent_.process(*pkt, kNow);
          log->record("ra.agent.passthrough", 0, 0, s, now_ns());
          ok &= action == (pkt == &h.finished ? Action::established
                                              : Action::passed);
        }
      }
    }
    pass.windows.back().ra_ns += now_ns() - t0;
    pass.packets += 3 * batch.size();
    check(pass, ok, "pass-through packet mishandled");
  }

  /// Replays the agent's flight path through the same public calls, after
  /// the agent, on the unspliced packet. Lookups go to the shadow replica,
  /// which has seen the same lookup sequence as the agent's store, so each
  /// replayed lookup meets the cache state the agent's own lookup met.
  void replay_agent(sim::Packet copy, std::uint64_t id, std::uint32_t parent,
                    SpanLog& log) {
    std::uint64_t s = now_ns();
    const auto in = ra::inspect(ByteSpan(copy.payload));
    std::uint64_t e = now_ns();
    log.record("ra.dpi.inspect", id, parent, s, e);
    if (!in.chain || in.chain->empty()) return;
    const auto& leaf = in.chain->front();
    const auto misses = shadow_->cache_stats().misses;
    s = now_ns();
    const auto status = shadow_->status_bytes_for(leaf.issuer, leaf.serial);
    e = now_ns();
    const bool miss = shadow_->cache_stats().misses != misses;
    log.record(miss ? "ra.store.status_bytes_for.miss"
                    : "ra.store.status_bytes_for.hit",
               id, parent, s, e);
    if (!status) return;
    s = now_ns();
    ra::attach_status_bytes(copy, ByteSpan(*status->bytes));
    log.record("ra.dpi.attach_status_bytes", id, parent, s, now_ns());
  }

  void replay_client(sim::Packet copy, std::uint64_t id, std::uint32_t parent,
                     SpanLog& log) {
    std::uint64_t s = now_ns();
    const auto statuses = ra::strip_status(copy);
    std::uint64_t e = now_ns();
    log.record("ra.dpi.strip_status", id, parent, s, e);
    s = now_ns();
    const auto in = ra::inspect(ByteSpan(copy.payload));
    e = now_ns();
    log.record("client.inspect", id, parent, s, e);
    if (statuses.empty() || !in.chain || in.chain->empty()) return;
    const auto& leaf = in.chain->front();
    const auto& st = statuses.front();
    const auto key = world_.trust.find(leaf.issuer);
    if (!key) return;
    s = now_ns();
    (void)leaf.verify_signature(*key);
    e = now_ns();
    log.record("crypto.ed25519.verify", id, parent, s, e);
    s = now_ns();
    (void)st.signed_root.verify(*key);
    e = now_ns();
    log.record("crypto.ed25519.verify", id, parent, s, e);
    // The client's freshness rule: periods p'-1 .. p'+1 of the root.
    s = now_ns();
    const UnixSeconds t = st.signed_root.timestamp;
    const auto p_prime = static_cast<std::uint64_t>(
        kNow <= t ? 0 : (kNow - t) / agent_.delta());
    bool fresh = false;
    for (std::uint64_t p = p_prime == 0 ? 0 : p_prime - 1;
         p <= p_prime + 1 && !fresh; ++p) {
      fresh = crypto::HashChain::verify(st.freshness, p,
                                        st.signed_root.freshness_anchor);
    }
    e = now_ns();
    log.record("crypto.hash_chain.walk", id, parent, s, e);
    s = now_ns();
    (void)dict::verify_proof(st.proof, leaf.serial, st.signed_root.root,
                             st.signed_root.n);
    log.record("dict.verify_proof", id, parent, s, now_ns());
  }

  World& world_;
  std::unique_ptr<ra::DictionaryStore> shadow_;
  ra::RevocationAgent agent_;
  client::RitmClient client_;
  Stream stream_;
  std::uint64_t request_ = 0;
};

double rate(std::uint64_t n, std::uint64_t ns) {
  return ns == 0 ? 0.0 : static_cast<double>(n) * 1e9 / static_cast<double>(ns);
}

/// One pass's headline numbers, raw and at reference speed (each window
/// scaled by the host slowness the speed monitor saw on kCore meanwhile).
struct Metrics {
  double ra_rate = 0, client_rate = 0, hs_rate = 0, p50 = 0, p90 = 0, p99 = 0;
};

Metrics metrics_of(const Pass& pass, const SpeedMonitor* speed) {
  auto slow = [&](const Window& w) {
    return speed == nullptr ? 1.0 : speed->slowness(w.start_ns, w.end_ns);
  };
  // Single latencies are scaled by the slowness around their own time.
  auto latency_q = [&](const Window& w, double q) {
    std::vector<double> v = w.added_us;
    if (speed != nullptr) {
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] /= speed->slowness_near(w.added_at[i]);
      }
    }
    return percentile(std::move(v), q);
  };
  Metrics m;
  m.ra_rate = pass.median_over_windows(
      [&](const Window& w) { return rate(w.handshakes, w.ra_ns) * slow(w); });
  m.client_rate = pass.median_over_windows(
      [&](const Window& w) { return rate(w.handshakes, w.client_ns) * slow(w); });
  m.hs_rate = pass.median_over_windows([&](const Window& w) {
    return rate(w.handshakes, w.ra_ns + w.client_ns) * slow(w);
  });
  m.p50 = pass.median_over_windows([&](const Window& w) { return latency_q(w, 0.50); });
  m.p90 = pass.median_over_windows([&](const Window& w) { return latency_q(w, 0.90); });
  m.p99 = pass.median_over_windows([&](const Window& w) { return latency_q(w, 0.99); });
  return m;
}

}  // namespace

Report run_handshake(const Options& opts) {
  Report rep;
  const SpeedMonitor speed({kCore});
  pin_current_thread(kCore);
  const auto plan = scenario::WorkloadPlan::compile(make_spec(opts.seed));

  std::vector<double> setup_s, setup_raw_s;
  Setup setup;
  for (int i = 0; i < kSetups; ++i) {
    setup = Setup{};  // release the previous world before timing the next
    const std::uint64_t t0 = now_ns();
    setup = build(plan);
    const std::uint64_t t1 = now_ns();
    setup_raw_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    setup_s.push_back(setup_raw_s.back() / speed.slowness(t0, t1));
  }
  std::uint64_t largest = 0, entries = 0;
  for (int c = 0; c < plan.spec().cas; ++c) {
    largest = std::max(largest, plan.initial_count(c));
    entries += plan.initial_count(c);
  }
  rep.lines.push_back("dictionaries: " + std::to_string(plan.spec().cas) +
                      " CAs, " + std::to_string(entries) +
                      " entries, largest " + std::to_string(largest));

  Runner runner(plan, setup, opts.seed);
  if (opts.trace) runner.add_shadow();
  (void)runner.run(0.0, kWarmup, nullptr);

  const double measure_s = opts.trace ? opts.seconds / 2 : opts.seconds;
  const auto cache0 = runner.store().cache_stats();
  const Pass pass = runner.run(measure_s, 0, nullptr);
  const auto cache1 = runner.store().cache_stats();

  const Metrics m = metrics_of(pass, &speed);
  const Metrics raw = metrics_of(pass, nullptr);

  rep.attempted = pass.handshakes;
  rep.failed = pass.failed;
  for (const auto& e : pass.errors) rep.fail(e);
  rep.e2e["setup_s"] = median(setup_s);
  rep.e2e["throughput_per_s"] = m.hs_rate;
  rep.e2e["latency_p50_us"] = m.p50;
  rep.e2e["latency_p90_us"] = m.p90;
  rep.add_named("setup_s", median(setup_s), "s");
  rep.add_named("handshakes_per_s", m.hs_rate, "1/s");
  rep.add_named("ra_handshakes_per_s", m.ra_rate, "1/s");
  rep.add_named("client_validations_per_s", m.client_rate, "1/s");
  rep.add_named("handshake_added_us_p50", m.p50, "us");
  rep.add_named("handshake_added_us_p90", m.p90, "us");
  rep.add_named("handshake_added_us_p99", m.p99, "us");
  char raw_line[320];
  std::snprintf(raw_line, sizeof(raw_line),
                "raw (wall clock, not normalized): setup_s %.4f "
                "handshakes_per_s %.1f ra_handshakes_per_s %.1f "
                "client_validations_per_s %.1f handshake_added_us p50 %.2f "
                "p90 %.2f p99 %.2f",
                median(setup_raw_s), raw.hs_rate, raw.ra_rate, raw.client_rate,
                raw.p50, raw.p90, raw.p99);
  rep.lines.emplace_back(raw_line);
  rep.lines.push_back("stream: " + std::to_string(pass.handshakes) +
                      " handshakes, " + std::to_string(pass.packets) +
                      " packets in " + std::to_string(pass.wall_s) + " s");

  report_cache(rep, cache0, cache1);
  rep.layer["client.validations_per_s"] = raw.client_rate;

  if (opts.trace) {
    SpanLog log;
    const auto traced0 = runner.store().cache_stats();
    const Pass traced = runner.run(opts.seconds / 2, 0, &log);
    const auto traced1 = runner.store().cache_stats();
    rep.attempted += traced.handshakes;
    rep.failed += traced.failed;
    for (const auto& e : traced.errors) rep.fail(e);

    auto mean_of = [&](const char* name, double scale) {
      return log.aggregate(name).mean_ns() / scale;
    };
    // Per-lookup costs come from the replay (shadow replica); they are
    // weighted by the hit ratio the agent's own store saw in this pass.
    const auto hit = log.aggregate("ra.store.status_bytes_for.hit");
    const auto miss = log.aggregate("ra.store.status_bytes_for.miss");
    const auto agent_hits = traced1.hits - traced0.hits;
    const auto agent_lookups = agent_hits + (traced1.misses - traced0.misses);
    const double agent_hit_ratio =
        agent_lookups == 0 ? 1.0
                           : static_cast<double>(agent_hits) /
                                 static_cast<double>(agent_lookups);
    const double lookup_ns = agent_hit_ratio * hit.mean_ns() +
                             (1.0 - agent_hit_ratio) * miss.mean_ns();
    const double flight_ns = mean_of("ra.agent.flight", 1.0);
    const double agent_stages = mean_of("ra.dpi.inspect", 1.0) + lookup_ns +
                                mean_of("ra.dpi.attach_status_bytes", 1.0);
    const double client_ns = mean_of("client.flight", 1.0);
    const auto verify = log.aggregate("crypto.ed25519.verify");
    const double client_stages =
        mean_of("ra.dpi.strip_status", 1.0) + mean_of("client.inspect", 1.0) +
        2.0 * verify.mean_ns() + mean_of("crypto.hash_chain.walk", 1.0) +
        mean_of("dict.verify_proof", 1.0);

    rep.layer["ra.agent.hello_ns"] = mean_of("ra.agent.hello", 1.0);
    rep.layer["ra.agent.flight_ns"] = flight_ns;
    rep.layer["ra.agent.passthrough_ns"] = mean_of("ra.agent.passthrough", 1.0);
    rep.layer["ra.dpi.inspect_ns"] = mean_of("ra.dpi.inspect", 1.0);
    rep.layer["ra.store.status_bytes_for_ns"] = lookup_ns;
    rep.layer["ra.store.status_bytes_for_hit_ns"] = hit.mean_ns();
    rep.layer["ra.store.status_bytes_for_miss_ns"] = miss.mean_ns();
    rep.layer["ra.dpi.attach_status_bytes_ns"] =
        mean_of("ra.dpi.attach_status_bytes", 1.0);
    rep.layer["ra.agent.unaccounted_ratio"] =
        flight_ns == 0.0 ? 0.0 : 1.0 - agent_stages / flight_ns;
    rep.layer["client.flight_us"] = client_ns / 1e3;
    rep.layer["ra.dpi.strip_status_ns"] = mean_of("ra.dpi.strip_status", 1.0);
    rep.layer["client.inspect_ns"] = mean_of("client.inspect", 1.0);
    rep.layer["crypto.ed25519.verify_us"] = verify.mean_ns() / 1e3;
    rep.layer["crypto.ed25519.verifies"] = static_cast<double>(verify.count);
    rep.layer["dict.verify_proof_us"] = mean_of("dict.verify_proof", 1e3);
    rep.layer["crypto.hash_chain.walk_us"] = mean_of("crypto.hash_chain.walk", 1e3);
    rep.layer["client.unaccounted_ratio"] =
        client_ns == 0.0 ? 0.0 : 1.0 - client_stages / client_ns;
    rep.layer["trace.spans"] = static_cast<double>(log.spans());

    const Metrics tm = metrics_of(traced, &speed);
    rep.layer["trace.overhead_ratio"] =
        m.hs_rate == 0.0 ? 0.0 : (m.hs_rate - tm.hs_rate) / m.hs_rate;

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "coverage RevocationAgent::process(flight) %.1f ns vs "
                  "stages %.1f ns (inspect + status_bytes_for + attach; "
                  "lookups weighted by the agent's hit ratio %.4f)",
                  flight_ns, agent_stages, agent_hit_ratio);
    rep.lines.emplace_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "coverage RitmClient::process_server_flight %.1f ns vs "
                  "stages %.1f ns (strip + inspect + 2 ed25519 + chain walk "
                  "+ proof)",
                  client_ns, client_stages);
    rep.lines.emplace_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "overhead traced-untraced: handshakes_per_s %+.1f, "
                  "ra_handshakes_per_s %+.1f, client_validations_per_s %+.1f, "
                  "handshake_added_us_p50 %+.3f, p90 %+.3f, p99 %+.3f",
                  tm.hs_rate - m.hs_rate, tm.ra_rate - m.ra_rate,
                  tm.client_rate - m.client_rate, tm.p50 - m.p50,
                  tm.p90 - m.p90, tm.p99 - m.p99);
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
