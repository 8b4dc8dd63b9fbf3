// serve: RaService behind a 2-reactor svc::TcpServer on loopback, loaded by
// 2 pipelined TcpClient threads pinned to the cores the reactors do not use.
//
// 4 CAs; serials are Zipf-queried over a universe large enough that the
// working set exceeds the 32 MiB/CA status cache, so the run sees hits,
// misses and CLOCK evictions. Requests alternate a single-serial
// status_query (the smallest frame, where per-frame cost dominates) and a
// 16-serial status_batch.
//
// Phase 1 is a closed loop (each client keeps kDepth requests in flight)
// that measures saturation and the round trips at saturation; these are
// the gated numbers. Phase 2 is an open loop at the fixed absolute rate
// kOpenLoopRate; each request is timed from the moment it was due, and the
// generator's own lateness is reported beside it. Its latencies are printed
// but not gated: between requests the reactors' vCPUs go idle, and waking
// them on this shared host took up to milliseconds (see NOTES.md).
#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dict/messages.hpp"
#include "ra/service.hpp"
#include "svc/service.hpp"
#include "svc/tcp.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kLargestCrl = 339'557;
constexpr unsigned kReactors = 2;
constexpr unsigned kClients = 2;
constexpr std::size_t kDepth = 32;          // closed-loop requests in flight
constexpr std::uint32_t kBatchSerials = 16;
/// Open-loop offered load, requests/s over both clients, fixed so every
/// commit is compared at the same load. A client has one request in flight
/// (TcpClient::collect blocks), so it can offer at most ~1/RTT, and less
/// while the host runs slow; at 5k/s per client the generator fell behind
/// for good in some runs. 2k/s per client leaves room to drain a backlog
/// (see NOTES.md).
constexpr double kOpenLoopRate = 4'000.0;
constexpr double kWarmupS = 1.0;
constexpr double kWindowS = 1.0;
constexpr int kSetups = 5;
constexpr std::size_t kReplayFrames = 4096;  // per client, traced run

scenario::ScenarioSpec make_spec(std::uint64_t seed) {
  scenario::ScenarioSpec s;
  s.name = "serve";
  s.seed = seed;
  s.cas = 4;
  s.flows = 1u << 21;
  s.serial_space = 1u << 21;
  s.periods = 1;
  s.feed_revocations_per_period = 0;
  s.canary_every = 0;
  s.initial_revocations = corpus_for_largest(s, kLargestCrl);
  return s;
}

struct Server {
  explicit Server(const scenario::WorkloadPlan& plan)
      : world(plan, 0, 64), service(&world.store, nullptr) {
    svc::TcpServerOptions o;
    o.reactors = kReactors;
    o.pin_threads = true;  // reactor i runs on core i
    o.max_connections = 16;
    // One acceptor hands connections to the reactors round-robin, so each
    // reactor serves exactly one client. With a SO_REUSEPORT listener per
    // reactor the kernel's hash put both connections on one reactor in
    // about half of the runs, halving saturation.
    o.force_fd_handoff = true;
    tcp = std::make_unique<svc::TcpServer>(&service, o);
  }
  World world;
  ra::RaService service;
  std::unique_ptr<svc::TcpServer> tcp;
};

struct Item {
  int ca = 0;
  std::uint64_t value = 0;
};

/// One request and the serials it asks for.
struct Planned {
  svc::Request req;
  std::vector<Item> items;
};

/// Draws requests from the plan's flow schedule: even requests are single
/// status_query frames, odd ones 16-serial status_batch frames for
/// whichever CA first collects 16 flows.
class RequestGen {
 public:
  RequestGen(const scenario::WorkloadPlan& plan, const World& world,
             std::uint64_t offset)
      : plan_(plan), world_(world), next_(offset), pending_(world.ids.size()) {}

  Planned next() {
    Planned p;
    if (count_++ % 2 == 0) {
      const Item it = draw();
      p.req.method = svc::Method::status_query;
      p.req.body = ra::encode_status_query(world_.ids[static_cast<std::size_t>(it.ca)],
                                           serial(it.value));
      p.items.push_back(it);
      return p;
    }
    for (;;) {
      const Item it = draw();
      auto& bucket = pending_[static_cast<std::size_t>(it.ca)];
      bucket.push_back(it);
      if (bucket.size() < kBatchSerials) continue;
      std::vector<cert::SerialNumber> serials;
      serials.reserve(bucket.size());
      for (const auto& b : bucket) serials.push_back(serial(b.value));
      p.req.method = svc::Method::status_batch;
      p.req.body = ra::encode_status_batch(world_.ids[static_cast<std::size_t>(it.ca)],
                                           serials);
      p.items = std::move(bucket);
      bucket.clear();
      return p;
    }
  }

 private:
  Item draw() {
    const std::uint64_t word = plan_.flows()[next_++ % plan_.flows().size()];
    return {scenario::flow_ca(word), scenario::flow_value(word)};
  }
  cert::SerialNumber serial(std::uint64_t v) const {
    return cert::SerialNumber::from_uint(v, world_.width);
  }

  const scenario::WorkloadPlan& plan_;
  const World& world_;
  std::uint64_t next_;
  std::uint64_t count_ = 0;
  std::vector<std::vector<Item>> pending_;
};

/// Per-window counts of one client (windows are aligned to the phase start
/// shared by all clients).
struct ClientWindow {
  std::uint64_t serials = 0;
  // Round trips: closed loop from submit, open loop from the due time.
  std::vector<double> latency_us;
  std::vector<std::uint64_t> done_at;  // reply time of each
};

struct ClientPhase {
  std::uint64_t start_ns = 0;
  std::vector<ClientWindow> windows;
  std::vector<double> lag_us;  // open loop: submit time - due time
  std::uint64_t cpu_ns = 0;

  ClientWindow& window_at(std::uint64_t start_ns, std::uint64_t t) {
    const auto i = static_cast<std::size_t>(
        static_cast<double>(t - start_ns) * 1e-9 / kWindowS);
    if (windows.size() <= i) windows.resize(i + 1);
    return windows[i];
  }
};

/// One load-generating thread: pinned to its own core, one connection.
class Client {
 public:
  Client(const scenario::WorkloadPlan& plan, Server& server, unsigned index)
      : plan_(plan),
        world_(server.world),
        gen_(plan, server.world, plan.flows().size() / kClients * index),
        tcp_("127.0.0.1", server.tcp->port(), options()) {}

  static svc::TcpClientOptions options() {
    svc::TcpClientOptions o;
    o.max_inflight = 64;
    return o;
  }

  void note_cpu() {
    const int cpu = sched_getcpu();
    if (cpu >= 0) cpus_.insert(cpu);
  }

  /// Closed loop: keeps kDepth requests in flight for `seconds`.
  ClientPhase closed_loop(double seconds, SpanLog* log) {
    ClientPhase ph;
    const std::uint64_t cpu0 = thread_cpu_ns();
    const std::uint64_t start = now_ns();
    ph.start_ns = start;
    const auto deadline = start + static_cast<std::uint64_t>(seconds * 1e9);
    std::deque<Inflight> inflight;
    while (true) {
      const std::uint64_t now = now_ns();
      const bool more = now < deadline;
      if (more && inflight.size() < kDepth) {
        inflight.push_back(submit(log));
        continue;
      }
      if (inflight.empty()) break;
      Inflight f = std::move(inflight.front());
      inflight.pop_front();
      const svc::CallResult r = tcp_.collect(f.id);
      const std::uint64_t done = now_ns();
      ClientWindow& w = ph.window_at(start, done);
      w.serials += check(r, f, log);
      w.latency_us.push_back(static_cast<double>(done - f.sent_ns) / 1e3);
      w.done_at.push_back(done);
    }
    ph.cpu_ns = thread_cpu_ns() - cpu0;
    note_cpu();
    return ph;
  }

  /// Open loop: request k is due at start + k / rate; each request is sent
  /// when due (or as soon as the previous one returns, if later) and timed
  /// from its due time.
  ClientPhase open_loop(double seconds, double rate, SpanLog* log) {
    ClientPhase ph;
    const std::uint64_t cpu0 = thread_cpu_ns();
    const std::uint64_t start = now_ns();
    ph.start_ns = start;
    const double interval_ns = 1e9 / rate;
    for (std::uint64_t k = 0;; ++k) {
      const auto due = start + static_cast<std::uint64_t>(
                                   static_cast<double>(k) * interval_ns);
      if (static_cast<double>(due - start) >= seconds * 1e9) break;
      while (now_ns() < due) {
      }
      const std::uint64_t sent = now_ns();
      Inflight f = submit(log);
      const svc::CallResult r = tcp_.collect(f.id);
      const std::uint64_t done = now_ns();
      if (log != nullptr) {
        log->record("svc.tcp.round_trip", f.id, 0, sent, done);
      }
      ClientWindow& w = ph.window_at(start, done);
      w.serials += check(r, f, log);
      w.latency_us.push_back(static_cast<double>(done - due) / 1e3);
      w.done_at.push_back(done);
      ph.lag_us.push_back(static_cast<double>(sent - due) / 1e3);
    }
    ph.cpu_ns = thread_cpu_ns() - cpu0;
    note_cpu();
    return ph;
  }

  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t received() const noexcept { return received_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::vector<std::string>& errors() const noexcept { return errors_; }
  const std::set<int>& cpus() const noexcept { return cpus_; }
  const std::vector<svc::Request>& sample() const noexcept { return sample_; }

 private:
  struct Inflight {
    std::uint64_t id = 0;
    std::uint64_t sent_ns = 0;
    bool batch = false;
    std::vector<Item> items;
  };

  Inflight submit(SpanLog* log) {
    const std::uint64_t s = now_ns();
    Planned p = gen_.next();
    const std::uint64_t e = now_ns();
    if (log != nullptr) {
      log->record("svc.client.encode", 0, 0, s, e);
      if (sample_.size() < kReplayFrames) sample_.push_back(p.req);
    }
    Inflight f;
    f.batch = p.req.method == svc::Method::status_batch;
    f.items = std::move(p.items);
    attempted_ += f.items.size();
    f.sent_ns = now_ns();
    if (tcp_.submit(p.req, &f.id) != svc::Status::ok) {
      fail("submit failed");
      f.id = 0;
    }
    return f;
  }

  /// Checks one reply against ground truth; returns the serials received.
  std::uint64_t check(const svc::CallResult& r, const Inflight& f,
                      SpanLog* log) {
    const std::uint64_t s = now_ns();
    const auto& items = f.items;
    if (!r.ok()) {
      fail(std::string("rpc error: ") + svc::to_string(r.error()));
      return 0;
    }
    std::vector<Bytes> bodies;
    if (!f.batch) {
      bodies.push_back(r.response.body);
    } else {
      auto decoded = ra::decode_status_batch_reply(r.response.body);
      if (!decoded || decoded->size() != items.size()) {
        fail("undecodable status_batch reply");
        return 0;
      }
      bodies = std::move(*decoded);
    }
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto st = dict::RevocationStatus::decode(bodies[i]);
      if (!st) {
        fail("undecodable status");
        continue;
      }
      const bool revoked = st->proof.type == dict::Proof::Type::presence;
      if (revoked != plan_.revoked_at(items[i].ca, items[i].value, 0) ||
          st->signed_root.ca != world_.ids[static_cast<std::size_t>(items[i].ca)]) {
        fail("wrong verdict");
      }
    }
    received_ += items.size();
    if (log != nullptr) log->record("svc.client.decode", 0, 0, s, now_ns());
    return items.size();
  }

  void fail(std::string why) {
    ++failed_;
    if (errors_.size() < 8) errors_.push_back(std::move(why));
  }

  const scenario::WorkloadPlan& plan_;
  const World& world_;
  RequestGen gen_;
  svc::TcpClient tcp_;
  std::uint64_t attempted_ = 0;  // serials requested
  std::uint64_t received_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::set<int> cpus_;
  std::vector<svc::Request> sample_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Core placement of the process's threads other than `skip`: the CPU each
/// last ran on and the CPUs it may run on.
std::string placement_of_other_threads(const std::set<long>& skip) {
  std::string out;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return "unavailable";
  while (dirent* ent = readdir(dir)) {
    if (ent->d_name[0] == '.') continue;
    const long tid = std::strtol(ent->d_name, nullptr, 10);
    if (skip.count(tid) != 0) continue;
    const std::string base = std::string("/proc/self/task/") + ent->d_name;
    const std::string stat = read_file(base + "/stat");
    // Field 39 (processor) counts from after the ")" closing the name.
    std::istringstream fields(stat.substr(stat.rfind(')') + 2));
    std::string f;
    int cpu = -1;
    for (int i = 3; i <= 39 && fields >> f; ++i) {
      if (i == 39) cpu = std::atoi(f.c_str());
    }
    const std::string status = read_file(base + "/status");
    std::string allowed = "?";
    const auto pos = status.find("Cpus_allowed_list:");
    if (pos != std::string::npos) {
      std::istringstream line(status.substr(pos + 18));
      line >> allowed;
    }
    out += " tid" + std::to_string(tid) + "@cpu" + std::to_string(cpu) +
           "(allowed " + allowed + ")";
  }
  closedir(dir);
  return out;
}

/// A pass's headline numbers: medians over 1-s windows, at reference speed
/// (rates times the window's host slowness, single latencies divided by
/// the slowness around them), with the raw wall-clock values beside them.
struct Quantiles {
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
};

struct PhaseResult {
  double serials_per_s = 0.0, raw_serials_per_s = 0.0;  // closed loop
  Quantiles closed, raw_closed;  // round trips at saturation
  Quantiles open, raw_open;      // open loop, from the due time
  double lag_p99_us = 0.0;
  double server_cpu_us_per_request = 0.0;
  std::uint64_t server_requests = 0;
};

/// Windows of every client, merged by index (aligned to client 0's phase
/// start), with the host slowness over each; the last partial window of
/// each phase is dropped.
struct MergedWindow {
  ClientWindow merged;
  double slowness = 1.0;
};

std::vector<MergedWindow> merge_windows(const std::vector<ClientPhase>& ph,
                                        double seconds,
                                        const SpeedMonitor& speed) {
  const auto full = static_cast<std::size_t>(seconds / kWindowS);
  std::vector<MergedWindow> out(full);
  for (const auto& p : ph) {
    for (std::size_t i = 0; i < std::min(full, p.windows.size()); ++i) {
      auto& m = out[i].merged;
      const auto& w = p.windows[i];
      m.serials += w.serials;
      m.latency_us.insert(m.latency_us.end(), w.latency_us.begin(), w.latency_us.end());
      m.done_at.insert(m.done_at.end(), w.done_at.begin(), w.done_at.end());
    }
  }
  const auto window_ns = static_cast<std::uint64_t>(kWindowS * 1e9);
  for (std::size_t i = 0; i < full; ++i) {
    const std::uint64_t from = ph.front().start_ns + i * window_ns;
    out[i].slowness = speed.slowness(from, from + window_ns);
  }
  return out;
}

/// Round-trip percentiles of a phase: each a median over windows, at
/// reference speed (every round trip divided by the slowness around it)
/// and raw.
void quantiles(const std::vector<ClientPhase>& phase, double seconds,
               const SpeedMonitor& speed, Quantiles& norm, Quantiles& raw) {
  std::vector<double> q[3], r[3];
  constexpr double kQ[3] = {0.50, 0.90, 0.99};
  for (const auto& w : merge_windows(phase, seconds, speed)) {
    std::vector<double> scaled = w.merged.latency_us;
    for (std::size_t i = 0; i < scaled.size(); ++i) {
      scaled[i] /= speed.slowness_near(w.merged.done_at[i]);
    }
    for (int k = 0; k < 3; ++k) {
      r[k].push_back(percentile(w.merged.latency_us, kQ[k]));
      q[k].push_back(percentile(scaled, kQ[k]));
    }
  }
  norm = {median(q[0]), median(q[1]), median(q[2])};
  raw = {median(r[0]), median(r[1]), median(r[2])};
}

}  // namespace

Report run_serve(const Options& opts) {
  Report rep;
  const auto plan = scenario::WorkloadPlan::compile(make_spec(opts.seed));

  const bool pin = std::thread::hardware_concurrency() >= kReactors + kClients;
  std::vector<unsigned> cores;
  for (unsigned c = 0; c < (pin ? kReactors + kClients : 1); ++c) cores.push_back(c);
  const SpeedMonitor speed(cores);

  std::vector<double> setup_s, setup_raw_s;
  std::unique_ptr<Server> server;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    const std::uint64_t t0 = now_ns();
    server = std::make_unique<Server>(plan);
    const std::uint64_t t1 = now_ns();
    setup_raw_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    setup_s.push_back(setup_raw_s.back() / speed.slowness(t0, t1));
  }
  std::vector<std::unique_ptr<Client>> clients;
  for (unsigned i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>(plan, *server, i));
  }

  // Each pass: warm-up, closed loop, open loop; phases are separated by a
  // barrier so the main thread can read process CPU and server counters
  // while every client is idle.
  const int passes = opts.trace ? 2 : 1;
  const double phase_s = opts.seconds / (2.0 * passes);
  std::barrier<> gate(static_cast<std::ptrdiff_t>(kClients) + 1);
  std::vector<std::vector<ClientPhase>> closed(passes), open(passes);
  std::vector<SpanLog> logs(kClients);
  std::vector<long> client_tids(kClients);
  for (int p = 0; p < passes; ++p) {
    closed[static_cast<std::size_t>(p)].resize(kClients);
    open[static_cast<std::size_t>(p)].resize(kClients);
  }
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      client_tids[i] = static_cast<long>(::syscall(SYS_gettid));
      if (pin) pin_current_thread(kReactors + i);
      Client& c = *clients[i];
      c.note_cpu();
      (void)c.closed_loop(kWarmupS, nullptr);
      for (int p = 0; p < passes; ++p) {
        SpanLog* log = p == 1 ? &logs[i] : nullptr;
        gate.arrive_and_wait();  // closed loop starts
        closed[static_cast<std::size_t>(p)][i] = c.closed_loop(phase_s, log);
        gate.arrive_and_wait();  // closed loop done
        gate.arrive_and_wait();  // open loop starts
        open[static_cast<std::size_t>(p)][i] =
            c.open_loop(phase_s, kOpenLoopRate / kClients, log);
      }
    });
  }

  std::vector<PhaseResult> results(passes);
  std::string reactor_placement;
  for (int p = 0; p < passes; ++p) {
    PhaseResult& res = results[static_cast<std::size_t>(p)];
    const auto stats0 = server->tcp->stats();
    const std::uint64_t main0 = thread_cpu_ns();
    const std::uint64_t proc0 = process_cpu_ns();
    gate.arrive_and_wait();
    gate.arrive_and_wait();
    const std::uint64_t proc1 = process_cpu_ns();
    const std::uint64_t main1 = thread_cpu_ns();
    const auto stats1 = server->tcp->stats();
    if (p == 0) {
      std::set<long> skip(client_tids.begin(), client_tids.end());
      skip.insert(static_cast<long>(::syscall(SYS_gettid)));
      reactor_placement = placement_of_other_threads(skip);
    }
    gate.arrive_and_wait();

    const auto& cl = closed[static_cast<std::size_t>(p)];
    std::uint64_t client_cpu = 0;
    for (const auto& c : cl) client_cpu += c.cpu_ns;
    res.server_requests = stats1.requests - stats0.requests;
    const double server_cpu_ns =
        static_cast<double>(proc1 - proc0) - static_cast<double>(client_cpu) -
        static_cast<double>(main1 - main0);
    res.server_cpu_us_per_request =
        res.server_requests == 0
            ? 0.0
            : server_cpu_ns / 1e3 / static_cast<double>(res.server_requests);
    std::vector<double> rates, raw_rates;
    for (const auto& w : merge_windows(cl, phase_s, speed)) {
      raw_rates.push_back(static_cast<double>(w.merged.serials) / kWindowS);
      rates.push_back(raw_rates.back() * w.slowness);
    }
    res.serials_per_s = median(rates);
    res.raw_serials_per_s = median(raw_rates);
    quantiles(cl, phase_s, speed, res.closed, res.raw_closed);
  }
  for (auto& t : threads) t.join();

  for (int p = 0; p < passes; ++p) {
    PhaseResult& res = results[static_cast<std::size_t>(p)];
    quantiles(open[static_cast<std::size_t>(p)], phase_s, speed, res.open,
              res.raw_open);
    std::vector<double> lag;
    for (const auto& c : open[static_cast<std::size_t>(p)]) {
      lag.insert(lag.end(), c.lag_us.begin(), c.lag_us.end());
    }
    res.lag_p99_us = percentile(lag, 0.99);
  }

  // ---------------------------------------------------------- correctness
  std::uint64_t received = 0;
  for (const auto& c : clients) {
    rep.attempted += c->attempted();
    received += c->received();
    rep.failed += c->failed();
    for (const auto& e : c->errors()) rep.fail(e);
  }

  // Traced run: the same frames replayed in process through serve_bytes
  // and RaService::handle, after the clients stopped.
  SpanLog log;
  std::uint64_t replayed_serials = 0;
  if (opts.trace) {
    for (const auto& l : logs) log.merge(l);
    for (const auto& c : clients) {
      for (const auto& req : c->sample()) {
        const Bytes frame = svc::encode_frame(req);
        std::uint64_t s = now_ns();
        const auto reply = svc::serve_bytes(server->service, ByteSpan(frame));
        log.record("svc.serve_bytes", 0, 0, s, now_ns());
        s = now_ns();
        const auto handled = server->service.handle(req);
        log.record("ra.service.handle", 0, 0, s, now_ns());
        if (reply.fatal || reply.need_more ||
            handled.response.status != svc::Status::ok) {
          ++rep.failed;
          rep.fail("in-process replay failed");
        }
        const std::uint64_t n =
            req.method == svc::Method::status_query ? 1 : kBatchSerials;
        replayed_serials += 2 * n;
      }
    }
  }
  const auto served = server->service.stats();
  if (served.serials_served != received + replayed_serials) {
    ++rep.failed;
    rep.fail("RaService served " + std::to_string(served.serials_served) +
             " serials, clients received " + std::to_string(received) +
             " (+" + std::to_string(replayed_serials) + " replayed)");
  }
  if (served.rejected != 0) {
    ++rep.failed;
    rep.fail("RaService rejected requests");
  }

  // -------------------------------------------------------------- metrics
  const PhaseResult& r = results[0];
  const auto cache = server->world.store.cache_stats();
  const auto tcp = server->tcp->stats();
  rep.e2e["setup_s"] = median(setup_s);
  rep.e2e["throughput_per_s"] = r.serials_per_s;
  rep.e2e["latency_p50_us"] = r.closed.p50;
  rep.e2e["latency_p90_us"] = r.closed.p90;
  rep.add_named("setup_s", median(setup_s), "s");
  rep.add_named("status_serials_per_s", r.serials_per_s, "1/s");
  rep.add_named("saturated_rtt_us_p50", r.closed.p50, "us");
  rep.add_named("saturated_rtt_us_p90", r.closed.p90, "us");
  rep.add_named("saturated_rtt_us_p99", r.closed.p99, "us");
  rep.add_named("status_rtt_us_p50", r.open.p50, "us");
  rep.add_named("status_rtt_us_p90", r.open.p90, "us");
  rep.add_named("status_rtt_us_p99", r.open.p99, "us");

  std::string client_cpus;
  for (unsigned i = 0; i < kClients; ++i) {
    client_cpus += " client" + std::to_string(i) + "@cpus{";
    for (int cpu : clients[i]->cpus()) client_cpus += std::to_string(cpu) + ",";
    client_cpus += "}";
  }
  rep.lines.push_back("placement clients:" + client_cpus +
                      (pin ? " (pinned)" : " (not pinned: too few cores)"));
  rep.lines.push_back("placement reactor, acceptor, main and speed-monitor threads:" + reactor_placement);
  char buf[400];
  std::snprintf(buf, sizeof(buf),
                "raw (wall clock, not normalized): setup_s %.4f "
                "status_serials_per_s %.1f saturated_rtt_us p50 %.2f p90 %.2f "
                "p99 %.2f status_rtt_us p50 %.2f p90 %.2f p99 %.2f",
                median(setup_raw_s), r.raw_serials_per_s, r.raw_closed.p50,
                r.raw_closed.p90, r.raw_closed.p99, r.raw_open.p50,
                r.raw_open.p90, r.raw_open.p99);
  rep.lines.emplace_back(buf);
  std::snprintf(buf, sizeof(buf),
                "open loop: %.0f requests/s offered, generator lag p99 %.1f us; "
                "server cpu %.3f us/request over %llu closed-loop requests",
                kOpenLoopRate, r.lag_p99_us, r.server_cpu_us_per_request,
                static_cast<unsigned long long>(r.server_requests));
  rep.lines.emplace_back(buf);

  report_cache(rep, {}, cache);
  rep.layer["svc.server.cpu_us_per_request"] = r.server_cpu_us_per_request;
  rep.layer["svc.server.requests"] = static_cast<double>(tcp.requests);
  rep.layer["svc.server.bytes_out_per_serial"] =
      received == 0 ? 0.0
                    : static_cast<double>(tcp.bytes_out) / static_cast<double>(received);
  rep.layer["svc.server.backpressure_pauses"] =
      static_cast<double>(tcp.backpressure_pauses);
  rep.layer["svc.openloop.lag_us_p99"] = r.lag_p99_us;

  if (opts.trace) {
    const PhaseResult& t = results[1];
    auto mean_us = [&](const char* name) {
      return log.aggregate(name).mean_ns() / 1e3;
    };
    const double rtt = mean_us("svc.tcp.round_trip");
    const double stages = mean_us("svc.client.encode") +
                          mean_us("svc.serve_bytes") + mean_us("svc.client.decode");
    rep.layer["svc.tcp.rtt_us"] = rtt;
    rep.layer["svc.client.encode_us"] = mean_us("svc.client.encode");
    rep.layer["svc.serve_bytes_us"] = mean_us("svc.serve_bytes");
    rep.layer["ra.service.handle_us"] = mean_us("ra.service.handle");
    rep.layer["svc.client.decode_us"] = mean_us("svc.client.decode");
    rep.layer["svc.tcp.unaccounted_ratio"] = rtt == 0.0 ? 0.0 : 1.0 - stages / rtt;
    rep.layer["trace.spans"] = static_cast<double>(log.spans());
    rep.layer["trace.overhead_ratio"] =
        r.serials_per_s == 0.0 ? 0.0
                               : (r.serials_per_s - t.serials_per_s) / r.serials_per_s;
    std::snprintf(buf, sizeof(buf),
                  "coverage TcpClient round trip %.2f us vs stages %.2f us "
                  "(encode + serve_bytes + decode); the rest is the socket, "
                  "reactor and scheduling path",
                  rtt, stages);
    rep.lines.emplace_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "overhead traced-untraced: status_serials_per_s %+.1f, "
                  "saturated_rtt_us_p50 %+.3f, saturated_rtt_us_p90 %+.3f, "
                  "status_rtt_us_p50 %+.3f, status_rtt_us_p99 %+.3f",
                  t.serials_per_s - r.serials_per_s, t.closed.p50 - r.closed.p50,
                  t.closed.p90 - r.closed.p90, t.open.p50 - r.open.p50,
                  t.open.p99 - r.open.p99);
    rep.lines.emplace_back(buf);
    write_spans(opts, log);
  }
  clients.clear();
  server.reset();
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
