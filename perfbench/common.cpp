#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match "end_to_end" in BENCHMARK.json. Each workload maps its own
// headline numbers onto these (see perfbench/NOTES.md).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},
};

// Must match "per_layer" in BENCHMARK.json.
constexpr MetricDef kPerLayer[] = {
    // handshake: middlebox
    {"ra.agent.hello_ns", "ns"},
    {"ra.agent.flight_ns", "ns"},
    {"ra.agent.passthrough_ns", "ns"},
    {"ra.dpi.inspect_ns", "ns"},
    {"ra.store.status_bytes_for_ns", "ns"},
    {"ra.store.status_bytes_for_hit_ns", "ns"},
    {"ra.store.status_bytes_for_miss_ns", "ns"},
    {"ra.dpi.attach_status_bytes_ns", "ns"},
    {"ra.agent.unaccounted_ratio", "ratio"},
    // handshake: client
    {"client.flight_us", "us"},
    {"client.validations_per_s", "1/s"},
    {"ra.dpi.strip_status_ns", "ns"},
    {"client.inspect_ns", "ns"},
    {"crypto.ed25519.verify_us", "us"},
    {"crypto.ed25519.verifies", "count"},
    {"dict.verify_proof_us", "us"},
    {"crypto.hash_chain.walk_us", "us"},
    {"client.unaccounted_ratio", "ratio"},
    // status cache (every workload)
    {"ra.store.cache_lookups", "count"},
    {"ra.store.cache_hit_ratio", "ratio"},
    {"ra.store.cache_evictions_per_kreq", "1/kreq"},
    {"ra.store.cache_invalidations", "count"},
    // serve
    {"svc.tcp.rtt_us", "us"},
    {"svc.client.encode_us", "us"},
    {"svc.serve_bytes_us", "us"},
    {"ra.service.handle_us", "us"},
    {"svc.client.decode_us", "us"},
    {"svc.tcp.unaccounted_ratio", "ratio"},
    {"svc.server.cpu_us_per_request", "us"},
    {"svc.server.requests", "count"},
    {"svc.server.bytes_out_per_serial", "B"},
    {"svc.server.backpressure_pauses", "count"},
    {"svc.openloop.lag_us_p99", "us"},
    // revocation_day
    {"ca.revoke_ms", "ms"},
    {"ca.publish_ms", "ms"},
    {"ra.updater.pull_ms", "ms"},
    {"ra.updater.pull_ms_p50", "ms"},
    {"ra.updater.mass_pull_ms", "ms"},
    {"ra.updater.feed_bytes", "B"},
    {"ra.updater.rejected", "count"},
    {"svc.lock.writer_wait_ms", "ms"},
    {"ra.gossip.round_ms", "ms"},
    {"ra.gossip.bytes", "B"},
    {"persist.checkpoint.stall_us", "us"},
    {"persist.checkpoint.bytes", "B"},
    {"persist.checkpoints", "count"},
    {"persist.recover_ms", "ms"},
    {"persist.restart_s", "s"},
    {"scenario.barrier_wait_ms", "ms"},
    {"scenario.flow_batch_us", "us"},
    // the tracer itself
    {"trace.spans", "count"},
    {"trace.overhead_ratio", "ratio"},
};

void print_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::printf("%.17g", v);
}

}  // namespace

std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t process_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mb() noexcept {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool pin_current_thread(unsigned core) noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

namespace {

/// The kernel: eight independent lanes of 64x64->128 multiply-accumulate,
/// throughput-bound like field arithmetic, so it slows down whenever
/// another thread shares the core's execution ports. Returns its cost in
/// thread CPU nanoseconds.
double probe_kernel_ns() {
  static std::atomic<std::uint64_t> sink{0};
  std::uint64_t lane[8];
  for (int j = 0; j < 8; ++j) {
    lane[j] = 0x243f6a8885a308d3ull * static_cast<std::uint64_t>(j + 1) ^
              sink.load(std::memory_order_relaxed);
  }
  const std::uint64_t start = thread_cpu_ns();
  for (int i = 0; i < (1 << 15); ++i) {
    for (int j = 0; j < 8; ++j) {
      const unsigned __int128 m =
          static_cast<unsigned __int128>(lane[j]) * 0xbf58476d1ce4e5b9ull;
      lane[j] = static_cast<std::uint64_t>(m) +
                static_cast<std::uint64_t>(m >> 64) + static_cast<std::uint64_t>(i);
    }
  }
  const std::uint64_t end = thread_cpu_ns();
  std::uint64_t h = 0;
  for (auto v : lane) h ^= v;
  sink.store(h, std::memory_order_relaxed);
  return static_cast<double>(end - start);
}

}  // namespace

SpeedMonitor::SpeedMonitor(std::vector<unsigned> cores)
    : thread_([this, cores] { loop(cores); }) {}

SpeedMonitor::~SpeedMonitor() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void SpeedMonitor::loop(std::vector<unsigned> cores) {
  for (std::size_t k = 0;; ++k) {
    pin_current_thread(cores[k % cores.size()]);
    const double ns = probe_kernel_ns();
    std::unique_lock lock(mu_);
    samples_.push_back({now_ns(), ns});
    if (cv_.wait_for(lock, std::chrono::milliseconds(kPeriodMs),
                     [this] { return stop_; })) {
      return;
    }
  }
}

double SpeedMonitor::slowness(std::uint64_t from_ns,
                              std::uint64_t to_ns) const {
  std::vector<double> v;
  {
    std::lock_guard lock(mu_);
    for (const auto& s : samples_) {
      if (s.at_ns >= from_ns && s.at_ns <= to_ns) v.push_back(s.kernel_ns);
    }
  }
  return v.empty() ? 1.0
                   : std::pow(median(std::move(v)) / kNominalNs, kSensitivity);
}

double SpeedMonitor::slowness_near(std::uint64_t t) const {
  const std::uint64_t bucket = t / kLocalNs;
  {
    std::lock_guard lock(mu_);
    const auto it = near_cache_.find(bucket);
    if (it != near_cache_.end()) return it->second;
  }
  const std::uint64_t mid = bucket * kLocalNs + kLocalNs / 2;
  const double s = slowness(mid - kLocalNs, mid + kLocalNs);
  std::lock_guard lock(mu_);
  near_cache_[bucket] = s;
  return s;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ------------------------------------------------------------------ spans

std::uint32_t SpanLog::intern(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name || std::strcmp(names_[i], name) == 0) {
      return static_cast<std::uint32_t>(i);
    }
  }
  names_.push_back(name);
  aggregates_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t SpanLog::record(const char* name, std::uint64_t request,
                              std::uint32_t parent, std::uint64_t start_ns,
                              std::uint64_t end_ns) {
  const std::uint32_t id = intern(name);
  auto& agg = aggregates_[id];
  ++agg.count;
  agg.total_ns += static_cast<double>(end_ns - start_ns);
  ++recorded_;
  if (stored_.size() >= kMaxStored) return 0;
  stored_.push_back({id, parent, request, start_ns, end_ns});
  return static_cast<std::uint32_t>(stored_.size());
}

SpanLog::Open SpanLog::open(const char* name, std::uint64_t request,
                            std::uint32_t parent, std::uint64_t start_ns) {
  Open o{0, name, request, start_ns};
  const std::uint32_t id = intern(name);
  if (stored_.size() < kMaxStored) {
    stored_.push_back({id, parent, request, start_ns, start_ns});
    o.id = static_cast<std::uint32_t>(stored_.size());
  }
  return o;
}

void SpanLog::close(const Open& span, std::uint64_t end_ns) {
  auto& agg = aggregates_[intern(span.name)];
  ++agg.count;
  agg.total_ns += static_cast<double>(end_ns - span.start_ns);
  ++recorded_;
  if (span.id != 0) stored_[span.id - 1].end_ns = end_ns;
}

SpanLog::Aggregate SpanLog::aggregate(const std::string& name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (name == names_[i]) return aggregates_[i];
  }
  return {};
}

void SpanLog::merge(const SpanLog& other) {
  const auto base = static_cast<std::uint32_t>(stored_.size());
  for (std::size_t i = 0; i < other.names_.size(); ++i) {
    const std::uint32_t id = intern(other.names_[i]);
    aggregates_[id].count += other.aggregates_[i].count;
    aggregates_[id].total_ns += other.aggregates_[i].total_ns;
  }
  recorded_ += other.recorded_;
  for (const Span& s : other.stored_) {
    if (stored_.size() >= kMaxStored) break;
    Span copy = s;
    copy.name = intern(other.names_[s.name]);
    if (copy.parent != 0) copy.parent += base;
    stored_.push_back(copy);
  }
}

void SpanLog::write_csv(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << "id,parent,request,name,start_ns,end_ns\n";
  for (std::size_t i = 0; i < stored_.size(); ++i) {
    const Span& s = stored_[i];
    out << (i + 1) << ',' << s.parent << ',' << s.request << ','
        << names_[s.name] << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
}

// ------------------------------------------------------------------ output

void report_cache(Report& rep, const ra::DictionaryStore::CacheStats& before,
                  const ra::DictionaryStore::CacheStats& after) {
  const auto hits = static_cast<double>(after.hits - before.hits);
  const auto lookups = hits + static_cast<double>(after.misses - before.misses);
  rep.layer["ra.store.cache_lookups"] = lookups;
  rep.layer["ra.store.cache_hit_ratio"] = lookups == 0 ? 0.0 : hits / lookups;
  rep.layer["ra.store.cache_evictions_per_kreq"] =
      lookups == 0 ? 0.0
                   : 1000.0 * static_cast<double>(after.evictions - before.evictions) /
                         lookups;
  rep.layer["ra.store.cache_invalidations"] =
      static_cast<double>(after.invalidations - before.invalidations);
}

int emit(const Options& opts, const Report& r) {
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.seconds, opts.trace ? 1 : 0);
  for (const auto& line : r.lines) std::printf("%s\n", line.c_str());
  for (const auto& n : r.named) {
    std::printf("metric %-36s %16.4f %s\n", n.name.c_str(), n.value,
                n.unit.c_str());
  }
  for (const auto& v : r.violations) std::printf("VIOLATION %s\n", v.c_str());
  std::printf("failed_ratio %.6g (%llu of %llu)\n",
              r.attempted == 0 ? 0.0
                               : static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  auto put = [&](const MetricDef& d, double v) {
    std::printf("%s\"%s\": {\"value\": ", first ? "" : ", ", d.name);
    print_number(v);
    std::printf(", \"unit\": \"%s\"}", d.unit);
    first = false;
  };
  if (opts.trace) {
    for (const auto& d : kPerLayer) {
      const auto it = r.layer.find(d.name);
      put(d, it == r.layer.end() ? 0.0 : it->second);
    }
  } else {
    for (const auto& d : kEndToEnd) {
      const auto it = r.e2e.find(d.name);
      if (it == r.e2e.end()) {
        throw std::logic_error(std::string("missing end-to-end metric ") +
                               d.name);
      }
      put(d, it->second);
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}

std::string make_scratch_dir(const Options& opts, const std::string& tag) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(".bench_run") /
                       (opts.workload + "-" + std::to_string(::getpid()) +
                        "-" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void write_spans(const Options& opts, const SpanLog& log) {
  namespace fs = std::filesystem;
  fs::create_directories(".bench_run");
  log.write_csv((fs::path(".bench_run") /
                 ("spans-" + opts.workload + "-seed" +
                  std::to_string(opts.seed) + ".csv"))
                    .string());
}

// ------------------------------------------------------------------ world

std::size_t serial_width_for(std::uint64_t serial_space) {
  std::size_t w = 3;
  while (w < 8 && serial_space >= (std::uint64_t{1} << (8 * w))) ++w;
  return w;
}

cert::CaId ca_name(int c) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "CA-%03d", c);
  return buf;
}

std::uint64_t corpus_for_largest(scenario::ScenarioSpec spec,
                                 std::uint64_t largest) {
  spec.flows = 1;
  spec.flash_crowds.clear();
  spec.mass_revocation.reset();
  auto biggest = [&](std::uint64_t corpus) {
    spec.initial_revocations = corpus;
    const auto plan = scenario::WorkloadPlan::compile(spec);
    std::uint64_t m = 0;
    for (int c = 0; c < spec.cas; ++c) m = std::max(m, plan.initial_count(c));
    return m;
  };
  // The largest share is below 1, so the biggest dictionary grows by at
  // most one entry per corpus entry: walk to the exact size.
  std::uint64_t corpus = largest;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t m = biggest(corpus);
    if (m == largest) return corpus;
    const double scale =
        static_cast<double>(largest) / static_cast<double>(std::max<std::uint64_t>(m, 1));
    const auto next = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(corpus) * scale));
    corpus = next == corpus ? (m < largest ? corpus + 1 : corpus - 1) : next;
  }
  throw std::runtime_error("corpus_for_largest: no corpus fits");
}

World::World(const scenario::WorkloadPlan& plan, UnixSeconds boot,
             std::size_t chain_length)
    : width(serial_width_for(plan.spec().serial_space)),
      cdn(cdn::make_global_cdn(0)),
      dp(&cdn, plan.spec().delta),
      cdn_rpc(&cdn, plan.spec().seed ^ 0x5eed),
      sync_rpc(&sync_service) {
  const auto& spec = plan.spec();
  Rng ca_rng(spec.seed ^ 0xCA15EEDull);
  for (int c = 0; c < spec.cas; ++c) {
    ca::CertificationAuthority::Config cfg;
    cfg.id = ca_name(c);
    cfg.delta = spec.delta;
    cfg.chain_length = chain_length;
    cfg.serial_width = width;
    cas.push_back(std::make_unique<ca::CertificationAuthority>(
        cfg, ca_rng, UnixSeconds{0}));
    ids.push_back(cas.back()->id());
    trust.add(ids.back(), cas.back()->public_key());
    dp.register_ca(ids.back(), cas.back()->public_key());
    store.register_ca(ids.back(), cas.back()->public_key(), spec.delta);
    sync_service.add(cas.back().get());
  }
  sync_service.set_period_source(&dp);
  updater = std::make_unique<ra::RaUpdater>(ra::RaUpdater::Config{}, &store,
                                            &cdn_rpc.rpc, &sync_rpc);

  for (int c = 0; c < spec.cas; ++c) {
    const std::uint64_t n = plan.initial_count(c);
    std::vector<cert::SerialNumber> serials;
    serials.reserve(n);
    for (std::uint64_t k = 0; k < n; ++k) {
      serials.push_back(cert::SerialNumber::from_uint(2 * k + 1, width));
    }
    cas[static_cast<std::size_t>(c)]->revoke(std::move(serials),
                                             UnixSeconds{0});
  }
  dp.publish(0);
  for (std::size_t c = 0; c < cas.size(); ++c) {
    if (dp.publish_cold_start(cas[c]->cold_start_object(0, boot),
                              from_seconds(boot)) != svc::Status::ok) {
      throw std::runtime_error("cold-start publish refused for " + ids[c]);
    }
  }
  for (const auto& id : ids) {
    if (updater->bootstrap(id, from_seconds(boot)) != svc::Status::ok) {
      throw std::runtime_error("bootstrap refused for " + id);
    }
  }
}

}  // namespace perfbench
