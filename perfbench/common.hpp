// Shared pieces of the RITM benchmark (ritm_perfbench): options, the metric registry
// (every run prints every metric of its kind, see BENCHMARK.json), the
// in-memory span log of traced runs, timing helpers, the host-speed monitor
// behind the reference-speed normalization, and the world every workload
// starts from (CAs → distribution point → CDN → RA cold start).
//
// Spans are recorded only from this benchmark, around calls into the library's
// public API; nothing inside src/ is instrumented.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ca/authority.hpp"
#include "ca/distribution.hpp"
#include "ca/sync_service.hpp"
#include "cdn/cdn.hpp"
#include "cdn/service.hpp"
#include "ra/store.hpp"
#include "ra/updater.hpp"
#include "scenario/workload.hpp"
#include "svc/transport.hpp"

namespace perfbench {

using namespace ritm;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// CPU time of the calling thread, in nanoseconds.
std::uint64_t thread_cpu_ns() noexcept;
/// CPU time of the whole process, in nanoseconds.
std::uint64_t process_cpu_ns() noexcept;
/// Peak resident set of the process (getrusage maxrss), in MiB.
double peak_rss_mb() noexcept;
/// Pins the calling thread to `core`; false when the kernel refuses.
bool pin_current_thread(unsigned core) noexcept;

/// Measures how fast the host runs on given cores, so gated metrics can be
/// reported at a fixed reference speed. The host shares physical cores
/// with other tenants, whose load slows throughput-bound code such as
/// Ed25519 by up to 2x for seconds to minutes (see NOTES.md).
///
/// A background thread visits the cores in turn, every kPeriodMs, runs a
/// fixed throughput-bound integer kernel there and times it with its own
/// thread CPU clock, so time spent waiting for the core is not counted but
/// a slower core is. slowness() is (median kernel cost over a time range ÷
/// kNominalNs) ^ kSensitivity: kNominalNs is the kernel's cost on an
/// uncontended core of the calibration machine, and kSensitivity how much
/// of the kernel's slowdown the workloads share (their time grew as the
/// kernel's to the power 0.6-0.9 over 17 runs; NOTES.md). >1 means the host
/// ran slower.
class SpeedMonitor {
 public:
  static constexpr int kPeriodMs = 20;
  static constexpr double kNominalNs = 250'000.0;
  static constexpr double kSensitivity = 0.7;

  explicit SpeedMonitor(std::vector<unsigned> cores);
  ~SpeedMonitor();
  SpeedMonitor(const SpeedMonitor&) = delete;
  SpeedMonitor& operator=(const SpeedMonitor&) = delete;

  /// Median slowness over [from_ns, to_ns]; 1.0 when no sample fell in
  /// the range.
  double slowness(std::uint64_t from_ns, std::uint64_t to_ns) const;

  /// Slowness around time t: the median over [t - kLocalNs, t + kLocalNs],
  /// cached per kLocalNs bucket. For scaling single latency samples.
  static constexpr std::uint64_t kLocalNs = 100'000'000;
  double slowness_near(std::uint64_t t) const;

 private:
  struct Sample {
    std::uint64_t at_ns = 0;
    double kernel_ns = 0.0;
  };
  void loop(std::vector<unsigned> cores);

  mutable std::mutex mu_;
  mutable std::map<std::uint64_t, double> near_cache_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::thread thread_;
};

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty vector.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}
double mean(const std::vector<double>& v);

/// Spans of a traced run: name, request id, parent span, start and end.
/// Spans are kept in memory (up to kMaxStored; aggregates count every
/// span) and written out once, when the run ends. One log per thread.
class SpanLog {
 public:
  static constexpr std::size_t kMaxStored = 1u << 20;

  /// Records a span; returns its id (> 0), which children pass as
  /// `parent`. Names must be string literals (they are kept by pointer).
  std::uint32_t record(const char* name, std::uint64_t request,
                       std::uint32_t parent, std::uint64_t start_ns,
                       std::uint64_t end_ns);

  /// A span opened before its children are recorded, so they can name it
  /// as their parent; close() finishes it.
  struct Open {
    std::uint32_t id = 0;
    const char* name = nullptr;
    std::uint64_t request = 0;
    std::uint64_t start_ns = 0;
  };
  Open open(const char* name, std::uint64_t request, std::uint32_t parent,
            std::uint64_t start_ns);
  void close(const Open& span, std::uint64_t end_ns);

  struct Aggregate {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double mean_ns() const noexcept {
      return count == 0 ? 0.0 : total_ns / static_cast<double>(count);
    }
  };
  /// Aggregate of every span recorded under `name` (zero when none).
  Aggregate aggregate(const std::string& name) const;
  std::uint64_t spans() const noexcept { return recorded_; }

  /// Appends `other`'s spans and aggregates (ids are renumbered).
  void merge(const SpanLog& other);
  /// Writes every stored span as CSV: id,parent,request,name,start_ns,end_ns.
  void write_csv(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;
    std::uint64_t request = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };
  std::uint32_t intern(const char* name);

  std::vector<const char*> names_;
  std::vector<Aggregate> aggregates_;
  std::vector<Span> stored_;
  std::uint64_t recorded_ = 0;
};

/// What one run reports. `e2e` must hold every end-to-end metric; a
/// per-layer metric a workload does not exercise reads 0 (the layer did
/// no work). `named` lists the workload's metrics under their own names
/// for the human-readable block.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  // failed invariant checks
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  struct Named {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Named> named;
  std::vector<std::string> lines;  // extra human-readable output

  void fail(std::string why) { violations.push_back(std::move(why)); }
  void add_named(std::string name, double value, std::string unit) {
    named.push_back({std::move(name), value, std::move(unit)});
  }
  bool correct() const noexcept { return failed == 0 && violations.empty(); }
};

/// Fills the ra.store.cache_* per-layer metrics from the status-cache
/// counters taken before and after the measured interval.
void report_cache(Report& rep, const ra::DictionaryStore::CacheStats& before,
                  const ra::DictionaryStore::CacheStats& after);

/// Prints the human-readable block and, as the last line, the result JSON.
/// Returns the process exit code (0 only for a correct run).
int emit(const Options& opts, const Report& report);

/// Fresh per-run scratch directory under .bench_run/ in the working
/// directory (the benchmark reads and writes only inside its checkout).
std::string make_scratch_dir(const Options& opts, const std::string& tag);

/// Writes the merged span log of a traced run to .bench_run/.
void write_spans(const Options& opts, const SpanLog& log);

/// Serial width the scenario engine uses for a serial universe.
std::size_t serial_width_for(std::uint64_t serial_space);

/// Initial-corpus size whose largest per-CA dictionary (trace shares, as
/// WorkloadPlan::compile splits it) holds exactly `largest` entries.
std::uint64_t corpus_for_largest(scenario::ScenarioSpec spec,
                                 std::uint64_t largest);

/// The world every workload starts from: the plan's CAs with their initial
/// corpus (CA c revokes serials 2k+1, k < plan.initial_count(c)), a
/// distribution point publishing into a CDN, and an RA whose store is
/// cold-started from the CDN at `boot`. Dictionaries are built at time 0.
class World {
 public:
  World(const scenario::WorkloadPlan& plan, UnixSeconds boot,
        std::size_t chain_length);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  std::size_t width = 3;
  std::vector<std::unique_ptr<ca::CertificationAuthority>> cas;
  std::vector<cert::CaId> ids;
  cert::TrustStore trust;
  cdn::Cdn cdn;
  ca::DistributionPoint dp;
  cdn::LocalCdn cdn_rpc;
  ca::SyncService sync_service;
  svc::InProcessTransport sync_rpc;
  ra::DictionaryStore store;
  std::unique_ptr<ra::RaUpdater> updater;
};

/// Names each CA the way the scenario engine does ("CA-000", ...).
cert::CaId ca_name(int c);

}  // namespace perfbench
