// Scenario-harness tests: plan determinism (same seed => byte-identical
// schedule and report, independent of driver count and transport), Zipf
// sampler sanity, flash-crowd and mass-revocation schedule shape, hostile
// spec rejection, and the envelope mux the engine serves through.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.hpp"
#include "ra/service.hpp"
#include "scenario/engine.hpp"
#include "scenario/metrics.hpp"
#include "scenario/spec.hpp"
#include "scenario/workload.hpp"
#include "scenario/zipf.hpp"
#include "svc/mux.hpp"

namespace ritm::scenario {
namespace {

/// A spec small enough for unit tests but still exercising every moving
/// part: multiple CAs, a flash crowd, a mass-revocation period, canaries.
ScenarioSpec tiny_spec() {
  ScenarioSpec s = ScenarioSpec::smoke();
  s.name = "tiny";
  s.flows = 6'000;
  s.drivers = 3;
  s.cas = 3;
  s.initial_revocations = 900;
  s.serial_space = 1u << 14;
  s.periods = 6;
  s.feed_revocations_per_period = 64;
  s.flash_crowds.clear();
  s.flash_crowds.push_back({.start_period = 3, .periods = 2, .multiplier = 3.0});
  s.mass_revocation = MassRevocation{.ca = 0, .period = 4, .count = 500};
  return s;
}

// ------------------------------------------------------------- Zipf

TEST(Zipf, ProbabilitiesAreNormalizedAndMonotonic) {
  const ZipfSampler z(1000, 1.1);
  double sum = 0;
  for (std::uint64_t r = 0; r < 1000; ++r) {
    sum += z.probability(r);
    if (r > 0) {
      EXPECT_LE(z.probability(r), z.probability(r - 1)) << r;
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // s = 1.1 concentrates mass at the head: rank 0 beats rank 999 by ~10^3.
  EXPECT_GT(z.probability(0), 100.0 * z.probability(999));
}

TEST(Zipf, SampledFrequenciesTrackProbabilities) {
  const ZipfSampler z(100, 1.0);
  Rng rng(7);
  std::map<std::uint64_t, std::uint64_t> counts;
  const int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) ++counts[z.sample(rng)];
  // Head rank lands within 5% of its analytic mass; the tail is rare.
  const double head = static_cast<double>(counts[0]) / kDraws;
  EXPECT_NEAR(head, z.probability(0), 0.05 * z.probability(0) + 0.003);
  EXPECT_GT(counts[0], counts[50]);
}

TEST(Zipf, UniformWhenExponentZero) {
  const ZipfSampler z(10, 0.0);
  for (std::uint64_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(z.probability(r), 0.1, 1e-12);
  }
}

TEST(Zipf, RejectsEmptyUniverse) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -1.0), std::invalid_argument);
}

// ------------------------------------------------------------- plan

TEST(WorkloadPlan, SameSeedSameSchedule) {
  const auto spec = tiny_spec();
  const auto a = WorkloadPlan::compile(spec);
  const auto b = WorkloadPlan::compile(spec);
  EXPECT_EQ(a.digest(), b.digest());
  auto reseeded = spec;
  reseeded.seed = 43;
  EXPECT_NE(WorkloadPlan::compile(reseeded).digest(), a.digest());
}

TEST(WorkloadPlan, ScheduleDigestIgnoresExecutionKnobs) {
  const auto spec = tiny_spec();
  const auto base = WorkloadPlan::compile(spec).digest();
  auto variant = spec;
  variant.drivers = 1;
  variant.batch = 1;
  variant.tcp = true;
  variant.lockstep = false;
  variant.name = "renamed";
  EXPECT_EQ(WorkloadPlan::compile(variant).digest(), base);
}

TEST(WorkloadPlan, FlashCrowdReweightsFlows) {
  const auto spec = tiny_spec();  // 3x crowd over periods 3-4 of 6
  const auto plan = WorkloadPlan::compile(spec);
  std::uint64_t total = 0;
  for (std::uint64_t p = 1; p <= spec.periods; ++p) total += plan.flows_in(p);
  EXPECT_EQ(total, spec.flows);
  // Crowd periods carry ~3x the flows of quiet ones (rounding aside).
  const double quiet = static_cast<double>(plan.flows_in(1));
  const double crowd = static_cast<double>(plan.flows_in(3));
  EXPECT_NEAR(crowd / quiet, 3.0, 0.1);
  EXPECT_NEAR(static_cast<double>(plan.flows_in(4)) / quiet, 3.0, 0.1);
  EXPECT_NEAR(static_cast<double>(plan.flows_in(6)) / quiet, 1.0, 0.1);
}

TEST(WorkloadPlan, MassRevocationLandsInItsPeriod) {
  const auto spec = tiny_spec();  // CA 0 revokes 500 extra in period 4
  const auto plan = WorkloadPlan::compile(spec);
  EXPECT_GE(plan.feed_count(4, 0), 500u);
  EXPECT_LT(plan.feed_count(3, 0), 500u);
  // The frontier jumps by exactly the feed count.
  EXPECT_EQ(plan.revoked_after(0, 4) - plan.revoked_after(0, 3),
            plan.feed_count(4, 0));
}

TEST(WorkloadPlan, HeartbleedPresetIsAMassRevocationDay) {
  const auto spec = ScenarioSpec::heartbleed();
  ASSERT_TRUE(spec.mass_revocation.has_value());
  EXPECT_GE(spec.mass_revocation->count, 100'000u);
  EXPECT_GE(spec.flows, 1'000'000u);
  const auto plan = WorkloadPlan::compile(spec);
  EXPECT_GE(plan.feed_count(spec.mass_revocation->period,
                            spec.mass_revocation->ca),
            spec.mass_revocation->count);
  EXPECT_EQ(plan.total_flows(), spec.flows);
}

TEST(WorkloadPlan, GroundTruthMatchesOddSerialModel) {
  const auto plan = WorkloadPlan::compile(tiny_spec());
  // Even serials are never revoked; the k-th revocation is serial 2k+1.
  EXPECT_FALSE(plan.revoked_at(0, 2, 6));
  EXPECT_TRUE(plan.revoked_at(0, 1, 1));  // first initial-corpus entry
  const auto frontier = plan.revoked_after(0, 3);
  EXPECT_TRUE(plan.revoked_at(0, 2 * (frontier - 1) + 1, 3));
  EXPECT_FALSE(plan.revoked_at(0, 2 * frontier + 1, 3));
}

TEST(WorkloadPlan, FlowWordsStayInRange) {
  const auto spec = tiny_spec();
  const auto plan = WorkloadPlan::compile(spec);
  for (std::uint64_t p = 1; p <= spec.periods; ++p) {
    const auto begin = plan.flow_begin(p);
    for (std::uint64_t g = begin; g < plan.flow_end(p); ++g) {
      const auto w = plan.flows()[g];
      EXPECT_GE(flow_value(w), 1u);
      EXPECT_LE(flow_value(w), spec.serial_space);
      EXPECT_LT(flow_ca(w), static_cast<std::uint64_t>(spec.cas));
      if (flow_is_canary(w)) {
        // Canaries probe the newest revocation visible in their period.
        EXPECT_EQ(flow_value(w),
                  plan.newest_revoked(static_cast<int>(flow_ca(w)), p));
      }
    }
  }
}

// ------------------------------------------------------------- spec

TEST(ScenarioSpec, HostileSpecsThrow) {
  auto base = tiny_spec();
  base.validate();  // sane baseline

  auto s = base;
  s.flows = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = base;
  s.drivers = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = base;
  s.cas = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = base;
  s.initial_revocations = 1;  // < cas: a CA would have no cold-start object
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = base;
  s.serial_space = 1u << 10;  // too small for the revocation volume
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = base;
  s.mass_revocation->period = s.periods + 1;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = base;
  s.mass_revocation->ca = s.cas;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = base;
  s.serial_space = kFlowValueMaxSerialSpace + 1;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

// ------------------------------------------------------------- metrics

TEST(LogHistogram, ExactBelowSixteenAndBoundedError) {
  LogHistogram h;
  for (std::uint64_t v = 0; v < 16; ++v) h.add(v);
  for (std::uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(h.percentile((static_cast<double>(v) + 1.0) / 16.0), v);
  }
  LogHistogram big;
  big.add(10'000);
  // One sample: every percentile returns its bucket floor, within ~7%.
  const auto p = big.percentile(0.5);
  EXPECT_LE(p, 10'000u);
  EXPECT_GT(static_cast<double>(p), 10'000.0 * 0.93);
}

TEST(DriverMetrics, FirstSeenKeepsTheMinimum) {
  DriverMetrics m;
  m.note_first_seen(tracked_key(1, 7), 500);
  m.note_first_seen(tracked_key(1, 7), 300);
  m.note_first_seen(tracked_key(1, 7), 900);
  DriverMetrics other;
  other.note_first_seen(tracked_key(1, 7), 200);
  other.note_first_seen(tracked_key(2, 9), 50);
  std::vector<DriverMetrics> all(2);
  all[0].first_seen = m.first_seen;
  all[1].first_seen = other.first_seen;
  const auto merged = merge_metrics(all);
  EXPECT_EQ(merged.first_seen.at(tracked_key(1, 7)), 200);
  EXPECT_EQ(merged.first_seen.at(tracked_key(2, 9)), 50);
}

// ------------------------------------------------------------- mux

TEST(Mux, RoutesPerMethodAndRejectsUnrouted) {
  // A mux with no routes answers like a server that implements nothing.
  svc::MuxService mux;
  svc::Request req;
  req.version = svc::kProtocolVersion;
  req.method = svc::Method::status_query;
  req.request_id = 1;
  const auto r = mux.handle(req);
  EXPECT_EQ(r.response.status, svc::Status::unknown_method);
}

// ------------------------------------------------------------- engine

TEST(Engine, LockstepRunIsDeterministicAcrossDriverCounts) {
  auto spec = tiny_spec();
  ScenarioEngine one_driver([&] {
    auto s = spec;
    s.drivers = 1;
    s.batch = 1;
    return s;
  }());
  ScenarioEngine three_drivers(spec);
  const auto a = one_driver.run();
  const auto b = three_drivers.run();
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.flows, spec.flows);
  EXPECT_EQ(a.wrong_verdict, 0u);
  EXPECT_EQ(b.wrong_verdict, 0u);
  EXPECT_EQ(a.rpc_errors, 0u);
  EXPECT_EQ(a.decode_errors, 0u);
  EXPECT_GT(a.revoked, 0u);
  EXPECT_GT(a.valid, 0u);
}

TEST(Engine, AttackWindowStaysInsideTwoDelta) {
  ScenarioEngine engine(tiny_spec());
  const auto report = engine.run();
  // Canary probes must have sampled the mass-revocation period too.
  EXPECT_GT(report.attack_window_ms.size(), 0u);
  // §V: a revocation reaches clients within 2∆ of its request (the CA
  // requests mid-period, publication lands at the next boundary).
  const double bound_s = 2.0 * static_cast<double>(tiny_spec().delta);
  EXPECT_LE(report.attack_window_p99_s, bound_s);
  EXPECT_GT(report.attack_window_p50_s, 0.0);
  // Staleness of served roots stays under one ∆ in lockstep.
  EXPECT_LE(report.staleness_p99_ms,
            static_cast<std::uint64_t>(bound_s * 1000.0));
}

TEST(Engine, TcpTransportServesIdenticalVerdicts) {
  auto spec = tiny_spec();
  spec.flows = 2'000;
  spec.mass_revocation->count = 200;
  ScenarioEngine inproc(spec);
  const auto base = inproc.run();

  auto tcp_spec = spec;
  tcp_spec.tcp = true;
  tcp_spec.drivers = 2;
  tcp_spec.reactors = 2;
  ScenarioEngine tcp(tcp_spec);
  const auto over_tcp = tcp.run();
  // Same schedule, same verdicts, byte-identical report digest — the
  // transport is invisible to the replay-invariant fields.
  EXPECT_EQ(over_tcp.digest(), base.digest());
  EXPECT_EQ(over_tcp.wrong_verdict, 0u);
  EXPECT_GT(over_tcp.bytes_sent, 0u);
  EXPECT_GT(over_tcp.bytes_received, 0u);
}

}  // namespace
}  // namespace ritm::scenario
