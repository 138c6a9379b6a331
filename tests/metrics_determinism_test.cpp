// Enforces the obs determinism contract (obs/metrics.hpp): measurement
// results are bit-identical with metrics enabled or disabled, for any
// thread count. The catchment CSV is the full serialized result — block
// -> site mapping, RTTs, cleaning stats — so comparing the CSV text
// byte-for-byte across {metrics on, metrics off} x threads {1, 4, 8}
// proves the observability layer never leaks into measurement.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "analysis/scenario.hpp"
#include "core/dataset_io.hpp"
#include "core/probe_engine.hpp"
#include "obs/metrics.hpp"
#include "sim/fault_injector.hpp"

namespace vp::core {
namespace {

class MetricsDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    analysis::ScenarioConfig config;
    config.seed = 99;
    config.scale = 0.05;
    scenario_ = new analysis::Scenario(config);
    routes_ = scenario_->route(scenario_->broot());
  }
  static void TearDownTestSuite() {
    routes_.reset();
    delete scenario_;
  }
  void TearDown() override { obs::metrics().set_enabled(true); }

  static std::string run_csv(unsigned threads, bool metrics_on,
                             const sim::FaultInjector* faults = nullptr) {
    obs::metrics().set_enabled(metrics_on);
    RoundSpec spec;
    spec.probe.measurement_id = 6100;
    spec.round = 2;
    spec.threads = threads;
    spec.faults = faults;
    const RoundResult result = scenario_->engine().run(*routes_, spec);
    std::ostringstream csv;
    write_catchment_csv(csv, result, scenario_->broot());
    return csv.str();
  }

  static analysis::Scenario* scenario_;
  static std::shared_ptr<const bgp::RoutingTable> routes_;
};

analysis::Scenario* MetricsDeterminismTest::scenario_ = nullptr;
std::shared_ptr<const bgp::RoutingTable> MetricsDeterminismTest::routes_;

TEST_F(MetricsDeterminismTest, CsvIdenticalWithMetricsOnOrOff) {
  const std::string baseline = run_csv(1, /*metrics_on=*/true);
  ASSERT_FALSE(baseline.empty());
  for (const unsigned threads : {1u, 4u, 8u}) {
    EXPECT_EQ(run_csv(threads, true), baseline)
        << "metrics on, threads=" << threads;
    EXPECT_EQ(run_csv(threads, false), baseline)
        << "metrics off, threads=" << threads;
  }
}

TEST_F(MetricsDeterminismTest, CsvIdenticalUnderFaults) {
  // Fault injection exercises the retry path and the per-kind fault
  // counters; the contract must hold there too.
  const sim::FaultInjector injector{sim::FaultPlan::from_seed(11)};
  const std::string baseline = run_csv(1, true, &injector);
  ASSERT_FALSE(baseline.empty());
  for (const unsigned threads : {1u, 4u, 8u}) {
    EXPECT_EQ(run_csv(threads, true, &injector), baseline)
        << "metrics on, threads=" << threads;
    EXPECT_EQ(run_csv(threads, false, &injector), baseline)
        << "metrics off, threads=" << threads;
  }
}

TEST_F(MetricsDeterminismTest, MetricsActuallyCollectWhenEnabled) {
  // Guards against the trivial "determinism because nothing is wired"
  // failure mode: a run with metrics on must move the engine counters.
  const std::uint64_t before =
      obs::metrics().counter("vp_engine_probes_sent_total").value();
  (void)run_csv(2, true);
  const std::uint64_t after =
      obs::metrics().counter("vp_engine_probes_sent_total").value();
  EXPECT_GT(after, before);
}

TEST_F(MetricsDeterminismTest, DisabledMeansNoCollection) {
  const std::uint64_t before =
      obs::metrics().counter("vp_engine_probes_sent_total").value();
  (void)run_csv(2, false);
  const std::uint64_t after =
      obs::metrics().counter("vp_engine_probes_sent_total").value();
  EXPECT_EQ(after, before);
}

}  // namespace
}  // namespace vp::core
