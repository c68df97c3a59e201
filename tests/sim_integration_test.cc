// Cross-scheme integration tests: the registry, the sweep runner, and the
// paper's qualitative rankings at moderate scale.
#include <gtest/gtest.h>

#include "common/check.h"
#include "sim/replication_system.h"
#include "sim/runner.h"
#include "sim/schemes.h"

namespace aec::sim {
namespace {

TEST(Schemes, PaperRegistryOrderAndOverheads) {
  const auto schemes = paper_schemes();
  ASSERT_EQ(schemes.size(), 7u);
  // Table IV: AS row.
  EXPECT_EQ(schemes[0]->name(), "RS(10,4)");
  EXPECT_DOUBLE_EQ(schemes[0]->storage_overhead_percent(), 40.0);
  EXPECT_EQ(schemes[1]->name(), "RS(8,2)");
  EXPECT_DOUBLE_EQ(schemes[1]->storage_overhead_percent(), 25.0);
  EXPECT_EQ(schemes[2]->name(), "RS(5,5)");
  EXPECT_DOUBLE_EQ(schemes[2]->storage_overhead_percent(), 100.0);
  EXPECT_EQ(schemes[3]->name(), "RS(4,12)");
  EXPECT_DOUBLE_EQ(schemes[3]->storage_overhead_percent(), 300.0);
  EXPECT_EQ(schemes[4]->name(), "AE(1,-,-)");
  EXPECT_DOUBLE_EQ(schemes[4]->storage_overhead_percent(), 100.0);
  EXPECT_EQ(schemes[5]->name(), "AE(2,2,5)");
  EXPECT_DOUBLE_EQ(schemes[5]->storage_overhead_percent(), 200.0);
  EXPECT_EQ(schemes[6]->name(), "AE(3,2,5)");
  EXPECT_DOUBLE_EQ(schemes[6]->storage_overhead_percent(), 300.0);
  // Table IV: SF row.
  EXPECT_EQ(schemes[0]->single_failure_fanin(), 10u);
  EXPECT_EQ(schemes[3]->single_failure_fanin(), 4u);
  EXPECT_EQ(schemes[6]->single_failure_fanin(), 2u);
}

TEST(Schemes, FactoryParsesNames) {
  EXPECT_EQ(make_scheme("RS(10,4)")->name(), "RS(10,4)");
  EXPECT_EQ(make_scheme("AE(3,2,5)")->name(), "AE(3,2,5)");
  EXPECT_EQ(make_scheme("AE(1,-,-)")->name(), "AE(1,-,-)");
  EXPECT_EQ(make_scheme("REP(3)")->name(), "3-way replication");
  EXPECT_EQ(make_scheme("REP(2)")->name(), "2-way replication");
  EXPECT_THROW(make_scheme("LDPC(3)"), CheckError);
  // REP(n) is the one spelling of a replication scheme.
  EXPECT_THROW(make_scheme("3-way replication"), CheckError);
  EXPECT_THROW(make_scheme("replication(2)"), CheckError);
}

TEST(Runner, SweepProducesOneResultPerFraction) {
  const auto scheme = make_scheme("RS(8,2)");
  SweepConfig config;
  config.n_data = 20000;
  config.fractions = {0.1, 0.3, 0.5};
  const auto results = run_sweep(*scheme, config);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_DOUBLE_EQ(results[0].failed_fraction, 0.1);
  EXPECT_DOUBLE_EQ(results[2].failed_fraction, 0.5);
  // Loss grows with disaster size.
  EXPECT_LE(results[0].data_lost, results[1].data_lost);
  EXPECT_LE(results[1].data_lost, results[2].data_lost);
}

TEST(Runner, BlocksFromEnvFallsBack) {
  unsetenv("AEC_BLOCKS");
  EXPECT_EQ(blocks_from_env(123), 123u);
  setenv("AEC_BLOCKS", "4567", 1);
  EXPECT_EQ(blocks_from_env(123), 4567u);
  setenv("AEC_BLOCKS", "garbage", 1);
  EXPECT_EQ(blocks_from_env(123), 123u);
  unsetenv("AEC_BLOCKS");
}

TEST(Replication, LossMatchesAnalyticRate) {
  // 2-way at 30 %: block lost iff both copies at failed locations
  // (~9 % of blocks).
  const ReplicationScheme rep(2);
  DisasterConfig c;
  c.failed_fraction = 0.30;
  c.seed = 77;
  const DisasterResult r = rep.run_disaster(200000, c);
  EXPECT_NEAR(static_cast<double>(r.data_lost) / 200000.0, 0.09, 0.01);
  // Vulnerable = exactly one survivor: 2·0.3·0.7 = 42 %.
  EXPECT_NEAR(r.vulnerable_percent(), 42.0, 2.0);
}

TEST(Integration, Fig11QualitativeRanking) {
  // At a 30 % disaster with equal storage overhead (300 %), AE(3,2,5)
  // loses less data than RS(4,12) (the headline of Fig 11), and AE(2,2,5)
  // at 200 % loses less than RS(5,5) at 100 % and than 3-way replication.
  SweepConfig config;
  config.n_data = 100000;
  config.fractions = {0.30};
  config.seed = 424242;

  const auto loss = [&](const char* name) {
    return run_sweep(*make_scheme(name), config)[0].data_lost;
  };
  const std::uint64_t ae3 = loss("AE(3,2,5)");
  const std::uint64_t ae2 = loss("AE(2,2,5)");
  const std::uint64_t ae1 = loss("AE(1,-,-)");
  const std::uint64_t rs412 = loss("RS(4,12)");
  const std::uint64_t rs55 = loss("RS(5,5)");
  const std::uint64_t rep3 = loss("REP(3)");
  const std::uint64_t rep2 = loss("REP(2)");

  EXPECT_LE(ae3, rs412);
  EXPECT_LT(ae2, rep3);
  EXPECT_LT(ae3, ae2);
  EXPECT_LT(ae2, ae1);
  EXPECT_LT(rs55, rep2);
  // AE(1) sits about an order above RS(5,5) in the paper — same overhead,
  // weaker code; just require the direction here.
  EXPECT_GT(ae1, rs55);
}

TEST(Integration, Fig12QualitativeRanking) {
  // Fig 12 policy (see EXPERIMENTS.md): RS runs under minimal maintenance
  // (parity-only-degraded stripes are skipped — regenerating them costs a
  // k-block decode); AE runs its natural repair (every parity repair is a
  // cheap 2-block single-failure repair, cf. Table V's "Repaired" flag).
  SweepConfig rs_config;
  rs_config.n_data = 100000;
  rs_config.fractions = {0.30};
  rs_config.maintenance = MaintenanceMode::kMinimal;
  rs_config.seed = 31337;
  SweepConfig ae_config = rs_config;
  ae_config.maintenance = MaintenanceMode::kFull;

  const auto vulnerable = [&](const char* name, const SweepConfig& config) {
    return run_sweep(*make_scheme(name), config)[0].vulnerable_percent();
  };
  // RS leaves a large share of data without redundancy; AE keeps
  // redundancy nearly everywhere; RS(4,12) is the only RS comparable.
  EXPECT_LT(vulnerable("AE(3,2,5)", ae_config),
            vulnerable("RS(5,5)", rs_config));
  EXPECT_LT(vulnerable("AE(2,2,5)", ae_config),
            vulnerable("RS(8,2)", rs_config));
  EXPECT_LT(vulnerable("AE(3,2,5)", ae_config),
            vulnerable("REP(2)", rs_config));
  EXPECT_LT(vulnerable("RS(4,12)", rs_config), 1.0);
  EXPECT_GT(vulnerable("RS(10,4)", rs_config), 10.0);
  // Paper: "RS(5,5) performs worse than AE(1,-,-) … when failures affect
  // more than 20 % of the locations."
  EXPECT_LT(vulnerable("AE(1,-,-)", ae_config),
            vulnerable("RS(5,5)", rs_config));
}

TEST(Integration, Fig13Locality) {
  // AE repairs are dominated by first-round single failures even in large
  // disasters; RS(4,12)'s single-failure share decays instead.
  SweepConfig config;
  config.n_data = 100000;
  config.fractions = {0.10, 0.50};
  config.seed = 99;
  const auto ae = run_sweep(*make_scheme("AE(3,2,5)"), config);
  const auto rs = run_sweep(*make_scheme("RS(4,12)"), config);
  EXPECT_GT(ae[0].single_failure_percent(), 90.0);
  EXPECT_GT(ae[1].single_failure_percent(), 50.0);
  EXPECT_GT(rs[0].single_failure_percent(),
            rs[1].single_failure_percent());
}

}  // namespace
}  // namespace aec::sim
