// The chaos-soak harness itself: SoakSpec grammar round-trips, RunSoak
// completes small chaotic runs with zero invariant violations, and —
// crucially — the injected-divergence hook proves the harness catches a
// safety violation and that the stamped replay spec reproduces it exactly.

#include <gtest/gtest.h>

#include <string>

#include "workload/soak.h"

namespace porygon::workload {
namespace {

TEST(SoakSpecTest, ParseToStringRoundTrips) {
  auto parsed = SoakSpec::Parse(
      "rounds:40;epoch:8;seed:9;nodes:30;storages:3;oc:5;shardbits:2;"
      "tps:25.5;gap:45;workload:accounts:1000,cross:0.2;"
      "faults:loss:0.01;adversary:stateless:equivocate;inject:7");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->rounds, 40u);
  EXPECT_EQ(parsed->epoch_length, 8u);
  EXPECT_EQ(parsed->seed, 9u);
  EXPECT_EQ(parsed->num_stateless, 30);
  EXPECT_EQ(parsed->num_storage, 3);
  EXPECT_EQ(parsed->oc_size, 5);
  EXPECT_EQ(parsed->shard_bits, 2);
  EXPECT_DOUBLE_EQ(parsed->offered_tps, 25.5);
  EXPECT_DOUBLE_EQ(parsed->max_commit_gap_s, 45.0);
  // Nested comma-grammar specs embed verbatim past the first ':'.
  EXPECT_EQ(parsed->workload, "accounts:1000,cross:0.2");
  EXPECT_EQ(parsed->faults, "loss:0.01");
  EXPECT_EQ(parsed->adversary, "stateless:equivocate");
  EXPECT_EQ(parsed->inject_divergence_round, 7u);

  auto reparsed = SoakSpec::Parse(parsed->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->ToString(), parsed->ToString());
}

TEST(SoakSpecTest, RejectsMalformedClauses) {
  EXPECT_FALSE(SoakSpec::Parse("bogus:1").ok());
  EXPECT_FALSE(SoakSpec::Parse("rounds").ok());
  EXPECT_FALSE(SoakSpec::Parse("rounds:abc").ok());
  EXPECT_FALSE(SoakSpec::Parse("epoch:1").ok());  // 1 fails Validate().
  EXPECT_FALSE(SoakSpec::Parse("rounds:-1").ok());  // Signed count.
  EXPECT_FALSE(SoakSpec::Parse("tps:nan").ok());    // Non-finite reals.
  EXPECT_FALSE(SoakSpec::Parse("gap:inf").ok());
  // Nested specs are validated eagerly, not at deployment time.
  EXPECT_FALSE(SoakSpec::Parse("adversary:nonsense:strategy").ok());
  EXPECT_FALSE(SoakSpec::Parse("faults:bogus:1").ok());
}

SoakSpec SmokeSpec() {
  SoakSpec spec;
  spec.rounds = 16;
  spec.epoch_length = 5;
  spec.seed = 7;
  spec.offered_tps = 30.0;
  return spec;
}

TEST(RunSoakTest, CleanSmokeRunHasZeroViolations) {
  auto report = RunSoak(SmokeSpec());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok());
  EXPECT_TRUE(report->replay_spec.empty());
  EXPECT_EQ(report->rounds_completed, 16u);
  EXPECT_EQ(report->epochs_completed, 3u);  // Boundaries at 5, 10, 15.
  EXPECT_GT(report->invariant_checks, 16u * 2);  // Per-round + terminal.
  EXPECT_GT(report->committed_txs, 0u);
}

TEST(RunSoakTest, ChaoticSmokeRunHasZeroViolations) {
  SoakSpec spec = SmokeSpec();
  spec.faults = "loss:0.02,dup:0.02,jitter:300";
  spec.adversary = "stateless:equivocate,storage:withhold";
  auto report = RunSoak(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok())
      << (report->violations.empty() ? "" : report->violations.front());
  EXPECT_EQ(report->rounds_completed, 16u);
  EXPECT_EQ(report->epochs_completed, 3u);
}

TEST(RunSoakTest, InjectedDivergenceIsCaughtAndReplaySpecReproducesIt) {
  SoakSpec spec = SmokeSpec();
  spec.inject_divergence_round = 9;
  auto report = RunSoak(spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->ok());
  ASSERT_FALSE(report->violations.empty());
  EXPECT_NE(report->violations.front().find("round 9"), std::string::npos)
      << report->violations.front();
  // The stamped replay spec is the failing run, verbatim...
  ASSERT_EQ(report->replay_spec, spec.ToString());
  // ...and feeding it back reproduces the identical first violation.
  auto replay_spec = SoakSpec::Parse(report->replay_spec);
  ASSERT_TRUE(replay_spec.ok()) << replay_spec.status().ToString();
  auto replay = RunSoak(*replay_spec);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_FALSE(replay->violations.empty());
  EXPECT_EQ(replay->violations.front(), report->violations.front());
}

TEST(RunSoakTest, ReportJsonCarriesLivenessStats) {
  auto report = RunSoak(SmokeSpec());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const std::string json = report->ToJson();
  EXPECT_NE(json.find("\"rounds_completed\":16"), std::string::npos) << json;
  EXPECT_NE(json.find("\"epochs_completed\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"invariant_checks\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"max_commit_gap_s\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"violations\":[]"), std::string::npos) << json;
}

}  // namespace
}  // namespace porygon::workload
