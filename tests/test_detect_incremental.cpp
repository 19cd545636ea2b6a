// Detector-level oracle for the entity inference mode: over randomized
// multi-entity traces fed through the SessionPipeline, the incremental
// FactorGraphDetector (kEntityIncremental, one fg::EntityFilter per
// session) must fire exactly where a full re-inference of each session's
// history first crosses the threshold, and its firing score must be the
// exact posterior. Short histories are re-inferred by enumerating the
// entity factor graph; longer ones by a cold infer_entity.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "detect/detector.hpp"
#include "detect/session_pipeline.hpp"
#include "fg/bp.hpp"
#include "fg/model.hpp"
#include "incidents/generator.hpp"
#include "util/rng.hpp"

namespace at::detect {
namespace {

using alerts::Alert;
using alerts::AlertType;

std::shared_ptr<const fg::CompiledParams> compiled() {
  static const std::shared_ptr<const fg::CompiledParams> c = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return fg::compile_params(
        fg::learn_params(incidents::CorpusGenerator(config).generate()));
  }();
  return c;
}

/// Randomized multi-entity trace: `accounts` users interleaved, alert types
/// drawn with a bias toward attack content so thresholds actually trip.
std::vector<Alert> random_trace(util::Rng& rng, std::size_t accounts,
                                std::size_t length) {
  std::vector<Alert> trace;
  trace.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    Alert alert;
    alert.ts = static_cast<util::SimTime>(i * 60);
    alert.user = "user-" + std::to_string(rng.uniform_int(
                     0, static_cast<std::int64_t>(accounts) - 1));
    alert.host = "host-" + std::to_string(rng.uniform_int(0, 3));
    alert.type = static_cast<AlertType>(
        rng.uniform_int(0, static_cast<std::int64_t>(alerts::kNumAlertTypes) - 1));
    trace.push_back(std::move(alert));
  }
  return trace;
}

SessionPipeline::Factory factory_for(FgInference inference, double threshold) {
  return [inference, threshold] {
    return std::make_unique<FactorGraphDetector>(
        compiled(), threshold, alerts::AttackStage::kInProgress, false, inference);
  };
}

/// P(U = malicious) of a whole history, inferred from scratch.
double full_posterior(const std::vector<AlertType>& history) {
  if (history.size() <= 6) {
    return fg::enumerate_exact(fg::build_entity_graph(compiled()->params, history))
        .marginals.back()[1];
  }
  return fg::infer_entity(compiled()->params, history).p_malicious;
}

class IncrementalVerdictOracle : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalVerdictOracle, FullAndIncrementalAgreeOnEveryVerdict) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 101);
  const double threshold = 0.75;
  const auto trace = random_trace(rng, /*accounts=*/6, /*length=*/200);

  SessionPipeline incremental(factory_for(FgInference::kEntityIncremental, threshold));
  for (const Alert& alert : trace) incremental.on_alert(alert);

  // Re-infer every session's history prefix by prefix; the first prefix at
  // or above the threshold is where the detector must have fired.
  std::size_t expected_fired = 0;
  for (const AttackSession& session : incremental.sessionizer().sessions()) {
    std::vector<AlertType> history;
    std::optional<std::size_t> fire_at;
    double fire_score = 0.0;
    for (const Alert& alert : session.alerts) {
      history.push_back(alert.type);
      const double p = full_posterior(history);
      if (p >= threshold) {
        fire_at = history.size() - 1;
        fire_score = p;
        break;
      }
    }
    const SessionDetection* got = nullptr;
    for (const auto& d : incremental.detections()) {
      if (d.session_id == session.id) got = &d;
    }
    ASSERT_EQ(fire_at.has_value(), got != nullptr) << "session " << session.account;
    if (!fire_at) continue;
    ++expected_fired;
    EXPECT_EQ(got->detection.alert_index, *fire_at) << "session " << session.account;
    EXPECT_EQ(got->detection.ts, session.alerts[*fire_at].ts);
    EXPECT_NEAR(got->detection.score, fire_score, 1e-9);
  }
  // The trace is attack-heavy enough that silence would be vacuous.
  EXPECT_GT(expected_fired, 0u);
  EXPECT_EQ(incremental.detections().size(), expected_fired);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalVerdictOracle, ::testing::Range(0, 5));

TEST(FgInferenceModes, NamesAndResetBehaviour) {
  FactorGraphDetector inc(compiled(), 0.75, alerts::AttackStage::kInProgress, false,
                          FgInference::kEntityIncremental);
  FactorGraphDetector timed(compiled(), 0.75, alerts::AttackStage::kInProgress, true,
                            FgInference::kEntityIncremental);
  FactorGraphDetector filter(compiled(), 0.75);
  EXPECT_EQ(inc.name(), "factor-graph-entity-inc");
  EXPECT_EQ(timed.name(), "factor-graph-entity-inc-timed");
  EXPECT_EQ(filter.name(), "factor-graph");

  // After reset the entity engine must forget the history entirely: the
  // same campaign gives the same firing index twice.
  const AlertType campaign[] = {AlertType::kPortScan, AlertType::kSshBruteforce,
                                AlertType::kDownloadSensitive, AlertType::kCompileSource,
                                AlertType::kNewBinaryExecuted, AlertType::kC2Communication,
                                AlertType::kPrivilegeEscalation};
  auto run = [&](FactorGraphDetector& detector) {
    detector.reset();
    std::optional<std::size_t> fired_at;
    for (std::size_t i = 0; i < std::size(campaign); ++i) {
      Alert alert;
      alert.ts = static_cast<util::SimTime>(i);
      alert.type = campaign[i];
      if (const auto d = detector.observe(alert, i); d && !fired_at) {
        fired_at = d->alert_index;
      }
    }
    return fired_at;
  };
  const auto first = run(inc);
  const auto second = run(inc);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, *second);
  // And the firing point is where the exact posterior of the prefix first
  // crosses the threshold.
  std::vector<AlertType> prefix;
  std::optional<std::size_t> exact_at;
  for (std::size_t i = 0; i < std::size(campaign) && !exact_at; ++i) {
    prefix.push_back(campaign[i]);
    if (full_posterior(prefix) >= 0.75) exact_at = i;
  }
  EXPECT_EQ(exact_at, first);
}

}  // namespace
}  // namespace at::detect
