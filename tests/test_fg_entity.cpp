// Entity-augmented factor graph: the loopy user-state model and its exact
// inference (infer_entity, an fg::EntityFilter run). Verified against
// exact enumeration and for its semantic behaviour (malicious posterior
// tracks the attack content).

#include <gtest/gtest.h>

#include "fg/model.hpp"
#include "incidents/generator.hpp"

namespace at::fg {
namespace {

using alerts::AlertType;

const ModelParams& params() {
  static const ModelParams p = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return learn_params(incidents::CorpusGenerator(config).generate());
  }();
  return p;
}

TEST(EntityGraph, Shape) {
  const std::vector<AlertType> observed = {AlertType::kPortScan,
                                           AlertType::kDownloadSensitive};
  const auto graph = build_entity_graph(params(), observed);
  // n stage vars + U; chain factors + user prior + n couplings.
  EXPECT_EQ(graph.num_variables(), 3u);
  EXPECT_EQ(graph.num_factors(), 2u /*emit*/ + 1u /*prior*/ + 1u /*trans*/ +
                                     1u /*user prior*/ + 2u /*couplings*/);
  EXPECT_FALSE(graph.is_tree());  // U closes cycles with the chain
}

TEST(EntityGraph, EmptySequence) {
  const auto result = infer_entity(params(), {});
  EXPECT_DOUBLE_EQ(result.p_malicious, 0.5);
}

class EntityVsExact : public ::testing::TestWithParam<int> {};

TEST_P(EntityVsExact, LoopyBpTracksEnumeration) {
  // The graph is loopy, but infer_entity conditions on U by hand and is
  // exact, so it must match enumeration to rounding: every length from 1 to
  // 10 (the largest entity graph enumerate_exact accepts) is covered.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 11);
  std::vector<AlertType> observed;
  const std::size_t n = 1 + static_cast<std::size_t>(GetParam()) % 10;
  for (std::size_t i = 0; i < n; ++i) {
    observed.push_back(static_cast<AlertType>(
        rng.uniform_int(0, static_cast<std::int64_t>(alerts::kNumAlertTypes) - 1)));
  }
  const auto graph = build_entity_graph(params(), observed);
  const auto exact = enumerate_exact(graph);
  const auto result = infer_entity(params(), observed);
  EXPECT_NEAR(result.p_malicious, exact.marginals.back()[1], 1e-9);
  ASSERT_EQ(result.last_stage.size(), alerts::kNumStages);
  for (std::size_t s = 0; s < alerts::kNumStages; ++s) {
    EXPECT_NEAR(result.last_stage[s], exact.marginals[n - 1][s], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, EntityVsExact, ::testing::Range(0, 12));

TEST(EntityGraph, AttackSequenceLooksMalicious) {
  const std::vector<AlertType> attack = {
      AlertType::kDownloadSensitive, AlertType::kCompileSource, AlertType::kLogTampering,
      AlertType::kSshKeyTheft, AlertType::kC2Communication};
  const auto result = infer_entity(params(), attack);
  EXPECT_GT(result.p_malicious, 0.8);
}

TEST(EntityGraph, BenignSequenceLooksLegitimate) {
  const std::vector<AlertType> benign = {AlertType::kLoginSuccess, AlertType::kJobSubmitted,
                                         AlertType::kJobCompleted, AlertType::kFileTransfer,
                                         AlertType::kLogout};
  const auto result = infer_entity(params(), benign);
  EXPECT_LT(result.p_malicious, 0.3);
}

TEST(EntityGraph, CouplingStrengthSharpensThePosterior) {
  const std::vector<AlertType> attack = {AlertType::kDownloadSensitive,
                                         AlertType::kCompileSource,
                                         AlertType::kLogTampering};
  const auto weak = infer_entity(params(), attack, 0.25);
  const auto strong = infer_entity(params(), attack, 3.0);
  EXPECT_GT(strong.p_malicious, weak.p_malicious);
}

TEST(EntityGraph, MixedSequenceSitsBetween) {
  const std::vector<AlertType> mixed = {AlertType::kLoginSuccess, AlertType::kPortScan,
                                        AlertType::kLoginFailure, AlertType::kJobSubmitted};
  const auto result = infer_entity(params(), mixed);
  EXPECT_GT(result.p_malicious, 0.02);
  EXPECT_LT(result.p_malicious, 0.85);
}

TEST(EntityGraph, LastStagePosteriorIsNormalized) {
  const std::vector<AlertType> attack = {AlertType::kDbPortProbe,
                                         AlertType::kDefaultPasswordLogin,
                                         AlertType::kDbPayloadEncoding};
  const auto result = infer_entity(params(), attack);
  double total = 0.0;
  for (const auto p : result.last_stage) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

}  // namespace
}  // namespace at::fg
