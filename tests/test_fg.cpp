// Factor-graph library: graph construction, BP exactness on trees (vs the
// enumeration oracle), max-product MAP, loopy behaviour, and the
// AttackTagger chain model (learning, forward filter == BP).

#include <gtest/gtest.h>

#include <cmath>

#include "fg/model.hpp"
#include "incidents/generator.hpp"
#include "util/logdomain.hpp"

namespace at::fg {
namespace {

using alerts::AlertType;
using alerts::AttackStage;

FactorGraph two_var_chain() {
  // P(x) ∝ f(x0) g(x0,x1) with hand-computable tables.
  FactorGraph graph;
  const auto x0 = graph.add_variable(2, "x0");
  const auto x1 = graph.add_variable(2, "x1");
  graph.add_factor({x0}, {std::log(0.3), std::log(0.7)});
  graph.add_factor({x0, x1},
                   {std::log(0.9), std::log(0.1), std::log(0.2), std::log(0.8)});
  return graph;
}

TEST(FactorGraphTest, ConstructionAndValidation) {
  FactorGraph graph;
  const auto v = graph.add_variable(3);
  EXPECT_EQ(graph.num_variables(), 1u);
  EXPECT_THROW(graph.add_variable(0), std::invalid_argument);
  EXPECT_THROW(graph.add_factor({v}, {0.0, 0.0}), std::invalid_argument);  // wrong size
  EXPECT_THROW(graph.add_factor({99}, {0.0}), std::out_of_range);
  graph.add_factor({v}, {0.0, 0.0, 0.0});
  EXPECT_EQ(graph.factors_of(v).size(), 1u);
}

TEST(FactorGraphTest, JointScoreAndStrides) {
  const auto graph = two_var_chain();
  // score(x0=1, x1=0) = log 0.7 + log 0.2
  const std::size_t assignment[] = {1, 0};
  EXPECT_NEAR(graph.joint_log_score(assignment), std::log(0.7) + std::log(0.2), 1e-12);
  const auto stride = graph.strides(1);
  EXPECT_EQ(stride, (std::vector<std::size_t>{2, 1}));
}

TEST(FactorGraphTest, TreeDetection) {
  auto tree = two_var_chain();
  EXPECT_TRUE(tree.is_tree());
  // Add a second pairwise factor over the same pair -> cycle.
  tree.add_factor({0, 1}, std::vector<double>(4, 0.0));
  EXPECT_FALSE(tree.is_tree());
}

TEST(BpTest, MatchesHandComputedMarginals) {
  const auto graph = two_var_chain();
  const auto result = run_bp(graph);
  ASSERT_TRUE(result.converged);
  // P(x0=0) ∝ 0.3 * (0.9 + 0.1) = 0.3; P(x0=1) ∝ 0.7 -> marginal (0.3, 0.7)
  EXPECT_NEAR(result.marginals[0][0], 0.3, 1e-9);
  EXPECT_NEAR(result.marginals[0][1], 0.7, 1e-9);
  // P(x1=0) = 0.3*0.9 + 0.7*0.2 = 0.41
  EXPECT_NEAR(result.marginals[1][0], 0.41, 1e-9);
}

// BP must be exact on randomly generated tree-structured graphs.
class BpTreeExactness : public ::testing::TestWithParam<int> {};

TEST_P(BpTreeExactness, SumProductMatchesEnumeration) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  FactorGraph graph;
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
  std::vector<VarId> vars;
  for (std::size_t i = 0; i < n; ++i) {
    vars.push_back(graph.add_variable(2 + static_cast<std::size_t>(rng.uniform_int(0, 1))));
  }
  // Random tree: connect each non-root to a random earlier variable.
  auto random_table = [&rng](std::size_t size) {
    std::vector<double> table(size);
    for (auto& v : table) v = std::log(rng.uniform(0.05, 1.0));
    return table;
  };
  for (std::size_t i = 1; i < n; ++i) {
    const auto parent = vars[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))];
    const std::size_t size = graph.variable(parent).cardinality *
                             graph.variable(vars[i]).cardinality;
    graph.add_factor({parent, vars[i]}, random_table(size));
  }
  // Unary evidence on every variable.
  for (const auto var : vars) {
    graph.add_factor({var}, random_table(graph.variable(var).cardinality));
  }
  ASSERT_TRUE(graph.is_tree());

  const auto bp = run_bp(graph);
  const auto exact = enumerate_exact(graph);
  ASSERT_TRUE(bp.converged);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t x = 0; x < exact.marginals[v].size(); ++x) {
      EXPECT_NEAR(bp.marginals[v][x], exact.marginals[v][x], 1e-7)
          << "var " << v << " state " << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTrees, BpTreeExactness, ::testing::Range(0, 15));

class MaxProductExactness : public ::testing::TestWithParam<int> {};

TEST_P(MaxProductExactness, MapMatchesEnumeration) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 3);
  // Chain of 4 binary variables with random potentials.
  FactorGraph graph;
  std::vector<VarId> vars;
  for (int i = 0; i < 4; ++i) vars.push_back(graph.add_variable(2));
  auto random_table = [&rng](std::size_t size) {
    std::vector<double> table(size);
    for (auto& v : table) v = std::log(rng.uniform(0.05, 1.0));
    return table;
  };
  for (int i = 1; i < 4; ++i) graph.add_factor({vars[i - 1], vars[i]}, random_table(4));
  for (const auto var : vars) graph.add_factor({var}, random_table(2));

  BpOptions options;
  options.max_product = true;
  const auto bp = run_bp(graph, options);
  const auto exact = enumerate_exact(graph);
  // Compare joint scores (MAP may be non-unique; scores must match).
  EXPECT_NEAR(graph.joint_log_score(bp.map_assignment),
              graph.joint_log_score(exact.map_assignment), 1e-7);
}

INSTANTIATE_TEST_SUITE_P(RandomChains, MaxProductExactness, ::testing::Range(0, 15));

TEST(BpTest, LoopyConvergesWithDamping) {
  // A frustrated 3-cycle; loopy BP with damping should still converge to
  // normalized beliefs.
  FactorGraph graph;
  std::vector<VarId> vars;
  for (int i = 0; i < 3; ++i) vars.push_back(graph.add_variable(2));
  const std::vector<double> attract = {std::log(0.9), std::log(0.1), std::log(0.1),
                                       std::log(0.9)};
  graph.add_factor({vars[0], vars[1]}, attract);
  graph.add_factor({vars[1], vars[2]}, attract);
  graph.add_factor({vars[2], vars[0]}, attract);
  BpOptions options;
  options.damping = 0.3;
  options.max_iterations = 200;
  const auto result = run_bp(graph, options);
  for (const auto& marginal : result.marginals) {
    double total = 0.0;
    for (const auto p : marginal) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
  // Symmetric model: marginals are uniform.
  EXPECT_NEAR(result.marginals[0][0], 0.5, 1e-6);
}

TEST(EnumerateTest, RejectsHugeGraphs) {
  FactorGraph graph;
  for (int i = 0; i < 30; ++i) graph.add_variable(4);
  EXPECT_THROW(enumerate_exact(graph), std::invalid_argument);
}

// --- AttackTagger model ---

const incidents::Corpus& training() {
  static const incidents::Corpus corpus = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return incidents::CorpusGenerator(config).generate();
  }();
  return corpus;
}

TEST(ModelTest, LearnedDistributionsNormalize) {
  const auto params = learn_params(training());
  double prior = 0.0;
  for (std::size_t s = 0; s < alerts::kNumStages; ++s) {
    prior += util::safe_exp(params.log_prior[s]);
  }
  EXPECT_NEAR(prior, 1.0, 1e-9);
  for (std::size_t s = 0; s < alerts::kNumStages; ++s) {
    double trans = 0.0;
    double emit = 0.0;
    for (std::size_t t = 0; t < alerts::kNumStages; ++t) {
      trans += util::safe_exp(params.transition(static_cast<AttackStage>(s),
                                                static_cast<AttackStage>(t)));
    }
    for (std::size_t a = 0; a < alerts::kNumAlertTypes; ++a) {
      emit += util::safe_exp(
          params.emission(static_cast<AttackStage>(s), static_cast<AlertType>(a)));
    }
    EXPECT_NEAR(trans, 1.0, 1e-9);
    EXPECT_NEAR(emit, 1.0, 1e-9);
  }
}

TEST(ModelTest, EmissionsReflectSemantics) {
  const auto params = learn_params(training());
  // A critical alert is far more likely under "compromised" than "benign".
  EXPECT_GT(params.emission(AttackStage::kCompromised, AlertType::kPrivilegeEscalation),
            params.emission(AttackStage::kBenign, AlertType::kPrivilegeEscalation));
  // An ordinary login is more likely under "benign" than "compromised".
  EXPECT_GT(params.emission(AttackStage::kBenign, AlertType::kLoginSuccess),
            params.emission(AttackStage::kCompromised, AlertType::kLoginSuccess));
  // The foothold motif alerts indicate an attack in progress.
  EXPECT_GT(params.emission(AttackStage::kInProgress, AlertType::kDownloadSensitive),
            params.emission(AttackStage::kBenign, AlertType::kDownloadSensitive));
}

TEST(ModelTest, TransitionsPreferProgression) {
  const auto params = learn_params(training());
  // Escalation (suspicious -> in_progress) outweighs regression
  // (in_progress -> suspicious) in a corpus of successful attacks.
  EXPECT_GT(params.transition(AttackStage::kInProgress, AttackStage::kInProgress),
            params.transition(AttackStage::kInProgress, AttackStage::kBenign));
}

TEST(ChainTest, BuildShape) {
  const auto params = learn_params(training());
  const std::vector<AlertType> observed = {AlertType::kDownloadSensitive,
                                           AlertType::kCompileSource,
                                           AlertType::kLogTampering};
  const auto graph = build_chain(params, observed);
  EXPECT_EQ(graph.num_variables(), 3u);
  // prior + 3 emissions + 2 transitions.
  EXPECT_EQ(graph.num_factors(), 6u);
  EXPECT_TRUE(graph.is_tree());
  EXPECT_EQ(build_chain(params, {}).num_variables(), 0u);
}

TEST(ChainTest, ForwardFilterMatchesBpOnChain) {
  // The streaming forward filter and full sum-product BP must agree on the
  // posterior of the last stage for any observation sequence.
  const auto params = learn_params(training());
  const std::vector<std::vector<AlertType>> sequences = {
      {AlertType::kPortScan},
      {AlertType::kPortScan, AlertType::kSshBruteforce},
      {AlertType::kDownloadSensitive, AlertType::kCompileSource, AlertType::kLogTampering},
      {AlertType::kLoginSuccess, AlertType::kJobSubmitted, AlertType::kJobCompleted},
      {AlertType::kDbPortProbe, AlertType::kDefaultPasswordLogin,
       AlertType::kDbPayloadEncoding, AlertType::kDbFileExport,
       AlertType::kDataExfiltrationBulk},
  };
  for (const auto& sequence : sequences) {
    ForwardFilter filter(params);
    for (const auto type : sequence) filter.observe(type);
    const auto bp_posterior = chain_posterior_last(params, sequence);
    for (std::size_t s = 0; s < alerts::kNumStages; ++s) {
      EXPECT_NEAR(filter.posterior()[s], bp_posterior[s], 1e-6)
          << "sequence len " << sequence.size() << " stage " << s;
    }
  }
}

TEST(ChainTest, AttackSequenceRaisesPosterior) {
  const auto params = learn_params(training());
  ForwardFilter filter(params);
  filter.observe(AlertType::kDownloadSensitive);
  filter.observe(AlertType::kCompileSource);
  filter.observe(AlertType::kLogTampering);
  EXPECT_GT(filter.p_at_least(AttackStage::kInProgress), 0.8);
}

TEST(ChainTest, BenignSequenceStaysLow) {
  const auto params = learn_params(training());
  ForwardFilter filter(params);
  for (int i = 0; i < 10; ++i) {
    filter.observe(AlertType::kLoginSuccess);
    filter.observe(AlertType::kJobSubmitted);
    filter.observe(AlertType::kJobCompleted);
    filter.observe(AlertType::kLogout);
  }
  EXPECT_LT(filter.p_at_least(AttackStage::kInProgress), 0.3);
}

TEST(ChainTest, ScanNoiseAloneDoesNotEscalate) {
  // Remark 2: mass scans have high false-positive rates; conditional
  // probabilities must keep them below the firing region.
  const auto params = learn_params(training());
  ForwardFilter filter(params);
  for (int i = 0; i < 200; ++i) {
    filter.observe(i % 2 ? AlertType::kPortScan : AlertType::kSshBruteforce);
  }
  EXPECT_LT(filter.p_at_least(AttackStage::kInProgress), 0.6);
}

TEST(ChainTest, ResetClearsState) {
  const auto params = learn_params(training());
  ForwardFilter filter(params);
  filter.observe(AlertType::kDownloadSensitive);
  filter.observe(AlertType::kCompileSource);
  filter.reset();
  EXPECT_EQ(filter.observed(), 0u);
  filter.observe(AlertType::kLoginSuccess);
  EXPECT_LT(filter.p_at_least(AttackStage::kInProgress), 0.5);
}

TEST(ChainTest, PosteriorAlwaysNormalized) {
  const auto params = learn_params(training());
  util::Rng rng(5);
  ForwardFilter filter(params);
  for (int i = 0; i < 500; ++i) {
    filter.observe(static_cast<AlertType>(
        rng.uniform_int(0, static_cast<std::int64_t>(alerts::kNumAlertTypes) - 1)));
    double total = 0.0;
    for (const auto p : filter.posterior()) {
      ASSERT_GE(p, 0.0);
      total += p;
    }
    ASSERT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(ChainTest, ForwardFilterRecurrenceIsBitIdentical) {
  // ForwardFilter shares its recurrence with the entity filter, which
  // multiplies a coupling row into the emission; for the plain chain that
  // row is all ones, and the posteriors must not move by a single bit.
  // Reference: the recurrence written out on the compiled tables.
  const auto compiled = compile_params(learn_params(training()));
  constexpr std::size_t kS = alerts::kNumStages;
  constexpr std::size_t kT = alerts::kNumAlertTypes;
  util::Rng rng(11);
  ForwardFilter filter(compiled);
  std::vector<double> belief(kS, 0.0);
  for (std::size_t i = 0; i < 2000; ++i) {
    const auto type = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kT) - 1));
    const auto bucket = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kNumGapBuckets) - 1));
    const bool timed = rng.uniform_int(0, 1) == 1;
    double next[kS];
    for (std::size_t s = 0; s < kS; ++s) {
      if (i == 0) {
        next[s] = compiled->prior[s] * compiled->emission[s * kT + type];
        continue;
      }
      double predicted = 0.0;
      for (std::size_t p = 0; p < kS; ++p) {
        predicted += belief[p] * compiled->transition[p * kS + s];
      }
      next[s] = predicted * compiled->emission[s * kT + type];
      if (timed) next[s] *= compiled->gap[s * kNumGapBuckets + bucket];
    }
    double total = 0.0;
    for (const double v : next) total += v;
    for (std::size_t s = 0; s < kS; ++s) belief[s] = next[s] / total;

    const std::optional<GapBucket> gap =
        timed ? std::optional<GapBucket>(static_cast<GapBucket>(bucket)) : std::nullopt;
    const auto& got = filter.observe(static_cast<AlertType>(type), gap);
    for (std::size_t s = 0; s < kS; ++s) ASSERT_EQ(got[s], belief[s]) << "alert " << i;
  }
}

}  // namespace
}  // namespace at::fg
