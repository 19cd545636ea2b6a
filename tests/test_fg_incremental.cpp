// Incremental inference oracles for fg::EntityFilter, the streaming exact
// engine of the entity model (stage chain + binary user state U). Every
// posterior it emits after an alert must match a cold re-inference of the
// whole history to <= 1e-9: exact enumeration of the factor graph where it
// is small enough, otherwise an independent log-domain forward pass that
// conditions on U by hand and sums with logsumexp.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "fg/model.hpp"
#include "incidents/generator.hpp"
#include "util/logdomain.hpp"
#include "util/rng.hpp"

namespace at::fg {
namespace {

using alerts::AlertType;
using alerts::AttackStage;

constexpr double kGate = 1e-9;
constexpr std::size_t kS = alerts::kNumStages;
constexpr auto kBuckets = static_cast<std::int64_t>(kNumGapBuckets);

const ModelParams& model() {
  static const ModelParams p = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return learn_params(incidents::CorpusGenerator(config).generate());
  }();
  return p;
}

std::shared_ptr<const CompiledParams> compiled() {
  static const std::shared_ptr<const CompiledParams> c = compile_params(model());
  return c;
}

AlertType random_type(util::Rng& rng) {
  return static_cast<AlertType>(
      rng.uniform_int(0, static_cast<std::int64_t>(alerts::kNumAlertTypes) - 1));
}

/// The entity model's U<->stage log-potential, written out from its
/// definition: attack stages (in_progress and later) are consistent with a
/// malicious user, earlier stages with a legitimate one.
double coupling_term(std::size_t stage, std::size_t user, double coupling) {
  const bool attack = stage >= static_cast<std::size_t>(AttackStage::kInProgress);
  return attack == (user == 1) ? 0.0 : -coupling;
}

double log_sum_exp(const double* x, std::size_t n) {
  double top = util::kLogZero;
  for (std::size_t i = 0; i < n; ++i) top = std::max(top, x[i]);
  if (top == util::kLogZero) return top;
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += std::exp(x[i] - top);
  return top + std::log(sum);
}

/// Independent reference: a log-domain forward pass over the log tables for
/// each fixed value of U, streamed one alert at a time. Shares no code with
/// the filter under test.
class LogDomainReference {
 public:
  LogDomainReference(const ModelParams& params, double coupling)
      : params_(params), coupling_(coupling) {}

  void observe(AlertType type, std::optional<GapBucket> gap) {
    for (std::size_t u = 0; u < 2; ++u) {
      std::array<double, kS> next{};
      for (std::size_t s = 0; s < kS; ++s) {
        const auto stage = static_cast<AttackStage>(s);
        double in = 0.0;
        if (count_ == 0) {
          in = params_.prior(stage);
        } else {
          std::array<double, kS> terms{};
          for (std::size_t p = 0; p < kS; ++p) {
            terms[p] = alpha_[u][p] + params_.transition(static_cast<AttackStage>(p), stage);
          }
          in = log_sum_exp(terms.data(), kS);
          if (gap) in += params_.gap(stage, *gap);
        }
        next[s] = in + params_.emission(stage, type) + coupling_term(s, u, coupling_);
      }
      alpha_[u] = next;
    }
    ++count_;
  }

  [[nodiscard]] double log_partition(std::size_t u) const {
    return log_sum_exp(alpha_[u].data(), kS);
  }
  [[nodiscard]] double p_malicious() const {
    // Uniform prior on U: P(U=1 | alerts) = Z(1) / (Z(0) + Z(1)).
    const double z[2] = {log_partition(0), log_partition(1)};
    return std::exp(z[1] - log_sum_exp(z, 2));
  }

 private:
  const ModelParams& params_;
  double coupling_;
  std::array<std::array<double, kS>, 2> alpha_{};
  std::size_t count_ = 0;
};

/// build_entity_graph plus one unary log_gap factor on every stage after
/// the first (gaps[t] is the gap before alert t): the time-aware entity
/// model as a graph.
FactorGraph timed_entity_graph(const ModelParams& params, std::span<const AlertType> observed,
                               std::span<const GapBucket> gaps) {
  FactorGraph graph = build_entity_graph(params, observed);
  for (std::size_t t = 1; t < observed.size(); ++t) {
    std::vector<double> table(kS);
    for (std::size_t s = 0; s < kS; ++s) {
      table[s] = params.gap(static_cast<AttackStage>(s), gaps[t]);
    }
    graph.add_factor({static_cast<VarId>(t)}, std::move(table));
  }
  return graph;
}

void expect_matches_exact(const EntityFilter& filter, const ExactResult& exact,
                          std::size_t n, const std::string& where) {
  EXPECT_NEAR(filter.p_malicious(), exact.marginals[n][1], kGate) << where;
  const auto last = filter.last_stage();
  for (std::size_t s = 0; s < kS; ++s) {
    EXPECT_NEAR(last[s], exact.marginals[n - 1][s], kGate) << where << " stage " << s;
  }
}

// Random parameter tables: with U fixed the entity model is a chain (a
// tree), and the filter's running log Z(u) must equal the partition
// function enumeration gives for that tree, from a cold start at every
// length.
class IncrementalTreeExactness : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalTreeExactness, ColdStartMatchesEnumeration) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 17);
  ModelParams params;
  const auto fill = [&](std::vector<double>& table, std::size_t size) {
    table.resize(size);
    for (double& v : table) v = rng.uniform(-3.0, 1.0);
  };
  fill(params.log_prior, kS);
  fill(params.log_transition, kS * kS);
  fill(params.log_emission, kS * alerts::kNumAlertTypes);
  fill(params.log_gap, kS * kNumGapBuckets);
  const double coupling = rng.uniform(0.1, 3.0);
  const std::size_t n = 1 + static_cast<std::size_t>(GetParam()) % 8;

  std::vector<AlertType> observed;
  for (std::size_t i = 0; i < n; ++i) observed.push_back(random_type(rng));
  EntityFilter filter(compile_params(params), coupling);
  for (const AlertType type : observed) filter.observe(type);

  for (std::size_t u = 0; u < 2; ++u) {
    // Clamp U = u: the coupling factors become unary rows on the chain.
    FactorGraph chain = build_chain(params, observed);
    for (VarId t = 0; t < n; ++t) {
      std::vector<double> row(kS);
      for (std::size_t s = 0; s < kS; ++s) row[s] = coupling_term(s, u, coupling);
      chain.add_factor({t}, std::move(row));
    }
    ASSERT_TRUE(chain.is_tree());
    const double exact = enumerate_exact(chain).log_partition;
    EXPECT_NEAR(filter.log_partition(u), exact, kGate * std::max(1.0, std::abs(exact)))
        << "u=" << u << " n=" << n;
  }
  const auto exact = enumerate_exact(build_entity_graph(params, observed, coupling));
  expect_matches_exact(filter, exact, n, "n=" + std::to_string(n));
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalTreeExactness, ::testing::Range(0, 12));

// Streamed growth: one alert at a time, every intermediate posterior
// against a cold enumeration of the whole entity graph so far.
class IncrementalStream : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalStream, SyncMatchesFullRerunEveryStep) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  const std::size_t steps = 8;
  std::vector<AlertType> observed;
  EntityFilter filter(compiled());
  for (std::size_t step = 0; step < steps; ++step) {
    observed.push_back(random_type(rng));
    filter.observe(observed.back());
    EXPECT_EQ(filter.observed(), observed.size());
    const auto exact = enumerate_exact(build_entity_graph(model(), observed));
    expect_matches_exact(filter, exact, observed.size(), "step " + std::to_string(step));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalStream, ::testing::Range(0, 6));

// Per-alert posteriors of the streaming filter against a cold infer_entity
// over the same prefix and against the independent log-domain pass, past
// the sizes enumeration reaches.
class EntityIncrementalOracle : public ::testing::TestWithParam<int> {};

TEST_P(EntityIncrementalOracle, PerAlertPosteriorsMatchInferEntity) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 67 + 29);
  const double coupling = 0.5 + 0.25 * GetParam();
  EntityFilter filter(compiled(), coupling);
  LogDomainReference reference(model(), coupling);

  std::vector<AlertType> observed;
  const std::size_t steps = 2 + static_cast<std::size_t>(rng.uniform_int(4, 14));
  for (std::size_t i = 0; i < steps; ++i) {
    const AlertType type = random_type(rng);
    observed.push_back(type);
    const double p = filter.observe(type);
    reference.observe(type, std::nullopt);
    const EntityResult cold = infer_entity(model(), observed, coupling);
    EXPECT_EQ(p, cold.p_malicious) << "step " << i;
    const auto last = filter.last_stage();
    ASSERT_EQ(cold.last_stage.size(), kS);
    for (std::size_t s = 0; s < kS; ++s) EXPECT_EQ(last[s], cold.last_stage[s]);
    EXPECT_NEAR(p, reference.p_malicious(), kGate) << "step " << i;
  }
  EXPECT_EQ(filter.observed(), steps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntityIncrementalOracle, ::testing::Range(0, 10));

// The gap term rides the same recurrence: with timing, the filter is exact
// for the entity graph extended by one log_gap factor per later stage.
class EntityFilterTiming : public ::testing::TestWithParam<int> {};

TEST_P(EntityFilterTiming, GapTermMatchesEnumeration) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 3);
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 8;
  std::vector<AlertType> observed;
  std::vector<GapBucket> gaps;
  EntityFilter timed(compiled());
  EntityFilter untimed(compiled());
  for (std::size_t i = 0; i < n; ++i) {
    observed.push_back(random_type(rng));
    gaps.push_back(static_cast<GapBucket>(rng.uniform_int(0, kBuckets - 1)));
    timed.observe(observed.back(), gaps.back());
    untimed.observe(observed.back());
  }
  expect_matches_exact(timed, enumerate_exact(timed_entity_graph(model(), observed, gaps)),
                       n, "timed n=" + std::to_string(n));
  expect_matches_exact(untimed, enumerate_exact(build_entity_graph(model(), observed)), n,
                       "untimed n=" + std::to_string(n));
  // The gap factors carry evidence: timing moves the posterior.
  EXPECT_NE(timed.p_malicious(), untimed.p_malicious());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntityFilterTiming, ::testing::Range(0, 8));

TEST(EntityFilter, LongHistoryMatchesLogDomainForwardPass) {
  // 5,000 alerts, gaps on, compared after every alert: log Z(u) to 1e-9
  // absolute (|log Z| grows past 3e4, so this is ~3e-14 relative) and the
  // posterior to 1e-9. The stream leans against the reference posterior
  // (mostly benign content while it says malicious, mostly attack content
  // otherwise) so the posterior crosses the middle of [0, 1], where it is
  // most sensitive, before the chain settles into attack stages for good.
  std::vector<AlertType> benign;
  std::vector<AlertType> attack;
  for (const auto& info : alerts::all_alert_info()) {
    (info.typical_stage >= AttackStage::kInProgress ? attack : benign).push_back(info.type);
  }
  const auto draw = [](util::Rng& rng, const std::vector<AlertType>& pool) {
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };
  util::Rng rng(2024);
  EntityFilter filter(compiled());
  LogDomainReference reference(model(), 1.0);
  std::size_t undecided = 0;
  for (std::size_t i = 0; i < 5000; ++i) {
    const bool lean_benign = reference.p_malicious() > 0.5;
    const bool contrary = rng.uniform_int(0, 9) < 3;
    const AlertType type = draw(rng, lean_benign != contrary ? benign : attack);
    const std::optional<GapBucket> gap =
        i == 0 ? std::nullopt
               : std::optional<GapBucket>(static_cast<GapBucket>(rng.uniform_int(0, kBuckets - 1)));
    const double p = filter.observe(type, gap);
    reference.observe(type, gap);
    ASSERT_NEAR(p, reference.p_malicious(), kGate) << "alert " << i;
    ASSERT_NEAR(filter.log_partition(0), reference.log_partition(0), kGate) << "alert " << i;
    ASSERT_NEAR(filter.log_partition(1), reference.log_partition(1), kGate) << "alert " << i;
    if (p > 0.01 && p < 0.99) ++undecided;
  }
  EXPECT_EQ(filter.observed(), 5000u);
  EXPECT_LT(reference.log_partition(0), -3e4);
  // Not vacuous: part of the comparison ran where the posterior is sensitive.
  EXPECT_GT(undecided, 25u);
}

TEST(EntityFilter, EmptyAndReset) {
  EntityFilter filter(compiled());
  EXPECT_EQ(filter.p_malicious(), 0.5);
  EXPECT_EQ(filter.observed(), 0u);
  const double first = filter.observe(AlertType::kC2Communication);
  filter.observe(AlertType::kPrivilegeEscalation);
  filter.reset();
  EXPECT_EQ(filter.p_malicious(), 0.5);
  EXPECT_EQ(filter.log_partition(0), 0.0);
  EXPECT_EQ(filter.observe(AlertType::kC2Communication), first);
  EXPECT_EQ(infer_entity(model(), {}).p_malicious, 0.5);
  EXPECT_TRUE(infer_entity(model(), {}).last_stage.empty());
}

TEST(EntityFilter, MaliciousPosteriorTracksAttackContent) {
  EntityFilter quiet(compiled());
  double benign = 0.0;
  for (int i = 0; i < 6; ++i) benign = quiet.observe(AlertType::kJobSubmitted);
  EntityFilter campaign(compiled());
  double attack = 0.0;
  for (const AlertType type :
       {AlertType::kPortScan, AlertType::kSshBruteforce, AlertType::kDownloadSensitive,
        AlertType::kCompileSource, AlertType::kNewBinaryExecuted, AlertType::kC2Communication}) {
    attack = campaign.observe(type);
  }
  EXPECT_GT(attack, benign);
  EXPECT_GT(attack, 0.5);
}

}  // namespace
}  // namespace at::fg
