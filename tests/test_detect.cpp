// Detector framework: each detector's firing semantics, the evaluation
// harness, and the paper's comparative claims (FG preempts where the
// critical-alert baseline is too late; single-alert thresholds drown).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <stdexcept>

#include "alloc_count.hpp"
#include "detect/eval.hpp"

namespace at::detect {
namespace {

using alerts::Alert;
using alerts::AlertType;

Alert make_alert(util::SimTime ts, AlertType type) {
  Alert alert;
  alert.ts = ts;
  alert.type = type;
  alert.host = "h";
  return alert;
}

std::optional<Detection> feed(Detector& detector, const std::vector<AlertType>& types) {
  detector.reset();
  for (std::size_t i = 0; i < types.size(); ++i) {
    if (auto hit = detector.observe(make_alert(static_cast<util::SimTime>(i * 10), types[i]), i)) {
      return hit;
    }
  }
  return std::nullopt;
}

const incidents::Corpus& corpus() {
  static const incidents::Corpus c = [] {
    incidents::CorpusConfig config;
    config.repetition_scale = 0.02;
    return incidents::CorpusGenerator(config).generate();
  }();
  return c;
}

TEST(CriticalAlertDetectorTest, FiresOnlyOnCritical) {
  CriticalAlertDetector detector;
  EXPECT_FALSE(feed(detector, {AlertType::kPortScan, AlertType::kDownloadSensitive,
                               AlertType::kLogTampering}));
  const auto hit = feed(detector, {AlertType::kPortScan, AlertType::kPrivilegeEscalation});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->alert_index, 1u);
}

TEST(CriticalAlertDetectorTest, FiresOnce) {
  CriticalAlertDetector detector;
  detector.reset();
  EXPECT_TRUE(detector.observe(make_alert(0, AlertType::kPrivilegeEscalation), 0));
  EXPECT_FALSE(detector.observe(make_alert(1, AlertType::kCredentialDump), 1));
}

TEST(ThresholdDetectorTest, SeverityFloor) {
  ThresholdDetector warn(alerts::Severity::kWarning);
  EXPECT_FALSE(feed(warn, {AlertType::kLoginSuccess, AlertType::kPortScan}));
  EXPECT_TRUE(feed(warn, {AlertType::kSshBruteforce}));  // warning severity
  ThresholdDetector high(alerts::Severity::kHigh);
  EXPECT_FALSE(feed(high, {AlertType::kSshBruteforce}));
  EXPECT_TRUE(feed(high, {AlertType::kRemoteCodeExec}));
}

TEST(RuleBasedDetectorTest, MatchesSubsequenceThroughNoise) {
  RuleBasedDetector detector({{"sig", {AlertType::kDownloadSensitive,
                                       AlertType::kCompileSource,
                                       AlertType::kLogTampering}}});
  const auto hit =
      feed(detector, {AlertType::kPortScan, AlertType::kDownloadSensitive,
                      AlertType::kLoginSuccess, AlertType::kCompileSource,
                      AlertType::kSshBruteforce, AlertType::kLogTampering});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->alert_index, 5u);  // fires at the completing alert
  EXPECT_NE(hit->reason.find("sig"), std::string::npos);
}

TEST(RuleBasedDetectorTest, NoMatchOnWrongOrder) {
  RuleBasedDetector detector({{"sig", {AlertType::kCompileSource,
                                       AlertType::kDownloadSensitive}}});
  EXPECT_FALSE(feed(detector, {AlertType::kDownloadSensitive, AlertType::kCompileSource}));
}

TEST(RuleBasedDetectorTest, ResetClearsProgress) {
  RuleBasedDetector detector({{"sig", {AlertType::kDownloadSensitive,
                                       AlertType::kCompileSource}}});
  detector.reset();
  detector.observe(make_alert(0, AlertType::kDownloadSensitive), 0);
  detector.reset();
  EXPECT_FALSE(detector.observe(make_alert(1, AlertType::kCompileSource), 1));
}

TEST(RuleBasedDetectorTest, TrainExtractsPreDamagePrefixes) {
  const auto detector = RuleBasedDetector::train(corpus().incidents, 4, 2);
  EXPECT_GT(detector.signature_count(), 10u);
  // Signatures are capped at 43 distinct cores (some prefixes coincide).
  EXPECT_LE(detector.signature_count(), 43u);
}

// The per-signature scan that the type-indexed table replaced, kept as the
// oracle: every alert visits every signature in order, each advances at
// most once, and the first to complete fires.
class NaiveRuleMatcher {
 public:
  explicit NaiveRuleMatcher(std::vector<RuleBasedDetector::Signature> signatures)
      : signatures_(std::move(signatures)), progress_(signatures_.size(), 0) {}

  void add_signature(RuleBasedDetector::Signature signature) {
    signatures_.push_back(std::move(signature));
    progress_.push_back(0);
  }
  void reset() {
    fired_ = false;
    std::fill(progress_.begin(), progress_.end(), 0);
  }
  std::optional<Detection> observe(const Alert& alert, std::size_t index) {
    if (fired_) return std::nullopt;
    for (std::size_t s = 0; s < signatures_.size(); ++s) {
      const auto& steps = signatures_[s].alerts;
      if (progress_[s] < steps.size() && steps[progress_[s]] == alert.type) {
        if (++progress_[s] == steps.size()) {
          fired_ = true;
          return Detection{index, alert.ts, 1.0, "matched " + signatures_[s].name};
        }
      }
    }
    return std::nullopt;
  }

 private:
  std::vector<RuleBasedDetector::Signature> signatures_;
  std::vector<std::size_t> progress_;
  bool fired_ = false;
};

/// Random signature sets over a small type pool, so repeated types inside
/// one signature and prefixes shared between signatures are common.
std::vector<RuleBasedDetector::Signature> random_signatures(
    std::mt19937& rng, const std::vector<AlertType>& pool) {
  std::vector<RuleBasedDetector::Signature> signatures(rng() % 24);
  for (std::size_t s = 0; s < signatures.size(); ++s) {
    auto& steps = signatures[s].alerts;
    if (s > 0 && rng() % 3 == 0) {
      const auto& earlier = signatures[rng() % s].alerts;
      steps.assign(earlier.begin(), earlier.begin() + static_cast<std::ptrdiff_t>(
                                                          rng() % (earlier.size() + 1)));
    }
    const std::size_t extra = rng() % 5;
    for (std::size_t i = 0; i < extra; ++i) steps.push_back(pool[rng() % pool.size()]);
    signatures[s].name = "sig-" + std::to_string(s);
  }
  return signatures;
}

void expect_same(const std::optional<Detection>& got, const std::optional<Detection>& want,
                 const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!want) return;
  EXPECT_EQ(got->alert_index, want->alert_index) << where;
  EXPECT_EQ(got->ts, want->ts) << where;
  EXPECT_EQ(got->score, want->score) << where;
  EXPECT_EQ(got->reason, want->reason) << where;
}

TEST(RuleBasedDetectorTable, MatchesNaiveScanOnRandomSignatureSets) {
  std::mt19937 rng(20240611);
  std::size_t fired = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // Six signature types plus two that appear in no signature.
    std::vector<AlertType> types;
    while (types.size() < 8) {
      const auto type = static_cast<AlertType>(rng() % alerts::kNumAlertTypes);
      if (std::find(types.begin(), types.end(), type) == types.end()) types.push_back(type);
    }
    const std::vector<AlertType> pool(types.begin(), types.begin() + 6);
    const auto signatures = random_signatures(rng, pool);
    RuleBasedDetector table(signatures);
    NaiveRuleMatcher naive(signatures);
    // Three streams per set, with a reset between them; the third runs
    // after a runtime add_signature.
    for (int pass = 0; pass < 3; ++pass) {
      if (pass == 2) {
        auto extra = random_signatures(rng, pool);
        if (!extra.empty()) {
          extra.front().name = "added";
          table.add_signature(extra.front());
          naive.add_signature(extra.front());
        }
      }
      table.reset();
      naive.reset();
      const std::size_t length = rng() % 30;
      for (std::size_t i = 0; i < length; ++i) {
        const Alert alert = make_alert(static_cast<util::SimTime>(i), types[rng() % types.size()]);
        const auto want = naive.observe(alert, i);
        fired += want.has_value() ? 1 : 0;
        expect_same(table.observe(alert, i), want,
                    "trial " + std::to_string(trial) + " pass " + std::to_string(pass) +
                        " alert " + std::to_string(i));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(fired, 100u) << "generator too sparse to exercise firing";
}

TEST(RuleBasedDetectorTable, RepeatedTypeAdvancesOncePerAlert) {
  RuleBasedDetector detector({{"aab", {AlertType::kPortScan, AlertType::kPortScan,
                                       AlertType::kSshBruteforce}}});
  EXPECT_FALSE(feed(detector, {AlertType::kPortScan, AlertType::kSshBruteforce}));
  const auto hit = feed(detector, {AlertType::kPortScan, AlertType::kPortScan,
                                   AlertType::kSshBruteforce});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->alert_index, 2u);
}

TEST(RuleBasedDetectorTable, LowestCompletingSignatureFires) {
  RuleBasedDetector detector({{"first", {AlertType::kPortScan, AlertType::kCompileSource}},
                              {"second", {AlertType::kCompileSource}}});
  const auto hit = feed(detector, {AlertType::kPortScan, AlertType::kCompileSource});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->reason, "matched first");
}

TEST(RuleBasedDetectorTable, AddSignatureLeavesEarlierCopiesAlone) {
  RuleBasedDetector original({{"scan-brute", {AlertType::kPortScan,
                                              AlertType::kSshBruteforce}}});
  original.reset();
  ASSERT_FALSE(original.observe(make_alert(0, AlertType::kPortScan), 0));
  const RuleBasedDetector before = original;
  original.add_signature({"compile", {AlertType::kCompileSource}});
  EXPECT_EQ(original.signature_count(), 2u);
  EXPECT_EQ(before.signature_count(), 1u);

  // The earlier copy does not know the new signature...
  RuleBasedDetector old_set = before;
  EXPECT_FALSE(feed(old_set, {AlertType::kCompileSource}));
  // ...and the updated detector keeps its progress on the old ones.
  const auto hit = original.observe(make_alert(1, AlertType::kSshBruteforce), 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->reason, "matched scan-brute");
  RuleBasedDetector after = original;
  const auto added = feed(after, {AlertType::kCompileSource});
  ASSERT_TRUE(added.has_value());
  EXPECT_EQ(added->reason, "matched compile");
}

TEST(RuleBasedDetectorTable, SignatureLengthBound) {
  const std::vector<AlertType> at_bound(RuleBasedDetector::kMaxSignatureLength,
                                        AlertType::kPortScan);
  RuleBasedDetector detector({{"longest", at_bound}});
  std::vector<AlertType> stream(at_bound.size() - 1, AlertType::kPortScan);
  EXPECT_FALSE(feed(detector, stream));
  stream.push_back(AlertType::kPortScan);
  const auto hit = feed(detector, stream);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->alert_index, RuleBasedDetector::kMaxSignatureLength - 1);

  auto too_long = at_bound;
  too_long.push_back(AlertType::kPortScan);
  EXPECT_THROW(RuleBasedDetector({{"too-long", too_long}}), std::invalid_argument);
  EXPECT_THROW(detector.add_signature({"too-long", too_long}), std::invalid_argument);
  EXPECT_EQ(detector.signature_count(), 1u);
}

TEST(RuleBasedDetectorAllocation, CopyAllocatesOnceAndWarmObserveNever) {
  const auto trained = RuleBasedDetector::train(corpus().incidents);
  ASSERT_GT(trained.signature_count(), 0u);
  std::optional<RuleBasedDetector> copy;
  EXPECT_EQ(test_support::allocations_during([&] { copy.emplace(trained); }), 1u)
      << "a per-entity copy should allocate only its progress array";

  // Scanning and brute-forcing without ever reaching the later stages
  // advances signatures but completes none.
  copy->reset();
  const std::vector<AlertType> types = {AlertType::kPortScan, AlertType::kSshBruteforce,
                                        AlertType::kLoginSuccess, AlertType::kJobSubmitted};
  std::vector<Alert> stream;
  for (std::size_t i = 0; i < 256; ++i) {
    stream.push_back(make_alert(static_cast<util::SimTime>(i), types[i % types.size()]));
  }
  bool fired = false;
  const auto allocated = test_support::allocations_during([&] {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      fired = copy->observe(stream[i], i).has_value() || fired;
    }
  });
  ASSERT_FALSE(fired);
  EXPECT_EQ(allocated, 0u) << "non-firing observe touched the heap";
}

TEST(FactorGraphDetectorTest, FiresOnAttackNotOnBenign) {
  auto detector = FactorGraphDetector::train(corpus(), 0.75);
  const auto hit = feed(detector, {AlertType::kDownloadSensitive, AlertType::kCompileSource,
                                   AlertType::kLogTampering});
  ASSERT_TRUE(hit.has_value());
  EXPECT_GE(hit->score, 0.75);
  EXPECT_FALSE(feed(detector, {AlertType::kLoginSuccess, AlertType::kJobSubmitted,
                               AlertType::kJobCompleted, AlertType::kLogout}));
}

TEST(FactorGraphDetectorTest, ThresholdControlsSensitivity) {
  auto eager = FactorGraphDetector::train(corpus(), 0.30);
  auto strict = FactorGraphDetector::train(corpus(), 0.97);
  const std::vector<AlertType> attack = {AlertType::kDbPortProbe,
                                         AlertType::kDefaultPasswordLogin,
                                         AlertType::kDbPayloadEncoding,
                                         AlertType::kDbFileExport};
  const auto eager_hit = feed(eager, attack);
  const auto strict_hit = feed(strict, attack);
  ASSERT_TRUE(eager_hit.has_value());
  if (strict_hit) {
    EXPECT_LE(eager_hit->alert_index, strict_hit->alert_index);
  }
}

// --- evaluation harness ---

struct EvalFixture : public ::testing::Test {
  void SetUp() override {
    split = split_corpus(corpus());
    for (const auto& incident : split.test) {
      attacks.push_back(attack_stream(incident));
    }
    incidents::DailyNoiseModel noise;
    benign = benign_streams(noise, 0, 10, 300);
  }
  Split split;
  std::vector<Stream> attacks;
  std::vector<Stream> benign;
};

TEST_F(EvalFixture, SplitIsDisjointAndComplete) {
  EXPECT_EQ(split.train.incidents.size() + split.test.size(), 228u);
  for (const auto& incident : split.train.incidents) EXPECT_EQ(incident.id % 2, 0u);
  for (const auto& incident : split.test) EXPECT_EQ(incident.id % 2, 1u);
}

TEST_F(EvalFixture, AttackStreamCarriesDamageIndex) {
  for (std::size_t i = 0; i < attacks.size(); ++i) {
    const auto& stream = attacks[i];
    EXPECT_TRUE(stream.is_attack);
    EXPECT_FALSE(stream.alerts.empty());
    if (stream.damage_index) {
      EXPECT_TRUE(stream.alerts[*stream.damage_index].critical());
      ASSERT_TRUE(stream.damage_ts.has_value());
      EXPECT_EQ(stream.alerts[*stream.damage_index].ts, *stream.damage_ts);
    }
  }
}

TEST_F(EvalFixture, FactorGraphPreemptsEverythingItDetects) {
  auto detector = FactorGraphDetector::train(split.train, 0.75);
  const auto result = evaluate(detector, attacks, benign);
  EXPECT_GT(result.recall(), 0.9);
  EXPECT_GT(result.precision(), 0.9);
  // The headline property: detections come *before* the damage instant.
  EXPECT_GT(result.preemption_rate(), 0.9);
  EXPECT_GT(result.lead_seconds.mean(), 0.0);
}

TEST_F(EvalFixture, CriticalBaselineNeverPreempts) {
  // Insight 4: firing on critical alerts is always too late.
  CriticalAlertDetector detector;
  const auto result = evaluate(detector, attacks, benign);
  EXPECT_EQ(result.preempted, 0u);
  EXPECT_EQ(result.false_positives, 0u);
  // It also misses every attack without a recorded critical alert.
  EXPECT_LT(result.recall(), 0.6);
}

TEST_F(EvalFixture, ThresholdBaselineDrownsInNoise) {
  // Remark 2: single-alert decisions have a high false-positive rate.
  ThresholdDetector detector(alerts::Severity::kWarning);
  const auto result = evaluate(detector, attacks, benign);
  EXPECT_EQ(result.false_positives, benign.size());  // pages on every day
}

TEST_F(EvalFixture, FgOutleadsRules) {
  auto fg = FactorGraphDetector::train(split.train, 0.75);
  auto rules = RuleBasedDetector::train(split.train.incidents);
  const auto fg_result = evaluate(fg, attacks, benign);
  const auto rule_result = evaluate(rules, attacks, benign);
  EXPECT_GE(fg_result.preemption_rate(), rule_result.preemption_rate() - 0.05);
  EXPECT_GE(fg_result.precision(), rule_result.precision());
}

TEST_F(EvalFixture, RecallAtPrefixMatchesInsight2) {
  // Insight 2: a preemption model must already work at 2-4 observed
  // alerts. Recall grows with the prefix and is substantial by 4.
  auto detector = FactorGraphDetector::train(split.train, 0.75);
  const double r1 = recall_at_prefix(detector, attacks, 1);
  const double r4 = recall_at_prefix(detector, attacks, 4);
  const double r16 = recall_at_prefix(detector, attacks, 16);
  EXPECT_LE(r1, r4);
  EXPECT_LE(r4, r16 + 1e-9);
  EXPECT_GT(r4, 0.3);
}

TEST(EvalResultTest, MetricArithmetic) {
  EvalResult result;
  result.true_positives = 8;
  result.false_negatives = 2;
  result.false_positives = 2;
  result.damage_streams = 5;
  result.preempted = 4;
  EXPECT_DOUBLE_EQ(result.precision(), 0.8);
  EXPECT_DOUBLE_EQ(result.recall(), 0.8);
  EXPECT_DOUBLE_EQ(result.preemption_rate(), 0.8);
  EXPECT_NEAR(result.f1(), 0.8, 1e-12);
  EvalResult empty;
  EXPECT_EQ(empty.precision(), 0.0);
  EXPECT_EQ(empty.recall(), 0.0);
  EXPECT_EQ(empty.f1(), 0.0);
}

}  // namespace
}  // namespace at::detect
