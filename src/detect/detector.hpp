#pragma once
// Detector framework. A Detector consumes one time-ordered alert stream
// (one attack entity, or one benign window) and reports the first moment it
// would page the security team. The four implementations span the design
// space the paper argues about:
//   - CriticalAlertDetector: fire on any of the 19 critical alerts — the
//     "too late" baseline of Insight 4.
//   - ThresholdDetector: fire on any single alert of sufficient severity —
//     the noisy single-alert baseline of Remark 2.
//   - RuleBasedDetector: match known pre-damage signature subsequences
//     (the testbed's rule-based model, ref [5]).
//   - FactorGraphDetector: AttackTagger — forward-filtered stage posterior
//     crossing a probability threshold (ref [6]).

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "alerts/alert.hpp"
#include "fg/model.hpp"
#include "incidents/incident.hpp"
#include "util/annotations.hpp"

namespace at::detect {

struct Detection {
  std::size_t alert_index = 0;  ///< index into the stream (0-based)
  util::SimTime ts = 0;
  double score = 0.0;  ///< model confidence at firing time
  std::string reason;
};

class Detector {
 public:
  virtual ~Detector() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Restart for a new stream.
  virtual void reset() = 0;
  /// Absorb one alert; returns a detection the first time the stream
  /// crosses the firing condition (and nothing on later alerts). Concrete
  /// overrides carry AT_HOT: observe() runs once per kept alert inside the
  /// shard drain, so at_lint audits everything reachable from each
  /// implementation for blocking calls and defaulted atomic orders.
  virtual std::optional<Detection> observe(const alerts::Alert& alert,
                                           std::size_t index) = 0;
};

/// Fires on the first of the paper's 19 critical alert types.
class CriticalAlertDetector final : public Detector {
 public:
  [[nodiscard]] std::string name() const override { return "critical-alert"; }
  void reset() override { fired_ = false; }
  std::optional<Detection> observe(const alerts::Alert& alert, std::size_t index) override
      AT_HOT;

 private:
  bool fired_ = false;
};

/// Fires on any single alert at or above a severity floor.
class ThresholdDetector final : public Detector {
 public:
  explicit ThresholdDetector(alerts::Severity floor = alerts::Severity::kWarning)
      : floor_(floor) {}
  [[nodiscard]] std::string name() const override { return "single-alert-threshold"; }
  void reset() override { fired_ = false; }
  std::optional<Detection> observe(const alerts::Alert& alert, std::size_t index) override
      AT_HOT;

 private:
  alerts::Severity floor_;
  bool fired_ = false;
};

/// Matches known signature subsequences (learned from training incidents).
/// The signatures live in one immutable Table shared by every copy, so the
/// per-entity fan-out in the alert pipelines copies a refcount and one
/// progress byte per signature, and observe() visits only the signatures
/// that contain the alert's type.
class RuleBasedDetector final : public Detector {
 public:
  struct Signature {
    std::string name;
    std::vector<alerts::AlertType> alerts;
  };

  /// Longest accepted signature: progress is kept in one byte per signature.
  static constexpr std::size_t kMaxSignatureLength = std::numeric_limits<std::uint8_t>::max();

  /// Throws std::invalid_argument if a signature is longer than
  /// kMaxSignatureLength.
  explicit RuleBasedDetector(std::vector<Signature> signatures);

  /// Extract signatures from training incidents: the pre-damage prefix of
  /// each distinct core sequence, truncated to `max_len` alerts
  /// (Insight 2's effective range) and deduplicated.
  static RuleBasedDetector train(const std::vector<incidents::Incident>& training,
                                 std::size_t max_len = 4, std::size_t min_len = 2);

  [[nodiscard]] std::string name() const override { return "rule-based"; }
  [[nodiscard]] std::size_t signature_count() const noexcept {
    return table_->signatures.size();
  }
  /// Add a signature at runtime — the paper's feedback loop where alerts
  /// from a preempted attack refine the deployed ruleset. The shared table
  /// is rebuilt copy-on-write: copies taken earlier keep the old set.
  /// Throws std::invalid_argument as the constructor does.
  void add_signature(Signature signature);
  void reset() override;
  std::optional<Detection> observe(const alerts::Alert& alert, std::size_t index) override
      AT_HOT;

 private:
  /// The signature set, immutable once built.
  struct Table {
    std::vector<Signature> signatures;
    /// Ids of the signatures containing type t, ascending and each once:
    /// ids[type_begin[t] .. type_begin[t + 1]).
    std::array<std::uint32_t, alerts::kNumAlertTypes + 1> type_begin{};
    std::vector<std::uint32_t> ids;
  };
  static std::shared_ptr<const Table> build_table(std::vector<Signature> signatures);

  std::shared_ptr<const Table> table_;
  std::vector<std::uint8_t> progress_;  ///< matched prefix length per signature
  bool fired_ = false;
};

/// Which inference engine backs a FactorGraphDetector.
enum class FgInference : std::uint8_t {
  /// Streaming forward filter on the chain (the default; O(stages^2) per
  /// alert, no entity variable).
  kForwardFilter,
  /// Entity-augmented model (chain + binary user state U), inferred
  /// exactly and incrementally by fg::EntityFilter: two forward passes,
  /// one per value of U, O(1) state per entity and no history. Fires on
  /// P(U = malicious).
  kEntityIncremental,
};

/// AttackTagger: factor-graph stage inference with a posterior threshold.
/// With `use_timing` either engine also conditions on inter-alert gap
/// buckets (Insight 3: probe bursts vs manual-stage pauses are themselves
/// evidence). The entity mode fires on P(user-state = malicious) instead
/// of the staged posterior; `coupling` is the U<->stage consistency
/// strength.
class FactorGraphDetector final : public Detector {
 public:
  FactorGraphDetector(fg::ModelParams params, double threshold = 0.75,
                      alerts::AttackStage stage = alerts::AttackStage::kInProgress,
                      bool use_timing = false,
                      FgInference inference = FgInference::kForwardFilter,
                      double coupling = 1.0);
  /// Shares pre-compiled tables: the cheap constructor for per-entity
  /// fan-out in the alert pipelines (one detector per tracked entity).
  explicit FactorGraphDetector(std::shared_ptr<const fg::CompiledParams> compiled,
                               double threshold = 0.75,
                               alerts::AttackStage stage = alerts::AttackStage::kInProgress,
                               bool use_timing = false,
                               FgInference inference = FgInference::kForwardFilter,
                               double coupling = 1.0);

  /// Learn parameters from a training corpus and wrap them.
  static FactorGraphDetector train(const incidents::Corpus& training,
                                   double threshold = 0.75, bool use_timing = false);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] const fg::ModelParams& params() const noexcept;
  [[nodiscard]] FgInference inference() const noexcept {
    return std::holds_alternative<fg::EntityFilter>(engine_) ? FgInference::kEntityIncremental
                                                            : FgInference::kForwardFilter;
  }
  void reset() override;
  std::optional<Detection> observe(const alerts::Alert& alert, std::size_t index) override
      AT_HOT;

 private:
  double threshold_;
  alerts::AttackStage stage_;
  bool use_timing_;
  /// Only the engine the mode runs: a ForwardFilter for kForwardFilter,
  /// an EntityFilter for kEntityIncremental.
  std::variant<fg::ForwardFilter, fg::EntityFilter> engine_;
  std::optional<util::SimTime> last_ts_;
  bool fired_ = false;
};

}  // namespace at::detect
