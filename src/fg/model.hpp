#pragma once
// The AttackTagger model: a chain factor graph over hidden per-event attack
// stages (benign, suspicious, in_progress, compromised), with emission
// factors tying each observed alert to its stage and transition factors
// enforcing stage progression. Parameters are learned from an annotated
// incident corpus plus benign traffic (Laplace-smoothed counts) — this is
// the "conditional probability of an alert being in a successful attack
// and normal operational conditions" of Remark 2.

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "alerts/taxonomy.hpp"
#include "fg/bp.hpp"
#include "fg/graph.hpp"
#include "incidents/generator.hpp"
#include "util/annotations.hpp"
#include "util/time_utils.hpp"

namespace at::fg {

/// Inter-alert gap buckets (Insight 3: automated probing arrives in tight
/// bursts, manual attack stages hours apart — timing is itself evidence).
enum class GapBucket : std::uint8_t {
  kBurst = 0,    ///< < 30 s since the previous alert
  kMinutes = 1,  ///< < 1 h
  kHours = 2,    ///< < 1 day
  kDays = 3      ///< >= 1 day
};
inline constexpr std::size_t kNumGapBuckets = 4;

[[nodiscard]] GapBucket bucket_for_gap(util::SimTime gap) noexcept;

/// Learned model parameters (all natural-log probabilities).
struct ModelParams {
  /// log P(stage) at the first event; [stage].
  std::vector<double> log_prior;
  /// log P(stage_t | stage_{t-1}); [prev * kNumStages + next].
  std::vector<double> log_transition;
  /// log P(alert type | stage); [stage * kNumAlertTypes + type].
  std::vector<double> log_emission;
  /// log P(gap bucket | stage); [stage * kNumGapBuckets + bucket]. Used by
  /// the time-aware detector variant (Insight 3 ablation).
  std::vector<double> log_gap;

  [[nodiscard]] double prior(alerts::AttackStage stage) const {
    return log_prior[static_cast<std::size_t>(stage)];
  }
  [[nodiscard]] double transition(alerts::AttackStage prev, alerts::AttackStage next) const {
    return log_transition[static_cast<std::size_t>(prev) * alerts::kNumStages +
                          static_cast<std::size_t>(next)];
  }
  [[nodiscard]] double emission(alerts::AttackStage stage, alerts::AlertType type) const {
    return log_emission[static_cast<std::size_t>(stage) * alerts::kNumAlertTypes +
                        static_cast<std::size_t>(type)];
  }
  [[nodiscard]] double gap(alerts::AttackStage stage, GapBucket bucket) const {
    return log_gap[static_cast<std::size_t>(stage) * kNumGapBuckets +
                   static_cast<std::size_t>(bucket)];
  }
};

struct LearnOptions {
  double laplace = 1.0;  ///< additive smoothing count
  /// Weight of monotonic-progression preference baked into transitions:
  /// attacks rarely de-escalate; regressing transitions are down-weighted.
  double regression_penalty = 0.25;
};

/// Estimate parameters from a corpus's annotated timelines.
[[nodiscard]] ModelParams learn_params(const incidents::Corpus& corpus,
                                       const LearnOptions& options = {});

/// Build the chain factor graph for an observed alert-type sequence:
/// one stage variable per event, an emission factor per event, and a
/// transition factor per adjacent pair (plus a prior factor on the first).
[[nodiscard]] FactorGraph build_chain(const ModelParams& params,
                                      std::span<const alerts::AlertType> observed);

/// Exponentiated (linear-domain) parameter tables, immutable and shared:
/// every ForwardFilter built from one CompiledParams costs a refcount bump
/// instead of four vector copies, and observe() stops paying ~20 exp()
/// calls per event. Values are bit-identical to exponentiating the log
/// tables on the fly, so filters built either way agree exactly. This is
/// what makes per-entity detector fan-out cheap in the alert pipelines
/// (tens of thousands of entities, one filter each).
struct CompiledParams {
  ModelParams params;              ///< log-domain source, kept for callers
  std::vector<double> prior;       ///< [stage]
  std::vector<double> transition;  ///< [prev * kNumStages + next]
  std::vector<double> emission;    ///< [stage * kNumAlertTypes + type]
  std::vector<double> gap;         ///< [stage * kNumGapBuckets + bucket]; empty if unused
};

[[nodiscard]] std::shared_ptr<const CompiledParams> compile_params(ModelParams params);

/// Streaming forward filter over the chain (O(stages^2) per event):
/// maintains P(stage_t | alerts_1..t). This is what the online detector
/// runs; it is algebraically identical to sum-product BP restricted to the
/// forward direction of the chain (verified in tests). Its recurrence step
/// is shared with EntityFilter.
class ForwardFilter {
 public:
  /// Compiles a private table set; the filter — and anything embedding it —
  /// stays freely copyable and movable.
  explicit ForwardFilter(ModelParams params);
  /// Shares an existing table set (the cheap per-entity constructor).
  explicit ForwardFilter(std::shared_ptr<const CompiledParams> compiled);

  /// Absorb one observation; returns the posterior over the current stage.
  /// `gap` (time since the previous alert of this stream) enables the
  /// time-aware emission term; pass nullopt to ignore timing.
  const std::vector<double>& observe(alerts::AlertType type,
                                     std::optional<GapBucket> gap = std::nullopt);

  [[nodiscard]] const std::vector<double>& posterior() const noexcept { return belief_; }
  [[nodiscard]] double p_at_least(alerts::AttackStage stage) const;
  [[nodiscard]] std::size_t observed() const noexcept { return count_; }
  [[nodiscard]] const ModelParams& params() const noexcept { return compiled_->params; }
  void reset();

 private:
  std::shared_ptr<const CompiledParams> compiled_;
  std::vector<double> belief_;  ///< linear, normalized
  std::size_t count_ = 0;
};

/// Full-sequence posterior of the *last* stage via sum-product BP on the
/// chain. Test oracle for ForwardFilter and the bench workload for
/// inference-cost scaling.
[[nodiscard]] std::vector<double> chain_posterior_last(const ModelParams& params,
                                                       std::span<const alerts::AlertType> observed,
                                                       const BpOptions& options = {});

/// Most likely stage sequence for the full observation (Viterbi on the
/// chain) — what the original AttackTagger emits to tag each event for
/// forensics. Equivalent to max-product BP on the chain factor graph
/// (verified in tests) but O(n * stages^2) directly.
[[nodiscard]] std::vector<alerts::AttackStage> decode_stages(
    const ModelParams& params, std::span<const alerts::AlertType> observed);

/// Entity-augmented model (the original AttackTagger's full shape, from
/// PULSAR): the per-event stage chain plus one global binary *user-state*
/// variable U (legitimate / malicious, uniform prior) coupled to every
/// stage variable. The coupling factor rewards consistency: a malicious
/// user explains in_progress and compromised stages, a legitimate one
/// explains benign/suspicious. The graph is loopy, but fixing U leaves a
/// chain whose coupling factors are unary per stage, so the exact
/// posterior is a softmax over log Z(u), each from one forward pass.
///
/// EntityFilter runs both passes as a stream: two stage beliefs (one per
/// value of U) and two running log-normalizers, no history. Each pass is
/// ForwardFilter's recurrence with the coupling row folded into the
/// emission. With a gap bucket, every event after the first also carries
/// the gap factor, as in ForwardFilter.
class EntityFilter {
 public:
  /// `coupling` > 0 is the log-strength of the U<->stage consistency factor.
  explicit EntityFilter(std::shared_ptr<const CompiledParams> compiled, double coupling = 1.0);

  /// Absorb one observation; returns P(U = malicious | alerts so far).
  double observe(alerts::AlertType type, std::optional<GapBucket> gap = std::nullopt) AT_HOT;

  /// 0.5 before the first observation.
  [[nodiscard]] double p_malicious() const noexcept;
  /// log Z(u): the log partition function of the entity model with U
  /// clamped to u (chain, coupling and gap factors; the uniform prior on U
  /// left out). 0 before the first observation.
  [[nodiscard]] double log_partition(std::size_t user) const { return log_z_.at(user); }
  /// Exact posterior over the current stage, U summed out.
  [[nodiscard]] std::array<double, alerts::kNumStages> last_stage() const noexcept;
  [[nodiscard]] std::size_t observed() const noexcept { return count_; }
  [[nodiscard]] const ModelParams& params() const noexcept { return compiled_->params; }
  void reset() noexcept;

 private:
  using Row = std::array<double, alerts::kNumStages>;
  std::shared_ptr<const CompiledParams> compiled_;
  std::array<Row, 2> coupling_{};  ///< linear coupling factor row per value of U
  std::array<Row, 2> belief_{};    ///< P(stage_t | alerts, U = u), normalized
  std::array<double, 2> log_z_{};
  std::size_t count_ = 0;
};

/// Exact posterior of a whole history (an EntityFilter run over `observed`).
struct EntityResult {
  double p_malicious = 0.5;        ///< posterior of U = malicious
  std::vector<double> last_stage;  ///< posterior over the final stage; empty if no alerts
};

[[nodiscard]] EntityResult infer_entity(const ModelParams& params,
                                        std::span<const alerts::AlertType> observed,
                                        double coupling = 1.0);

/// Build the loopy entity graph itself: the offline form of the model, for
/// run_bp and the enumerate_exact oracle. Variable 0..n-1 are the stages;
/// variable n is U.
[[nodiscard]] FactorGraph build_entity_graph(const ModelParams& params,
                                             std::span<const alerts::AlertType> observed,
                                             double coupling = 1.0);

}  // namespace at::fg
