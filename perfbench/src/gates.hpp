#pragma once
// Correctness gates, run outside every timed region.
//
//   Daemon workloads: the released verdict stream and the BHR audit log
//   must be byte-identical to a serial AlertPipeline run of the same
//   detectors over the same input.
//
//   flow_hour: delivered count, notifications and BHR audit from
//   Testbed::inject_flows must match a per-flow Testbed::inject_flow
//   replay with the same maintenance cadence.
//
// References record their output after every input item (or chunk), so a
// pass that ran over a prefix of the input is checked against exactly the
// reference's prefix.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alerts/queue.hpp"
#include "bhr/bhr.hpp"
#include "detect/detector.hpp"
#include "fg/model.hpp"
#include "incidents/generator.hpp"
#include "testbed/daemon.hpp"
#include "testbed/pipeline.hpp"
#include "testbed/testbed.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Shards in timed runs: workers plus the submitting thread fit 4 cores.
inline constexpr std::size_t kShards = 3;
/// Flows per inject_flows call, and the maintenance (run_until) cadence.
inline constexpr std::size_t kFlowChunk = 4096;
/// Maintenance tick period on the sim engine (flow_hour).
inline constexpr at::util::SimTime kMaintenancePeriod = at::util::kMinute;

/// Trained detector model: what set-up builds before the pipeline exists.
struct Model {
  std::shared_ptr<const at::fg::CompiledParams> compiled;
  std::shared_ptr<const at::detect::RuleBasedDetector> rules;
};
[[nodiscard]] Model train_model(const at::incidents::Corpus& training);

/// Factor-graph engine each workload deploys.
[[nodiscard]] at::detect::FgInference fg_inference(Workload workload) noexcept;

/// Register a daemon workload's detector stack on a pipeline or daemon:
/// critical-alert, factor-graph (the workload's engine) and rule-based.
void add_detectors(at::testbed::AlertPipeline& sink, const Model& model, Workload workload);
void add_detectors(at::testbed::DetectionDaemon& sink, const Model& model,
                   Workload workload);

/// Rendered output: one line per record, plus the byte offset after each
/// record so any prefix can be compared.
struct Rendered {
  std::string text;
  std::vector<std::size_t> ends;  ///< ends[i] = text length after record i

  void add(const std::string& line);
  [[nodiscard]] std::size_t count() const noexcept { return ends.size(); }
  [[nodiscard]] std::string prefix(std::size_t records) const;
};

[[nodiscard]] std::string render(const at::testbed::Notification& note);
[[nodiscard]] std::string render(const at::alerts::VerdictAlert& verdict);
[[nodiscard]] Rendered render_audit(const std::vector<at::bhr::ApiCall>& audit);

/// What a pass produced, in the gate's terms.
struct PassOutput {
  std::size_t items = 0;  ///< input lines / flows the pass covered
  Rendered verdicts;
  Rendered audit;
  std::uint64_t delivered = 0;  ///< flow_hour only
};

/// Serial reference: output counts after each input item.
struct Reference {
  std::size_t items = 0;  ///< input lines / flows in the whole input
  Rendered verdicts;
  Rendered audit;
  std::vector<std::uint32_t> verdicts_after;  ///< [item] -> verdicts so far
  std::vector<std::uint32_t> audit_after;
  std::vector<std::uint64_t> delivered_after;  ///< flow_hour only
};

/// `on_alert_seconds`, when given, receives the time spent in
/// AlertPipeline::on_alert (the serial pipeline's per-layer cost).
[[nodiscard]] Reference serial_reference(const Inputs& inputs, const Model& model,
                                         double* on_alert_seconds = nullptr);
[[nodiscard]] Reference flow_reference(const Inputs& inputs,
                                       const at::incidents::Corpus& training);

/// Empty string when the pass matches the reference's prefix; otherwise a
/// one-line description of the first divergence.
[[nodiscard]] std::string check(const Reference& reference, const PassOutput& pass);

}  // namespace perfbench
