#include "gates.hpp"

#include <cstdio>
#include <span>

#include "alerts/zeeklog.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace at;

std::string score_text(double score) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", score);
  return buf;
}

std::string verdict_line(util::SimTime ts, const std::string& entity,
                         const std::string& detector, const std::string& reason,
                         double score, const std::optional<net::Ipv4>& source) {
  return std::to_string(ts) + '\t' + entity + '\t' + detector + '\t' + reason + '\t' +
         score_text(score) + '\t' + (source ? source->str() : "-") + '\n';
}

template <typename Sink>
void add_stack(Sink& sink, const Model& model, Workload workload) {
  sink.add_detector("critical-alert",
                    [] { return std::make_unique<detect::CriticalAlertDetector>(); });
  const detect::FgInference inference = fg_inference(workload);
  sink.add_detector("factor-graph", [compiled = model.compiled, inference] {
    return std::make_unique<detect::FactorGraphDetector>(
        compiled, 0.75, alerts::AttackStage::kInProgress, false, inference);
  });
  sink.add_detector("rule-based", [rules = model.rules] {
    auto copy = std::make_unique<detect::RuleBasedDetector>(*rules);
    copy->reset();
    return copy;
  });
}

}  // namespace

Model train_model(const incidents::Corpus& training) {
  Model model;
  model.compiled = fg::compile_params(fg::learn_params(training));
  model.rules = std::make_shared<const detect::RuleBasedDetector>(
      detect::RuleBasedDetector::train(training.incidents));
  return model;
}

detect::FgInference fg_inference(Workload workload) noexcept {
  return workload == Workload::kCampaignEntity ? detect::FgInference::kEntityIncremental
                                               : detect::FgInference::kForwardFilter;
}

void add_detectors(testbed::AlertPipeline& sink, const Model& model, Workload workload) {
  add_stack(sink, model, workload);
}
void add_detectors(testbed::DetectionDaemon& sink, const Model& model, Workload workload) {
  add_stack(sink, model, workload);
}

void Rendered::add(const std::string& line) {
  text += line;
  ends.push_back(text.size());
}

std::string Rendered::prefix(std::size_t records) const {
  return records == 0 ? std::string() : text.substr(0, ends[records - 1]);
}

std::string render(const testbed::Notification& note) {
  return verdict_line(note.ts, note.entity, note.detector, note.reason, note.score,
                      note.source);
}

std::string render(const alerts::VerdictAlert& verdict) {
  return verdict_line(verdict.ts, verdict.entity, verdict.detector, verdict.reason,
                      verdict.score, verdict.source);
}

Rendered render_audit(const std::vector<bhr::ApiCall>& audit) {
  Rendered out;
  for (const auto& call : audit) {
    out.add(std::to_string(call.ts) + '\t' + call.method + '\t' + call.source.str() + '/' +
            std::to_string(call.prefix_len) + '\t' + call.client + '\t' +
            (call.ok ? "ok" : "refused") + '\n');
  }
  return out;
}

Reference serial_reference(const Inputs& inputs, const Model& model,
                           double* on_alert_seconds) {
  const auto batch = alerts::parse_notice_batch(inputs.log);
  bhr::BlackHoleRouter router;
  testbed::AlertPipeline pipeline(testbed::PipelineConfig{}, &router);
  add_detectors(pipeline, model, inputs.workload);
  Reference ref;
  ref.items = batch.size();
  ref.verdicts_after.reserve(batch.size());
  ref.audit_after.reserve(batch.size());
  std::uint32_t audit_count = 0;
  std::vector<alerts::Alert> chunk;
  std::int64_t on_alert_ns = 0;
  constexpr std::size_t kChunk = 4096;  // rows materialized ahead of each timed run
  for (std::size_t at = 0; at < batch.size(); at += kChunk) {
    const std::size_t end = std::min(batch.size(), at + kChunk);
    chunk.clear();
    for (std::size_t row = at; row < end; ++row) chunk.push_back(batch.materialize(row));
    const std::int64_t start = now_ns();
    for (const auto& alert : chunk) {
      const std::size_t before = pipeline.notifications().size();
      pipeline.on_alert(alert);
      // Blocks happen only on a notification, so the audit is re-read
      // only then.
      if (pipeline.notifications().size() != before) {
        audit_count = static_cast<std::uint32_t>(router.stats(0).api_calls);
      }
      ref.verdicts_after.push_back(static_cast<std::uint32_t>(pipeline.notifications().size()));
      ref.audit_after.push_back(audit_count);
    }
    on_alert_ns += now_ns() - start;
  }
  if (on_alert_seconds != nullptr) *on_alert_seconds = static_cast<double>(on_alert_ns) * 1e-9;
  for (const auto& note : pipeline.notifications()) ref.verdicts.add(render(note));
  ref.audit = render_audit(router.audit_log());
  return ref;
}

Reference flow_reference(const Inputs& inputs, const incidents::Corpus& training) {
  testbed::Testbed testbed(testbed::TestbedConfig{}, training);
  testbed.deploy(0);
  testbed.schedule_maintenance(kMaintenancePeriod, util::kHour);
  Reference ref;
  ref.items = inputs.flows.size();
  const std::span<const net::Flow> flows(inputs.flows);
  std::uint64_t delivered = 0;
  for (std::size_t at = 0; at < flows.size(); at += kFlowChunk) {
    const auto chunk = flows.subspan(at, std::min(kFlowChunk, flows.size() - at));
    for (const auto& flow : chunk) {
      if (testbed.inject_flow(flow)) ++delivered;
    }
    testbed.engine().run_until(chunk.back().ts);
    ref.delivered_after.push_back(delivered);
    ref.verdicts_after.push_back(
        static_cast<std::uint32_t>(testbed.pipeline().notifications().size()));
    ref.audit_after.push_back(
        static_cast<std::uint32_t>(testbed.router().stats(0).api_calls));
  }
  for (const auto& note : testbed.pipeline().notifications()) ref.verdicts.add(render(note));
  ref.audit = render_audit(testbed.router().audit_log());
  return ref;
}

std::string check(const Reference& ref, const PassOutput& pass) {
  if (pass.items == 0) return "pass covered no input";
  const bool flows = !ref.delivered_after.empty();
  // flow_hour references are per chunk; daemon references per line.
  std::size_t slot = pass.items - 1;
  if (flows) {
    if (pass.items % kFlowChunk != 0 && pass.items != ref.items) {
      return "flow pass ended inside a chunk";
    }
    slot = (pass.items - 1) / kFlowChunk;
  }
  if (slot >= ref.verdicts_after.size()) return "pass covered more input than the reference";
  if (flows && pass.delivered != ref.delivered_after[slot]) {
    return "delivered " + std::to_string(pass.delivered) + " flows, reference " +
           std::to_string(ref.delivered_after[slot]);
  }
  const std::size_t want_verdicts = ref.verdicts_after[slot];
  if (pass.verdicts.count() != want_verdicts) {
    return "released " + std::to_string(pass.verdicts.count()) + " verdicts, reference " +
           std::to_string(want_verdicts);
  }
  if (pass.verdicts.text != ref.verdicts.prefix(want_verdicts)) {
    return "verdict stream differs from the reference";
  }
  const std::size_t want_audit = ref.audit_after[slot];
  if (pass.audit.count() != want_audit) {
    return "BHR audit has " + std::to_string(pass.audit.count()) + " records, reference " +
           std::to_string(want_audit);
  }
  if (pass.audit.text != ref.audit.prefix(want_audit)) {
    return "BHR audit differs from the reference";
  }
  return {};
}

}  // namespace perfbench
