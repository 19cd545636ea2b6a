#include "runner.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>

#include "alerts/zeeklog.hpp"
#include "gates.hpp"
#include "incidents/annotate.hpp"
#include "monitors/zeek_monitor.hpp"
#include "sim/engine.hpp"
#include "testbed/daemon.hpp"
#include "testbed/testbed.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using namespace at;

/// Rows submitted between operator drains (and per submit span).
constexpr std::size_t kSubmitChunk = 4096;
/// Items per span in the per-layer replays.
constexpr std::size_t kReplayChunk = 4096;
/// BHR probes per filter_batch call, the chunk Testbed::inject_flows uses.
constexpr std::size_t kProbeChunk = 256;
/// Set-ups timed per run (the median is reported).
constexpr std::size_t kSetupReps = 101;
/// Cap on closed-loop passes (reached only on tiny inputs).
constexpr std::size_t kMaxPasses = 400;
/// Open-loop verdicts per latency window: 1000 leaves ten beyond its p99.
constexpr std::size_t kWindowSamples = 1000;
/// Open-loop verdicts wanted in all: three windows.
constexpr std::size_t kTailSamples = 3 * kWindowSamples;
/// Cap on open-loop passes spent reaching kTailSamples on a small input.
constexpr std::size_t kMaxOpenPasses = 40;
/// Share of CPU time stolen by the hypervisor above which a closed-loop pass
/// or an open-loop slice counts as disturbed. Calm stretches of the 4-vCPU
/// reference VM show 0-2%; its noisy spells 5-11%.
constexpr double kMaxSteal = 0.04;

/// Fixed open-loop offered rates (items/s), a third (notice_day) and a fifth
/// (campaign_entity) of the slowest closed-loop rate seen on the 4-core
/// reference machine, a shared VM whose hypervisor at times steals 5-11% of
/// its CPU time. At half the closed-loop rate the p99 varied two-fold from
/// run to run; at 40K lines/s campaign_entity's p50 grew 3-13x under steal.
double offered_rate(Workload workload) {
  return workload == Workload::kCampaignEntity ? 20'000.0 : 500'000.0;
}

double seconds_between(std::int64_t start, std::int64_t end) {
  return static_cast<double>(end - start) * 1e-9;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Current resident set size (0 where /proc/self/statm is unavailable).
double resident_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t pages = 0;
  std::uint64_t resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) / 1048576.0;
}

struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

/// Aggregate jiffies from /proc/stat (zeros where it is unavailable).
CpuTimes cpu_times() {
  CpuTimes out;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return out;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(stat >> value)) break;
    out.total += value;
    if (field == 7) out.steal = value;
  }
  return out;
}

/// Share of the machine's CPU time the hypervisor gave to other guests.
double steal_between(const CpuTimes& before, const CpuTimes& after) {
  const auto total = static_cast<double>(after.total - before.total);
  return total > 0 ? static_cast<double>(after.steal - before.steal) / total : 0.0;
}

/// Steal, sliced in time: the open loop calls tick() as it runs, and a new
/// slice starts every kSliceNs.
class StealSlices {
 public:
  StealSlices() : last_(cpu_times()), next_ns_(now_ns() + kSliceNs) {}
  void tick(std::int64_t now) {
    if (now >= next_ns_) close(now);
  }
  [[nodiscard]] std::uint32_t current() const {
    return static_cast<std::uint32_t>(steal_.size());
  }
  [[nodiscard]] std::vector<double> finish() {
    close(now_ns());
    return steal_;
  }

 private:
  static constexpr std::int64_t kSliceNs = 1'000'000'000;
  void close(std::int64_t now) {
    const CpuTimes times = cpu_times();
    steal_.push_back(steal_between(last_, times));
    last_ = times;
    next_ns_ = now + kSliceNs;
  }
  CpuTimes last_;
  std::int64_t next_ns_;
  std::vector<double> steal_;
};

double per(double seconds, double count, double scale) {
  return count > 0 ? seconds * scale / count : 0.0;
}

// --------------------------------------------------------------------------
// Pipelines under test.

struct DaemonRig {
  std::unique_ptr<bhr::BlackHoleRouter> router;
  std::unique_ptr<testbed::DetectionDaemon> daemon;
};

DaemonRig make_daemon(const Model& model, Workload workload, std::size_t shards) {
  DaemonRig rig;
  rig.router = std::make_unique<bhr::BlackHoleRouter>();
  testbed::DaemonConfig config;
  config.shards = shards;
  rig.daemon = std::make_unique<testbed::DetectionDaemon>(config, rig.router.get());
  add_detectors(*rig.daemon, model, workload);
  rig.daemon->start();
  return rig;
}

std::unique_ptr<testbed::Testbed> make_testbed(const incidents::Corpus& training) {
  auto testbed = std::make_unique<testbed::Testbed>(testbed::TestbedConfig{}, training);
  testbed->deploy(0);
  testbed->schedule_maintenance(kMaintenancePeriod, util::kHour);
  return testbed;
}

struct Pass {
  double seconds = 0.0;
  PassOutput output;
  std::vector<bhr::ApiCall> calls;  ///< the BHR audit the pass produced
  alerts::DaemonStats stats;
  std::vector<double> depth_samples;
};

void collect_verdicts(std::vector<alerts::AlertQueue::Ptr>& drained, Rendered& out) {
  for (const auto& alert : drained) {
    if (alert->category() == alerts::DaemonAlert::kVerdict) {
      out.add(render(static_cast<const alerts::VerdictAlert&>(*alert)));
    }
  }
  drained.clear();
}

/// Closed loop: log bytes -> parse -> submit every row (operator drains
/// between chunks) -> drain_idle -> last drain. Verdicts are rendered
/// outside the timed region.
Pass daemon_pass(DaemonRig& rig, const std::string& log, Tracer& tracer,
                 bool sample_depths) {
  Pass pass;
  std::string text = log;
  alerts::AlertBatch batch;
  std::vector<std::vector<alerts::AlertQueue::Ptr>> drains;
  tracer.next_request();
  const std::int64_t start = now_ns();
  {
    auto whole = tracer.span("e2e.pass");
    {
      auto span = tracer.span("alerts.parse_notice_batch");
      batch = alerts::parse_notice_batch(std::move(text));
      span.add_items(batch.size());
    }
    for (std::size_t at = 0; at < batch.size(); at += kSubmitChunk) {
      const std::size_t end = std::min(batch.size(), at + kSubmitChunk);
      {
        auto span = tracer.span("testbed.daemon.submit", end - at);
        for (std::size_t row = at; row < end; ++row) {
          rig.daemon->submit(batch, row);
          if (sample_depths && row % 256 == 0) {
            const auto depths = rig.daemon->ring_depths();
            pass.depth_samples.push_back(
                static_cast<double>(*std::max_element(depths.begin(), depths.end())));
          }
        }
      }
      auto span = tracer.span("testbed.daemon.drain_alerts");
      drains.push_back(rig.daemon->drain_alerts());
    }
    {
      auto span = tracer.span("testbed.daemon.drain_idle");
      rig.daemon->drain_idle();
    }
    auto span = tracer.span("testbed.daemon.drain_alerts");
    drains.push_back(rig.daemon->drain_alerts());
  }
  pass.seconds = seconds_between(start, now_ns());
  pass.output.items = batch.size();
  for (auto& drained : drains) collect_verdicts(drained, pass.output.verdicts);
  pass.calls = rig.router->audit_log();
  pass.output.audit = render_audit(pass.calls);
  pass.stats = rig.daemon->stats();
  return pass;
}

/// Closed loop over the flow stream, kFlowChunk flows per inject_flows
/// call, with the sim engine advanced to the chunk's last timestamp so the
/// maintenance ticks run on schedule.
Pass flow_pass(testbed::Testbed& testbed, std::span<const net::Flow> flows) {
  Pass pass;
  const std::int64_t start = now_ns();
  for (std::size_t at = 0; at < flows.size(); at += kFlowChunk) {
    const auto chunk = flows.subspan(at, std::min(kFlowChunk, flows.size() - at));
    pass.output.delivered += testbed.inject_flows(chunk);
    testbed.engine().run_until(chunk.back().ts);
  }
  pass.seconds = seconds_between(start, now_ns());
  pass.output.items = flows.size();
  for (const auto& note : testbed.pipeline().notifications()) {
    pass.output.verdicts.add(render(note));
  }
  pass.calls = testbed.router().audit_log();
  pass.output.audit = render_audit(pass.calls);
  return pass;
}

struct OpenLoop {
  PassOutput output;
  std::vector<double> latency_us;
  std::vector<std::uint32_t> slice_of;  ///< steal slice each sample arrived in
  std::vector<double> slice_steal;
  double late_mean_us = 0.0;  ///< generator lateness against the schedule
  double late_max_us = 0.0;
};

/// Spin until `due`, running `idle` while waiting; returns the lateness.
template <typename Idle>
std::int64_t wait_until(std::int64_t due, Idle&& idle) {
  std::int64_t now = now_ns();
  while (now < due) {
    idle(now);
    now = now_ns();
  }
  return now - due;
}

/// Open loop: rows submitted on a fixed schedule until the input ends or
/// `want` verdicts have been received; the submitting thread is also the
/// consumer, draining verdicts whenever it waits for the next due time (and
/// at least every 20 us while behind).
OpenLoop daemon_open_loop(DaemonRig& rig, const alerts::AlertBatch& batch, double rate,
                          std::size_t want) {
  OpenLoop loop;
  const double gap_ns = 1e9 / rate;
  std::vector<std::int64_t> due_by_seq;
  due_by_seq.reserve(batch.size());
  std::int64_t last_poll = 0;
  StealSlices slices;
  const auto poll = [&](std::int64_t now) {
    for (auto& alert : rig.daemon->drain_alerts()) {
      if (alert->category() != alerts::DaemonAlert::kVerdict) continue;
      const auto& verdict = static_cast<const alerts::VerdictAlert&>(*alert);
      const std::int64_t received = now_ns();
      loop.latency_us.push_back(
          static_cast<double>(received - due_by_seq[verdict.seq - 1]) * 1e-3);
      loop.slice_of.push_back(slices.current());
      loop.output.verdicts.add(render(verdict));
    }
    last_poll = now;
  };
  const auto poll_if_stale = [&](std::int64_t now) {
    slices.tick(now);
    if (now - last_poll >= 20'000) poll(now);
  };
  double late_sum = 0.0;
  const std::int64_t start = now_ns() + 1'000'000;
  std::size_t rows = 0;
  for (std::size_t row = 0; row < batch.size() && loop.latency_us.size() < want; ++row) {
    rows = row + 1;
    const auto due = start + static_cast<std::int64_t>(static_cast<double>(row) * gap_ns);
    const auto late = wait_until(due, poll_if_stale);
    late_sum += static_cast<double>(late);
    loop.late_max_us = std::max(loop.late_max_us, static_cast<double>(late) * 1e-3);
    if (rig.daemon->submit(batch, row) == testbed::SubmitResult::kAccepted) {
      due_by_seq.push_back(due);
    }
    poll_if_stale(now_ns());
  }
  rig.daemon->drain_idle();
  poll(now_ns());
  loop.slice_steal = slices.finish();
  loop.late_mean_us = rows > 0 ? late_sum / static_cast<double>(rows) * 1e-3 : 0.0;
  loop.output.items = rows;
  loop.output.audit = render_audit(rig.router->audit_log());
  return loop;
}

// --------------------------------------------------------------------------
// Gate bookkeeping.

struct Gate {
  const Reference* reference = nullptr;
  bool corrupt = false;
  Result* result = nullptr;

  void operator()(PassOutput& output, const char* what) {
    if (corrupt && output.verdicts.count() > 0) {
      output.verdicts.text[0] = output.verdicts.text[0] == '9' ? '8' : '9';
    }
    result->attempted += output.items;
    const std::string why = check(*reference, output);
    if (why.empty()) return;
    result->correct = false;
    result->failed += output.items;
    result->failures.push_back(std::string(what) + ": " + why);
  }
};

// --------------------------------------------------------------------------
// Untraced runs: the end-to-end metrics.

struct ClosedLoop {
  std::vector<double> setup_s;
  std::vector<double> rates;  ///< items per second, per pass
  std::vector<double> steal;  ///< hypervisor steal share, per pass
  std::vector<PassOutput> outputs;
};

/// Closed-loop passes for `seconds` (at least three), each on a pipeline
/// set up afresh; then set-ups alone until setup_s rests on kSetupReps.
/// Free heap pages go back to the kernel before every set-up, so each set-up
/// and pass faults in its memory as a freshly started testbed does, rather
/// than reusing whatever the previous pass left warm (which made set-up
/// time swing 2x with the previous pass's allocation pattern).
template <typename SetUp, typename RunPass>
ClosedLoop closed_loop(double seconds, SetUp&& set_up, RunPass&& run_pass) {
  ClosedLoop loop;
  const std::int64_t start = now_ns();
  while (loop.outputs.size() < 3 ||
         (seconds_between(start, now_ns()) < seconds && loop.outputs.size() < kMaxPasses)) {
    malloc_trim(0);
    const std::int64_t setup_start = now_ns();
    auto rig = set_up();
    loop.setup_s.push_back(seconds_between(setup_start, now_ns()));
    const CpuTimes before = cpu_times();
    Pass pass = run_pass(rig);
    loop.steal.push_back(steal_between(before, cpu_times()));
    loop.rates.push_back(static_cast<double>(pass.output.items) / pass.seconds);
    loop.outputs.push_back(std::move(pass.output));
  }
  while (loop.setup_s.size() < kSetupReps) {
    malloc_trim(0);
    const std::int64_t setup_start = now_ns();
    const auto rig = set_up();
    loop.setup_s.push_back(seconds_between(setup_start, now_ns()));
  }
  return loop;
}

/// Gates every pass, then reports the end-to-end metrics. Passes run while
/// the hypervisor stole more than kMaxSteal are left out of the rate's
/// median, unless every pass was. `rss_mb` is the process's high-water RSS
/// above the loaded inputs, taken before the reference was built.
void report_closed_loop(Result& result, ClosedLoop& loop, const Reference& reference,
                        const Options& options, const char* rate_name, double rss_mb) {
  Gate gate{&reference, options.corrupt_verdict, &result};
  for (auto& output : loop.outputs) gate(output, "closed-loop pass");
  std::vector<double> calm;
  for (std::size_t i = 0; i < loop.rates.size(); ++i) {
    if (loop.steal[i] <= kMaxSteal) calm.push_back(loop.rates[i]);
  }
  result.metrics.push_back({rate_name, median(calm.empty() ? loop.rates : calm), "1/s"});
  result.metrics.push_back({"setup_s", median(loop.setup_s), "s"});
  result.metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
  result.details.emplace_back("closed_loop.passes", static_cast<double>(loop.outputs.size()));
  result.details.emplace_back("closed_loop.passes_disturbed",
                              static_cast<double>(loop.rates.size() - calm.size()));
  std::sort(loop.rates.begin(), loop.rates.end());
  result.details.emplace_back("closed_loop.rate_p25", percentile(loop.rates, 25.0));
  result.details.emplace_back("closed_loop.rate_p75", percentile(loop.rates, 75.0));
  result.details.emplace_back("closed_loop.items_per_pass",
                              static_cast<double>(loop.outputs.front().items));
  result.details.emplace_back("verdicts_per_pass",
                              static_cast<double>(loop.outputs.front().verdicts.count()));
  result.details.emplace_back("bhr_audit_per_pass",
                              static_cast<double>(loop.outputs.front().audit.count()));
}

/// Daemon workloads, untraced: alerts_per_s, setup_s, peak_rss_mb.
Result run_untraced(const Inputs& inputs, const Options& options, double inputs_mb) {
  Result result;
  const auto training = training_corpus(inputs.seed);
  Tracer off(false);
  ClosedLoop loop = closed_loop(
      options.seconds,
      [&] { return make_daemon(train_model(training), inputs.workload, kShards); },
      [&](DaemonRig& rig) { return daemon_pass(rig, inputs.log, off, false); });
  const double rss = peak_rss_mb() - inputs_mb;
  report_closed_loop(result, loop, serial_reference(inputs, train_model(training)), options,
                     "alerts_per_s", rss);
  return result;
}

/// flow_hour: flows_per_s, setup_s, peak_rss_mb, and its gate against the
/// per-flow inject_flow replay. No traced run: it stays out of
/// BENCHMARK.json while Testbed::inject_flows diverges from inject_flow.
Result run_flow_hour(const Inputs& inputs, const Options& options, double inputs_mb) {
  Result result;
  const auto training = training_corpus(inputs.seed);
  ClosedLoop loop = closed_loop(
      options.seconds, [&] { return make_testbed(training); },
      [&](std::unique_ptr<testbed::Testbed>& testbed) { return flow_pass(*testbed, inputs.flows); });
  const double rss = peak_rss_mb() - inputs_mb;
  report_closed_loop(result, loop, flow_reference(inputs, training), options, "flows_per_s", rss);
  return result;
}

// --------------------------------------------------------------------------
// Traced run (daemon workloads): per-layer metrics.

/// Sink that only counts (monitor replay).
class Counter final : public alerts::AlertSink {
 public:
  using alerts::AlertSink::on_alert;
  void on_alert(const alerts::Alert&) override { ++count; }
  std::uint64_t count = 0;
};

struct AlertReplay {
  double parse_s = 0, filter_s = 0, materialize_s = 0;
  double lines = 0, bytes = 0, kept = 0, entities = 0, verdicts = 0;
  double critical_s = 0, rules_s = 0, forward_s = 0, entity_s = 0;
  double deployed_detect_s = 0;
};

/// Replays the alert-side layers one at a time, single-threaded, over one
/// notice log: parse, scan filter, materialize and each detector family's
/// observe(). (The serial AlertPipeline::on_alert is timed inside the
/// gate's serial reference run, over the same log.)
AlertReplay replay_alert_layers(const std::string& log, const Model& model, Workload stack,
                                Tracer& tracer) {
  AlertReplay out;
  std::string text = log;
  alerts::AlertBatch batch;
  {
    auto span = tracer.span("alerts.parse_notice_batch");
    batch = alerts::parse_notice_batch(std::move(text));
  }
  out.parse_s = tracer.totals("alerts.parse_notice_batch").self_s;
  out.lines = static_cast<double>(batch.size());
  out.bytes = static_cast<double>(log.size());

  incidents::ScanFilter filter(testbed::PipelineConfig{}.scan_filter_window);
  std::vector<std::size_t> kept_rows;
  for (std::size_t at = 0; at < batch.size(); at += kReplayChunk) {
    const std::size_t end = std::min(batch.size(), at + kReplayChunk);
    auto span = tracer.span("incidents.ScanFilter.keep");
    for (std::size_t row = at; row < end; ++row) {
      if (filter.keep(batch.type[row], batch.ts[row], batch.src_at(row), batch.host[row])) {
        kept_rows.push_back(row);
      }
    }
  }
  out.filter_s = tracer.totals("incidents.ScanFilter.keep").self_s;
  out.kept = static_cast<double>(kept_rows.size());

  std::vector<alerts::Alert> kept;
  kept.reserve(kept_rows.size());
  for (std::size_t at = 0; at < kept_rows.size(); at += kReplayChunk) {
    const std::size_t end = std::min(kept_rows.size(), at + kReplayChunk);
    auto span = tracer.span("alerts.AlertBatch.materialize");
    for (std::size_t i = at; i < end; ++i) kept.push_back(batch.materialize(kept_rows[i]));
  }
  out.materialize_s = tracer.totals("alerts.AlertBatch.materialize").self_s;

  // Dense entity ids, assigned outside the timed loops.
  std::unordered_map<std::string, std::uint32_t> ids;
  std::vector<std::uint32_t> entity_of;
  entity_of.reserve(kept.size());
  for (const auto& alert : kept) {
    entity_of.push_back(
        ids.emplace(testbed::AlertPipeline::entity_key(alert), static_cast<std::uint32_t>(ids.size()))
            .first->second);
  }
  out.entities = static_cast<double>(ids.size());

  const auto family = [&](const char* name,
                          const std::function<std::unique_ptr<detect::Detector>()>& make,
                          bool deployed) {
    std::vector<std::unique_ptr<detect::Detector>> detectors(ids.size());
    for (auto& detector : detectors) detector = make();
    std::vector<std::uint32_t> index(ids.size(), 0);
    std::uint64_t fired = 0;
    for (std::size_t at = 0; at < kept.size(); at += kReplayChunk) {
      const std::size_t end = std::min(kept.size(), at + kReplayChunk);
      auto span = tracer.span(name);
      for (std::size_t i = at; i < end; ++i) {
        const std::uint32_t e = entity_of[i];
        if (detectors[e]->observe(kept[i], index[e]++)) ++fired;
      }
    }
    const double seconds = tracer.totals(name).self_s;
    if (deployed) {
      out.deployed_detect_s += seconds;
      out.verdicts += static_cast<double>(fired);
    }
    return seconds;
  };
  const auto fg = [&](detect::FgInference inference) {
    return [compiled = model.compiled, inference] {
      return std::make_unique<detect::FactorGraphDetector>(
          compiled, 0.75, alerts::AttackStage::kInProgress, false, inference);
    };
  };
  out.critical_s = family(
      "detect.CriticalAlertDetector.observe",
      [] { return std::make_unique<detect::CriticalAlertDetector>(); }, true);
  out.rules_s = family(
      "detect.RuleBasedDetector.observe",
      [&] {
        auto copy = std::make_unique<detect::RuleBasedDetector>(*model.rules);
        copy->reset();
        return copy;
      },
      true);
  out.forward_s = family("fg.forward.observe", fg(detect::FgInference::kForwardFilter),
                         fg_inference(stack) == detect::FgInference::kForwardFilter);
  out.entity_s = family("fg.entity.observe", fg(detect::FgInference::kEntityIncremental),
                        fg_inference(stack) == detect::FgInference::kEntityIncremental);

  return out;
}

struct FlowReplay {
  double flows = 0, admitted = 0, zeek_s = 0, zeek_alerts = 0, pairs = 0;
  double record_s = 0, recorded = 0, filter_s = 0, dropped = 0;
  double block_s = 0, blocks = 0, expire_s = 0, ticks = 0, run_until_s = 0;
  double active_blocks = 0;
};

/// Replays the flow-side layers over flow_hour's flows in time order, one
/// call site per layer, the way Testbed::inject_flows runs them: the BHR
/// blocks of a flow_hour testbed pass (`audit`), each applied before the
/// first probe chunk that starts at or after its time, so writes land
/// between reads;
/// filter_batch per kProbeChunk flows; then, for the admitted flows, the
/// scan recorder and the Zeek monitor; and per kFlowChunk flows
/// Engine::run_until driving the testbed's maintenance chain (expire +
/// prune).
FlowReplay replay_flow_layers(std::span<const net::Flow> flows,
                              const std::vector<bhr::ApiCall>& audit,
                              const testbed::TestbedConfig& config, Tracer& tracer) {
  FlowReplay out;
  out.flows = static_cast<double>(flows.size());
  bhr::BlackHoleRouter router;
  bhr::ScanRecorder recorder;
  Counter sink;
  monitors::ZeekMonitor zeek(sink, config.zeek);
  sim::Engine engine;
  const util::SimTime first = flows.empty() ? 0 : flows.front().ts;
  const util::SimTime last = flows.empty() ? 0 : flows.back().ts;
  std::function<void(sim::Engine&)> tick = [&](sim::Engine& eng) {
    ++out.ticks;
    {
      auto span = tracer.span("bhr.expire");
      router.expire(eng.now());
    }
    zeek.prune_idle(eng.now());
    if (eng.now() + kMaintenancePeriod <= last) {
      eng.schedule_at(eng.now() + kMaintenancePeriod, tick, "testbed.maintenance");
    }
  };
  engine.run_until(first);
  if (first + kMaintenancePeriod <= last) {
    engine.schedule_at(first + kMaintenancePeriod, tick, "testbed.maintenance");
  }

  std::vector<bhr::ApiCall> blocks;
  for (const auto& call : audit) {
    if (call.method == "block") blocks.push_back(call);
  }
  std::size_t next_block = 0;
  std::vector<std::uint8_t> verdicts(kProbeChunk);
  std::vector<net::Flow> admitted;
  admitted.reserve(kFlowChunk);
  for (std::size_t at = 0; at < flows.size(); at += kFlowChunk) {
    const auto chunk = flows.subspan(at, std::min(kFlowChunk, flows.size() - at));
    admitted.clear();
    for (std::size_t p = 0; p < chunk.size(); p += kProbeChunk) {
      const auto probes = chunk.subspan(p, std::min(kProbeChunk, chunk.size() - p));
      for (; next_block < blocks.size() && blocks[next_block].ts <= probes.front().ts;
           ++next_block) {
        const auto& call = blocks[next_block];
        const util::SimTime ttl = call.client == "ssh-auditor" ? config.ssh_auditor.block_ttl
                                                               : config.pipeline.block_ttl;
        auto span = tracer.span("bhr.block");
        router.block(call.source, call.ts, ttl, "replay", call.client);
      }
      {
        auto span = tracer.span("bhr.filter_batch");
        router.filter_batch(probes, std::span<std::uint8_t>(verdicts.data(), probes.size()));
      }
      for (std::size_t i = 0; i < probes.size(); ++i) {
        if (verdicts[i] == 0) admitted.push_back(probes[i]);
      }
    }
    {
      auto span = tracer.span("bhr.ScanRecorder.record");
      for (const auto& flow : admitted) {
        if (flow.state != net::ConnState::kEstablished) recorder.record(flow);
      }
    }
    {
      auto span = tracer.span("monitors.ZeekMonitor.on_flow");
      for (const auto& flow : admitted) zeek.on_flow(flow);
    }
    out.admitted += static_cast<double>(admitted.size());
    auto span = tracer.span("sim.Engine.run_until");
    engine.run_until(chunk.back().ts);
  }
  out.block_s = tracer.totals("bhr.block").self_s;
  out.blocks = static_cast<double>(tracer.totals("bhr.block").calls);
  out.filter_s = tracer.totals("bhr.filter_batch").self_s;
  out.dropped = static_cast<double>(router.dropped_flows());
  out.record_s = tracer.totals("bhr.ScanRecorder.record").self_s;
  out.recorded = static_cast<double>(recorder.total_probes());
  out.zeek_s = tracer.totals("monitors.ZeekMonitor.on_flow").self_s;
  out.zeek_alerts = static_cast<double>(sink.count);
  out.pairs = static_cast<double>(zeek.tracked_pairs());
  out.expire_s = tracer.totals("bhr.expire").total_s;
  // Total, not self: a maintenance tick's cost includes its expire call.
  out.run_until_s = tracer.totals("sim.Engine.run_until").total_s;
  out.active_blocks = static_cast<double>(router.active_blocks(last));
  return out;
}

/// Latency over the open-loop passes. Verdicts received in a one-second
/// slice in which the hypervisor stole more than kMaxSteal of the machine's
/// CPU time measure the neighbours, not the testbed, and are left out
/// (unless that leaves less than one window). The rest, in the order they
/// were received, are cut into windows of kWindowSamples (so each window's
/// p99 has ten samples beyond it); the reported p50/p99 are the medians of
/// the windows' percentiles, so one stall moves one window, not the figure.
void add_latency(Result& result, const std::vector<OpenLoop>& loops, double rate) {
  std::vector<double> all;
  std::vector<double> calm;
  double slices = 0.0;
  double disturbed_slices = 0.0;
  double items = 0.0;
  double late_sum = 0.0;
  double late_max = 0.0;
  for (const auto& loop : loops) {
    all.insert(all.end(), loop.latency_us.begin(), loop.latency_us.end());
    for (std::size_t i = 0; i < loop.latency_us.size(); ++i) {
      if (loop.slice_steal[loop.slice_of[i]] <= kMaxSteal) calm.push_back(loop.latency_us[i]);
    }
    for (const double steal : loop.slice_steal) {
      slices += 1.0;
      if (steal > kMaxSteal) disturbed_slices += 1.0;
    }
    const auto n = static_cast<double>(loop.output.items);
    items += n;
    late_sum += loop.late_mean_us * n;
    late_max = std::max(late_max, loop.late_max_us);
  }
  const double disturbed_samples = static_cast<double>(all.size() - calm.size());
  if (calm.size() >= kWindowSamples) all = std::move(calm);
  std::vector<double> p50s;
  std::vector<double> p99s;
  double fewest_beyond = -1.0;
  double samples = 0.0;
  const std::size_t width = std::min(kWindowSamples, std::max<std::size_t>(1, all.size()));
  for (std::size_t at = 0; at + width <= all.size(); at += width) {
    std::vector<double> window(all.begin() + static_cast<std::ptrdiff_t>(at),
                               all.begin() + static_cast<std::ptrdiff_t>(at + width));
    std::sort(window.begin(), window.end());
    const double p99 = percentile(window, 99.0);
    const auto beyond = static_cast<double>(
        window.end() - std::upper_bound(window.begin(), window.end(), p99));
    fewest_beyond = fewest_beyond < 0 ? beyond : std::min(fewest_beyond, beyond);
    p50s.push_back(percentile(window, 50.0));
    p99s.push_back(p99);
    samples += static_cast<double>(width);
  }
  if (p99s.empty()) p99s.push_back(0.0);
  // Reported, not gated: on the reference VM both follow the hypervisor's
  // steal (campaign_entity's p50 grew up to 35x in a run with 17% stolen).
  result.details.emplace_back("open_loop.verdict_latency_p50_us", median(p50s));
  result.details.emplace_back("open_loop.verdict_latency_p99_us", median(p99s));
  result.details.emplace_back("open_loop.offered_rate_per_s", rate);
  result.details.emplace_back("open_loop.passes", static_cast<double>(loops.size()));
  result.details.emplace_back("open_loop.windows", static_cast<double>(p99s.size()));
  result.details.emplace_back("open_loop.items", items);
  result.details.emplace_back("open_loop.latency_samples", samples);
  result.details.emplace_back("open_loop.steal_slices", slices);
  result.details.emplace_back("open_loop.steal_slices_disturbed", disturbed_slices);
  result.details.emplace_back("open_loop.samples_disturbed", disturbed_samples);
  result.details.emplace_back("open_loop.fewest_beyond_p99", fewest_beyond);
  result.details.emplace_back("open_loop.p99_window_min_us",
                              *std::min_element(p99s.begin(), p99s.end()));
  result.details.emplace_back("open_loop.p99_window_max_us",
                              *std::max_element(p99s.begin(), p99s.end()));
  result.details.emplace_back("open_loop.generator_late_mean_us",
                              items > 0 ? late_sum / items : 0.0);
  result.details.emplace_back("open_loop.generator_late_max_us", late_max);
}

struct DaemonTrace {
  double submit_ns = 0, drain_idle_ms = 0, drain_us = 0, rejected_per_kept = 0;
  double depth_p99 = 0, max_depth = 0;
};

DaemonTrace daemon_trace(const Tracer& tracer, const Pass& pass) {
  DaemonTrace out;
  const auto submit = tracer.totals("testbed.daemon.submit");
  const auto idle = tracer.totals("testbed.daemon.drain_idle");
  const auto drain = tracer.totals("testbed.daemon.drain_alerts");
  out.submit_ns = per(submit.self_s, static_cast<double>(submit.items), 1e9);
  out.drain_idle_ms = per(idle.total_s, static_cast<double>(idle.calls), 1e3);
  out.drain_us = per(drain.total_s, static_cast<double>(drain.calls), 1e6);
  out.rejected_per_kept = pass.stats.kept > 0 ? static_cast<double>(pass.stats.rejected) /
                                                    static_cast<double>(pass.stats.kept)
                                              : 0.0;
  auto depths = pass.depth_samples;
  std::sort(depths.begin(), depths.end());
  out.depth_p99 = percentile(depths, 99.0);
  out.max_depth = static_cast<double>(pass.stats.max_ring_depth);
  return out;
}

/// Daemon workloads, traced: the per-layer metrics, with verdict latency
/// and generator lateness as diagnostics.
Result run_traced(const Inputs& inputs, const Options& options) {
  Result result;
  if (inputs.flows.empty()) {
    result.correct = false;
    result.failures.emplace_back("traced run without flow_hour's flows (perfbench gen --trace 1)");
    return result;
  }
  const Workload workload = inputs.workload;
  const auto training = training_corpus(inputs.seed);
  const Model model = train_model(training);
  const std::int64_t run_start = now_ns();

  // Untraced vs traced end-to-end passes, alternating; each gated.
  double pipeline_s = 0.0;  // AlertPipeline::on_alert over the notice log
  const Reference reference = serial_reference(inputs, model, &pipeline_s);
  Gate gate{&reference, options.corrupt_verdict, &result};
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  Tracer tracer(true);
  Tracer off(false);
  Pass traced;
  const double overhead_budget = 0.4 * options.seconds;
  while (traced_s.size() < 2 ||
         (seconds_between(run_start, now_ns()) < overhead_budget && traced_s.size() < 10)) {
    for (const bool on : {false, true}) {
      DaemonRig rig = make_daemon(model, workload, kShards);
      Pass pass = daemon_pass(rig, inputs.log, on ? tracer : off, on);
      (on ? traced_s : untraced_s).push_back(pass.seconds);
      gate(pass.output, on ? "traced pass" : "untraced pass");
      if (on) traced = std::move(pass);
    }
  }
  const double overhead = median(traced_s) / median(untraced_s) - 1.0;
  const double traced_rate = static_cast<double>(traced.output.items) / median(traced_s);
  const DaemonTrace daemon_metrics = daemon_trace(tracer, traced);

  // Single-shard end-to-end time, against which the layer costs must add up.
  std::vector<double> one_shard_s;
  const double one_shard_budget = 0.6 * options.seconds;
  while (one_shard_s.empty() ||
         (seconds_between(run_start, now_ns()) < one_shard_budget && one_shard_s.size() < 3)) {
    DaemonRig rig = make_daemon(model, workload, 1);
    Pass pass = daemon_pass(rig, inputs.log, off, false);
    one_shard_s.push_back(pass.seconds);
    gate(pass.output, "single-shard pass");
  }

  // Open loop at the workload's fixed offered rate, fresh daemon per pass,
  // until there are verdicts for kTailSamples / kWindowSamples windows.
  const double rate = offered_rate(workload);
  std::vector<OpenLoop> loops;
  {
    const auto batch = alerts::parse_notice_batch(inputs.log);
    std::size_t samples = 0;
    while (loops.empty() || (samples > 0 && samples < kTailSamples &&
                             loops.size() < kMaxOpenPasses)) {
      DaemonRig rig = make_daemon(model, workload, kShards);
      loops.push_back(daemon_open_loop(rig, batch, rate, kTailSamples - samples));
      samples += loops.back().latency_us.size();
      gate(loops.back().output, "open-loop pass");
    }
  }
  add_latency(result, loops, rate);

  // Single-layer replays, one thread each: the alert side over the notice
  // log, the flow side over flow_hour's flows with the block list of one
  // flow_hour testbed pass.
  const Pass flow_hour_pass = [&] {
    auto testbed = make_testbed(training);
    return flow_pass(*testbed, inputs.flows);
  }();
  Tracer replay(true);
  const AlertReplay a = replay_alert_layers(inputs.log, model, workload, replay);
  const FlowReplay f =
      replay_flow_layers(inputs.flows, flow_hour_pass.calls, testbed::TestbedConfig{}, replay);

  // Alert-side layer costs against the single-shard end-to-end time.
  const double layers_s = a.parse_s + a.filter_s + a.materialize_s + a.deployed_detect_s;
  const double unaccounted = 1.0 - layers_s / median(one_shard_s);

  auto& m = result.metrics;
  m.push_back({"alerts.parse_ns_per_line", per(a.parse_s, a.lines, 1e9), "ns"});
  m.push_back({"alerts.parse_mb_per_s", a.parse_s > 0 ? a.bytes / a.parse_s * 1e-6 : 0.0, "MB/s"});
  m.push_back({"alerts.materialize_ns_per_kept", per(a.materialize_s, a.kept, 1e9), "ns"});
  m.push_back({"incidents.scan_filter_ns_per_alert", per(a.filter_s, a.lines, 1e9), "ns"});
  m.push_back({"incidents.kept_fraction", a.lines > 0 ? a.kept / a.lines : 0.0, "fraction"});
  m.push_back({"testbed.daemon.submit_ns_per_alert", daemon_metrics.submit_ns, "ns"});
  m.push_back({"testbed.daemon.drain_idle_ms", daemon_metrics.drain_idle_ms, "ms"});
  m.push_back({"testbed.daemon.rejected_per_kept", daemon_metrics.rejected_per_kept, "ratio"});
  m.push_back({"testbed.daemon.ring_depth_p99", daemon_metrics.depth_p99, "count"});
  m.push_back({"testbed.daemon.max_ring_depth", daemon_metrics.max_depth, "count"});
  m.push_back({"testbed.daemon.drain_us_per_call", daemon_metrics.drain_us, "us"});
  m.push_back({"detect.critical_ns_per_alert", per(a.critical_s, a.kept, 1e9), "ns"});
  m.push_back({"detect.rules_ns_per_alert", per(a.rules_s, a.kept, 1e9), "ns"});
  m.push_back({"detect.entities", a.entities, "count"});
  m.push_back({"detect.verdicts_per_kilo_kept", a.kept > 0 ? a.verdicts * 1e3 / a.kept : 0.0,
               "count"});
  m.push_back({"fg.forward_ns_per_alert", per(a.forward_s, a.kept, 1e9), "ns"});
  m.push_back({"fg.entity_ns_per_alert", per(a.entity_s, a.kept, 1e9), "ns"});
  m.push_back({"monitors.zeek_ns_per_flow", per(f.zeek_s, f.admitted, 1e9), "ns"});
  m.push_back({"monitors.zeek_alerts_per_kflow",
               f.admitted > 0 ? f.zeek_alerts * 1e3 / f.admitted : 0.0, "count"});
  m.push_back({"monitors.zeek_tracked_pairs", f.pairs, "count"});
  m.push_back({"bhr.record_ns_per_flow", per(f.record_s, f.recorded, 1e9), "ns"});
  m.push_back({"bhr.filter_batch_ns_per_flow", per(f.filter_s, f.flows, 1e9), "ns"});
  m.push_back({"bhr.dropped_fraction", f.flows > 0 ? f.dropped / f.flows : 0.0, "fraction"});
  m.push_back({"bhr.block_us_per_call", per(f.block_s, f.blocks, 1e6), "us"});
  m.push_back({"bhr.expire_us_per_tick", per(f.expire_s, f.ticks, 1e6), "us"});
  m.push_back({"bhr.active_blocks", f.active_blocks, "count"});
  m.push_back({"testbed.pipeline_ns_per_alert", per(pipeline_s, a.lines, 1e9), "ns"});
  m.push_back({"sim.maintenance_us_per_tick", per(f.run_until_s, f.ticks, 1e6), "us"});
  m.push_back({"trace.unaccounted_fraction", unaccounted, "fraction"});
  m.push_back({"trace.overhead_fraction", overhead, "fraction"});

  auto& d = result.details;
  for (const auto& [name, totals] : tracer.totals()) {
    d.emplace_back("e2e_span." + name + ".self_s", totals.self_s);
  }
  for (const auto& [name, totals] : replay.totals()) {
    d.emplace_back("replay_span." + name + ".self_s", totals.self_s);
  }
  d.emplace_back("trace.untraced_pass_s", median(untraced_s));
  d.emplace_back("trace.traced_pass_s", median(traced_s));
  d.emplace_back("trace.traced_items_per_s", traced_rate);
  d.emplace_back("trace.passes_each", static_cast<double>(untraced_s.size()));
  d.emplace_back("trace.single_shard_pass_s", median(one_shard_s));
  d.emplace_back("trace.layer_sum_s", layers_s);
  d.emplace_back("replay.alert_lines", a.lines);
  d.emplace_back("replay.flow_hour_pass_s", flow_hour_pass.seconds);
  d.emplace_back("replay.flows", f.flows);
  d.emplace_back("replay.flows_admitted", f.admitted);
  d.emplace_back("replay.maintenance_ticks", f.ticks);
  d.emplace_back("replay.bhr_blocks", f.blocks);
  return result;
}

}  // namespace

Result run(const Inputs& inputs, const Options& options) {
  const CpuTimes before = cpu_times();
  // Resident before any set-up: the inputs, which the peak RSS leaves out.
  const double inputs_mb = resident_mb();
  Result result = inputs.workload == Workload::kFlowHour ? run_flow_hour(inputs, options, inputs_mb)
                  : options.trace ? run_traced(inputs, options)
                                  : run_untraced(inputs, options, inputs_mb);
  // Steal over the whole run: the usual cause of a run reading slow across
  // the board.
  result.details.emplace_back("machine.steal_fraction", steal_between(before, cpu_times()));
  return result;
}

}  // namespace perfbench
