// Ingest-path throughput: the serial seed path (read_notice_log building
// an owning Alert per line, then AlertPipeline one alert at a time, each
// entity's FactorGraphDetector compiling its own parameter tables) vs the
// batched path (parse_notice_batch zero-copy columns submitted to a
// DetectionDaemon, drained to idle, verdicts collected; one compiled table
// set shared by every entity). ~1M synthetic notice lines are generated
// from the daily background-noise model plus incident timelines,
// serialized once, and both paths parse + detect from the identical log
// text. Emits JSON (default BENCH_ingest.json at the repo root) and exits 1
// unless the daemon's verdict stream is byte-identical to the serial
// pipeline's at every shard count. speedup_vs_serial therefore includes the
// serial side's per-entity table recompilation, not only sharding and
// zero-copy parsing.
//
// Standalone main (not google-benchmark): the artifact is a machine-
// readable JSON file, produced in one deliberate pass per configuration.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "alerts/zeeklog.hpp"
#include "bhr/bhr.hpp"
#include "detect/detector.hpp"
#include "fg/model.hpp"
#include "incidents/generator.hpp"
#include "incidents/noise.hpp"
#include "testbed/daemon.hpp"
#include "util/strings.hpp"

namespace {

using namespace at;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// ~`budget` alerts of background noise with attack-incident timelines
/// spliced in, time-sorted — the shape of one heavy day on the /16.
std::vector<alerts::Alert> synthesize(std::size_t budget) {
  incidents::DailyNoiseModel noise;
  const auto month = noise.sample_month(0, 1);
  auto stream = noise.materialize_day(month[0], budget);

  incidents::CorpusConfig config;
  config.repetition_scale = 0.05;
  const auto corpus = incidents::CorpusGenerator(config).generate();
  for (const auto& incident : corpus.incidents) {
    for (const auto& entry : incident.timeline) {
      auto alert = entry.alert;
      // Fold the multi-year corpus into the bench day so incidents
      // interleave with noise instead of trailing it.
      alert.ts = ((alert.ts % util::kDay) + util::kDay) % util::kDay;
      stream.push_back(std::move(alert));
    }
  }
  sort_timeline(stream);
  return stream;
}

// Seed-shaped factories: every per-entity FactorGraphDetector recompiles
// its own parameter tables, as the pre-batch pipeline did.
void add_detectors_seed(auto& pipeline, const fg::ModelParams& params) {
  pipeline.add_detector("critical-alert",
                        [] { return std::make_unique<detect::CriticalAlertDetector>(); });
  pipeline.add_detector("factor-graph", [&params] {
    return std::make_unique<detect::FactorGraphDetector>(params, 0.75);
  });
}

// Optimized factories: one compiled table set shared by every per-entity
// detector instance (bit-identical posteriors, so output still matches).
void add_detectors_compiled(auto& pipeline, const fg::ModelParams& params) {
  pipeline.add_detector("critical-alert",
                        [] { return std::make_unique<detect::CriticalAlertDetector>(); });
  auto compiled = fg::compile_params(params);
  pipeline.add_detector("factor-graph", [compiled = std::move(compiled)] {
    return std::make_unique<detect::FactorGraphDetector>(compiled, 0.75);
  });
}

std::string render(util::SimTime ts, const std::string& entity, const std::string& detector,
                   const std::string& reason, double score,
                   const std::optional<net::Ipv4>& source) {
  std::ostringstream out;
  out << ts << '\t' << entity << '\t' << detector << '\t' << reason << '\t' << score
      << '\t' << (source ? source->str() : "-") << '\n';
  return out.str();
}

struct RunResult {
  double seconds = 0.0;
  std::size_t notifications = 0;
  std::uint64_t kept = 0;
  std::string rendered;
};

RunResult run_serial(const std::string& log_text, const fg::ModelParams& params) {
  const auto start = Clock::now();
  const auto parsed = alerts::read_notice_log(log_text);
  bhr::BlackHoleRouter router;
  testbed::AlertPipeline pipeline(testbed::PipelineConfig{}, &router);
  add_detectors_seed(pipeline, params);
  for (const auto& alert : parsed.alerts) pipeline.on_alert(alert);
  RunResult result;
  result.seconds = seconds_since(start);
  result.notifications = pipeline.notifications().size();
  result.kept = pipeline.alerts_after_filter();
  for (const auto& note : pipeline.notifications()) {
    result.rendered +=
        render(note.ts, note.entity, note.detector, note.reason, note.score, note.source);
  }
  return result;
}

RunResult run_daemon(const std::string& log_text, const fg::ModelParams& params,
                     std::size_t shards) {
  const auto start = Clock::now();
  const auto batch = alerts::parse_notice_batch(log_text);  // copy is timed: same input
  testbed::DaemonConfig config;
  config.shards = shards;
  bhr::BlackHoleRouter router;
  testbed::DetectionDaemon daemon(config, &router);
  add_detectors_compiled(daemon, params);
  for (std::size_t row = 0; row < batch.size(); ++row) daemon.submit(batch, row);
  daemon.drain_idle();
  const auto verdicts = daemon.drain_alerts(alerts::DaemonAlert::kVerdict);
  RunResult result;
  result.seconds = seconds_since(start);
  result.notifications = verdicts.size();
  result.kept = daemon.stats().kept;
  for (const auto& alert : verdicts) {
    const auto& v = static_cast<const alerts::VerdictAlert&>(*alert);
    result.rendered += render(v.ts, v.entity, v.detector, v.reason, v.score, v.source);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t budget = 1'000'000;
  std::string out_path = "BENCH_ingest.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--alerts") == 0) budget = std::stoull(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  std::printf("synthesizing ~%zu alerts...\n", budget);
  const auto stream = synthesize(budget);
  const std::string log_text = alerts::write_notice_log(stream);
  std::printf("%zu alerts, %s of notice log\n", stream.size(),
              util::fmt_bytes(log_text.size()).c_str());

  incidents::CorpusConfig train_config;
  train_config.repetition_scale = 0.02;
  train_config.seed = 7;
  const auto params =
      fg::learn_params(incidents::CorpusGenerator(train_config).generate());

  const auto serial = run_serial(log_text, params);
  std::printf("serial:   %.2fs  %.0f alerts/s  (%zu notifications, %llu kept)\n",
              serial.seconds, static_cast<double>(stream.size()) / serial.seconds,
              serial.notifications, static_cast<unsigned long long>(serial.kept));

  std::ostringstream json;
  json << "{\n"
       << "  \"bench\": \"ingest_pipeline\",\n"
       << "  \"alerts\": " << stream.size() << ",\n"
       << "  \"log_bytes\": " << log_text.size() << ",\n"
       << "  \"serial\": {\"seconds\": " << serial.seconds << ", \"alerts_per_s\": "
       << static_cast<double>(stream.size()) / serial.seconds
       << ", \"notifications\": " << serial.notifications << "},\n"
       << "  \"sharded\": [";

  bool all_identical = true;
  double best_speedup = 0.0;
  double speedup_8 = 0.0;
  bool first = true;
  for (const std::size_t shards : {1, 2, 4, 8}) {
    const auto run = run_daemon(log_text, params, shards);
    const bool identical = run.rendered == serial.rendered && run.kept == serial.kept;
    all_identical = all_identical && identical;
    const double speedup = serial.seconds / run.seconds;
    best_speedup = std::max(best_speedup, speedup);
    if (shards == 8) speedup_8 = speedup;
    std::printf(
        "sharded(%zu): %.2fs  %.0f alerts/s  speedup %.2fx  output %s\n", shards,
        run.seconds, static_cast<double>(stream.size()) / run.seconds, speedup,
        identical ? "identical" : "DIFFERS");
    if (!first) json << ", ";
    first = false;
    json << "{\"shards\": " << shards << ", \"seconds\": " << run.seconds
         << ", \"alerts_per_s\": " << static_cast<double>(stream.size()) / run.seconds
         << ", \"speedup_vs_serial\": " << speedup
         << ", \"identical_output\": " << (identical ? "true" : "false") << "}";
  }
  json << "],\n"
       << "  \"speedup_8_shards\": " << speedup_8 << ",\n"
       << "  \"best_speedup\": " << best_speedup << ",\n"
       << "  \"identical_output\": " << (all_identical ? "true" : "false") << "\n"
       << "}\n";

  std::ofstream out(out_path);
  out << json.str();
  std::printf("wrote %s\n", out_path.c_str());
  return all_identical ? 0 : 1;
}
