// perfbench: the testbed's end-to-end benchmark.
//
//   perfbench gen --workload NAME --seed N --trace 0|1 --out FILE
//       Generate the workload's inputs from the seed into FILE (with
//       --trace 1, a daemon workload's inputs also carry flow_hour's flows
//       for the flow-side layer replays).
//   perfbench run --input FILE --seconds S --trace 0|1 [--git-sha SHA]
//       Measure the inputs in FILE. Prints one report line (machine block,
//       diagnostics, gate failures) and, as the last line, the result:
//       {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//       Exits 1 when any pass fails its correctness gate. flow_hour has
//       no traced run.
//
// perfbench/run.py builds this program and chains the two steps.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>

#include "runner.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + '"';
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

const char* arg(int argc, char** argv, const char* name, const char* fallback) {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench gen --workload NAME --seed N --trace 0|1 --out FILE\n"
               "       perfbench run --input FILE --seconds S --trace 0|1 [--git-sha SHA]\n");
  return 2;
}

int gen(int argc, char** argv) {
  const char* name = arg(argc, argv, "--workload", nullptr);
  const char* seed = arg(argc, argv, "--seed", nullptr);
  const char* out = arg(argc, argv, "--out", nullptr);
  const auto workload = name != nullptr ? parse_workload(name) : std::nullopt;
  if (!workload || seed == nullptr || out == nullptr) return usage();
  Inputs inputs = generate(*workload, std::strtoull(seed, nullptr, 10));
  if (std::strcmp(arg(argc, argv, "--trace", "0"), "0") != 0) add_layer_flows(inputs);
  if (!save(inputs, out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out);
    return 1;
  }
  std::fprintf(stderr, "perfbench: %s seed %s: %zu log bytes, %zu flows\n", name, seed,
               inputs.log.size(), inputs.flows.size());
  return 0;
}

int run(int argc, char** argv) {
  const char* input = arg(argc, argv, "--input", nullptr);
  if (input == nullptr) return usage();
  const auto inputs = load(input);
  if (!inputs) {
    std::fprintf(stderr, "perfbench: cannot read inputs from %s\n", input);
    return 1;
  }
  Options options;
  options.seconds = std::strtod(arg(argc, argv, "--seconds", "10"), nullptr);
  options.trace = std::strcmp(arg(argc, argv, "--trace", "0"), "0") != 0;
  if (!(options.seconds > 0)) return usage();
  if (options.trace && inputs->workload == Workload::kFlowHour) {
    std::fprintf(stderr, "perfbench: flow_hour has no traced run\n");
    return 2;
  }

  const Result result = perfbench::run(*inputs, options);

  std::string report = "{\"workload\": " + json_string(workload_name(inputs->workload)) +
                       ", \"trace\": " + (options.trace ? "true" : "false") +
                       ", \"machine\": {\"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
                       ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                       ", \"git_sha\": " + json_string(arg(argc, argv, "--git-sha", "unknown")) +
                       ", \"seed\": " + std::to_string(inputs->seed) + "}" +
                       ", \"attempted\": " + std::to_string(result.attempted) +
                       ", \"failed\": " + std::to_string(result.failed) + ", \"details\": {";
  for (std::size_t i = 0; i < result.details.size(); ++i) {
    report += (i == 0 ? "" : ", ") + json_string(result.details[i].first) + ": " +
              json_number(result.details[i].second);
  }
  report += "}, \"failures\": [";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    report += (i == 0 ? "" : ", ") + json_string(result.failures[i]);
  }
  report += "]}";

  std::string line = std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    line += (i == 0 ? "" : ", ") + json_string(metric.name) + ": {\"value\": " +
            json_number(metric.value) + ", \"unit\": " + json_string(metric.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n%s\n", report.c_str(), line.c_str());
  for (const auto& failure : result.failures) {
    std::fprintf(stderr, "perfbench: gate failed: %s\n", failure.c_str());
  }
  return result.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "gen") == 0) return gen(argc, argv);
  if (std::strcmp(argv[1], "run") == 0) return run(argc, argv);
  return usage();
}
