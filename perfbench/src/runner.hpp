#pragma once
// One benchmark run over generated inputs.
//
// Untraced run (trace = false): the end-to-end metrics.
//   - alerts_per_s: closed-loop passes over the whole input for the run's
//     budget, each on a freshly set-up daemon; median per-pass rate of
//     notice lines.
//   - setup_s: median set-up time (model training, daemon construction,
//     worker start) over the passes' set-ups and more on their own.
//   - peak_rss_mb: the process's high-water RSS above the loaded inputs,
//     before the gates run.
//
// Traced run (trace = true, daemon workloads): the per-layer metrics, from
// traced passes of the same input plus a single-thread replay of every
// layer (the flow-side layers over flow_hour's flows from the same seed),
// and, as diagnostics, verdict latency p50 / p99 from open-loop passes at a
// fixed offered rate (each verdict timed from the due time of the line that
// fired it until the consumer holds it) with the generator's lateness.
//
// flow_hour (either trace setting): flows_per_s, setup_s and peak_rss_mb
// from closed-loop passes through Testbed::inject_flows.
//
// Every pass is gated against its serial reference; a pass that diverges
// counts all of its items as failed.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

struct Options {
  double seconds = 10.0;  ///< measuring budget for the run
  bool trace = false;
  /// Self-test hook: alter one released verdict before it is gated.
  bool corrupt_verdict = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< one line per gate divergence
  /// Diagnostics reported beside the metrics (sample counts, generator
  /// lateness, pass counts), as name/value pairs.
  std::vector<std::pair<std::string, double>> details;
};

[[nodiscard]] Result run(const Inputs& inputs, const Options& options);

}  // namespace perfbench
