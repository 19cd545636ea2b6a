#pragma once
// Seeded input generators for the three benchmark workloads. Everything a
// run feeds the testbed derives from one workload seed; the testbed only
// ever sees the generated notice-log bytes and flow records.
//
//   notice_day       ~1M-line notice log of one heavy day: the
//                    DailyNoiseModel day with incident timelines folded in
//                    (~85% periodic scan repeats).
//   campaign_entity  ~400K-line attack-campaign log over ~50K source
//                    entities, ~15% of them attacking; non-scan alert types,
//                    so nearly every line survives the scan filter.
//   flow_hour        one simulated hour of raw flows: scanner nets, an
//                    Internet-wide tail of ~200K sources, SSH bruteforce
//                    sources the SSH auditor blackholes mid-run, and
//                    legitimate established traffic.
//
// A traced run of a daemon workload also carries flow_hour's flows from the
// same seed: the traffic its flow-side layer replays (Zeek monitor, scan
// recorder, BHR filter, maintenance chain) run over.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "incidents/generator.hpp"
#include "net/flow.hpp"

namespace perfbench {

enum class Workload : std::uint8_t { kNoticeDay, kCampaignEntity, kFlowHour };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload) noexcept;

struct Inputs {
  Workload workload = Workload::kNoticeDay;
  std::uint64_t seed = 0;
  std::string log;               ///< notice log (daemon workloads)
  std::vector<at::net::Flow> flows;  ///< raw flows, time-sorted (flow_hour, traced runs)
};

/// Deterministic in (workload, seed, scale); scale 1.0 is the benchmark
/// size, small scales give the tiny inputs of the self-test.
[[nodiscard]] Inputs generate(Workload workload, std::uint64_t seed, double scale = 1.0);

/// For a traced run of a daemon workload: attach flow_hour's flows from the
/// same seed and scale. No-op for flow_hour itself.
void add_layer_flows(Inputs& inputs, double scale = 1.0);

/// Training corpus the detectors learn from (also seed-derived).
[[nodiscard]] at::incidents::Corpus training_corpus(std::uint64_t seed);

/// Binary round trip, so generation runs in its own process and its memory
/// never shows in the measured process's peak RSS.
[[nodiscard]] bool save(const Inputs& inputs, const std::string& path);
[[nodiscard]] std::optional<Inputs> load(const std::string& path);

/// Seed-stream derivation shared by the generators.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept;

}  // namespace perfbench
