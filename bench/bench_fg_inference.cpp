// Per-alert cost of exact entity inference at pipeline scale: one
// fg::EntityFilter per tracked entity (what FactorGraphDetector's entity
// mode keeps), driven by a structured multi-entity alert stream and swept
// across tracked-entity counts.
//
// Correctness gate, in the same run: sampled entity histories are cut to
// prefixes of at most 10 alerts, replayed through a fresh filter, and
// compared with exact enumeration of the entity factor graph
// (enumerate_exact over build_entity_graph). The bench exits nonzero if
// any posterior differs by more than 1e-9.
//
// Standalone main (not google-benchmark): the artifact is a machine-
// readable JSON file (default BENCH_fg.json at the repo root) with a
// `machine` block naming the hardware and build it ran on.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fg/bp.hpp"
#include "fg/model.hpp"
#include "incidents/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace at;
using Clock = std::chrono::steady_clock;

constexpr double kGate = 1e-9;
constexpr std::size_t kMaxPrefix = 10;  ///< enumerate_exact's entity-graph limit
constexpr std::size_t kOracleSamples = 12;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Stream {
  std::vector<std::uint32_t> entity;
  std::vector<alerts::AlertType> type;
};

/// Structured multi-entity trace shaped like the testbed's: most entities
/// produce benign-stage noise, a minority (15%) run attack campaigns with
/// some benign chatter mixed in.
Stream make_stream(std::size_t entities, std::size_t alerts, std::uint64_t seed) {
  std::vector<alerts::AlertType> benign_pool;
  std::vector<alerts::AlertType> attack_pool;
  for (const auto& info : alerts::all_alert_info()) {
    if (info.typical_stage >= alerts::AttackStage::kInProgress) {
      attack_pool.push_back(info.type);
    } else {
      benign_pool.push_back(info.type);
    }
  }
  auto draw = [](util::Rng& rng, const std::vector<alerts::AlertType>& pool) {
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  };

  Stream stream;
  stream.entity.reserve(alerts);
  stream.type.reserve(alerts);
  util::Rng rng(seed);
  std::vector<bool> malicious(entities);
  for (std::size_t e = 0; e < entities; ++e) {
    malicious[e] = rng.uniform_int(0, 99) < 15;
  }
  for (std::size_t i = 0; i < alerts; ++i) {
    const auto entity = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(entities) - 1));
    stream.entity.push_back(entity);
    const bool attack_draw = malicious[entity] ? rng.uniform_int(0, 99) < 60
                                               : rng.uniform_int(0, 99) < 5;
    stream.type.push_back(draw(rng, attack_draw ? attack_pool : benign_pool));
  }
  return stream;
}

struct SweepResult {
  std::size_t entities = 0;
  std::size_t alerts = 0;
  double us_per_alert = 0.0;
  double alerts_per_s = 0.0;
  double mean_p_malicious = 0.0;
  std::size_t oracle_prefixes = 0;
  double max_error = 0.0;
};

/// Exactness gate: histories of sampled entities, cut to prefixes of up to
/// kMaxPrefix alerts, through a fresh filter vs exact enumeration.
void run_oracle(const std::shared_ptr<const fg::CompiledParams>& compiled, const Stream& stream,
                std::size_t entities, SweepResult& result) {
  const std::size_t stride = std::max<std::size_t>(1, entities / kOracleSamples);
  std::vector<std::vector<alerts::AlertType>> history(entities);
  for (std::size_t i = 0; i < stream.entity.size(); ++i) {
    const std::uint32_t e = stream.entity[i];
    if (e % stride == 0 && history[e].size() < kMaxPrefix) history[e].push_back(stream.type[i]);
  }
  for (std::size_t e = 0; e < entities; e += stride) {
    if (history[e].empty()) continue;
    // Vary the prefix length across samples so short and long prefixes
    // are both checked.
    const std::size_t length = std::min(history[e].size(), 1 + (e / stride * 7) % kMaxPrefix);
    const std::span<const alerts::AlertType> prefix(history[e].data(), length);
    fg::EntityFilter filter(compiled);
    for (const alerts::AlertType type : prefix) filter.observe(type);
    const auto exact = fg::enumerate_exact(fg::build_entity_graph(compiled->params, prefix));
    result.max_error =
        std::max(result.max_error, std::fabs(filter.p_malicious() - exact.marginals.back()[1]));
    ++result.oracle_prefixes;
  }
}

SweepResult run_sweep(const std::shared_ptr<const fg::CompiledParams>& compiled,
                      std::size_t entities, std::size_t per_entity) {
  SweepResult result;
  result.entities = entities;
  result.alerts = entities * per_entity;
  const Stream stream = make_stream(entities, result.alerts, 0x5eed + entities);

  std::vector<fg::EntityFilter> filters(entities, fg::EntityFilter(compiled));
  double p_sum = 0.0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < result.alerts; ++i) {
    p_sum += filters[stream.entity[i]].observe(stream.type[i]);
  }
  const double spent = seconds_since(start);
  result.us_per_alert = spent * 1e6 / static_cast<double>(result.alerts);
  result.alerts_per_s = static_cast<double>(result.alerts) / spent;
  result.mean_p_malicious = p_sum / static_cast<double>(result.alerts);

  run_oracle(compiled, stream, entities, result);
  return result;
}

/// HEAD's commit id read from the source tree's .git directory, or
/// "unknown" outside a git checkout.
std::string git_sha() {
  const std::string git = std::string(AT_BENCH_SOURCE_DIR) + "/.git/";
  std::ifstream head(git + "HEAD");
  std::string line;
  if (!std::getline(head, line)) return "unknown";
  if (line.rfind("ref: ", 0) != 0) return line;
  const std::string ref = line.substr(5);
  std::ifstream loose(git + ref);
  if (std::getline(loose, line)) return line;
  std::ifstream packed(git + "packed-refs");
  while (std::getline(packed, line)) {
    if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0) {
      return line.substr(0, 40);
    }
  }
  return "unknown";
}

void emit_json(std::ostringstream& json, const SweepResult& s, bool last) {
  json << "    {\"entities\": " << s.entities << ", \"alerts\": " << s.alerts
       << ", \"us_per_alert\": " << s.us_per_alert << ", \"alerts_per_s\": " << s.alerts_per_s
       << ", \"mean_p_malicious\": " << s.mean_p_malicious
       << ", \"oracle_prefixes\": " << s.oracle_prefixes
       << ", \"max_exact_error\": " << s.max_error << "}" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> entity_counts = {1'000, 10'000, 100'000};
  std::size_t per_entity = 8;
  std::string out_path = "BENCH_fg.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--entities") == 0) {
      entity_counts.clear();
      std::stringstream list(argv[i + 1]);
      std::string item;
      while (std::getline(list, item, ',')) entity_counts.push_back(std::stoull(item));
    }
    if (std::strcmp(argv[i], "--per-entity") == 0) per_entity = std::stoull(argv[i + 1]);
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  incidents::CorpusConfig config;
  config.repetition_scale = 0.02;
  const auto compiled = fg::compile_params(
      fg::learn_params(incidents::CorpusGenerator(config).generate()));

  std::vector<SweepResult> sweeps;
  bool oracle_ok = true;
  for (const std::size_t entities : entity_counts) {
    const SweepResult sweep = run_sweep(compiled, entities, per_entity);
    std::printf(
        "entities %8zu: %.4f us/alert (%.0f alerts/s, mean posterior %.3f), "
        "%zu prefixes vs enumerate_exact, max error %.2e\n",
        sweep.entities, sweep.us_per_alert, sweep.alerts_per_s, sweep.mean_p_malicious,
        sweep.oracle_prefixes, sweep.max_error);
    oracle_ok = oracle_ok && sweep.max_error <= kGate;
    sweeps.push_back(sweep);
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"fg_inference\",\n  \"engine\": \"fg::EntityFilter\",\n"
       << "  \"machine\": {\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": \"" << AT_BENCH_COMPILER << "\", \"build_type\": \""
       << AT_BENCH_BUILD_TYPE << "\", \"git_sha\": \"" << git_sha() << "\"},\n"
       << "  \"alerts_per_entity\": " << per_entity
       << ",\n  \"state_bytes_per_entity\": " << sizeof(fg::EntityFilter)
       << ",\n  \"sweeps\": [\n";
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    emit_json(json, sweeps[i], i + 1 == sweeps.size());
  }
  json << "  ],\n  \"oracle_gate\": " << kGate << ",\n  \"oracle_ok\": "
       << (oracle_ok ? "true" : "false") << "\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  std::printf("wrote %s\n", out_path.c_str());
  return oracle_ok ? 0 : 1;
}
