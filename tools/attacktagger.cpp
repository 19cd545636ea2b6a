// attacktagger — command-line front end for the testbed library.
//
//   attacktagger corpus  --out DIR [--seed N] [--scale F]
//       generate the calibrated incident corpus; write the Zeek notice
//       log, per-incident reports, and a stats summary into DIR.
//   attacktagger mine    [--seed N]
//       print the S1..S43 mining table and the four insights.
//   attacktagger train   --out FILE [--seed N]
//       learn factor-graph parameters and save them (versioned format).
//   attacktagger detect  --model FILE --log FILE [--threshold P] [--shards N]
//       batch-parse a notice log (zero copy) into the DetectionDaemon (scan
//       filter, per-entity detectors, BHR blocking; N entity shards,
//       default 1) and print the pages. Output after the header line is
//       identical for every shard count.
//   attacktagger daemon  --model FILE --log FILE [--threshold P] [--shards N]
//                        [--ring SLOTS]
//       replay a notice log through the always-on DetectionDaemon,
//       printing verdicts and BHR actions as they release, then the
//       operational alerts (checkpoints, lifecycle, stats) and the counter
//       table (docs/daemon.md).
//   attacktagger fig1    --out DIR
//       build the Figure 1 graph, lay it out, export DOT/GEXF/CSV.
//   attacktagger replay
//       run the Section V ransomware case study on a fresh testbed.
//   attacktagger vrt     --package NAME --date YYYYMMDD
//       resolve a dated vulnerable-container build.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "alerts/zeeklog.hpp"
#include "analysis/insights.hpp"
#include "bhr/bhr.hpp"
#include "detect/eval.hpp"
#include "fg/params_io.hpp"
#include "incidents/annotate.hpp"
#include "incidents/report.hpp"
#include "replay/ransomware.hpp"
#include "testbed/daemon.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"
#include "viz/export.hpp"
#include "viz/fig1.hpp"
#include "viz/layout.hpp"
#include "vrt/builder.hpp"

namespace {

using namespace at;

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    flags[argv[i] + 2] = argv[i + 1];
  }
  return flags;
}

std::string flag(const std::map<std::string, std::string>& flags, const std::string& key,
                 const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

/// Numeric flag with a usage error instead of the uncaught std::sto*
/// exception a typo used to produce.
template <typename T>
T num_flag(const std::map<std::string, std::string>& flags, const std::string& key,
           const std::string& fallback) {
  const std::string text = flag(flags, key, fallback);
  std::optional<T> value;
  if constexpr (std::is_floating_point_v<T>) {
    const auto parsed = util::parse_double(text);
    if (parsed) value = static_cast<T>(*parsed);
  } else {
    value = util::parse_num<T>(text);
  }
  if (!value) {
    std::fprintf(stderr, "attacktagger: --%s expects a number, got '%s'\n", key.c_str(),
                 text.c_str());
    std::exit(2);
  }
  return *value;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

incidents::Corpus make_corpus(const std::map<std::string, std::string>& flags) {
  incidents::CorpusConfig config;
  config.seed = num_flag<std::uint64_t>(flags, "seed", "42");
  config.repetition_scale = num_flag<double>(flags, "scale", "0.05");
  return incidents::CorpusGenerator(config).generate();
}

int cmd_corpus(const std::map<std::string, std::string>& flags) {
  const std::string out_dir = flag(flags, "out", "corpus_out");
  std::filesystem::create_directories(out_dir);
  std::filesystem::create_directories(out_dir + "/reports");
  const auto corpus = make_corpus(flags);

  std::vector<alerts::Alert> all;
  for (const auto& incident : corpus.incidents) {
    for (const auto& entry : incident.timeline) all.push_back(entry.alert);
    viz::write_file(out_dir + "/reports/incident-" + std::to_string(incident.id) + ".txt",
                    incidents::write_report(incident));
  }
  viz::write_file(out_dir + "/notices.log", alerts::write_notice_log(all));

  const auto annotation = incidents::AnnotationPipeline{}.annotate(corpus);
  std::ostringstream stats;
  stats << "incidents " << corpus.stats.incidents << "\n"
        << "raw_alerts " << corpus.stats.raw_alerts << "\n"
        << "filtered_alerts " << corpus.stats.filtered_alerts << "\n"
        << "motif_incidents " << corpus.stats.motif_incidents << "\n"
        << "critical_occurrences " << corpus.stats.critical_occurrences << "\n"
        << "auto_annotated_fraction " << annotation.auto_fraction() << "\n";
  viz::write_file(out_dir + "/stats.txt", stats.str());
  std::printf("wrote %zu notices, %zu reports, stats -> %s/\n", all.size(),
              corpus.incidents.size(), out_dir.c_str());
  return 0;
}

int cmd_mine(const std::map<std::string, std::string>& flags) {
  const auto corpus = make_corpus(flags);
  const auto mined = analysis::mine_core_sequences(corpus.incidents);
  std::printf("%zu distinct sequences; S1 x%zu; lengths %zu..%zu; motif in %zu/%zu\n",
              mined.sequences.size(), mined.sequences[0].count, mined.min_length,
              mined.max_length, mined.containing(incidents::Catalog::motif()),
              corpus.incidents.size());
  const auto i1 = analysis::measure_insight1(corpus);
  std::printf("insight1: %.2f%% of pairs <= 1/3 similarity\n",
              100.0 * i1.fraction_pairs_at_or_below_third);
  const auto i3 = analysis::measure_insight3(corpus);
  std::printf("insight3: recon cv %.2f vs manual cv %.2f\n", i3.recon_gap_cv,
              i3.manual_gap_cv);
  const auto i4 = analysis::measure_insight4(corpus);
  std::printf("insight4: %zu critical types, %zu occurrences, relpos %.2f\n",
              i4.distinct_critical_types, i4.critical_occurrences,
              i4.mean_relative_position);
  return 0;
}

int cmd_train(const std::map<std::string, std::string>& flags) {
  const std::string out = flag(flags, "out", "model.attacktagger");
  const auto corpus = make_corpus(flags);
  const auto params = fg::learn_params(corpus);
  viz::write_file(out, fg::write_params(params));
  std::printf("trained on %zu incidents -> %s\n", corpus.incidents.size(), out.c_str());
  return 0;
}

/// Register the --model factor-graph detector (paging at --threshold) on
/// the daemon; false after printing an error if the model is invalid.
bool add_model_detector(const std::map<std::string, std::string>& flags,
                        testbed::DetectionDaemon& daemon) {
  const auto params = fg::read_params(read_file(flag(flags, "model", "model.attacktagger")));
  if (!params) {
    std::fprintf(stderr, "error: model file is not a valid attacktagger model\n");
    return false;
  }
  const double threshold = num_flag<double>(flags, "threshold", "0.75");
  auto compiled = fg::compile_params(*params);
  daemon.add_detector("factor-graph", [compiled, threshold] {
    return std::make_unique<detect::FactorGraphDetector>(compiled, threshold);
  });
  return true;
}

int cmd_detect(const std::map<std::string, std::string>& flags) {
  testbed::DaemonConfig config;
  config.shards = num_flag<std::size_t>(flags, "shards", "1");
  bhr::BlackHoleRouter router;
  testbed::DetectionDaemon daemon(config, &router);
  if (!add_model_detector(flags, daemon)) return 1;
  // Zero-copy parse into the daemon, which runs the periodic-scan filter,
  // entity eviction and BHR blocking of the live testbed.
  const auto batch = alerts::parse_notice_batch(read_file(flag(flags, "log", "notices.log")));
  std::printf("loaded model; %zu notices (%zu malformed); %zu shards\n", batch.size(),
              batch.malformed, daemon.shard_count());
  for (std::size_t row = 0; row < batch.size(); ++row) daemon.submit(batch, row);
  daemon.drain_idle();
  const auto verdicts = daemon.drain_alerts(alerts::DaemonAlert::kVerdict);
  for (const auto& alert : verdicts) {
    const auto& verdict = static_cast<const alerts::VerdictAlert&>(*alert);
    std::printf("PAGE %s entity=%s %s\n", util::format_datetime(verdict.ts).c_str(),
                verdict.entity.c_str(), verdict.reason.c_str());
  }
  const auto stats = daemon.stats();
  std::printf("%llu kept of %llu alerts, %llu entities, %zu pages, %zu BHR calls\n",
              static_cast<unsigned long long>(stats.kept),
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.tracked_entities), verdicts.size(),
              router.audit_log().size());
  return 0;
}

int cmd_daemon(const std::map<std::string, std::string>& flags) {
  testbed::DaemonConfig config;
  config.shards = num_flag<std::size_t>(flags, "shards", "8");
  config.ring_capacity = num_flag<std::size_t>(flags, "ring", "8192");
  bhr::BlackHoleRouter router;
  testbed::DetectionDaemon daemon(config, &router);
  if (!add_model_detector(flags, daemon)) return 1;
  const auto batch = alerts::parse_notice_batch(read_file(flag(flags, "log", "notices.log")));

  std::printf("replaying %zu notices (%zu malformed) through %zu shards\n",
              batch.size(), batch.malformed, daemon.shard_count());
  const auto print_drained = [&daemon](std::uint32_t mask) {
    std::size_t printed = 0;
    for (const auto& alert : daemon.drain_alerts(mask)) {
      std::printf("%s\n", alert->str().c_str());
      ++printed;
    }
    return printed;
  };
  // Blocking submits (a replay never drops); drain verdicts and BHR actions
  // periodically the way a live console would. These release in seq order,
  // so the printed stream does not depend on shard timing; the operational
  // categories (checkpoints, lifecycle, stats) print once the daemon stops.
  constexpr std::uint32_t kResults = alerts::DaemonAlert::kVerdict | alerts::DaemonAlert::kBhr;
  std::size_t typed_alerts = 0;
  for (std::size_t row = 0; row < batch.size(); ++row) {
    daemon.submit(batch, row);
    if ((row + 1) % 4096 == 0) typed_alerts += print_drained(kResults);
  }
  daemon.stop();
  typed_alerts += print_drained(kResults);
  typed_alerts += print_drained(alerts::DaemonAlert::kAllCategories);

  std::printf("\n%zu typed alerts drained; %zu BHR audit entries\n%s", typed_alerts,
              router.audit_log().size(), daemon.stats().to_table().render().c_str());
  return 0;
}

int cmd_fig1(const std::map<std::string, std::string>& flags) {
  const std::string out_dir = flag(flags, "out", "fig1_out");
  std::filesystem::create_directories(out_dir);
  auto data = viz::build_fig1();
  viz::LayoutOptions options;
  options.iterations = num_flag<std::size_t>(flags, "iterations", "60");
  viz::run_layout(data.graph, options);
  viz::write_file(out_dir + "/fig1.dot", viz::to_dot(data.graph, true));
  viz::write_file(out_dir + "/fig1.gexf", viz::to_gexf(data.graph));
  viz::write_file(out_dir + "/fig1_edges.csv", viz::to_edge_csv(data.graph));
  std::printf("%zu nodes / %zu edges -> %s/\n", data.graph.node_count(),
              data.graph.edge_count(), out_dir.c_str());
  return 0;
}

int cmd_replay(const std::map<std::string, std::string>& flags) {
  const auto corpus = make_corpus(flags);
  testbed::Testbed bed(testbed::TestbedConfig{}, corpus);
  bed.deploy(0);
  replay::RansomwareScenario ransomware;
  std::vector<replay::Scenario*> scenarios{&ransomware};
  replay::run_scenarios(bed, scenarios, 0);
  const auto note = replay::first_notification_after(bed, 0, "factor-graph");
  if (note) {
    std::printf("detected %.1f min after entry; lead %.2f days; %zu hosts infected\n",
                static_cast<double>(note->ts - ransomware.entry_time()) / util::kMinute,
                static_cast<double>(ransomware.second_wave_time() - note->ts) / util::kDay,
                ransomware.compromised().size());
    return 0;
  }
  std::printf("no detection\n");
  return 1;
}

int cmd_appendix(const std::map<std::string, std::string>& flags) {
  // The paper: "common alert sequences (name from S1 to S43, which we will
  // release in the Appendix upon publication of the paper)". This emits
  // that appendix as markdown from the calibrated catalog.
  const std::string out = flag(flags, "out", "docs/APPENDIX_S1_S43.md");
  std::filesystem::create_directories(std::filesystem::path(out).parent_path());
  incidents::Catalog catalog;
  std::ostringstream md;
  md << "# Appendix: recurring alert sequences S1..S" << catalog.size() << "\n\n"
     << "The " << catalog.size() << " recurring alert sequences mined from the "
     << catalog.total_incidents() << "-incident corpus (2002-2024).\n"
     << catalog.motif_incidents() << " incidents ("
     << util::fmt_double(100.0 * static_cast<double>(catalog.motif_incidents()) /
                             static_cast<double>(catalog.total_incidents()),
                         2)
     << "%) contain the 2002 foothold motif *download -> compile -> erase trace*.\n\n"
     << "| id | seen | len | family | alert sequence |\n"
     << "|---|---|---|---|---|\n";
  for (const auto& seq : catalog.sequences()) {
    md << "| " << seq.name << " | " << seq.frequency << " | " << seq.alerts.size() << " | "
       << seq.family << " | ";
    for (std::size_t i = 0; i < seq.alerts.size(); ++i) {
      if (i) md << " → ";
      md << "`" << std::string(alerts::symbol(seq.alerts[i])).substr(6) << "`";
    }
    md << " |\n";
  }
  md << "\nCritical (\"too late\") alert types: "
     << alerts::critical_types().size() << ", occurring "
     << catalog.critical_occurrences() << " times across the corpus.\n";
  viz::write_file(out, md.str());
  std::printf("wrote %s (%zu sequences)\n", out.c_str(), catalog.size());
  return 0;
}

int cmd_vrt(const std::map<std::string, std::string>& flags) {
  vrt::SnapshotArchive archive;
  vrt::ContainerBuilder builder(archive);
  const auto result =
      builder.build(flag(flags, "package", "openssl"), flag(flags, "date", "20140401"));
  if (!result.success) {
    for (const auto& error : result.errors) std::printf("error: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s:\n", result.distribution.c_str());
  for (const auto& pkg : result.closure) {
    std::printf("  %-12s %-10s %s\n", pkg.package.c_str(), pkg.version.c_str(),
                pkg.cve.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: attacktagger <corpus|mine|train|detect|daemon|fig1|replay|vrt|"
                 "appendix> [--flag value ...]\n");
    return 2;
  }
  const std::string command = argv[1];
  const auto flags = parse_flags(argc, argv, 2);
  try {
    if (command == "corpus") return cmd_corpus(flags);
    if (command == "mine") return cmd_mine(flags);
    if (command == "train") return cmd_train(flags);
    if (command == "detect") return cmd_detect(flags);
    if (command == "daemon") return cmd_daemon(flags);
    if (command == "fig1") return cmd_fig1(flags);
    if (command == "replay") return cmd_replay(flags);
    if (command == "vrt") return cmd_vrt(flags);
    if (command == "appendix") return cmd_appendix(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}
