#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <type_traits>

#include "alerts/taxonomy.hpp"
#include "alerts/zeeklog.hpp"
#include "incidents/noise.hpp"
#include "net/cidr.hpp"
#include "util/rng.hpp"
#include "util/time_utils.hpp"

namespace perfbench {

namespace {

using namespace at;

constexpr std::uint64_t kIncidentCorpora = 4;

std::size_t scaled(double base, double scale, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(base * scale));
}

template <typename T>
const T& pick(util::Rng& rng, const std::vector<T>& pool) {
  return pool[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
}

net::Ipv4 protected_host(util::Rng& rng) {
  // Any host of the protected /16 outside the honeypot /24, so no flow is
  // diverted into the egress sandbox.
  const net::Cidr space = net::blocks::ncsa16();
  const net::Cidr honeypot = net::blocks::honeypot24();
  for (;;) {
    const net::Ipv4 host = space.host(static_cast<std::uint64_t>(rng.uniform_int(1, 65534)));
    if (!honeypot.contains(host)) return host;
  }
}

Inputs notice_day(std::uint64_t seed, double scale) {
  incidents::NoiseConfig noise_config;
  noise_config.seed = derive_seed(seed, 1);
  const incidents::DailyNoiseModel noise(noise_config);
  const auto month = noise.sample_month(0, 1);
  auto stream = noise.materialize_day(month[0], scaled(1'000'000, scale, 2000));
  // Incident timelines from kIncidentCorpora sampled corpora (~230
  // incidents each): one corpus yields only ~500 verdicts a day, too few
  // latency samples for a p99 that does not hinge on a handful of them.
  for (std::uint64_t k = 0; k < kIncidentCorpora; ++k) {
    incidents::CorpusConfig config;
    config.seed = derive_seed(seed, 100 + k);
    config.repetition_scale = std::max(0.001, 0.05 * scale);
    const auto corpus = incidents::CorpusGenerator(config).generate();
    for (const auto& incident : corpus.incidents) {
      for (const auto& entry : incident.timeline) {
        auto alert = entry.alert;
        alert.ts = ((alert.ts % util::kDay) + util::kDay) % util::kDay;
        stream.push_back(std::move(alert));
      }
    }
  }
  alerts::sort_timeline(stream);
  Inputs inputs;
  inputs.log = alerts::write_notice_log(stream);
  return inputs;
}

Inputs campaign_entity(std::uint64_t seed, double scale) {
  std::vector<alerts::AlertType> benign_pool;
  std::vector<alerts::AlertType> attack_pool;
  std::vector<alerts::AlertType> scan_pool;
  for (const auto& info : alerts::all_alert_info()) {
    if (info.category == alerts::Category::kRecon) {
      scan_pool.push_back(info.type);
    } else if (info.category == alerts::Category::kAccess || info.critical) {
      continue;  // access types are scan-filtered; critical ones end an attack
    } else if (info.typical_stage >= alerts::AttackStage::kInProgress) {
      attack_pool.push_back(info.type);
    } else {
      benign_pool.push_back(info.type);
    }
  }
  const std::vector<alerts::AlertType> critical_pool = alerts::critical_types();

  const std::size_t entities = scaled(50'000, scale, 200);
  const std::size_t lines = scaled(400'000, scale, 1600);
  util::Rng rng(derive_seed(seed, 4));
  std::vector<std::uint8_t> attacker(entities);
  for (auto& flag : attacker) flag = rng.uniform_int(0, 99) < 15 ? 1 : 0;

  struct Line {
    util::SimTime ts;
    std::uint32_t entity;
    alerts::AlertType type;
  };
  std::vector<Line> drawn;
  drawn.reserve(lines);
  for (std::size_t i = 0; i < lines; ++i) {
    const auto entity = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(entities) - 1));
    const util::SimTime ts = rng.uniform_int(0, util::kDay - 1);
    const int roll = static_cast<int>(rng.uniform_int(0, 999));
    alerts::AlertType type;
    if (roll < 10) {
      // Scan lines come from a few noisy sources, so the filter drops
      // their repeats (about 1% of all lines).
      type = scan_pool[static_cast<std::size_t>(roll) % 2];
      drawn.push_back({ts, static_cast<std::uint32_t>(roll) % 8, type});
      continue;
    } else if (attacker[entity] != 0) {
      type = roll < 30 ? pick(rng, critical_pool)
                       : pick(rng, roll < 600 ? attack_pool : benign_pool);
    } else {
      type = pick(rng, roll < 60 ? attack_pool : benign_pool);
    }
    drawn.push_back({ts, entity, type});
  }
  std::stable_sort(drawn.begin(), drawn.end(),
                   [](const Line& a, const Line& b) { return a.ts < b.ts; });

  std::vector<alerts::Alert> stream;
  stream.reserve(drawn.size());
  for (const Line& line : drawn) {
    alerts::Alert alert;
    alert.ts = line.ts;
    alert.type = line.type;
    alert.src = net::Ipv4(0x2D000000u + line.entity * 13u);  // 45.0.0.0 onward
    alert.origin = alerts::Origin::kZeek;
    stream.push_back(std::move(alert));
  }
  Inputs inputs;
  inputs.log = alerts::write_notice_log(stream);
  return inputs;
}

Inputs flow_hour(std::uint64_t seed, double scale) {
  static const std::vector<std::uint16_t> kProbePorts = {
      net::ports::kSsh,   net::ports::kTelnet, net::ports::kHttp,     net::ports::kHttps,
      445,                net::ports::kRdp,    net::ports::kPostgres, net::ports::kMysql,
      8080,               6379,                9200,                  27017};
  const std::size_t total = scaled(1'000'000, scale, 20'000);
  util::Rng rng(derive_seed(seed, 5));
  std::vector<net::Flow> flows;
  flows.reserve(total + total / 8);
  const auto probe = [&](util::SimTime ts, net::Ipv4 src, net::Ipv4 dst, std::uint16_t port) {
    net::Flow flow;
    flow.ts = ts;
    flow.src = src;
    flow.dst = dst;
    flow.src_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
    flow.dst_port = port;
    flow.state = rng.uniform_int(0, 9) == 0 ? net::ConnState::kRejected
                                            : net::ConnState::kAttempt;
    flows.push_back(flow);
  };
  const auto any_ts = [&] { return rng.uniform_int(0, util::kHour - 1); };

  // Scanner nets: 64 sources in four /24s carry most of the volume.
  std::vector<net::Ipv4> scanners;
  for (std::uint32_t net24 = 0; net24 < 4; ++net24) {
    for (std::uint32_t host = 0; host < 16; ++host) {
      scanners.push_back(net::Ipv4(0xB9DC0000u + (net24 << 8) + 10 + host * 7));  // 185.220/16
    }
  }
  for (std::size_t i = 0; i < total * 55 / 100; ++i) {
    probe(any_ts(), pick(rng, scanners), protected_host(rng), pick(rng, kProbePorts));
  }

  // Internet-wide tail: ~200K sources, about one probe each.
  const std::size_t tail_sources = scaled(200'000, scale, 1000);
  for (std::size_t i = 0; i < total * 20 / 100; ++i) {
    const auto source = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(tail_sources) - 1));
    probe(any_ts(), net::Ipv4(0x50000000u + source * 97u), protected_host(rng),  // 80.0.0.0 onward
          pick(rng, kProbePorts));
  }

  // SSH bruteforce: one failed login a second, fast enough that the SSH
  // auditor blackholes the source within the hour.
  const std::size_t brute_sources = scaled(200, scale, 4);
  const std::size_t per_source = total * 6 / 100 / brute_sources;
  for (std::size_t s = 0; s < brute_sources; ++s) {
    const net::Ipv4 src(0x5B000000u + static_cast<std::uint32_t>(s) * 211u);  // 91.0.0.0 onward
    const net::Ipv4 target = protected_host(rng);
    const util::SimTime start = rng.uniform_int(0, util::kHour - 600);
    for (std::size_t k = 0; k < per_source; ++k) {
      probe(std::min<util::SimTime>(util::kHour - 1, start + static_cast<util::SimTime>(k)),
            src, target, net::ports::kSsh);
      flows.back().state = net::ConnState::kRejected;
    }
  }

  // Legitimate established traffic: inbound clients to a few services,
  // outbound sessions to external servers, and a handful of beacons.
  std::vector<net::Ipv4> services;
  for (int i = 0; i < 200; ++i) services.push_back(protected_host(rng));
  const std::size_t clients = scaled(5000, scale, 50);
  const std::size_t servers = scaled(2000, scale, 20);
  const auto established = [&](util::SimTime ts, net::Ipv4 src, net::Ipv4 dst,
                               std::uint16_t port) {
    net::Flow flow;
    flow.ts = ts;
    flow.src = src;
    flow.dst = dst;
    flow.src_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
    flow.dst_port = port;
    flow.state = net::ConnState::kEstablished;
    flow.bytes_out = static_cast<std::uint64_t>(rng.uniform_int(200, 20'000));
    flow.bytes_in = static_cast<std::uint64_t>(rng.uniform_int(1000, 2'000'000));
    flows.push_back(flow);
  };
  for (std::size_t i = 0; i < total * 10 / 100; ++i) {
    const auto client = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(clients) - 1));
    established(any_ts(), net::Ipv4(0x62000000u + client * 31u), pick(rng, services),  // 98.0.0.0
                rng.uniform_int(0, 3) == 0 ? net::ports::kSsh : net::ports::kHttps);
  }
  for (std::size_t i = 0; i < total * 9 / 100; ++i) {
    const auto server = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(servers) - 1));
    established(any_ts(), protected_host(rng), net::Ipv4(0x68000000u + server * 17u),  // 104.0.0.0
                net::ports::kHttps);
  }
  const std::size_t beacons = scaled(20, scale, 2);
  for (std::size_t b = 0; b < beacons; ++b) {
    const net::Ipv4 host = protected_host(rng);
    const net::Ipv4 c2(0xC6330000u + static_cast<std::uint32_t>(b));  // 198.51.0.0
    const util::SimTime period = rng.uniform_int(45, 120);
    for (util::SimTime ts = rng.uniform_int(0, period); ts < util::kHour; ts += period) {
      established(ts, host, c2, net::ports::kHttps);
    }
  }

  std::stable_sort(flows.begin(), flows.end(),
                   [](const net::Flow& a, const net::Flow& b) { return a.ts < b.ts; });
  Inputs inputs;
  inputs.flows = std::move(flows);
  return inputs;
}

constexpr char kMagic[8] = {'P', 'B', 'W', 'L', 'O', 'A', 'D', '1'};

template <typename T>
void put(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}
template <typename T>
bool get(std::ifstream& in, T& value) {
  return static_cast<bool>(in.read(reinterpret_cast<char*>(&value), sizeof(value)));
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) noexcept {
  return util::mix64(seed * 0x9e3779b97f4a7c15ULL + stream);
}

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "notice_day") return Workload::kNoticeDay;
  if (name == "campaign_entity") return Workload::kCampaignEntity;
  if (name == "flow_hour") return Workload::kFlowHour;
  return std::nullopt;
}

const char* workload_name(Workload workload) noexcept {
  switch (workload) {
    case Workload::kNoticeDay:
      return "notice_day";
    case Workload::kCampaignEntity:
      return "campaign_entity";
    case Workload::kFlowHour:
      return "flow_hour";
  }
  return "?";
}

Inputs generate(Workload workload, std::uint64_t seed, double scale) {
  Inputs inputs;
  switch (workload) {
    case Workload::kNoticeDay:
      inputs = notice_day(seed, scale);
      break;
    case Workload::kCampaignEntity:
      inputs = campaign_entity(seed, scale);
      break;
    case Workload::kFlowHour:
      inputs = flow_hour(seed, scale);
      break;
  }
  inputs.workload = workload;
  inputs.seed = seed;
  return inputs;
}

void add_layer_flows(Inputs& inputs, double scale) {
  if (inputs.workload == Workload::kFlowHour) return;
  inputs.flows = flow_hour(inputs.seed, scale).flows;
}

incidents::Corpus training_corpus(std::uint64_t seed) {
  incidents::CorpusConfig config;
  config.repetition_scale = 0.02;
  config.seed = derive_seed(seed, 3);
  config.threads = 1;
  return incidents::CorpusGenerator(config).generate();
}

bool save(const Inputs& inputs, const std::string& path) {
  static_assert(std::is_trivially_copyable_v<net::Flow>);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(kMagic, sizeof(kMagic));
  put(out, static_cast<std::uint8_t>(inputs.workload));
  put(out, inputs.seed);
  put(out, static_cast<std::uint64_t>(inputs.log.size()));
  out.write(inputs.log.data(), static_cast<std::streamsize>(inputs.log.size()));
  put(out, static_cast<std::uint64_t>(inputs.flows.size()));
  out.write(reinterpret_cast<const char*>(inputs.flows.data()),
            static_cast<std::streamsize>(inputs.flows.size() * sizeof(net::Flow)));
  return static_cast<bool>(out.flush());
}

std::optional<Inputs> load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[sizeof(kMagic)] = {};
  if (!in.read(magic, sizeof(magic)) || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  Inputs inputs;
  std::uint8_t workload = 0;
  std::uint64_t log_size = 0;
  std::uint64_t flow_count = 0;
  if (!get(in, workload) || workload > 2 || !get(in, inputs.seed) || !get(in, log_size)) {
    return std::nullopt;
  }
  inputs.workload = static_cast<Workload>(workload);
  inputs.log.resize(log_size);
  if (!in.read(inputs.log.data(), static_cast<std::streamsize>(log_size)) ||
      !get(in, flow_count)) {
    return std::nullopt;
  }
  inputs.flows.resize(flow_count);
  if (!in.read(reinterpret_cast<char*>(inputs.flows.data()),
               static_cast<std::streamsize>(flow_count * sizeof(net::Flow)))) {
    return std::nullopt;
  }
  return inputs;
}

}  // namespace perfbench
