#pragma once
// The alert pipeline of Fig 4: monitors push alerts in; the pipeline
// filters periodic-scan repeats, demultiplexes the stream per attack
// entity (source address, or host+user for insider activity), runs every
// registered detector on each entity's substream, and on a detection
// notifies the security operators and (optionally) calls the Black Hole
// Router's API to block the source.

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "alerts/alert.hpp"
#include "bhr/bhr.hpp"
#include "detect/detector.hpp"
#include "incidents/annotate.hpp"

namespace at::testbed {

struct Notification {
  util::SimTime ts = 0;
  std::string entity;
  std::string detector;
  std::string reason;
  double score = 0.0;
  std::optional<net::Ipv4> source;
};

/// Factory so each entity substream gets fresh detector state.
using DetectorFactory = std::function<std::unique_ptr<detect::Detector>()>;

struct PipelineConfig {
  util::SimTime scan_filter_window = util::kHour;
  /// TTL for automatic BHR blocks (the response to detections).
  util::SimTime block_ttl = 24 * util::kHour;
  /// Entities idle longer than this are evicted (their detector state is
  /// discarded). Keeps per-entity memory bounded under production volume
  /// (tens of thousands of distinct sources per day). 0 disables eviction.
  util::SimTime entity_idle_ttl = 24 * util::kHour;
  /// Eviction scan cadence, amortized over ingest.
  std::size_t eviction_check_every = 4096;
};

class AlertPipeline final : public alerts::AlertSink {
 public:
  AlertPipeline(PipelineConfig config, bhr::BlackHoleRouter* router);

  /// Register a detector family; applied independently per entity.
  void add_detector(std::string name, DetectorFactory factory);

  using alerts::AlertSink::on_alert;
  void on_alert(const alerts::Alert& alert) override;

  [[nodiscard]] const std::vector<Notification>& notifications() const noexcept {
    return notifications_;
  }
  [[nodiscard]] std::uint64_t alerts_in() const noexcept { return alerts_in_; }
  [[nodiscard]] std::uint64_t alerts_after_filter() const noexcept { return alerts_kept_; }
  [[nodiscard]] std::size_t tracked_entities() const noexcept { return entities_.size(); }
  [[nodiscard]] std::uint64_t evicted_entities() const noexcept { return evicted_; }
  [[nodiscard]] const incidents::ScanFilter& filter() const noexcept { return filter_; }

  /// Demux key: one attack entity per substream (host first, then source
  /// address, then user). Shared with DetectionDaemon, whose shard
  /// assignment must agree with this keying exactly.
  [[nodiscard]] static std::string entity_key(const alerts::Alert& alert);

 private:
  struct EntityState {
    std::vector<std::unique_ptr<detect::Detector>> detectors;
    std::vector<std::string> names;
    std::size_t index = 0;  ///< alerts observed on this substream
    /// Most recent external source seen on this entity; used as the block
    /// target when the firing alert itself is host-local.
    std::optional<net::Ipv4> last_src;
    util::SimTime last_seen = 0;
  };

  void maybe_evict(util::SimTime now);

  EntityState& state_for(const std::string& key);

  PipelineConfig config_;
  bhr::BlackHoleRouter* router_;
  incidents::ScanFilter filter_;
  std::vector<std::pair<std::string, DetectorFactory>> factories_;
  std::unordered_map<std::string, EntityState> entities_;
  std::vector<Notification> notifications_;
  std::uint64_t alerts_in_ = 0;
  std::uint64_t alerts_kept_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace at::testbed
