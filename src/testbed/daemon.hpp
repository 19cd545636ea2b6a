#pragma once
// Always-on detection daemon: the streaming redesign of the sharded alert
// pipeline (docs/daemon.md). Producers (monitors, log tailers, batch
// replays) submit raw alerts; a lock-serialized coordinator runs the
// shared-state periodic-scan filter and routes kept alerts into per-shard
// bounded SPSC rings; one dedicated worker thread per shard drains its
// ring continuously, running the per-entity detector stack; and every
// outward-facing result — detector verdicts, BHR actions, checkpoint
// completions, overflow warnings, lifecycle transitions — is posted to a
// typed alerts::AlertQueue the operator drains by category mask.
//
// Backpressure, not buffering: a full ingest ring makes try_submit()
// return kRejected (the producer decides — drop, retry, or use the
// blocking submit()), so daemon memory stays bounded no matter how far a
// slow consumer falls behind. The outbound verdict rings are bounded too;
// a full one stalls only its shard worker, which in turn fills that
// shard's ingest ring — pressure propagates to the edge instead of
// queueing unboundedly anywhere inside.
//
// Determinism: the released verdict stream is byte-identical to the serial
// AlertPipeline run over the same submitted sequence. The coordinator
// assigns each kept alert a global ordinal (seq); shard workers publish
// per-op completion watermarks; pump() releases outbound verdicts only up
// to the "frontier" (the lowest seq any busy shard has not finished),
// stable-sorted by seq, and applies BHR blocks in that same order.
// Eviction checkpoints (every Nth ingested alert, the serial schedule) are
// broadcast as in-ring entries to every shard, so each shard applies them
// exactly where the serial pipeline would have, restricted to its entity
// partition.
//
// Batch use is three calls: submit() every alert (or batch row),
// drain_idle(), then drain_alerts(DaemonAlert::kVerdict) — the verdicts
// of the whole batch in global arrival order.
//
// Thread roles:
//   - submitters: any threads; serialized by mu_.
//   - shard workers: one per shard, owned by the daemon; the only threads
//     touching a shard's entity map.
//   - consumers: any threads; drain_alerts()/pump() serialize on merge_mu_.
// Lock order is mu_ -> merge_mu_ (the coordinator pumps while waiting out
// a full ring); nothing takes them in reverse.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "alerts/alert.hpp"
#include "alerts/queue.hpp"
#include "alerts/zeeklog.hpp"
#include "detect/detector.hpp"
#include "incidents/annotate.hpp"
#include "net/ipv4.hpp"
#include "testbed/pipeline.hpp"
#include "util/annotated_mutex.hpp"
#include "util/annotations.hpp"
#include "util/spsc_ring.hpp"
#include "util/time_utils.hpp"

namespace at::testbed {

struct DaemonConfig {
  PipelineConfig pipeline;
  /// Entity shards == worker threads. Shard assignment is a pure function
  /// of the entity key, so the same count gives the same partition (and
  /// the same verdict stream) on any machine.
  std::size_t shards = 8;
  /// Per-shard ingest ring slots (rounded up to a power of two). This is
  /// the producer-visible backpressure horizon: at most this many alerts
  /// per shard are in flight between submit and detection.
  std::size_t ring_capacity = 8192;
};

/// Producer-side result of a non-blocking submit.
enum class SubmitResult : std::uint8_t {
  kAccepted,  ///< counted, kept by the filter, routed to a shard ring
  kFiltered,  ///< counted, dropped by the periodic-scan filter
  kRejected,  ///< target ring full — nothing counted; retry the same alert
  kStopped,   ///< daemon no longer accepting (stop() ran)
};
[[nodiscard]] const char* to_string(SubmitResult result) noexcept;

class DetectionDaemon final : public alerts::AlertSink {
 public:
  using Stats = alerts::DaemonStats;

  DetectionDaemon(DaemonConfig config, bhr::BlackHoleRouter* router);
  ~DetectionDaemon() override;

  /// Register a detector family (fresh instance per tracked entity). Must
  /// precede the first submit; workers read the table unlocked afterwards.
  void add_detector(std::string name, DetectorFactory factory) AT_ACQUIRES(mu_);

  /// Spawn the shard workers and post LifecycleAlert{started}. Implicit on
  /// the first submit; call explicitly to front-load thread creation.
  /// Idempotent while running; a stopped daemon does not restart.
  void start() AT_ACQUIRES(mu_);
  /// Stop accepting, drain every in-flight alert, release all verdicts,
  /// post a final StatsAlert + LifecycleAlert{stopped}, join the workers.
  /// Idempotent; not safe to race with itself.
  void stop() AT_ACQUIRES(mu_);
  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Non-blocking submit. kRejected leaves all coordinator state untouched
  /// and (for the rvalue overload) moves the alert back into the argument,
  /// so the same alert can be resubmitted; every other result consumed it.
  SubmitResult try_submit(const alerts::Alert& alert) AT_ACQUIRES(mu_);
  SubmitResult try_submit(alerts::Alert&& alert) AT_ACQUIRES(mu_);
  /// Zero-copy submit of one parsed batch row; the row is materialized by
  /// the owning shard only if the filter keeps it. The batch must stay
  /// alive and unmodified until drain_idle() returns.
  SubmitResult try_submit(const alerts::AlertBatch& batch, std::size_t row)
      AT_ACQUIRES(mu_);

  /// Blocking submits: retry a kRejected result, pumping the merge side
  /// between attempts so a stalled consumer cannot deadlock the producer.
  /// Alerts are never dropped on this path (kStopped still returns).
  SubmitResult submit(alerts::Alert alert);
  SubmitResult submit(const alerts::AlertBatch& batch, std::size_t row);

  /// AlertSink: monitors plug straight into the daemon. Blocking-submit
  /// semantics (monitors never drop).
  using alerts::AlertSink::on_alert;
  void on_alert(const alerts::Alert& alert) override;
  void on_alert(alerts::Alert&& alert) override;

  /// Wait until every accepted alert has been processed and released, then
  /// post LifecycleAlert{drained} (once per quiesced burst of work).
  /// Producers should be quiet while this runs; concurrent submits just
  /// extend the wait.
  void drain_idle();

  /// Release every verdict the frontier allows to the queue and apply its
  /// BHR action, in seq order. Called internally by submit/drain paths;
  /// consumers may call it any time for lower latency.
  void pump() AT_ACQUIRES(merge_mu_);

  /// pump() + AlertQueue::drain: the operator pull.
  [[nodiscard]] std::vector<alerts::AlertQueue::Ptr> drain_alerts(
      std::uint32_t category_mask = alerts::DaemonAlert::kAllCategories);
  [[nodiscard]] alerts::AlertQueue& queue() noexcept { return queue_; }

  /// Live counter snapshot; safe from any thread while workers run.
  /// tracked/evicted entity counts are exact only at quiescence.
  [[nodiscard]] Stats stats() const AT_ACQUIRES(mu_);

  [[nodiscard]] std::size_t shard_count() const noexcept { return shards_.size(); }
  /// Instantaneous ingest-ring occupancy per shard (approximate while
  /// workers run; lock-free, cheap enough to sample from a bench loop).
  [[nodiscard]] std::vector<std::size_t> ring_depths() const {
    std::vector<std::size_t> depths;
    depths.reserve(shards_.size());
    for (const auto& shard : shards_) depths.push_back(shard->in.size_approx());
    return depths;
  }
  /// Quiescence contract: keep the daemon idle while holding the reference.
  [[nodiscard]] const incidents::ScanFilter& filter() const AT_ACQUIRES(mu_);

 private:
  /// Same shape as AlertPipeline::EntityState: detector instances plus
  /// substream bookkeeping, owned exclusively by one shard worker.
  struct EntityState {
    std::vector<std::unique_ptr<detect::Detector>> detectors;
    std::size_t index = 0;
    std::optional<net::Ipv4> last_src;
    util::SimTime last_seen = 0;
  };

  /// One ingest-ring entry: a routed kept alert (owning or zero-copy batch
  /// row) or a broadcast eviction checkpoint.
  struct InOp {
    std::uint64_t seq = 0;  ///< global kept-alert ordinal; 0 for checkpoints
    util::SimTime checkpoint_ts = 0;
    bool is_checkpoint = false;
    const alerts::AlertBatch* batch = nullptr;  ///< set for zero-copy rows
    std::size_t row = 0;
    alerts::Alert alert;  ///< set for owning submits
  };

  /// One outbound-ring entry: a detector verdict plus its BHR intent.
  struct Outbound {
    std::uint64_t seq = 0;
    Notification note;
    bool wants_block = false;
    std::string block_reason;
  };

  struct Shard {
    util::SpscRing<InOp> in;
    util::SpscRing<Outbound> out;
    std::size_t index = 0;
    // Worker-owned detector state (no lock: one worker per shard).
    std::unordered_map<std::string, EntityState> entities;
    // Watermarks. routed: last seq the coordinator pushed here (mu_ side);
    // completed: last seq the worker finished (its outbound entries, if
    // any, were pushed before the store). pushed/finished count every ring
    // entry including checkpoints — equality means the shard is idle.
    std::atomic<std::uint64_t> routed{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> pushed_entries{0};
    std::atomic<std::uint64_t> finished_entries{0};
    std::atomic<std::uint64_t> checkpoints_applied{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> evicted{0};
    std::atomic<std::uint64_t> entity_count{0};
    std::atomic<std::uint64_t> max_depth{0};  ///< ingest ring high-water
    bool overflowed = false;  ///< coordinator-only: edge-triggers the alert

    Shard(std::size_t idx, std::size_t in_capacity, std::size_t out_capacity)
        : in(in_capacity), out(out_capacity), index(idx) {}
  };

  using Factories = std::vector<std::pair<std::string, DetectorFactory>>;

  [[nodiscard]] std::size_t shard_of(std::string_view host,
                                     const std::optional<net::Ipv4>& src,
                                     std::string_view user) const noexcept;
  /// Shared coordinator step: capacity-check, count, filter, checkpoint,
  /// route. The capacity check happens before any state mutates, so a
  /// kRejected submit is a true no-op and the retry cannot double-count.
  SubmitResult route(std::string_view host, const std::optional<net::Ipv4>& src,
                     std::string_view user, alerts::AlertType type, util::SimTime ts,
                     InOp& op) AT_REQUIRES(mu_);
  void ensure_started() AT_REQUIRES(mu_);
  void broadcast_checkpoint(util::SimTime ts) AT_REQUIRES(mu_);
  /// Push that must not drop: spins, pumping the merge side, until the
  /// worker makes room. Coordinator-only (checkpoint broadcasts and the
  /// routed push after capacity was verified never need it to spin long).
  void push_spin(Shard& shard, InOp&& op) AT_REQUIRES(mu_);

  // Worker side. The factories table is frozen before workers start and is
  // passed by reference so no mu_-guarded member is read off-lock.
  void worker_loop(std::size_t index, const Factories& factories);
  std::size_t drain_shard(Shard& shard, const Factories& factories);
  void process(Shard& shard, const Factories& factories, const alerts::Alert& alert,
               std::uint64_t seq) const;
  void apply_checkpoint(Shard& shard, util::SimTime now) const;
  void push_outbound(Shard& shard, Outbound&& out) const;

  // Merge side.
  [[nodiscard]] std::uint64_t frontier() const;
  void pump_locked() AT_REQUIRES(merge_mu_);
  void post_drained_alert(util::SimTime ts) AT_ACQUIRES(merge_mu_);

  DaemonConfig config_ AT_NOT_GUARDED;           ///< immutable after ctor
  bhr::BlackHoleRouter* router_ AT_NOT_GUARDED;  ///< immutable pointer; merge-side only
  alerts::AlertQueue queue_ AT_NOT_GUARDED;      ///< internally synchronized

  // Coordinator state.
  mutable util::Mutex mu_;
  incidents::ScanFilter filter_ AT_GUARDED_BY(mu_);
  Factories factories_ AT_GUARDED_BY(mu_);  ///< frozen once workers start
  std::uint64_t alerts_in_ AT_GUARDED_BY(mu_) = 0;
  std::uint64_t alerts_kept_ AT_GUARDED_BY(mu_) = 0;
  std::uint64_t checkpoints_count_ AT_GUARDED_BY(mu_) = 0;
  util::SimTime last_ts_ AT_GUARDED_BY(mu_) = 0;  ///< newest submitted ts
  bool accepting_ AT_GUARDED_BY(mu_) = true;
  bool started_ AT_GUARDED_BY(mu_) = false;

  /// Highest seq fully routed. Stored (release) after the ring push and
  /// the shard's routed store; pump() acquires it first, which makes every
  /// op at or below it visible before the frontier is computed.
  std::atomic<std::uint64_t> last_seq_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  /// Stable for the daemon's lifetime (unique_ptr: Shard holds atomics and
  /// rings, neither movable).
  std::vector<std::unique_ptr<Shard>> shards_ AT_NOT_GUARDED;
  std::vector<std::thread> workers_ AT_NOT_GUARDED;  ///< mutated by start/stop only

  // Merge state.
  mutable util::Mutex merge_mu_;
  std::vector<Outbound> merge_scratch_ AT_GUARDED_BY(merge_mu_);
  /// ts of broadcast checkpoints not yet reported complete; front() is
  /// ordinal checkpoints_reported_ + 1.
  std::vector<util::SimTime> checkpoint_ts_ AT_GUARDED_BY(merge_mu_);
  std::uint64_t checkpoints_reported_ AT_GUARDED_BY(merge_mu_) = 0;
  std::uint64_t released_seq_ AT_GUARDED_BY(merge_mu_) = 0;
  std::uint64_t verdicts_ AT_GUARDED_BY(merge_mu_) = 0;
  std::uint64_t bhr_actions_ AT_GUARDED_BY(merge_mu_) = 0;
  std::uint64_t drained_mark_ AT_GUARDED_BY(merge_mu_) = 0;
};

}  // namespace at::testbed
