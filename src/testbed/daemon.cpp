#include "testbed/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <limits>

#include "util/rng.hpp"

namespace at::testbed {

namespace {

// Tag constants decorrelate the three key namespaces ("host:"/"ip:"/"user:")
// before hashing so e.g. a host named like a dotted quad cannot collide
// into another entity's shard stream. Must stay in sync with
// AlertPipeline::entity_key's precedence.
constexpr std::uint64_t kHostTag = 0x686f7374ULL;
constexpr std::uint64_t kIpTag = 0x6970ULL;
constexpr std::uint64_t kUserTag = 0x75736572ULL;

// Idle-worker parking: a few yields, then micro-sleeps growing to this cap.
// Bounds wake-up latency at ~1ms without a condvar on the submit path.
constexpr unsigned kMaxParkMicros = 1000;
constexpr unsigned kYieldRounds = 16;

// Per-shard outbound verdict ring slots. pump() releases a kept alert's
// verdicts only as a complete group (the frontier is per-op), so one op's
// verdicts — at most one per detector family — must fit the ring together
// or its worker could stall with nothing releasable.
constexpr std::size_t kOutboundCapacity = 4096;

}  // namespace

const char* to_string(SubmitResult result) noexcept {
  switch (result) {
    case SubmitResult::kAccepted: return "accepted";
    case SubmitResult::kFiltered: return "filtered";
    case SubmitResult::kRejected: return "rejected";
    case SubmitResult::kStopped: return "stopped";
  }
  return "?";
}

DetectionDaemon::DetectionDaemon(DaemonConfig config, bhr::BlackHoleRouter* router)
    : config_(config), router_(router), filter_(config.pipeline.scan_filter_window) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.ring_capacity < 2) config_.ring_capacity = 2;
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    shards_.push_back(
        std::make_unique<Shard>(i, config_.ring_capacity, kOutboundCapacity));
  }
}

DetectionDaemon::~DetectionDaemon() { stop(); }

void DetectionDaemon::add_detector(std::string name, DetectorFactory factory) {
  util::LockGuard lock(mu_);
  factories_.emplace_back(std::move(name), std::move(factory));
}

void DetectionDaemon::start() {
  util::LockGuard lock(mu_);
  if (accepting_) ensure_started();
}

void DetectionDaemon::ensure_started() {
  if (started_) return;
  started_ = true;
  running_.store(true, std::memory_order_release);
  workers_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    workers_.emplace_back(
        [this, i, &factories = factories_]() { worker_loop(i, factories); });
  }
  auto started = std::make_unique<alerts::LifecycleAlert>();
  started->ts = last_ts_;
  started->phase = alerts::LifecycleAlert::Phase::kStarted;
  queue_.post(std::move(started));
}

void DetectionDaemon::stop() {
  {
    util::LockGuard lock(mu_);
    if (!accepting_) return;
    accepting_ = false;
  }
  drain_idle();
  stop_.store(true, std::memory_order_release);
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  util::SimTime ts = 0;
  {
    util::LockGuard lock(mu_);
    ts = last_ts_;
  }
  auto snapshot = std::make_unique<alerts::StatsAlert>();
  snapshot->ts = ts;
  snapshot->stats = stats();
  queue_.post(std::move(snapshot));
  auto stopped = std::make_unique<alerts::LifecycleAlert>();
  stopped->ts = ts;
  stopped->phase = alerts::LifecycleAlert::Phase::kStopped;
  queue_.post(std::move(stopped));
  running_.store(false, std::memory_order_release);
}

std::size_t DetectionDaemon::shard_of(std::string_view host,
                                      const std::optional<net::Ipv4>& src,
                                      std::string_view user) const noexcept {
  std::uint64_t h;
  if (!host.empty()) {
    h = util::mix64(std::hash<std::string_view>{}(host) ^ kHostTag);
  } else if (src) {
    h = util::mix64(static_cast<std::uint64_t>(src->value()) ^ kIpTag);
  } else {
    h = util::mix64(std::hash<std::string_view>{}(user) ^ kUserTag);
  }
  return static_cast<std::size_t>(h % shards_.size());
}

void DetectionDaemon::broadcast_checkpoint(util::SimTime ts) {
  ++checkpoints_count_;
  {
    util::LockGuard lock(merge_mu_);
    checkpoint_ts_.push_back(ts);
  }
  for (auto& shard : shards_) {
    InOp op;
    op.is_checkpoint = true;
    op.checkpoint_ts = ts;
    push_spin(*shard, std::move(op));
  }
}

void DetectionDaemon::push_spin(Shard& shard, InOp&& op) {
  while (!shard.in.try_push(std::move(op))) {
    // The worker is behind (possibly stalled on a full outbound ring):
    // release verdicts so it can make progress, then let it run.
    pump();
    std::this_thread::yield();
  }
  shard.pushed_entries.fetch_add(1, std::memory_order_release);
}

SubmitResult DetectionDaemon::route(std::string_view host,
                                    const std::optional<net::Ipv4>& src,
                                    std::string_view user, alerts::AlertType type,
                                    util::SimTime ts, InOp& op) {
  if (!accepting_) return SubmitResult::kStopped;
  ensure_started();
  Shard& shard = *shards_[shard_of(host, src, user)];
  // Capacity check before any counter/filter mutation: a rejected submit
  // must be a pure no-op so the caller can retry the same alert without
  // double-counting. Worst case this alert needs one slot for itself plus
  // one for a broadcast checkpoint it triggers.
  if (shard.in.free_slots() < 2) {
    shard.rejected.fetch_add(1, std::memory_order_relaxed);
    if (!shard.overflowed) {
      // Edge-triggered warning: one per overflow episode, not per reject.
      shard.overflowed = true;
      std::uint64_t total = 0;
      for (const auto& s : shards_) total += s->rejected.load(std::memory_order_relaxed);
      auto overflow = std::make_unique<alerts::RingOverflowAlert>();
      overflow->ts = ts;
      overflow->shard = shard.index;
      overflow->rejected_total = total;
      queue_.post(std::move(overflow));
    }
    return SubmitResult::kRejected;
  }
  shard.overflowed = false;
  ++alerts_in_;
  if (ts > last_ts_) last_ts_ = ts;
  if (!filter_.keep(type, ts, src, host)) return SubmitResult::kFiltered;
  ++alerts_kept_;
  const auto& pc = config_.pipeline;
  if (pc.entity_idle_ttl > 0 &&
      alerts_in_ % std::max<std::size_t>(1, pc.eviction_check_every) == 0) {
    // Global eviction checkpoint, same schedule as AlertPipeline::
    // maybe_evict: every Nth ingested alert, timed at that alert's ts and
    // ordered before it. The broadcast may have consumed the slot the
    // capacity check reserved for this op in other shards, but never the
    // target's second reserved slot.
    broadcast_checkpoint(ts);
  }
  const std::uint64_t seq = alerts_kept_;
  op.seq = seq;
  push_spin(shard, std::move(op));
  // Publication order matters for the frontier: ring push, then the
  // shard's routed watermark, then last_seq_. pump() acquires last_seq_
  // first, so a frontier at seq always sees the routed store.
  shard.routed.store(seq, std::memory_order_release);
  last_seq_.store(seq, std::memory_order_release);
  const auto depth = static_cast<std::uint64_t>(shard.in.size_approx());
  if (depth > shard.max_depth.load(std::memory_order_relaxed)) {
    shard.max_depth.store(depth, std::memory_order_relaxed);
  }
  return SubmitResult::kAccepted;
}

SubmitResult DetectionDaemon::try_submit(const alerts::Alert& alert) {
  util::LockGuard lock(mu_);
  InOp op;
  op.alert = alert;
  return route(op.alert.host, op.alert.src, op.alert.user, op.alert.type, op.alert.ts,
               op);
}

SubmitResult DetectionDaemon::try_submit(alerts::Alert&& alert) {
  util::LockGuard lock(mu_);
  InOp op;
  op.alert = std::move(alert);
  const SubmitResult result =
      route(op.alert.host, op.alert.src, op.alert.user, op.alert.type, op.alert.ts, op);
  // A rejected op was never pushed; hand the alert back for the retry.
  if (result == SubmitResult::kRejected) alert = std::move(op.alert);
  return result;
}

SubmitResult DetectionDaemon::try_submit(const alerts::AlertBatch& batch,
                                         std::size_t row) {
  util::LockGuard lock(mu_);
  InOp op;
  op.batch = &batch;
  op.row = row;
  return route(batch.host[row], batch.src_at(row), batch.user[row], batch.type[row],
               batch.ts[row], op);
}

SubmitResult DetectionDaemon::submit(alerts::Alert alert) {
  for (;;) {
    const SubmitResult result = try_submit(std::move(alert));
    if (result != SubmitResult::kRejected) return result;
    pump();
    std::this_thread::yield();
  }
}

SubmitResult DetectionDaemon::submit(const alerts::AlertBatch& batch, std::size_t row) {
  for (;;) {
    const SubmitResult result = try_submit(batch, row);
    if (result != SubmitResult::kRejected) return result;
    pump();
    std::this_thread::yield();
  }
}

void DetectionDaemon::on_alert(const alerts::Alert& alert) { submit(alert); }

void DetectionDaemon::on_alert(alerts::Alert&& alert) { submit(std::move(alert)); }

// ---------------------------------------------------------------- workers

void DetectionDaemon::worker_loop(std::size_t index, const Factories& factories) {
  Shard& shard = *shards_[index];
  unsigned idle_rounds = 0;
  for (;;) {
    if (drain_shard(shard, factories) != 0) {
      idle_rounds = 0;
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    idle_rounds = std::min(idle_rounds + 1, kYieldRounds + 20);
    if (idle_rounds <= kYieldRounds) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(
          std::min(kMaxParkMicros, 50U * (idle_rounds - kYieldRounds))));
    }
  }
}

std::size_t DetectionDaemon::drain_shard(Shard& shard,
                                         const Factories& factories) AT_HOT {
  std::size_t done = 0;
  while (InOp* op = shard.in.front()) {
    if (op->is_checkpoint) {
      apply_checkpoint(shard, op->checkpoint_ts);
      shard.checkpoints_applied.fetch_add(1, std::memory_order_release);
    } else {
      try {
        if (op->batch != nullptr) {
          const alerts::Alert alert = op->batch->materialize(op->row);
          process(shard, factories, alert, op->seq);
        } else {
          process(shard, factories, op->alert, op->seq);
        }
      } catch (const std::exception& error) {
        // The entry still counts as finished (the daemon must stay
        // drainable); the substream keeps its pre-alert detector state.
        auto report = std::make_unique<alerts::WorkerErrorAlert>();
        report->ts = op->batch != nullptr ? op->batch->ts[op->row] : op->alert.ts;
        report->shard = shard.index;
        report->message = error.what();
        queue_.post(std::move(report));
      } catch (...) {
        auto report = std::make_unique<alerts::WorkerErrorAlert>();
        report->ts = op->batch != nullptr ? op->batch->ts[op->row] : op->alert.ts;
        report->shard = shard.index;
        report->message = "unknown exception";
        queue_.post(std::move(report));
      }
      shard.completed.store(op->seq, std::memory_order_release);
    }
    shard.in.pop();
    shard.finished_entries.fetch_add(1, std::memory_order_release);
    ++done;
  }
  return done;
}

void DetectionDaemon::process(Shard& shard, const Factories& factories,
                              const alerts::Alert& alert, std::uint64_t seq) const {
  const std::string key = AlertPipeline::entity_key(alert);
  auto it = shard.entities.find(key);
  if (it == shard.entities.end()) {
    EntityState state;
    state.detectors.reserve(factories.size());
    for (const auto& [name, factory] : factories) state.detectors.push_back(factory());
    it = shard.entities.emplace(key, std::move(state)).first;
    shard.entity_count.store(shard.entities.size(), std::memory_order_relaxed);
  }
  EntityState& state = it->second;
  const std::size_t index = state.index++;
  state.last_seen = alert.ts;
  if (alert.src) state.last_src = alert.src;
  for (std::size_t d = 0; d < state.detectors.size(); ++d) {
    auto detection = state.detectors[d]->observe(alert, index);
    if (!detection) continue;
    Outbound out;
    out.seq = seq;
    out.note.ts = alert.ts;
    out.note.entity = key;
    out.note.detector = factories[d].first;
    out.note.reason = std::move(detection->reason);
    out.note.score = detection->score;
    out.note.source = alert.src ? alert.src : state.last_src;
    if (router_ != nullptr && out.note.source) {
      out.wants_block = true;
      out.block_reason = factories[d].first + ": " + out.note.reason;
    }
    push_outbound(shard, std::move(out));
  }
}

void DetectionDaemon::apply_checkpoint(Shard& shard, util::SimTime now) const {
  const auto ttl = config_.pipeline.entity_idle_ttl;
  for (auto it = shard.entities.begin(); it != shard.entities.end();) {
    if (now - it->second.last_seen > ttl) {
      it = shard.entities.erase(it);
      shard.evicted.fetch_add(1, std::memory_order_relaxed);
    } else {
      ++it;
    }
  }
  shard.entity_count.store(shard.entities.size(), std::memory_order_relaxed);
}

void DetectionDaemon::push_outbound(Shard& shard, Outbound&& out) const {
  while (!shard.out.try_push(std::move(out))) {
    // Outbound full: the consumer is behind. Stall this shard only; its
    // ingest ring fills next and producers see kRejected — pressure ends
    // at the edge instead of queueing inside. A producer-side pump (or any
    // consumer drain) makes room.
    std::this_thread::yield();
  }
}

// ------------------------------------------------------------------ merge

std::uint64_t DetectionDaemon::frontier() const {
  // Acquire last_seq_ FIRST: its release store happens after the routed
  // store of the op that produced it, so every shard watermark read below
  // is at least as new as this seq.
  std::uint64_t fence = last_seq_.load(std::memory_order_acquire);
  for (const auto& shard : shards_) {
    const std::uint64_t routed = shard->routed.load(std::memory_order_acquire);
    const std::uint64_t completed = shard->completed.load(std::memory_order_acquire);
    if (completed < routed && completed < fence) fence = completed;
  }
  return fence;
}

void DetectionDaemon::pump() {
  util::LockGuard lock(merge_mu_);
  pump_locked();
}

void DetectionDaemon::pump_locked() {
  const std::uint64_t fence = frontier();
  merge_scratch_.clear();
  for (auto& shard : shards_) {
    while (Outbound* out = shard->out.front()) {
      if (out->seq > fence) break;
      merge_scratch_.push_back(std::move(*out));
      shard->out.pop();
    }
  }
  if (!merge_scratch_.empty()) {
    // seq is unique per kept alert and per-shard rings are seq-ordered, so
    // a stable sort reproduces the serial pipeline's exact emit order
    // (including per-op detector order).
    std::stable_sort(
        merge_scratch_.begin(), merge_scratch_.end(),
        [](const Outbound& a, const Outbound& b) { return a.seq < b.seq; });
    for (Outbound& out : merge_scratch_) {
      auto verdict = std::make_unique<alerts::VerdictAlert>();
      verdict->ts = out.note.ts;
      verdict->seq = out.seq;
      verdict->entity = std::move(out.note.entity);
      verdict->detector = std::move(out.note.detector);
      verdict->reason = std::move(out.note.reason);
      verdict->score = out.note.score;
      verdict->source = out.note.source;
      const auto source = out.note.source;
      const auto ts = out.note.ts;
      queue_.post(std::move(verdict));
      ++verdicts_;
      if (out.wants_block && router_ != nullptr) {
        const bool accepted = router_->block(*source, ts, config_.pipeline.block_ttl,
                                             out.block_reason, "attacktagger-pipeline");
        ++bhr_actions_;
        auto action = std::make_unique<alerts::BhrActionAlert>();
        action->ts = ts;
        action->action = alerts::BhrActionAlert::Action::kBlock;
        action->source = *source;
        action->ttl = config_.pipeline.block_ttl;
        action->reason = std::move(out.block_reason);
        action->accepted = accepted;
        queue_.post(std::move(action));
      }
    }
    if (merge_scratch_.back().seq > released_seq_) {
      released_seq_ = merge_scratch_.back().seq;
    }
    merge_scratch_.clear();
  }
  // Checkpoint completions: ordinal k is done once every shard applied it.
  std::uint64_t applied = std::numeric_limits<std::uint64_t>::max();
  for (const auto& shard : shards_) {
    applied =
        std::min(applied, shard->checkpoints_applied.load(std::memory_order_acquire));
  }
  while (checkpoints_reported_ < applied && !checkpoint_ts_.empty()) {
    auto done = std::make_unique<alerts::CheckpointAlert>();
    done->ts = checkpoint_ts_.front();
    done->ordinal = ++checkpoints_reported_;
    checkpoint_ts_.erase(checkpoint_ts_.begin());
    queue_.post(std::move(done));
  }
}

void DetectionDaemon::drain_idle() {
  // Snapshot the drain timestamp up front so this function's lock order is
  // mu_ before merge_mu_ (via pump), same as the submit path.
  util::SimTime ts = 0;
  {
    util::LockGuard lock(mu_);
    ts = last_ts_;
  }
  for (;;) {
    std::uint64_t pushed = 0;
    for (const auto& shard : shards_) {
      pushed += shard->pushed_entries.load(std::memory_order_acquire);
    }
    std::uint64_t finished = 0;
    for (const auto& shard : shards_) {
      finished += shard->finished_entries.load(std::memory_order_acquire);
    }
    if (finished >= pushed) break;
    pump();
    std::this_thread::yield();
  }
  pump();
  post_drained_alert(ts);
}

void DetectionDaemon::post_drained_alert(util::SimTime ts) {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->finished_entries.load(std::memory_order_acquire);
  }
  util::LockGuard lock(merge_mu_);
  if (total == drained_mark_) return;  // nothing drained since the last one
  drained_mark_ = total;
  auto drained = std::make_unique<alerts::LifecycleAlert>();
  drained->ts = ts;
  drained->phase = alerts::LifecycleAlert::Phase::kDrained;
  queue_.post(std::move(drained));
}

std::vector<alerts::AlertQueue::Ptr> DetectionDaemon::drain_alerts(
    std::uint32_t category_mask) {
  pump();
  return queue_.drain(category_mask);
}

DetectionDaemon::Stats DetectionDaemon::stats() const {
  Stats stats;
  {
    util::LockGuard lock(mu_);
    stats.submitted = alerts_in_;
    stats.kept = alerts_kept_;
    stats.filtered = alerts_in_ - alerts_kept_;
    stats.checkpoints = checkpoints_count_;
  }
  stats.shards = shards_.size();
  stats.ring_capacity = shards_.empty() ? 0 : shards_.front()->in.capacity();
  for (const auto& shard : shards_) {
    stats.rejected += shard->rejected.load(std::memory_order_relaxed);
    stats.evicted_entities += shard->evicted.load(std::memory_order_relaxed);
    stats.tracked_entities += shard->entity_count.load(std::memory_order_relaxed);
    stats.max_ring_depth = std::max(stats.max_ring_depth,
                                    shard->max_depth.load(std::memory_order_relaxed));
  }
  {
    util::LockGuard lock(merge_mu_);
    stats.verdicts = verdicts_;
    stats.bhr_actions = bhr_actions_;
  }
  stats.queue_pending = queue_.pending();
  stats.queue_posted = queue_.posted();
  return stats;
}

const incidents::ScanFilter& DetectionDaemon::filter() const {
  util::LockGuard lock(mu_);
  return filter_;
}

}  // namespace at::testbed
