#include "flowdiff/monitor_manager.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "obs/timeseries.h"
#include "util/flat_map.h"

namespace flowdiff::core {

const char* to_string(ShardState state) {
  switch (state) {
    case ShardState::kRunning:
      return "running";
    case ShardState::kStopped:
      return "stopped";
    case ShardState::kFaulted:
      return "faulted";
    case ShardState::kEvicted:
      return "evicted";
  }
  return "unknown";
}

MonitorManager::MonitorManager(ManagerConfig config)
    : config_((validated(config.options), std::move(config))),
      executor_(config_.workers) {}

MonitorManager::~MonitorManager() { stop_all(); }

std::shared_ptr<MonitorManager::Shard> MonitorManager::find(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = shards_.find(tenant);
  return it == shards_.end() ? nullptr : it->second;
}

std::shared_ptr<MonitorManager::Shard> MonitorManager::find_or_create(
    const std::string& tenant, bool* created) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shards_.find(tenant);
  if (it != shards_.end()) {
    if (created) *created = false;
    return it->second;
  }
  auto shard = std::make_shared<Shard>(tenant);
  shard->monitor = std::make_shared<SlidingMonitor>(config_.options);
  shard->last_fed_tick = tick_;
  shards_.emplace(tenant, shard);
  if (created) *created = true;
  return shard;
}

bool MonitorManager::register_tenant(const std::string& tenant) {
  bool created = false;
  find_or_create(tenant, &created);
  return created;
}

void MonitorManager::run_shard(const std::shared_ptr<Shard>& shard) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(shard->mu);
      if (shard->pending.empty() || shard->state != ShardState::kRunning) {
        shard->task_scheduled = false;
        shard->idle_cv.notify_all();
        return;
      }
      // Take the whole queue by trading buffers: the feeder refills the
      // capacity the last batch leaves behind, so the steady state copies
      // each event once (into pending) and allocates nothing; recycle()
      // frees a burst's buffer once it carries a small batch.
      recycle(shard->batch);
      shard->batch.swap(shard->pending);
    }
    // shard->batch is touched only by the shard's one task in flight.
    std::string fault;
    try {
      if (config_.feed_hook) {
        for (const auto& event : shard->batch) {
          config_.feed_hook(shard->tenant, event);
        }
      }
      // One sanitizer call and one arrival-clock read per batch.
      shard->monitor->feed(shard->batch);
      continue;
    } catch (const std::exception& e) {
      fault = e.what();
    } catch (...) {
      fault = "unknown exception during feed";
    }
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->state = ShardState::kFaulted;
    shard->fault = std::move(fault);
    shard->dropped += shard->pending.size();
    shard->pending.clear();
    shard->task_scheduled = false;
    shard->idle_cv.notify_all();
    return;
  }
}

bool MonitorManager::feed(const std::string& tenant,
                          const of::ControlEvent& event) {
  return feed(tenant, std::vector<of::ControlEvent>{event});
}

bool MonitorManager::feed(const std::string& tenant,
                          const std::vector<of::ControlEvent>& events) {
  if (events.empty()) return true;
  auto shard = find_or_create(tenant, nullptr);
  std::uint64_t now = 0;
  {
    // Lock order is always manager then shard (evict_idle nests that way),
    // so read the tick before taking the shard lock.
    std::lock_guard<std::mutex> mgr(mu_);
    now = tick_;
  }
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->last_fed_tick = now;
    if (shard->state != ShardState::kRunning) {
      shard->dropped += events.size();
      return false;
    }
    shard->pending.insert(shard->pending.end(), events.begin(), events.end());
    shard->events += events.size();
    if (!shard->task_scheduled) {
      shard->task_scheduled = true;
      schedule = true;
    }
  }
  if (schedule) {
    // Inline in serial mode (workers == 0): the events are fully fed by
    // the time feed() returns, which is what the demux goldens pin.
    executor_.submit([this, shard] { run_shard(shard); });
  }
  return true;
}

void MonitorManager::wait_idle(const std::shared_ptr<Shard>& shard) {
  std::unique_lock<std::mutex> lock(shard->mu);
  shard->idle_cv.wait(lock, [&shard] {
    return !shard->task_scheduled &&
           (shard->pending.empty() || shard->state != ShardState::kRunning);
  });
}

void MonitorManager::drain(const std::string& tenant) {
  if (auto shard = find(tenant)) wait_idle(shard);
}

void MonitorManager::retire(const std::shared_ptr<Shard>& shard,
                            ShardState final_state) {
  wait_idle(shard);
  std::unique_lock<std::mutex> lock(shard->mu);
  if (shard->state != ShardState::kRunning) return;
  // No task is in flight and the state bars new ones, so flushing outside
  // the monitor's own locks is single-threaded here.
  shard->monitor->flush();
  if (final_state == ShardState::kEvicted) {
    shard->tombstone_snapshot = shard->monitor->snapshot();
    shard->tombstone_health = shard->monitor->health();
    shard->monitor.reset();
  }
  shard->state = final_state;
}

void MonitorManager::stop(const std::string& tenant) {
  if (auto shard = find(tenant)) retire(shard, ShardState::kStopped);
}

void MonitorManager::stop_all() {
  for (const auto& tenant : tenants()) stop(tenant);
}

std::uint64_t MonitorManager::tick() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++tick_;
}

std::vector<std::string> MonitorManager::evict_idle(
    std::uint64_t idle_ticks) {
  std::vector<std::shared_ptr<Shard>> idle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, shard] : shards_) {
      std::lock_guard<std::mutex> sl(shard->mu);
      if (shard->state == ShardState::kRunning &&
          tick_ >= shard->last_fed_tick &&
          tick_ - shard->last_fed_tick >= idle_ticks) {
        idle.push_back(shard);
      }
    }
  }
  std::vector<std::string> evicted;
  for (const auto& shard : idle) {
    retire(shard, ShardState::kEvicted);
    evicted.push_back(shard->tenant);
  }
  std::sort(evicted.begin(), evicted.end());
  return evicted;
}

std::vector<std::string> MonitorManager::tenants() const {
  std::vector<std::string> names;
  std::lock_guard<std::mutex> lock(mu_);
  names.reserve(shards_.size());
  for (const auto& [name, shard] : shards_) names.push_back(name);
  return names;  // std::map iteration is already sorted.
}

ShardStatus MonitorManager::status_locked(const Shard& shard) {
  ShardStatus status;
  status.tenant = shard.tenant;
  status.state = shard.state;
  status.events = shard.events;
  status.dropped = shard.dropped;
  status.fault = shard.fault;
  if (shard.monitor) {
    const auto health = shard.monitor->health();
    status.windows = health.windows;
    status.alarms = health.alarms;
    status.healthy = health.healthy && shard.state != ShardState::kFaulted;
  } else if (shard.tombstone_health) {
    status.windows = shard.tombstone_health->windows;
    status.alarms = shard.tombstone_health->alarms;
    status.healthy = shard.tombstone_health->healthy;
  }
  if (shard.state == ShardState::kFaulted) status.healthy = false;
  return status;
}

std::optional<ShardStatus> MonitorManager::status(
    const std::string& tenant) const {
  auto shard = find(tenant);
  if (!shard) return std::nullopt;
  std::lock_guard<std::mutex> lock(shard->mu);
  return status_locked(*shard);
}

std::vector<ShardStatus> MonitorManager::statuses() const {
  std::vector<ShardStatus> out;
  for (const auto& tenant : tenants()) {
    if (auto s = status(tenant)) out.push_back(std::move(*s));
  }
  return out;
}

std::optional<MonitorSnapshot> MonitorManager::snapshot(
    const std::string& tenant) const {
  auto shard = find(tenant);
  if (!shard) return std::nullopt;
  std::shared_ptr<const SlidingMonitor> monitor;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (!shard->monitor) {
      return shard->tombstone_snapshot.value_or(MonitorSnapshot{});
    }
    monitor = shard->monitor;
  }
  return monitor->snapshot();  // Coherent under the monitor's own lock.
}

std::optional<MonitorHealth> MonitorManager::health(
    const std::string& tenant) const {
  auto shard = find(tenant);
  if (!shard) return std::nullopt;
  std::lock_guard<std::mutex> lock(shard->mu);
  MonitorHealth health;
  if (shard->monitor) {
    health = shard->monitor->health();
  } else if (shard->tombstone_health) {
    health = *shard->tombstone_health;
  }
  if (shard->state == ShardState::kFaulted) {
    health.healthy = false;
    health.reasons.push_back("shard faulted: " + shard->fault);
  }
  return health;
}

MonitorHealth MonitorManager::aggregate_health() const {
  MonitorHealth aggregate;
  // The self-watchdog is process-wide (obs::Sampler), so its count and its
  // reason appear once, not once per shard.
  aggregate.watchdog_alerts = obs::Sampler::global().watchdog_alerts();
  if (aggregate.watchdog_alerts > 0) {
    aggregate.healthy = false;
    aggregate.reasons.push_back(watchdog_reason(aggregate.watchdog_alerts));
  }
  for (const auto& tenant : tenants()) {
    const auto shard_health = health(tenant);
    if (!shard_health) continue;
    aggregate.windows += shard_health->windows;
    aggregate.alarms += shard_health->alarms;
    aggregate.suppressed_changes += shard_health->suppressed_changes;
    aggregate.rejected_out_of_order += shard_health->rejected_out_of_order;
    aggregate.quality += shard_health->quality;
    aggregate.stream_degraded =
        aggregate.stream_degraded || shard_health->stream_degraded;
    if (!shard_health->healthy) {
      aggregate.healthy = false;
      if (shard_health->reasons.empty()) {
        aggregate.reasons.push_back(tenant + ": unhealthy");
      }
      const std::string watchdog =
          watchdog_reason(shard_health->watchdog_alerts);
      for (const auto& reason : shard_health->reasons) {
        if (reason != watchdog) {
          aggregate.reasons.push_back(tenant + ": " + reason);
        }
      }
    }
  }
  return aggregate;
}

std::size_t MonitorManager::shard_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

}  // namespace flowdiff::core
