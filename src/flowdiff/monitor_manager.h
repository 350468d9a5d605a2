// MonitorManager: the multi-tenant shard registry behind `flowdiff serve`.
//
// A daemon watches many controllers at once — one control-log stream per
// tenant (a controller, a slice, a customer), each with its own baseline,
// windows, and alarm history. The manager owns one SlidingMonitor shard
// per tenant and the scheduling between them:
//
//   * feed(tenant, event) routes events to the tenant's shard, creating it
//     on first contact from the manager's shard option template. Events
//     queue per shard and are fed by at most one executor task per shard
//     at a time, so per-tenant order (the thing windowing depends on) is
//     preserved at any worker count while distinct tenants proceed in
//     parallel on the manager's util::Executor pool. The task hands the
//     monitor whole batches (SlidingMonitor::feed(vector)), taking the
//     entire queue by buffer swap.
//   * Shard faults are isolated: an exception escaping one shard's feed
//     marks that shard kFaulted (with the message retained) and drops its
//     backlog; every other tenant keeps running, and the aggregate health
//     turns unhealthy naming the faulted tenant.
//   * Idle eviction reclaims memory for tenants that stopped talking: the
//     serve loop advances tick() once per poll round, and evict_idle(n)
//     retires shards not fed for n ticks — flushing the final window and
//     keeping a tombstone (final snapshot, health, transcript) so the
//     telemetry plane can still answer for the departed tenant.
//   * stop_all() is the SIGTERM path: drain every queue, flush every
//     shard's final partial window, and leave the results readable.
//
// With ManagerConfig::workers == 0 the executor runs tasks inline on the
// feeding thread — fully deterministic, and the mode the demux golden
// tests pin. Each shard models its windows serially on whichever thread
// runs its task.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "flowdiff/monitor.h"
#include "flowdiff/monitor_options.h"
#include "util/executor.h"

namespace flowdiff::core {

enum class ShardState {
  kRunning,  ///< Accepting and processing events.
  kStopped,  ///< stop()/stop_all() flushed it; results readable, feeds dropped.
  kFaulted,  ///< An exception escaped its feed path; see ShardStatus::fault.
  kEvicted,  ///< Idle-evicted; monitor freed, tombstone results readable.
};

[[nodiscard]] const char* to_string(ShardState state);

/// One row of the registry as the telemetry plane reports it.
struct ShardStatus {
  std::string tenant;
  ShardState state = ShardState::kRunning;
  std::uint64_t events = 0;   ///< Events accepted into the shard.
  std::uint64_t dropped = 0;  ///< Events dropped (fed after stop/fault/evict).
  std::size_t windows = 0;
  std::size_t alarms = 0;
  bool healthy = true;
  std::string fault;  ///< Diagnostic for kFaulted shards.
};

struct ManagerConfig {
  /// Shard option template: every tenant's monitor is built from this.
  MonitorOptions options;
  /// Size of the cross-tenant pool (0 = shard tasks run inline).
  int workers = 0;
  /// Test seam: runs inside the shard task for every event of a batch, in
  /// order, before the batch is fed to the monitor. An exception thrown
  /// here exercises the same fault path a throwing monitor would.
  std::function<void(const std::string& tenant, const of::ControlEvent&)>
      feed_hook;
};

class MonitorManager {
 public:
  /// Validates the shard option template once, before any worker starts:
  /// throws std::invalid_argument with MonitorOptions::validate()'s
  /// message, so no shard is ever built from unchecked options.
  explicit MonitorManager(ManagerConfig config);
  ~MonitorManager();

  MonitorManager(const MonitorManager&) = delete;
  MonitorManager& operator=(const MonitorManager&) = delete;

  /// Creates the tenant's shard if absent. True if created. feed() calls
  /// this implicitly; explicit registration exists so serve can announce
  /// configured tenants before their first event.
  bool register_tenant(const std::string& tenant);

  /// Routes one event (or a batch, preserving order) to the tenant's
  /// shard. Returns false if the shard exists but no longer accepts
  /// (stopped / faulted / evicted) — the event is counted as dropped.
  bool feed(const std::string& tenant, const of::ControlEvent& event);
  bool feed(const std::string& tenant,
            const std::vector<of::ControlEvent>& events);

  /// Blocks until the tenant's queued events were fed (not until windows
  /// closed — use stop() for end-of-stream). No-op for unknown tenants.
  void drain(const std::string& tenant);

  /// Drain + flush the shard's final partial window, then mark kStopped.
  /// Results stay readable; later feeds are dropped.
  void stop(const std::string& tenant);

  /// SIGTERM path: stop every running shard (deterministic tenant order).
  void stop_all();

  /// Advances the idle clock; the serve loop calls this once per poll
  /// round. Returns the new tick.
  std::uint64_t tick();

  /// Evicts running shards not fed for >= idle_ticks ticks: drains,
  /// flushes the final window, snapshots results into a tombstone, and
  /// frees the monitor. Returns the tenants evicted (sorted).
  std::vector<std::string> evict_idle(std::uint64_t idle_ticks);

  /// Registered tenants, sorted; includes stopped/faulted/evicted ones.
  [[nodiscard]] std::vector<std::string> tenants() const;
  [[nodiscard]] std::optional<ShardStatus> status(
      const std::string& tenant) const;
  [[nodiscard]] std::vector<ShardStatus> statuses() const;

  /// Per-tenant results; nullopt for unknown tenants. For live shards
  /// these copy under the monitor's commit lock (safe any time), snapshot()
  /// after releasing the shard lock feed() takes; for evicted shards they
  /// serve the tombstone.
  [[nodiscard]] std::optional<MonitorSnapshot> snapshot(
      const std::string& tenant) const;
  [[nodiscard]] std::optional<MonitorHealth> health(
      const std::string& tenant) const;

  /// Whole-daemon verdict: healthy iff every shard is healthy and none
  /// faulted. Reasons are prefixed with the tenant ("tenant2: ..."); the
  /// counters and the stream quality are summed over the shards, except
  /// the process-wide watchdog count and reason, which appear once.
  [[nodiscard]] MonitorHealth aggregate_health() const;

  [[nodiscard]] std::size_t shard_count() const;

 private:
  struct Shard {
    explicit Shard(std::string tenant_name) : tenant(std::move(tenant_name)) {}

    const std::string tenant;
    mutable std::mutex mu;
    std::condition_variable idle_cv;  ///< pending empty and no task running.
    /// Shared so snapshot() can read it after releasing `mu`.
    std::shared_ptr<SlidingMonitor> monitor;
    ShardState state = ShardState::kRunning;
    /// Events fed but not yet taken by a shard task.
    std::vector<of::ControlEvent> pending;
    /// The batch the shard's task is feeding: the whole queue, taken by
    /// swap with pending so both buffers' capacity is reused.
    std::vector<of::ControlEvent> batch;
    bool task_scheduled = false;
    std::uint64_t events = 0;
    std::uint64_t dropped = 0;
    std::uint64_t last_fed_tick = 0;
    std::string fault;
    /// Filled at eviction, before the monitor is freed.
    std::optional<MonitorSnapshot> tombstone_snapshot;
    std::optional<MonitorHealth> tombstone_health;
  };

  std::shared_ptr<Shard> find(const std::string& tenant) const;
  std::shared_ptr<Shard> find_or_create(const std::string& tenant,
                                        bool* created);
  /// The per-shard executor task: feeds queued batches until the queue is
  /// empty, faulting the shard on any exception.
  void run_shard(const std::shared_ptr<Shard>& shard);
  /// Waits until the shard's queue is empty and no task is in flight.
  static void wait_idle(const std::shared_ptr<Shard>& shard);
  /// drain + flush + state transition, shared by stop() and eviction.
  void retire(const std::shared_ptr<Shard>& shard, ShardState final_state);
  static ShardStatus status_locked(const Shard& shard);

  ManagerConfig config_;
  Executor executor_;
  mutable std::mutex mu_;  ///< Guards shards_ and tick_.
  std::map<std::string, std::shared_ptr<Shard>> shards_;
  std::uint64_t tick_ = 0;
};

}  // namespace flowdiff::core
