#ifndef MINERULE_SERVER_SERVER_H_
#define MINERULE_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "engine/data_mining_system.h"
#include "relational/catalog.h"
#include "server/scheduler.h"

namespace minerule::server {

class Session;

/// Catalog-level concurrency control (DESIGN.md §15). The per-table
/// modification epochs (Table::version, used since PR 2 for cache
/// invalidation) generalize here to statement-level snapshot reads:
///
///   - Readers take the latch shared and pin the catalog epoch for the
///     whole statement; because no write-class statement can interleave,
///     the epoch observed at statement start equals the epoch at statement
///     end — the snapshot the session layer promises.
///   - Writers (DML, DDL, anything touching a sequence) serialize on the
///     exclusive latch and bump the epoch exactly once per committed
///     statement.
///   - MINE RULE takes the mining lane, copies its sources under a brief
///     ReadPin (copy-on-write, O(1) per table), mines with no latch held,
///     and installs its output under a short WriteLock after checking that
///     no source changed; on a conflict it re-mines under that WriteLock.
///     Its one epoch bump is the install.
///
/// The catalog epoch orders whole write statements the way table versions
/// order individual table mutations; a reader's pinned epoch therefore
/// names the exact database state its statement saw.
class SessionManager {
 public:
  SessionManager() = default;
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Shared latch + pinned epoch, released on destruction.
  class ReadPin {
   public:
    explicit ReadPin(SessionManager* manager)
        : lock_(manager->latch_), epoch_(manager->epoch()) {}
    uint64_t epoch() const { return epoch_; }

   private:
    std::shared_lock<std::shared_mutex> lock_;
    uint64_t epoch_;
  };

  /// Exclusive latch; Commit() bumps the epoch. A write statement calls it
  /// once, on success and failure alike (even a failed statement may have
  /// partially mutated the catalog, so its epoch must advance); a MINE RULE
  /// calls it only when it installs output.
  class WriteLock {
   public:
    explicit WriteLock(SessionManager* manager)
        : manager_(manager), lock_(manager->latch_) {}
    uint64_t Commit() { return manager_->BumpEpoch(); }

   private:
    SessionManager* manager_;
    std::unique_lock<std::shared_mutex> lock_;
  };

  /// The mining lane: one MINE RULE mines at a time, so concurrent runs
  /// never stack their working sets. A session takes it before admission,
  /// so a MINE RULE waiting here holds no slot and no latch; the wait
  /// counts as queue wait.
  class MiningLane {
   public:
    explicit MiningLane(SessionManager* manager);
    /// True when another run held the lane on arrival.
    bool waited() const { return waited_; }
    int64_t wait_micros() const { return wait_micros_; }

   private:
    std::unique_lock<std::mutex> lock_;
    bool waited_ = false;
    int64_t wait_micros_ = 0;
  };

  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

 private:
  uint64_t BumpEpoch() {
    return epoch_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  std::shared_mutex latch_;
  std::atomic<uint64_t> epoch_{0};
  std::mutex mining_lane_;
};

struct ServerOptions {
  /// Admission-control slots; <= 0 resolves as Scheduler does.
  int max_concurrent = 0;
  /// Seed options for every new session (a session may override its own
  /// copy afterwards). Sessions default to dropping the encoded tables
  /// after each MINE RULE: they live in the session's private scratch
  /// catalog, so this only frees their memory between runs.
  mr::MiningOptions session_defaults;
};

/// The multi-session front end of the tightly-coupled architecture
/// (DESIGN.md §15): many clients, one catalog, one shared worker pool.
/// Connect() hands out in-process sessions — the testable core the socket
/// front end (server/socket_server.h) is a thin line protocol over.
class Server {
 public:
  explicit Server(Catalog* catalog, ServerOptions options = {});

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens a new session. Sessions are independent: each holds its own
  /// engine state (options, host variables, statistics, preprocess cache,
  /// scratch catalog for MINE RULE) over the shared catalog, and may be
  /// driven from its own thread. Sessions must not outlive the server.
  std::unique_ptr<Session> Connect(std::string name = "");

  Catalog* catalog() { return catalog_; }
  SessionManager* session_manager() { return &session_manager_; }
  Scheduler* scheduler() { return &scheduler_; }
  const ServerOptions& options() const { return options_; }

  /// Sessions ever opened (session ids are 1-based and dense).
  int64_t sessions_opened() const {
    return next_session_id_.load(std::memory_order_relaxed) - 1;
  }

 private:
  friend class Session;
  void NoteSessionClosed();

  Catalog* catalog_;
  ServerOptions options_;
  SessionManager session_manager_;
  Scheduler scheduler_;
  std::atomic<int64_t> next_session_id_{1};
  std::atomic<int64_t> active_sessions_{0};
};

}  // namespace minerule::server

#endif  // MINERULE_SERVER_SERVER_H_
