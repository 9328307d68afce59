#include "server/server.h"

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "server/session.h"

namespace minerule::server {

namespace {

Gauge* ActiveSessionsGauge() {
  static Gauge* gauge = GlobalMetrics().GetGauge("server.sessions.active");
  return gauge;
}

}  // namespace

SessionManager::MiningLane::MiningLane(SessionManager* manager)
    : lock_(manager->mining_lane_, std::try_to_lock) {
  if (lock_.owns_lock()) return;
  waited_ = true;
  Stopwatch watch;
  lock_.lock();
  wait_micros_ = watch.ElapsedMicros();
}

Server::Server(Catalog* catalog, ServerOptions options)
    : catalog_(catalog),
      options_(std::move(options)),
      scheduler_(options_.max_concurrent) {
  // Server sessions drop the encoded scratch tables after every MINE RULE
  // run. They are private to the session's scratch catalog either way;
  // dropping them keeps an idle session's memory at zero.
  options_.session_defaults.keep_encoded_tables = false;
}

std::unique_ptr<Session> Server::Connect(std::string name) {
  const int64_t id =
      next_session_id_.fetch_add(1, std::memory_order_relaxed);
  if (name.empty()) name = "session-" + std::to_string(id);
  GlobalMetrics().GetCounter("server.sessions.opened")->Increment();
  ActiveSessionsGauge()->Set(
      active_sessions_.fetch_add(1, std::memory_order_relaxed) + 1);
  // Not make_unique: the constructor is private to this friend.
  return std::unique_ptr<Session>(new Session(this, id, std::move(name)));
}

void Server::NoteSessionClosed() {
  GlobalMetrics().GetCounter("server.sessions.closed")->Increment();
  ActiveSessionsGauge()->Set(
      active_sessions_.fetch_sub(1, std::memory_order_relaxed) - 1);
}

}  // namespace minerule::server
