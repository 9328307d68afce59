#ifndef MINERULE_SERVER_SOCKET_SERVER_H_
#define MINERULE_SERVER_SOCKET_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "server/server.h"

namespace minerule::server {

class Session;

/// Applies a "\set NAME VALUE" command to the session and returns the
/// reply line ("OK" or a distinct "ERR ..." per failure mode: usage,
/// unknown option, malformed value). Values are parsed strictly — "8x" is
/// an error, not 8. Exposed for the key-matrix unit test; the socket
/// protocol handler is the production caller.
std::string ApplySetCommand(Session* session, const std::string& line);

/// Thin line protocol over a local (AF_UNIX) stream socket — the network
/// face of Server::Connect (DESIGN.md §15). One connection == one session.
///
/// Requests are UTF-8 text. A statement is accumulated line by line and
/// executed when a line's last non-blank character is ';' (the terminator
/// is stripped before execution). Lines starting with '\' are session
/// commands, executed immediately:
///
///   \set threads N | memory_limit BYTES | slow_query_micros N
///                                    -- per-session options
///   \metrics                         -- Prometheus text exposition of the
///                                       whole metrics registry (§16)
///   \quit                            -- close the connection
///
/// Every request gets one response, terminated by a line containing a
/// single '.':
///
///   OK rows=<n> affected=<m> run=<id> epoch=<e>\n
///   <tab-separated column names, when the result has rows>\n
///   <tab-separated row values>...\n
///   .\n
///
/// or, on failure, "ERR <message with newlines collapsed>" followed by the
/// '.' terminator. The connection survives errors; sessions end when the
/// client disconnects or sends \quit.
///
/// Input is bounded: a connection buffering more than kMaxStatementBytes
/// toward one statement gets "ERR statement too large ..." and is closed
/// (the stream position is unrecoverable mid-statement), counted by the
/// server.socket.oversized_statements metric.
class SocketServer {
 public:
  /// Bytes a connection may buffer toward one statement (raw input plus
  /// accumulated lines) before it is rejected and closed.
  static constexpr size_t kMaxStatementBytes = 1 << 20;  // 1 MiB

  /// Serves `server` at the given filesystem socket path (unlinked first
  /// if it exists; AF_UNIX paths must be short — keep them under ~100
  /// bytes).
  SocketServer(Server* server, std::string socket_path);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens and starts the accept loop.
  Status Start();

  /// Stops accepting, shuts down live connections and joins all threads.
  /// Idempotent; also run by the destructor.
  void Stop();

  const std::string& socket_path() const { return socket_path_; }

  /// Connections ever accepted (diagnostics).
  int64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  Server* server_;
  std::string socket_path_;
  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<int64_t> connections_accepted_{0};
  std::thread accept_thread_;
  std::mutex connections_mutex_;
  std::vector<int> connection_fds_;
  std::vector<std::thread> connection_threads_;
};

}  // namespace minerule::server

#endif  // MINERULE_SERVER_SOCKET_SERVER_H_
