// TCP front end of the estimation service.
//
// One listening socket, one thread per connection, one ServeScheduler
// behind them: a connection sends request lines (src/serve/protocol.h)
// and receives one single-line JSON response per line, in order.
// Connections are long-lived — a client can hold one open and stream
// queries through it — and a malformed line gets an error response
// without dropping the connection.
//
// Shutdown is graceful and deterministic (the daemon's SIGTERM path):
// Stop() closes the listener, half-closes every connection's read side
// (in-flight requests still answer over the intact write side), joins
// the connection threads, then drains the scheduler — running and waiting
// jobs finish, new ones are refused.
//
// Usable in-process (tests and the bench load generator start a server
// on port 0 and query it over loopback) and from tools/grw_serve.cpp.

#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.h"
#include "serve/scheduler.h"
#include "util/sync.h"

namespace grw::serve {

struct ServerOptions {
  /// Interface to bind. The daemon is a trusted-network service (no auth,
  /// no TLS); default to loopback.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  SchedulerOptions scheduler;
};

class ServeServer {
 public:
  /// The registry must outlive the server.
  ServeServer(const SnapshotRegistry* registry, ServerOptions options);
  ~ServeServer();  // Stop() if still running

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds, listens and starts the accept thread. Throws
  /// std::runtime_error on socket failure (port in use etc.).
  void Start();

  /// The bound port (after Start); the daemon prints it so scripts can
  /// use --port 0.
  int port() const { return port_; }

  bool running() const { return running_.load(); }

  /// Graceful drain (see file comment). Idempotent, thread-safe, safe to
  /// call from a signal-watching thread.
  void Stop();

  /// Scheduler counters (requests served etc.), for the daemon's
  /// shutdown report and tests.
  ServeScheduler::Stats stats() const;

  /// Connection threads not yet joined: the live ones plus those that
  /// finished since the last accepted connection, which joins them.
  size_t connection_threads() const GRW_EXCLUDES(conn_mu_);

 private:
  void AcceptLoop() GRW_EXCLUDES(conn_mu_);
  void Connection(int fd) GRW_EXCLUDES(conn_mu_);

  const SnapshotRegistry* registry_;
  ServerOptions options_;
  // Constructed with the server (not in Start()), so stats() and
  // HandleLine paths read an immutable pointer — no lock, no race with a
  // concurrent Start().
  std::unique_ptr<ServeScheduler> scheduler_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  mutable Mutex conn_mu_;
  // Live connection threads by id. A finishing thread moves its own
  // handle to finished_threads_; the accept loop joins those as the next
  // connection arrives, so a long-lived daemon keeps no stack of a
  // finished connection. Stop() swaps both out (under conn_mu_) and joins
  // outside the lock — joining under it would deadlock with a connection
  // thread's exit bookkeeping.
  std::map<std::thread::id, std::thread> conn_threads_
      GRW_GUARDED_BY(conn_mu_);
  std::vector<std::thread> finished_threads_ GRW_GUARDED_BY(conn_mu_);
  std::set<int> conn_fds_ GRW_GUARDED_BY(conn_mu_);
  std::once_flag stop_once_;
};

}  // namespace grw::serve
