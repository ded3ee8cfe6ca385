#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "util/posix_io.h"

namespace grw::serve {

constexpr int kBacklog = 64;
// Cap on the longest accepted request line; longer input is answered
// with an error and the connection closed (a non-protocol peer).
constexpr size_t kMaxLineBytes = 1 << 16;
// Bound on each response send. A client that stops draining its socket
// would otherwise wedge its connection thread forever once the kernel
// buffer fills; on timeout the response is dropped and the connection
// closed.
constexpr int kWriteTimeoutMs = 30'000;

ServeServer::ServeServer(const SnapshotRegistry* registry,
                         ServerOptions options)
    : registry_(registry),
      options_(std::move(options)),
      scheduler_(std::make_unique<ServeScheduler>(registry_,
                                                  options_.scheduler)) {}

ServeServer::~ServeServer() { Stop(); }

void ServeServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("serve: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: invalid host '" + options_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, kBacklog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot listen on " + options_.host +
                             ":" + std::to_string(options_.port) + ": " +
                             err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void ServeServer::AcceptLoop() {
  while (!stopping_.load()) {
    // Poll with a timeout so Stop() is noticed even with no traffic.
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (stopping_.load()) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::vector<std::thread> finished;
    {
      MutexLock lock(conn_mu_);
      if (stopping_.load()) {
        ::close(fd);
        break;
      }
      conn_fds_.insert(fd);
      // The new thread's exit path takes conn_mu_, so it cannot look
      // itself up before it is in the map.
      std::thread thread([this, fd] { Connection(fd); });
      const std::thread::id id = thread.get_id();
      conn_threads_.emplace(id, std::move(thread));
      finished.swap(finished_threads_);
    }
    // These threads have left Connection(); each join only waits for
    // its return.
    for (std::thread& t : finished) t.join();
  }
}

void ServeServer::Connection(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    // No read timeout: an idle long-lived connection is legitimate, and
    // shutdown liveness comes from Stop()'s SHUT_RD half-close (EOF),
    // not from a deadline. The checked wrapper still absorbs EINTR and
    // the injected io.read.* faults.
    const io::IoResult r = io::ReadSome(fd, chunk, sizeof(chunk));
    if (!r.ok()) break;  // EOF (peer or Stop's SHUT_RD) or error
    buffer.append(chunk, r.bytes);
    size_t nl;
    while (open && (nl = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      std::string response = scheduler_->HandleLine(line);
      response += '\n';
      // Bounded send: a peer that stops draining gets its response
      // dropped and the connection closed instead of wedging this
      // thread forever on a full socket buffer.
      if (!io::WriteAll(fd, response, kWriteTimeoutMs).ok()) {
        open = false;
      }
    }
    if (buffer.size() > kMaxLineBytes) {
      // A peer streaming an endless unterminated "line" is not speaking
      // the protocol; answer once and hang up.
      io::WriteAll(fd, ErrorResponse("request line too long") + "\n",
                   kWriteTimeoutMs);
      break;
    }
  }
  MutexLock lock(conn_mu_);
  // Closed under the lock: once closed, accept may hand the same number
  // to a new connection, whose entry this erase must not remove.
  conn_fds_.erase(fd);
  ::close(fd);
  auto self = conn_threads_.extract(std::this_thread::get_id());
  if (!self.empty()) finished_threads_.push_back(std::move(self.mapped()));
}

void ServeServer::Stop() {
  std::call_once(stop_once_, [this] {
    stopping_.store(true);
    if (listen_fd_ >= 0) {
      // Unblocks the accept poll immediately on most platforms; the 200ms
      // poll timeout covers the rest.
      ::shutdown(listen_fd_, SHUT_RDWR);
    }
    if (accept_thread_.joinable()) accept_thread_.join();
    std::vector<std::thread> to_join;
    {
      // Half-close every connection: their read() returns 0, the threads
      // finish the request in hand (write side intact) and exit. The
      // accept thread is joined, so no thread is added any more — move
      // every handle out under the lock and join outside it (a
      // connection thread's exit path takes conn_mu_ to erase its fd;
      // joining while holding the lock would deadlock).
      MutexLock lock(conn_mu_);
      for (int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
      to_join.swap(finished_threads_);
      for (auto& [id, thread] : conn_threads_) {
        to_join.push_back(std::move(thread));
      }
      conn_threads_.clear();
    }
    for (std::thread& t : to_join) t.join();
    scheduler_->Drain();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    running_.store(false);
  });
}

ServeScheduler::Stats ServeServer::stats() const {
  return scheduler_->stats();
}

size_t ServeServer::connection_threads() const {
  MutexLock lock(conn_mu_);
  return conn_threads_.size() + finished_threads_.size();
}

}  // namespace grw::serve
