#include "gtpar/net/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace gtpar::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw SocketError(std::string(what) + ": " + std::strerror(errno));
}

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

sockaddr_in make_tcp_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
    throw SocketError("invalid IPv4 address: " + host);
  return addr;
}

sockaddr_un make_unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw SocketError("unix socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

timeval ns_to_timeval(std::uint64_t ns) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ns / 1'000'000'000ull);
  tv.tv_usec = static_cast<suseconds_t>((ns % 1'000'000'000ull) / 1'000ull);
  // SO_RCVTIMEO/SO_SNDTIMEO treat a zero timeval as "block forever"; a
  // sub-microsecond deadline must still be a deadline.
  if (ns > 0 && tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  return tv;
}

int ns_to_poll_ms(std::uint64_t ns) {
  const std::uint64_t ms = (ns + 999'999ull) / 1'000'000ull;
  constexpr std::uint64_t kMaxPollMs = 1u << 30;
  return static_cast<int>(std::min(ms, kMaxPollMs));
}

/// Apply the pre-syscall part of a fault action; returns the (possibly
/// clamped) transfer size. Throws on an injected reset.
std::size_t apply_fault_pre(Socket& s, const SocketFaultAction& act,
                            std::size_t len) {
  if (act.delay_ns > 0)
    std::this_thread::sleep_for(std::chrono::nanoseconds(act.delay_ns));
  if (act.reset) {
    s.shutdown_both();
    throw SocketError("injected connection reset");
  }
  if (act.max_chunk > 0) return std::min(len, act.max_chunk);
  return len;
}

/// Bound a blocking connect: non-blocking connect + poll(POLLOUT) +
/// SO_ERROR. The fd is returned in blocking mode on success.
void connect_with_timeout(int fd, const sockaddr* addr, socklen_t alen,
                          std::uint64_t timeout_ns) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, addr, alen) != 0) {
    if (errno != EINPROGRESS) throw_errno("connect");
    pollfd pfd{fd, POLLOUT, 0};
    int n;
    do {
      n = ::poll(&pfd, 1, ns_to_poll_ms(timeout_ns));
    } while (n < 0 && errno == EINTR);
    if (n < 0) throw_errno("poll");
    if (n == 0) throw SocketTimeout("connect: timed out");
    int soerr = 0;
    socklen_t slen = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &slen) != 0)
      throw_errno("getsockopt(SO_ERROR)");
    if (soerr != 0) {
      errno = soerr;
      throw_errno("connect");
    }
  }
  ::fcntl(fd, F_SETFL, flags);
}

}  // namespace

// --- Socket. ----------------------------------------------------------------

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    fault_ = other.fault_;
    other.fd_ = -1;
    other.fault_ = nullptr;
  }
  return *this;
}

bool Socket::read_exact(void* buf, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(buf);
  std::size_t got = 0;
  while (got < len) {
    std::size_t want = len - got;
    bool corrupt = false;
    if (fault_ != nullptr) {
      const SocketFaultAction act = fault_->on_io(/*is_read=*/true, want);
      want = apply_fault_pre(*this, act, want);
      corrupt = act.corrupt;
    }
    const ssize_t n = ::recv(fd_, p + got, want, 0);
    if (n > 0) {
      if (corrupt) p[got] ^= 0x01;
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) {
      if (got == 0) return false;  // clean close at a frame boundary
      throw SocketError("connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      throw SocketTimeout("recv: receive deadline expired");
    throw_errno("recv");
  }
  return true;
}

void Socket::write_all(const void* buf, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  std::size_t sent = 0;
  while (sent < len) {
    std::size_t want = len - sent;
    if (fault_ != nullptr)
      want = apply_fault_pre(*this, fault_->on_io(/*is_read=*/false, want),
                             want);
    // MSG_NOSIGNAL: a peer that went away yields EPIPE, not a fatal
    // SIGPIPE to the whole process.
    const ssize_t n = ::send(fd_, p + sent, want, MSG_NOSIGNAL);
    if (n >= 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      throw SocketTimeout("send: send deadline expired");
    throw_errno("send");
  }
}

std::size_t Socket::write_some(const void* buf, std::size_t len) {
  std::size_t want = len;
  if (fault_ != nullptr)
    want = apply_fault_pre(*this, fault_->on_io(/*is_read=*/false, want), want);
  for (;;) {
    const ssize_t n = ::send(fd_, buf, want, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    throw_errno("send");
  }
}

void Socket::set_recv_timeout_ns(std::uint64_t ns) noexcept {
  if (fd_ < 0) return;
  const timeval tv = ns_to_timeval(ns);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void Socket::set_send_timeout_ns(std::uint64_t ns) noexcept {
  if (fd_ < 0) return;
  const timeval tv = ns_to_timeval(ns);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool Socket::wait_readable(std::uint64_t timeout_ns) {
  pollfd pfd{fd_, POLLIN, 0};
  int n;
  do {
    n = ::poll(&pfd, 1, ns_to_poll_ms(timeout_ns));
  } while (n < 0 && errno == EINTR);
  if (n < 0) throw_errno("poll");
  return n > 0;
}

void Socket::shutdown_read() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket Socket::connect_tcp(const std::string& host, std::uint16_t port,
                           std::uint64_t timeout_ns) {
  const sockaddr_in addr = make_tcp_addr(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  set_cloexec(fd);
  try {
    if (timeout_ns > 0) {
      connect_with_timeout(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr), timeout_ns);
    } else if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) != 0) {
      throw_errno("connect");
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  // The protocol is request/response with small frames; latency beats
  // batching.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Socket(fd);
}

Socket Socket::connect_unix(const std::string& path, std::uint64_t timeout_ns) {
  const sockaddr_un addr = make_unix_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  set_cloexec(fd);
  try {
    if (timeout_ns > 0) {
      connect_with_timeout(fd, reinterpret_cast<const sockaddr*>(&addr),
                           sizeof(addr), timeout_ns);
    } else if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr)) != 0) {
      throw_errno("connect");
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  return Socket(fd);
}

std::pair<Socket, Socket> Socket::pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
    throw_errno("socketpair");
  set_cloexec(fds[0]);
  set_cloexec(fds[1]);
  return {Socket(fds[0]), Socket(fds[1])};
}

// --- Listener. --------------------------------------------------------------

Listener::~Listener() { close_all(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_),
      wake_rd_(other.wake_rd_),
      wake_wr_(other.wake_wr_),
      port_(other.port_),
      path_(std::move(other.path_)),
      fault_(other.fault_),
      accepts_dropped_(
          other.accepts_dropped_.load(std::memory_order_relaxed)) {
  other.fd_ = other.wake_rd_ = other.wake_wr_ = -1;
  other.fault_ = nullptr;
  other.accepts_dropped_.store(0, std::memory_order_relaxed);
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close_all();
    fd_ = other.fd_;
    wake_rd_ = other.wake_rd_;
    wake_wr_ = other.wake_wr_;
    port_ = other.port_;
    path_ = std::move(other.path_);
    fault_ = other.fault_;
    accepts_dropped_.store(
        other.accepts_dropped_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    other.fd_ = other.wake_rd_ = other.wake_wr_ = -1;
    other.fault_ = nullptr;
    other.accepts_dropped_.store(0, std::memory_order_relaxed);
  }
  return *this;
}

namespace {

void make_wake_pipe(int& rd, int& wr) {
  int p[2];
  if (::pipe(p) != 0) throw_errno("pipe");
  set_cloexec(p[0]);
  set_cloexec(p[1]);
  rd = p[0];
  wr = p[1];
}

}  // namespace

Listener Listener::listen_tcp(const std::string& host, std::uint16_t port,
                              int backlog) {
  const sockaddr_in addr = make_tcp_addr(host, port);
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  set_cloexec(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("bind/listen");
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("getsockname");
  }
  Listener l;
  l.fd_ = fd;
  l.port_ = ntohs(bound.sin_port);
  make_wake_pipe(l.wake_rd_, l.wake_wr_);
  return l;
}

Listener Listener::listen_unix(const std::string& path, int backlog) {
  const sockaddr_un addr = make_unix_addr(path);
  ::unlink(path.c_str());  // stale socket file from a previous run
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  set_cloexec(fd);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("bind/listen");
  }
  Listener l;
  l.fd_ = fd;
  l.path_ = path;
  make_wake_pipe(l.wake_rd_, l.wake_wr_);
  return l;
}

Socket Listener::accept() {
  for (;;) {
    pollfd fds[2];
    fds[0] = {fd_, POLLIN, 0};
    fds[1] = {wake_rd_, POLLIN, 0};
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (fds[1].revents != 0) return Socket();  // interrupted: shutting down
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int cfd = ::accept(fd_, nullptr, nullptr);
    if (cfd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Out of fds (or kernel memory): the pending connection stays in
        // the backlog and poll() would report it readable again
        // immediately, so a bare continue hot-spins. Back off briefly —
        // on the wake pipe so shutdown stays responsive — and count the
        // stall so operators can see accept-edge pressure.
        ++accepts_dropped_;
        pollfd wake{wake_rd_, POLLIN, 0};
        ::poll(&wake, 1, 10);
        continue;
      }
      throw_errno("accept");
    }
    set_cloexec(cfd);
    if (fault_ != nullptr && fault_->on_accept()) {
      ::close(cfd);
      ++accepts_dropped_;
      continue;
    }
    const int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return Socket(cfd);
  }
}

void Listener::interrupt() noexcept {
  if (wake_wr_ >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &b, 1);
  }
}

void Listener::close_all() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (wake_rd_ >= 0) {
    ::close(wake_rd_);
    wake_rd_ = -1;
  }
  if (wake_wr_ >= 0) {
    ::close(wake_wr_);
    wake_wr_ = -1;
  }
  if (!path_.empty()) ::unlink(path_.c_str());
}

}  // namespace gtpar::net
