// gtpar/net/socket.hpp
//
// Minimal RAII socket layer for the gtpard service: blocking stream
// sockets over TCP (loopback or remote) and Unix-domain paths, with
// EINTR-safe exact reads, full writes and one-shot non-blocking writes. No
// framing here — that lives in wire.hpp; no event loop — the server runs
// one accept loop plus one reader and one writer thread per connection.
// The reader runs sub-grain requests itself, and whichever thread produces
// a frame first tries one non-blocking write_some; the writer thread sends
// only what a full socket buffer left behind (net/server.cpp).
//
// Errors are reported as SocketError (a std::runtime_error carrying
// errno's message). A clean peer close is not an error: read_exact
// distinguishes end-of-stream at a frame boundary (returns false) from a
// truncated read mid-frame (throws). An I/O deadline that expires
// (set_recv_timeout_ns / set_send_timeout_ns) throws SocketTimeout, a
// SocketError subclass, so callers can tell a stalled peer from a dead
// one.
//
// Fault injection seam: a Socket (or Listener) can carry a
// SocketFaultHook, consulted once per syscall attempt. The hook shapes
// that one operation — clamp the transfer to a partial chunk, sleep an
// injected delay, flip a bit of the received data, or fail the operation
// as if the peer had sent an RST. The seam is test-only: without a hook
// the cost is one branch per loop iteration. The seeded deterministic
// implementation lives in check/net_faults.hpp (NetFaultPlan).
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace gtpar::net {

class SocketError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An I/O deadline expired (SO_RCVTIMEO / SO_SNDTIMEO): the peer is
/// stalled, not (necessarily) gone.
class SocketTimeout : public SocketError {
 public:
  using SocketError::SocketError;
};

/// What a SocketFaultHook does to one syscall attempt.
struct SocketFaultAction {
  /// > 0: clamp this transfer to at most this many bytes (partial
  /// read/write split).
  std::size_t max_chunk = 0;
  /// Sleep this long before the syscall (injected latency).
  std::uint64_t delay_ns = 0;
  /// Flip one bit of the transferred chunk (read side only).
  bool corrupt = false;
  /// Fail the operation as if the peer reset the connection: the socket
  /// is shut down and SocketError thrown.
  bool reset = false;
};

/// Test-only injection seam consulted by Socket::read_exact /
/// Socket::write_all / Socket::write_some (once per syscall attempt) and
/// Listener::accept (once per accepted connection). Implementations must
/// be thread-safe if the socket is used from several threads. See
/// check/net_faults.hpp for the seeded deterministic implementation.
class SocketFaultHook {
 public:
  virtual ~SocketFaultHook() = default;
  /// Shape one recv (is_read) / send attempt of up to `len` bytes.
  virtual SocketFaultAction on_io(bool is_read, std::size_t len) = 0;
  /// Called per accepted connection; return true to drop it (simulated
  /// accept failure).
  virtual bool on_accept() { return false; }
};

/// A connected stream socket (RAII over the fd; movable, not copyable).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept : fd_(other.fd_), fault_(other.fault_) {
    other.fd_ = -1;
    other.fault_ = nullptr;
  }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }

  /// Read exactly `len` bytes. Returns false on a clean end-of-stream
  /// *before the first byte*; throws SocketTimeout when a receive
  /// deadline expires, SocketError on I/O failure or EOF mid-read (a
  /// truncated frame is a protocol violation, not a clean close).
  bool read_exact(void* buf, std::size_t len);

  /// Write all `len` bytes (retrying partial writes / EINTR). Throws
  /// SocketTimeout when a send deadline expires with no progress.
  void write_all(const void* buf, std::size_t len);

  /// One non-blocking send: write what the socket's buffer takes right
  /// now and return that byte count (0 when it is full). Never waits, so
  /// the send deadline does not apply. Throws SocketError on I/O failure.
  /// The fault hook shapes the attempt as it does one write_all syscall.
  std::size_t write_some(const void* buf, std::size_t len);

  /// Arm per-operation deadlines (0 clears). Best-effort: an invalid fd
  /// is ignored.
  void set_recv_timeout_ns(std::uint64_t ns) noexcept;
  void set_send_timeout_ns(std::uint64_t ns) noexcept;

  /// Block until the socket is readable (or closed/reset by the peer) or
  /// the timeout expires; false = timed out. timeout_ns 0 polls.
  bool wait_readable(std::uint64_t timeout_ns);

  /// Arm the test-only fault-injection seam (nullptr disarms). The hook
  /// must outlive the socket's I/O.
  void set_fault_hook(SocketFaultHook* hook) noexcept { fault_ = hook; }

  /// Disable further receives and/or sends (wakes a blocked reader).
  void shutdown_read() noexcept;
  void shutdown_both() noexcept;

  void close() noexcept;

  /// Connect to a TCP endpoint ("127.0.0.1", port) or a Unix-domain path.
  /// timeout_ns > 0 bounds the connect itself (non-blocking connect +
  /// poll): SocketTimeout on expiry.
  static Socket connect_tcp(const std::string& host, std::uint16_t port,
                            std::uint64_t timeout_ns = 0);
  static Socket connect_unix(const std::string& path,
                             std::uint64_t timeout_ns = 0);

  /// A connected AF_UNIX socket pair (for tests: drive both ends of a
  /// byte stream in-process without a listener).
  static std::pair<Socket, Socket> pair();

 private:
  int fd_ = -1;
  SocketFaultHook* fault_ = nullptr;
};

/// A listening socket plus a wake-up pipe, so accept() can be interrupted
/// for graceful shutdown without closing the fd under a racing accept.
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(Listener&&) noexcept;
  Listener& operator=(Listener&&) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Bind + listen on TCP `host:port`; port 0 picks an ephemeral port
  /// (readable via port()).
  static Listener listen_tcp(const std::string& host, std::uint16_t port,
                             int backlog = 128);
  /// Bind + listen on a Unix-domain socket path (unlinks a stale socket
  /// file first).
  static Listener listen_unix(const std::string& path, int backlog = 128);

  /// Block until a connection arrives (returns it) or interrupt() is
  /// called (returns an invalid Socket). Out-of-fd pressure
  /// (EMFILE/ENFILE/ENOBUFS/ENOMEM) is survived with a short backoff
  /// sleep — never a hot spin — and counted in accepts_dropped().
  Socket accept();

  /// Wake a blocked accept(); accept() then returns an invalid Socket.
  void interrupt() noexcept;

  /// Connections dropped at the accept edge: fd-limit pressure backoffs
  /// and fault-hook-injected accept failures.
  std::uint64_t accepts_dropped() const noexcept {
    return accepts_dropped_.load(std::memory_order_relaxed);
  }

  /// Arm the test-only accept fault seam (nullptr disarms).
  void set_fault_hook(SocketFaultHook* hook) noexcept { fault_ = hook; }

  bool valid() const noexcept { return fd_ >= 0; }
  /// The bound TCP port (after listen_tcp with port 0).
  std::uint16_t port() const noexcept { return port_; }
  /// The Unix-domain path, empty for TCP.
  const std::string& path() const noexcept { return path_; }

  /// Close the listening socket (and unlink a Unix-domain path): new
  /// connects are refused outright. Idempotent; callers must have joined
  /// any thread blocked in accept() first (see interrupt()).
  void close_all() noexcept;

 private:
  int fd_ = -1;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  std::uint16_t port_ = 0;
  std::string path_;
  SocketFaultHook* fault_ = nullptr;
  /// Written only by the accept-loop thread; read by stats snapshots on
  /// other threads, so the counter is atomic (relaxed is enough for a
  /// monotone stat).
  std::atomic<std::uint64_t> accepts_dropped_{0};
};

}  // namespace gtpar::net
