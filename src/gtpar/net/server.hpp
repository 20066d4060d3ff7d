// gtpar/net/server.hpp
//
// ServiceServer: the library core of the gtpard daemon (tools/gtpard.cpp),
// kept as a library so the end-to-end suites (tests/test_service.cpp) can
// run a real server in-process on a loopback socket.
//
// Architecture: one accept loop feeding per-connection reader threads.
// Where a request runs: the reader parses it, and a request whose
// estimated sequential work is below the grain (the cascades' scout rule,
// engine/granularity.hpp; never one carrying a fault plan) is searched
// right there through Engine::run_on_caller — a pool hand-off would cost
// more than the search. Every other request becomes an Engine::submit
// with a completion callback, so no thread ever parks waiting on a
// search. Who writes a frame: the thread that produces it (the reader,
// an engine worker, the watchdog or drain()) sends it with one
// non-blocking write when the connection has nothing queued and no write
// in progress; what the socket does not take, and every frame that finds
// a backlog, goes to the connection's writer thread, which keeps frame
// order. Overload, stall, drain, and malformed input all surface as
// structured kError frames (wire.hpp), never as dropped connections or
// hangs.
//
// Streaming: a REQUEST with stream = true and a deadline splits its
// wall-clock budget across Options::stream_stages independent search
// stages with geometrically growing budgets; each stage's anytime result
// is pushed as a kPartial frame the moment the stage completes (the
// completion-callback chain submits the next stage), and the last stage
// answers with the final kResult. Completeness typically sharpens from
// stage to stage — kFailed to a one-sided bound to kExact — which is the
// protocol-visible form of the engine's anytime semantics.
//
// Graceful drain (SIGTERM in gtpard): stop accepting, notify every
// connection with kGoodbye, optionally cancel in-flight searches
// (anytime results still flow back), wait for the engine to empty, then
// close connections. drain() returning guarantees every accepted
// request has had its final frame written or its connection found dead.
//
// Slow-peer-proofing: every connection owns a writer thread consuming a
// bounded outbound queue, and its sends are the only blocking ones. A
// peer that stops reading cannot park an engine worker or the reader —
// their direct sends never wait, and what is left enqueues; when
// the queue exceeds max_outbound_bytes, stale kPartial frames are
// dropped oldest-first (finals never are), and a send that makes no
// progress for write_deadline_ns trips SO_SNDTIMEO and disconnects the
// peer (slow_peer_disconnects). Idle connections can be reaped
// (idle_timeout_ns) and per-connection in-flight caps keep one greedy
// client from monopolising the engine (max_in_flight_per_conn).
//
// At-most-once retries: a request carrying a non-zero idempotency_key is
// remembered in a TTL-bounded dedupe map. A retransmit of a completed
// request replays the cached final frame; a retransmit of an in-flight
// request retargets delivery to the new connection/request_id — either
// way the search runs once and is answered exactly once.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "gtpar/engine/engine.hpp"
#include "gtpar/net/wire.hpp"

namespace gtpar::net {

struct ServiceOptions {
  /// Non-empty: listen on this Unix-domain socket path.
  std::string unix_path;
  /// tcp_port >= 0: listen on tcp_host:tcp_port (0 = ephemeral, see
  /// ServiceServer::port()). Exactly one of unix_path / tcp_port must be
  /// selected.
  std::string tcp_host = "127.0.0.1";
  int tcp_port = -1;

  Engine::Options engine;
  WireLimits limits;

  /// Number of independent search stages for stream = true requests with
  /// a deadline (>= 1; 1 disables streaming). Stage k of S gets budget
  /// deadline * 2^k / (2^S - 1), so the stages sum to the deadline and
  /// the final stage gets the lion's share.
  unsigned stream_stages = 2;

  /// Accept the fault_* block of WireRequest and inject seeded leaf
  /// faults server-side (check/faults.hpp). Test-only: the chaos suites
  /// use it to drive the resilience contract through the full networked
  /// path. When false (default), any request carrying a fault plan is
  /// answered with kBadRequest.
  bool allow_fault_injection = false;

  /// drain(): cancel in-flight searches instead of waiting them out.
  /// Cancelled searches still answer (anytime semantics), so clients get
  /// their final frame either way.
  bool cancel_on_drain = false;

  /// Per-connection write deadline (SO_SNDTIMEO): a send that makes no
  /// progress for this long marks the peer slow, disconnects it, and
  /// counts slow_peer_disconnects. 0 disables (a stalled reader can then
  /// park its writer thread indefinitely — and block drain()).
  std::uint64_t write_deadline_ns = 5'000'000'000;

  /// Bound on a connection's outbound queue. Over the cap, the oldest
  /// droppable frames (streamed kPartial snapshots) are shed
  /// oldest-first and counted partials_dropped; final kResult/kError
  /// frames are never dropped — they are bounded by
  /// max_in_flight_per_conn instead.
  std::size_t max_outbound_bytes = 4u << 20;  // 4 MiB

  /// Reap a connection with no in-flight requests and no inbound bytes
  /// for this long (idle_reaped). 0 disables.
  std::uint64_t idle_timeout_ns = 0;

  /// Maximum requests in flight per connection; excess requests are
  /// answered kOverloaded and counted conn_capped. 0 disables.
  unsigned max_in_flight_per_conn = 0;

  /// How long a completed idempotent request's final frame stays
  /// replayable, and a cap on remembered finals (oldest evicted first).
  std::uint64_t dedupe_ttl_ns = 30'000'000'000;
  std::size_t dedupe_max_entries = 4096;
};

/// Monotone service counters (the kStats frame mirrors these).
struct ServiceStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t requests_received = 0;
  std::uint64_t results_sent = 0;
  std::uint64_t partials_sent = 0;
  std::uint64_t errors_sent = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t requests_shed = 0;      ///< answered kOverloaded
  std::uint64_t requests_draining = 0;  ///< answered kDraining
  std::uint64_t cancels_received = 0;
  // Network-edge resilience counters (PR 7).
  std::uint64_t accepts_dropped = 0;        ///< accept-edge drops (fd pressure)
  std::uint64_t partials_dropped = 0;       ///< stale PARTIALs shed by outq cap
  std::uint64_t slow_peer_disconnects = 0;  ///< write deadline expiries
  std::uint64_t idle_reaped = 0;            ///< idle connections reaped
  std::uint64_t conn_capped = 0;            ///< per-conn in-flight cap sheds
  std::uint64_t dedupe_hits = 0;            ///< idempotency-key matches
  std::uint64_t dedupe_replays = 0;         ///< cached finals replayed
};

class ServiceServer {
 public:
  /// Binds and starts listening (throws SocketError on bind failure);
  /// start() launches the accept loop.
  explicit ServiceServer(const ServiceOptions& opt);
  /// Drains (if not already drained) and tears everything down.
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Start accepting connections.
  void start();

  /// The bound TCP port (valid after construction, ephemeral or not).
  std::uint16_t port() const noexcept;
  /// The Unix-domain path ("" for TCP).
  const std::string& unix_path() const noexcept;

  /// Graceful shutdown: stop accepting, send kGoodbye to every
  /// connection, finish (or, with Options::cancel_on_drain, cancel) all
  /// in-flight requests, flush their final frames, close connections.
  /// Idempotent; safe to call from a signal-handling thread.
  void drain();

  /// True once drain() has begun: new requests are answered kDraining.
  bool draining() const noexcept;

  ServiceStats stats() const;
  EngineStats engine_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace gtpar::net
