#include "gtpar/net/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gtpar/check/faults.hpp"
#include "gtpar/engine/granularity.hpp"
#include "gtpar/net/socket.hpp"
#include "gtpar/tree/serialization.hpp"

namespace gtpar::net {

namespace {

constexpr std::uint8_t kMaxAlgorithm =
    static_cast<std::uint8_t>(Algorithm::kIterativeDeepeningAb);

/// Stage budget under geometric splitting: stage k of S gets
/// deadline * 2^k / (2^S - 1), so the stages sum to the deadline and the
/// final stage gets the most time.
std::uint64_t stage_budget_ns(std::uint64_t deadline_ns, unsigned stage,
                              unsigned total_stages) {
  if (total_stages <= 1) return deadline_ns;
  const std::uint64_t denom = (std::uint64_t{1} << total_stages) - 1;
  const std::uint64_t share =
      deadline_ns * (std::uint64_t{1} << stage) / denom;
  return std::max<std::uint64_t>(share, 1);
}

WireResult to_wire(const SearchResult& r, unsigned stage,
                   unsigned total_stages) {
  WireResult w;
  w.value = r.value;
  w.completeness = static_cast<std::uint8_t>(r.completeness);
  w.complete = r.complete;
  w.stage = stage;
  w.total_stages = total_stages;
  w.work = r.work;
  w.wall_ns = r.wall_ns;
  w.retries = r.retries;
  w.faults = r.faults;
  w.pv.assign(r.pv.begin(), r.pv.end());
  return w;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// One frame (or the unsent rest of one) awaiting its connection's writer
/// thread. Droppable frames (streamed kPartial snapshots) may be shed
/// under outbound-queue pressure; finals never are.
struct OutFrame {
  std::vector<std::uint8_t> bytes;
  bool droppable = false;
};

/// Shared per-connection state. Kept alive past reader/writer exit by the
/// request contexts of in-flight searches, so a completion callback can
/// always still try to enqueue its frame; the socket dies with the last
/// reference.
struct ConnState {
  explicit ConnState(Socket s) : sock(std::move(s)) {}

  Socket sock;

  /// Outbound queue, consumed by this connection's writer thread. A
  /// thread that produces a frame while the queue is empty and no write is
  /// in progress sends it itself with one non-blocking write_some; only
  /// what the socket does not take, and frames that find a backlog, are
  /// queued. The writer's blocking sends are the only ones, so a stalled
  /// peer can only park the writer — which the send deadline then bounds.
  std::mutex out_mu;
  std::condition_variable out_cv;
  std::deque<OutFrame> outq;
  std::size_t outq_bytes = 0;
  /// A thread (a direct sender or the writer) is sending on the socket:
  /// frames produced meanwhile queue behind it, which keeps frame order.
  bool writing = false;
  /// Latched on the first failed/timed-out send: later frames for this
  /// connection are dropped quietly.
  bool write_dead = false;
  /// No further frames accepted; the writer flushes the queue and exits.
  bool out_closing = false;
  /// Writer shuts the socket down after its final flush (bad-frame error
  /// path: the client is owed the error frame, then an EOF).
  bool close_after_flush = false;

  /// request_id -> in-flight job, for kCancel, the per-connection
  /// in-flight cap, and idle detection.
  std::mutex jobs_mu;
  std::unordered_map<std::uint64_t, SearchJob> jobs;

  std::atomic<bool> reader_done{false};
  std::atomic<bool> writer_done{false};
};

struct ServiceServer::Impl {
  ServiceOptions opt;
  Listener listener;

  std::atomic<bool> draining{false};
  bool drained = false;
  std::mutex drain_mu;

  // Service counters (ServiceStats).
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> requests_received{0};
  std::atomic<std::uint64_t> results_sent{0};
  std::atomic<std::uint64_t> partials_sent{0};
  std::atomic<std::uint64_t> errors_sent{0};
  std::atomic<std::uint64_t> bad_frames{0};
  std::atomic<std::uint64_t> requests_shed{0};
  std::atomic<std::uint64_t> requests_draining{0};
  std::atomic<std::uint64_t> cancels_received{0};
  std::atomic<std::uint64_t> partials_dropped{0};
  std::atomic<std::uint64_t> slow_peer_disconnects{0};
  std::atomic<std::uint64_t> idle_reaped{0};
  std::atomic<std::uint64_t> conn_capped{0};
  std::atomic<std::uint64_t> dedupe_hits{0};
  std::atomic<std::uint64_t> dedupe_replays{0};

  struct ConnEntry {
    std::shared_ptr<ConnState> conn;
    std::thread reader;
    std::thread writer;
  };
  std::mutex conns_mu;
  std::vector<ConnEntry> conns;

  std::thread accept_thread;

  /// Declared last so it is destroyed first: the Engine destructor joins
  /// its workers and watchdog, after which no completion callback can
  /// still be touching the members above.
  std::unique_ptr<Engine> engine;

  /// One request in flight through the engine; owns everything the
  /// completion callback needs (the tree outlives the search, the fault
  /// state outlives every leaf attempt). conn/request_id are the
  /// *delivery target* and may be retargeted by an idempotent retry on a
  /// new connection — read them under target_mu.
  struct ReqCtx {
    Impl* impl = nullptr;
    Tree tree;
    WireRequest wire;
    unsigned stage = 0;
    unsigned total_stages = 1;
    std::uint64_t idem_key = 0;
    std::unique_ptr<check::FaultState> fault_state;
    std::unique_ptr<check::FaultInjector> fault_injector;

    /// Guards the delivery target and completion latch. Lock order:
    /// target_mu before jobs_mu before dedupe_mu; never the reverse.
    std::mutex target_mu;
    std::shared_ptr<ConnState> conn;
    std::uint64_t request_id = 0;
    SearchJob cur_job;
    bool finished = false;
  };

  /// At-most-once memory for idempotent requests: while the search runs
  /// the entry points at its ReqCtx (duplicates retarget delivery); once
  /// final, the cached frame payload is replayed for dedupe_ttl_ns.
  struct DedupeEntry {
    std::shared_ptr<ReqCtx> inflight;
    bool done = false;
    bool is_error = false;
    WireResult result;
    WireError error;
    std::uint64_t expiry_ns = 0;
  };
  std::mutex dedupe_mu;
  std::unordered_map<std::uint64_t, DedupeEntry> dedupe;
  /// (key, expiry) in completion order, for TTL + size eviction.
  std::deque<std::pair<std::uint64_t, std::uint64_t>> dedupe_fifo;

  explicit Impl(const ServiceOptions& o) : opt(o) {
    const bool want_unix = !opt.unix_path.empty();
    const bool want_tcp = opt.tcp_port >= 0;
    if (want_unix == want_tcp)
      throw std::invalid_argument(
          "ServiceOptions: select exactly one of unix_path / tcp_port");
    if (opt.stream_stages == 0)
      throw std::invalid_argument("ServiceOptions: stream_stages must be >= 1");
    listener = want_unix
                   ? Listener::listen_unix(opt.unix_path)
                   : Listener::listen_tcp(
                         opt.tcp_host,
                         static_cast<std::uint16_t>(opt.tcp_port));
    engine = std::make_unique<Engine>(opt.engine);
  }

  // --- Writing. -------------------------------------------------------------

  /// Send one frame from the calling thread (reader, engine worker,
  /// watchdog or drain()). With nothing queued and no write in progress it
  /// makes one non-blocking send itself; the rest of the frame, or the
  /// whole frame when others are ahead of it, goes to the connection's
  /// writer thread. Over max_outbound_bytes the oldest queued droppable
  /// frames are shed first; a droppable frame that still does not fit is
  /// itself dropped. Finals always go out (their count is bounded by
  /// max_in_flight_per_conn). `sent_counter` (if any) is bumped under
  /// out_mu before any of the frame's bytes can reach the wire, so a client
  /// that has observed the frame is guaranteed to see the counter in a
  /// subsequent stats snapshot.
  void send_bytes(const std::shared_ptr<ConnState>& conn,
                  std::vector<std::uint8_t> bytes, bool droppable = false,
                  std::atomic<std::uint64_t>* sent_counter = nullptr) {
    std::unique_lock<std::mutex> lock(conn->out_mu);
    if (conn->write_dead || conn->out_closing) return;
    if (conn->outq_bytes + bytes.size() > opt.max_outbound_bytes) {
      for (auto it = conn->outq.begin();
           it != conn->outq.end() &&
           conn->outq_bytes + bytes.size() > opt.max_outbound_bytes;) {
        if (it->droppable) {
          conn->outq_bytes -= it->bytes.size();
          it = conn->outq.erase(it);
          partials_dropped.fetch_add(1, std::memory_order_relaxed);
        } else {
          ++it;
        }
      }
      if (droppable &&
          conn->outq_bytes + bytes.size() > opt.max_outbound_bytes) {
        partials_dropped.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
    if (sent_counter != nullptr)
      sent_counter->fetch_add(1, std::memory_order_relaxed);
    if (conn->writing || !conn->outq.empty()) {
      conn->outq_bytes += bytes.size();
      conn->outq.push_back({std::move(bytes), droppable});
      // A thread that is writing looks at the queue when it finishes.
      if (!conn->writing) conn->out_cv.notify_one();
      return;
    }
    conn->writing = true;
    lock.unlock();
    std::size_t sent = 0;
    bool failed = false;
    try {
      sent = conn->sock.write_some(bytes.data(), bytes.size());
    } catch (const SocketError&) {
      failed = true;
    }
    lock.lock();
    conn->writing = false;
    if (!failed && sent < bytes.size()) {
      // Part of this frame is on the wire: the rest goes first, and is
      // never shed.
      bytes.erase(bytes.begin(),
                  bytes.begin() + static_cast<std::ptrdiff_t>(sent));
      conn->outq_bytes += bytes.size();
      conn->outq.push_front({std::move(bytes), /*droppable=*/false});
    }
    // The writer waits while a write is in progress, so it must hear that
    // this one ended, on success and on failure alike.
    if (!conn->outq.empty() || conn->out_closing) conn->out_cv.notify_one();
    lock.unlock();
    if (failed) kill_writes(conn);
  }

  void send_error(const std::shared_ptr<ConnState>& conn,
                  std::uint64_t request_id, ErrorCode code,
                  const std::string& message) {
    send_bytes(conn, encode_error_frame(request_id, {code, message}),
               /*droppable=*/false, &errors_sent);
  }

  /// Drop the queue and the connection after a failed/timed-out send.
  void kill_writes(const std::shared_ptr<ConnState>& conn) {
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      conn->write_dead = true;
      conn->outq.clear();
      conn->outq_bytes = 0;
    }
    // Wakes the reader too: a peer that cannot be written to is gone.
    conn->sock.shutdown_both();
  }

  void writer_loop(const std::shared_ptr<ConnState>& conn) {
    bool shutdown_on_exit = false;
    for (;;) {
      OutFrame f;
      {
        std::unique_lock<std::mutex> lock(conn->out_mu);
        conn->out_cv.wait(lock, [&] {
          return !conn->writing &&
                 (!conn->outq.empty() || conn->out_closing);
        });
        if (conn->outq.empty()) {
          shutdown_on_exit = conn->close_after_flush;
          break;
        }
        f = std::move(conn->outq.front());
        conn->outq.pop_front();
        conn->outq_bytes -= f.bytes.size();
        conn->writing = true;
      }
      try {
        conn->sock.write_all(f.bytes.data(), f.bytes.size());
      } catch (const SocketTimeout&) {
        // The peer accepted a connection's worth of data and stopped
        // reading: a slow consumer must not hold buffers (or drain())
        // hostage. Disconnect it; in-flight searches finish and their
        // frames are dropped quietly.
        slow_peer_disconnects.fetch_add(1, std::memory_order_relaxed);
        kill_writes(conn);
      } catch (const SocketError&) {
        kill_writes(conn);
      }
      std::lock_guard<std::mutex> lock(conn->out_mu);
      conn->writing = false;
    }
    if (shutdown_on_exit) conn->sock.shutdown_both();
    conn->writer_done.store(true, std::memory_order_release);
  }

  /// Once the reader has exited and no request still targets this
  /// connection, tell the writer to flush and exit. Called at reader
  /// exit, final delivery, and retarget-off.
  void maybe_close_out(const std::shared_ptr<ConnState>& conn) {
    {
      std::lock_guard<std::mutex> lock(conn->jobs_mu);
      if (!conn->reader_done.load(std::memory_order_acquire) ||
          !conn->jobs.empty())
        return;
    }
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->out_closing = true;
    conn->out_cv.notify_one();
  }

  // --- Dedupe. --------------------------------------------------------------

  /// Caller holds dedupe_mu.
  void evict_dedupe_locked(std::uint64_t now) {
    while (!dedupe_fifo.empty() &&
           (dedupe_fifo.front().second <= now ||
            dedupe.size() > opt.dedupe_max_entries)) {
      const auto [key, expiry] = dedupe_fifo.front();
      dedupe_fifo.pop_front();
      auto it = dedupe.find(key);
      if (it != dedupe.end() && it->second.done &&
          it->second.expiry_ns == expiry)
        dedupe.erase(it);
    }
  }

  void replay_cached(const std::shared_ptr<ConnState>& conn,
                     std::uint64_t request_id, const DedupeEntry& e) {
    dedupe_replays.fetch_add(1, std::memory_order_relaxed);
    if (e.is_error) {
      send_error(conn, request_id, e.error.code, e.error.message);
    } else {
      send_bytes(conn,
                 encode_result_frame(FrameType::kResult, request_id, e.result),
                 /*droppable=*/false, &results_sent);
    }
  }

  // --- Request handling. ----------------------------------------------------

  void handle_request(const std::shared_ptr<ConnState>& conn,
                      std::uint64_t request_id,
                      const std::vector<std::uint8_t>& payload) {
    requests_received.fetch_add(1, std::memory_order_relaxed);
    if (draining.load(std::memory_order_acquire)) {
      requests_draining.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, ErrorCode::kDraining,
                 "server draining: request not accepted");
      return;
    }
    WireRequest wreq;
    try {
      wreq = decode_request(payload.data(), payload.size());
    } catch (const WireFormatError& e) {
      // The frame header was sound, so framing is intact: report and keep
      // the connection.
      bad_frames.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, request_id, ErrorCode::kBadFrame, e.what());
      return;
    }
    if (wreq.algorithm > kMaxAlgorithm) {
      send_error(conn, request_id, ErrorCode::kBadRequest,
                 "unknown algorithm id");
      return;
    }
    if (wreq.cost_model >
        static_cast<std::uint8_t>(LeafCostModel::kSleep)) {
      send_error(conn, request_id, ErrorCode::kBadRequest,
                 "unknown cost model");
      return;
    }
    if (wreq.stream && wreq.deadline_ns == 0) {
      send_error(conn, request_id, ErrorCode::kBadRequest,
                 "streaming requires a deadline");
      return;
    }
    if (wreq.fault_seed != 0 && !opt.allow_fault_injection) {
      send_error(conn, request_id, ErrorCode::kBadRequest,
                 "fault injection not enabled on this server");
      return;
    }
    auto ctx = std::make_shared<ReqCtx>();
    ctx->impl = this;
    ctx->conn = conn;
    ctx->request_id = request_id;
    try {
      ctx->tree = parse_tree(wreq.tree_text);
    } catch (const std::invalid_argument& e) {
      send_error(conn, request_id, ErrorCode::kBadRequest,
                 std::string("bad tree payload: ") + e.what());
      return;
    }
    ctx->wire = std::move(wreq);
    ctx->idem_key = ctx->wire.idempotency_key;
    ctx->total_stages =
        (ctx->wire.stream && opt.stream_stages > 1) ? opt.stream_stages : 1;
    if (ctx->wire.fault_seed != 0) {
      check::FaultPlan plan;
      plan.seed = ctx->wire.fault_seed;
      plan.transient_rate = ctx->wire.fault_transient_rate;
      plan.permanent_rate = ctx->wire.fault_permanent_rate;
      plan.slow_rate = ctx->wire.fault_slow_rate;
      plan.slow_ns = ctx->wire.fault_slow_ns;
      plan.flaky_attempts = ctx->wire.fault_flaky_attempts;
      plan.retry_attempts = std::max(1u, ctx->wire.retry_attempts);
      plan.retry_base_backoff_ns = ctx->wire.retry_base_backoff_ns;
      plan.retry_max_backoff_ns = ctx->wire.retry_max_backoff_ns;
      ctx->fault_state = std::make_unique<check::FaultState>(plan);
      ctx->fault_injector =
          std::make_unique<check::FaultInjector>(*ctx->fault_state);
    }

    if (ctx->idem_key != 0 && handle_duplicate(conn, request_id, ctx)) return;

    // Fairness cap, checked after dedupe so a retransmit never burns
    // cap budget on a search that is not going to run again. Requests on
    // one connection are handled serially by its reader, so the
    // check-then-insert is race-free per connection.
    if (opt.max_in_flight_per_conn != 0) {
      std::size_t in_flight;
      {
        std::lock_guard<std::mutex> lock(conn->jobs_mu);
        in_flight = conn->jobs.size();
      }
      if (in_flight >= opt.max_in_flight_per_conn) {
        conn_capped.fetch_add(1, std::memory_order_relaxed);
        send_error(conn, request_id, ErrorCode::kOverloaded,
                   "per-connection in-flight cap reached");
        return;
      }
    }
    submit_stage(std::move(ctx));
  }

  /// Idempotency-key admission: register a fresh key (returns false: the
  /// caller submits `ctx`), replay a completed one, or retarget an
  /// in-flight one to this (conn, request_id). Returns true when the
  /// request was fully handled here (the freshly built ctx is dropped).
  bool handle_duplicate(const std::shared_ptr<ConnState>& conn,
                        std::uint64_t request_id,
                        const std::shared_ptr<ReqCtx>& ctx) {
    std::shared_ptr<ReqCtx> running;
    DedupeEntry cached;
    bool have_cached = false;
    {
      std::lock_guard<std::mutex> lock(dedupe_mu);
      evict_dedupe_locked(now_ns());
      auto [it, inserted] = dedupe.try_emplace(ctx->idem_key);
      if (inserted) {
        it->second.inflight = ctx;
        return false;
      }
      dedupe_hits.fetch_add(1, std::memory_order_relaxed);
      if (it->second.done) {
        cached = it->second;  // copy out; replay after releasing dedupe_mu
        have_cached = true;
      } else {
        running = it->second.inflight;
      }
    }
    if (have_cached) {
      replay_cached(conn, request_id, cached);
      return true;
    }
    // The original is (was) still running: point its delivery at the new
    // connection. Lock order target_mu -> jobs_mu -> dedupe_mu, the same
    // as deliver_final, so the two serialise: either we retarget before
    // the final is cached (it goes to the new target) or we observe
    // finished and replay the cache.
    std::lock_guard<std::mutex> tlock(running->target_mu);
    if (!running->finished) {
      const std::shared_ptr<ConnState> old_conn = running->conn;
      const std::uint64_t old_id = running->request_id;
      running->conn = conn;
      running->request_id = request_id;
      {
        std::lock_guard<std::mutex> jlock(old_conn->jobs_mu);
        old_conn->jobs.erase(old_id);
      }
      maybe_close_out(old_conn);
      std::lock_guard<std::mutex> jlock(conn->jobs_mu);
      conn->jobs[request_id] = running->cur_job;
      return true;
    }
    // Finished between the lookup and here: the final is cached now.
    {
      std::lock_guard<std::mutex> lock(dedupe_mu);
      auto it = dedupe.find(ctx->idem_key);
      if (it != dedupe.end() && it->second.done) {
        cached = it->second;
        have_cached = true;
      }
    }
    if (have_cached) {
      replay_cached(conn, request_id, cached);
    } else {
      // Evicted in the gap (possible only with a ~zero TTL): nothing to
      // replay and nothing running — fail the retry honestly.
      send_error(conn, request_id, ErrorCode::kInternal,
                 "idempotent retry raced dedupe eviction");
    }
    return true;
  }

  /// The grain rule the cascades apply to scouts (engine/granularity.hpp),
  /// applied to a whole request: one whose estimated sequential work is
  /// below the grain costs less to search than to hand to a pool worker,
  /// so it runs on the thread that submits it. A fault plan's injected
  /// sleeps and retry backoffs are invisible to the estimate, so such
  /// requests always go to the pool.
  static bool below_grain(const ReqCtx& ctx) {
    return !ctx.fault_state &&
           ctx.tree.num_leaves() < min_spawn_leaves(default_grain_policy(),
                                                    ctx.wire.grain,
                                                    ctx.wire.leaf_cost_ns);
  }

  SearchRequest build_request(const std::shared_ptr<ReqCtx>& ctx) {
    const WireRequest& w = ctx->wire;
    SearchRequest req;
    req.tree = &ctx->tree;
    req.algorithm = static_cast<Algorithm>(w.algorithm);
    req.width = std::max(1u, w.width);
    req.threads = w.threads != 0 ? w.threads : engine->workers();
    req.leaf_cost_ns = w.leaf_cost_ns;
    req.cost_model = static_cast<LeafCostModel>(w.cost_model);
    req.grain = w.grain;
    req.seed = w.seed;
    req.depth_limit = w.depth_limit;
    req.want_pv = w.want_pv;
    req.anytime = w.anytime;
    req.limits.budget_ns =
        stage_budget_ns(w.deadline_ns, ctx->stage, ctx->total_stages);
    if (ctx->fault_state) {
      // The chaos lane: seeded faults through the real service path, with
      // the plan's transient-only retry discipline.
      check::FaultPlan plan;
      plan.retry_attempts = std::max(1u, w.retry_attempts);
      plan.retry_base_backoff_ns = w.retry_base_backoff_ns;
      plan.retry_max_backoff_ns = w.retry_max_backoff_ns;
      req.retry = plan.retry();
      req.leaf_hook = ctx->fault_injector.get();
    } else {
      req.retry.max_attempts = std::max(1u, w.retry_attempts);
      req.retry.base_backoff_ns = w.retry_base_backoff_ns;
      req.retry.max_backoff_ns = w.retry_max_backoff_ns;
    }
    return req;
  }

  /// Run one search stage: on this thread when the request is below the
  /// grain (the reader for a first stage; a stream's later stages follow
  /// on the thread that finished the one before), else on the pool.
  void submit_stage(std::shared_ptr<ReqCtx> ctx) {
    SearchRequest req = build_request(ctx);
    CompletionFn on_done = [ctx](const SearchResult* res,
                                 std::exception_ptr err) mutable {
      ctx->impl->on_stage_complete(ctx, res, err);
    };
    SearchJob job =
        below_grain(*ctx)
            ? engine->run_on_caller(std::move(req), std::move(on_done))
            : engine->submit(std::move(req), std::move(on_done));
    // Register for kCancel / the in-flight cap. The callback may already
    // have run (rejected submissions and jobs run on this thread complete
    // synchronously): finished is latched under target_mu, so a completed
    // request never leaves a stale jobs entry behind.
    std::lock_guard<std::mutex> lock(ctx->target_mu);
    if (ctx->finished) return;
    ctx->cur_job = job;
    std::lock_guard<std::mutex> jlock(ctx->conn->jobs_mu);
    ctx->conn->jobs[ctx->request_id] = job;
  }

  void on_stage_complete(const std::shared_ptr<ReqCtx>& ctx,
                         const SearchResult* res, std::exception_ptr err) {
    if (err) {
      finish_with_error(ctx, err);
      return;
    }
    const bool final_stage = ctx->stage + 1 >= ctx->total_stages;
    const WireResult wres = to_wire(*res, ctx->stage, ctx->total_stages);
    if (final_stage) {
      deliver_final(ctx, &wres, nullptr);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(ctx->target_mu);
      send_bytes(ctx->conn,
                 encode_result_frame(FrameType::kPartial, ctx->request_id,
                                     wres),
                 /*droppable=*/true, &partials_sent);
    }
    ctx->stage += 1;
    // The completion-callback chain: the next stage is submitted from the
    // previous stage's completion path, so the whole stream needs no
    // dedicated thread. Safe with shed policies that do not block the
    // submitter (kRejectNew / kCallerRuns — see tools/gtpard.cpp).
    submit_stage(ctx);
  }

  void finish_with_error(const std::shared_ptr<ReqCtx>& ctx,
                         std::exception_ptr err) {
    WireError werr;
    werr.code = ErrorCode::kInternal;
    werr.message = "unknown error";
    try {
      std::rethrow_exception(err);
    } catch (const EngineOverloadedError& e) {
      werr.code = ErrorCode::kOverloaded;
      werr.message = e.what();
      requests_shed.fetch_add(1, std::memory_order_relaxed);
    } catch (const EngineStalledError& e) {
      werr.code = ErrorCode::kStalled;
      werr.message = e.what();
    } catch (const std::invalid_argument& e) {
      werr.code = ErrorCode::kBadRequest;
      werr.message = e.what();
    } catch (const std::exception& e) {
      werr.message = e.what();
    } catch (...) {
    }
    deliver_final(ctx, nullptr, &werr);
  }

  /// Deliver a request's single final frame to its current target,
  /// caching it for idempotent replay first (under target_mu, so a
  /// concurrent duplicate either retargets before the cache exists or
  /// replays after it does — never neither).
  void deliver_final(const std::shared_ptr<ReqCtx>& ctx,
                     const WireResult* res, const WireError* werr) {
    std::shared_ptr<ConnState> target;
    std::uint64_t tid;
    {
      std::lock_guard<std::mutex> lock(ctx->target_mu);
      if (ctx->idem_key != 0) {
        std::lock_guard<std::mutex> dlock(dedupe_mu);
        auto it = dedupe.find(ctx->idem_key);
        if (it != dedupe.end()) {
          DedupeEntry& e = it->second;
          e.done = true;
          if (res) {
            e.is_error = false;
            e.result = *res;
          } else {
            e.is_error = true;
            e.error = *werr;
          }
          e.inflight.reset();
          e.expiry_ns = now_ns() + opt.dedupe_ttl_ns;
          dedupe_fifo.emplace_back(ctx->idem_key, e.expiry_ns);
        }
      }
      ctx->finished = true;
      target = ctx->conn;
      tid = ctx->request_id;
    }
    // Send the final before unregistering: maybe_close_out may close the
    // queue the moment this request stops counting as in-flight.
    if (res) {
      send_bytes(target, encode_result_frame(FrameType::kResult, tid, *res),
                 /*droppable=*/false, &results_sent);
    } else {
      send_error(target, tid, werr->code, werr->message);
    }
    {
      std::lock_guard<std::mutex> lock(target->jobs_mu);
      target->jobs.erase(tid);
    }
    maybe_close_out(target);
  }

  // --- Frame dispatch / reader loop. ----------------------------------------

  void handle_frame(const std::shared_ptr<ConnState>& conn,
                    const FrameHeader& h,
                    const std::vector<std::uint8_t>& payload) {
    switch (h.type) {
      case FrameType::kRequest:
        handle_request(conn, h.request_id, payload);
        return;
      case FrameType::kCancel: {
        cancels_received.fetch_add(1, std::memory_order_relaxed);
        SearchJob job;
        {
          std::lock_guard<std::mutex> lock(conn->jobs_mu);
          auto it = conn->jobs.find(h.request_id);
          if (it == conn->jobs.end()) return;  // already finished: no-op
          job = it->second;
        }
        job.cancel();
        return;
      }
      case FrameType::kPing:
        send_bytes(conn, encode_control_frame(FrameType::kPong, h.request_id));
        return;
      case FrameType::kStatsReq:
        send_bytes(conn, encode_stats_frame(h.request_id, wire_stats()));
        return;
      default:
        // Well-framed but server-bound-only types (kResult, kPong, ...):
        // a confused client, not a framing loss — keep the connection.
        send_error(conn, h.request_id, ErrorCode::kBadRequest,
                   std::string("unexpected frame type ") +
                       frame_type_name(h.type));
        return;
    }
  }

  /// Idle gate before each frame: wait for inbound bytes, reaping the
  /// connection if it sits idle (no in-flight requests, nothing to read)
  /// past idle_timeout_ns. Returns false when the connection was reaped.
  bool await_frame(const std::shared_ptr<ConnState>& conn) {
    if (opt.idle_timeout_ns == 0) return true;
    for (;;) {
      if (conn->sock.wait_readable(opt.idle_timeout_ns)) return true;
      bool idle;
      {
        std::lock_guard<std::mutex> lock(conn->jobs_mu);
        idle = conn->jobs.empty();
      }
      if (!idle) continue;  // quiet but waiting on results: not idle
      idle_reaped.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }

  void reader_loop(const std::shared_ptr<ConnState>& conn) {
    std::uint8_t hdr[kFrameHeaderSize];
    std::vector<std::uint8_t> payload;
    try {
      for (;;) {
        if (!await_frame(conn)) {
          // Reaped: flush anything queued, then close.
          std::lock_guard<std::mutex> lock(conn->out_mu);
          conn->out_closing = true;
          conn->close_after_flush = true;
          conn->out_cv.notify_one();
          break;
        }
        if (!conn->sock.read_exact(hdr, sizeof(hdr))) break;  // clean close
        FrameHeader h;
        try {
          h = decode_frame_header(hdr, sizeof(hdr), opt.limits);
        } catch (const WireFormatError& e) {
          // Framing is lost (bad magic / oversized length): report once
          // and close — there is no way to resynchronise a byte stream.
          bad_frames.fetch_add(1, std::memory_order_relaxed);
          const bool too_large =
              std::string(e.what()).find("exceeds limit") != std::string::npos;
          send_error(conn, 0,
                     too_large ? ErrorCode::kFrameTooLarge
                               : ErrorCode::kBadFrame,
                     e.what());
          // The client is owed the error frame and then an EOF; late
          // completion frames for this connection are refused at the
          // queue (out_closing), not written into a dead stream.
          {
            std::lock_guard<std::mutex> lock(conn->out_mu);
            conn->out_closing = true;
            conn->close_after_flush = true;
            conn->out_cv.notify_one();
          }
          break;
        }
        payload.resize(h.payload_len);
        if (h.payload_len != 0 &&
            !conn->sock.read_exact(payload.data(), h.payload_len))
          break;  // clean close between header and payload
        handle_frame(conn, h, payload);
      }
    } catch (const SocketError&) {
      // Connection died (reset, mid-frame close). In-flight searches keep
      // running; their frames fail to send and are dropped.
    }
    conn->reader_done.store(true, std::memory_order_release);
    maybe_close_out(conn);
  }

  void accept_loop() {
    for (;;) {
      Socket s = listener.accept();
      if (!s.valid() || draining.load(std::memory_order_acquire)) break;
      connections_accepted.fetch_add(1, std::memory_order_relaxed);
      if (opt.write_deadline_ns > 0)
        s.set_send_timeout_ns(opt.write_deadline_ns);
      auto conn = std::make_shared<ConnState>(std::move(s));
      std::lock_guard<std::mutex> lock(conns_mu);
      reap_locked();
      ConnEntry entry;
      entry.conn = conn;
      entry.reader = std::thread([this, conn] { reader_loop(conn); });
      entry.writer = std::thread([this, conn] { writer_loop(conn); });
      conns.push_back(std::move(entry));
    }
  }

  /// Join and drop connections whose reader and writer have both exited.
  /// Caller holds conns_mu.
  void reap_locked() {
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->conn->reader_done.load(std::memory_order_acquire) &&
          it->conn->writer_done.load(std::memory_order_acquire)) {
        if (it->reader.joinable()) it->reader.join();
        if (it->writer.joinable()) it->writer.join();
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
  }

  WireStats wire_stats() {
    WireStats w;
    w.connections_accepted =
        connections_accepted.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(conns_mu);
      for (const auto& e : conns)
        if (!e.conn->reader_done.load(std::memory_order_acquire))
          w.connections_active += 1;
    }
    w.requests_received = requests_received.load(std::memory_order_relaxed);
    w.results_sent = results_sent.load(std::memory_order_relaxed);
    w.partials_sent = partials_sent.load(std::memory_order_relaxed);
    w.errors_sent = errors_sent.load(std::memory_order_relaxed);
    w.bad_frames = bad_frames.load(std::memory_order_relaxed);
    w.requests_shed = requests_shed.load(std::memory_order_relaxed);
    w.requests_draining = requests_draining.load(std::memory_order_relaxed);
    w.cancels_received = cancels_received.load(std::memory_order_relaxed);
    w.accepts_dropped = listener.accepts_dropped();
    w.partials_dropped = partials_dropped.load(std::memory_order_relaxed);
    w.slow_peer_disconnects =
        slow_peer_disconnects.load(std::memory_order_relaxed);
    w.idle_reaped = idle_reaped.load(std::memory_order_relaxed);
    w.conn_capped = conn_capped.load(std::memory_order_relaxed);
    w.dedupe_hits = dedupe_hits.load(std::memory_order_relaxed);
    w.dedupe_replays = dedupe_replays.load(std::memory_order_relaxed);
    return w;
  }
};

ServiceServer::ServiceServer(const ServiceOptions& opt)
    : impl_(std::make_unique<Impl>(opt)) {}

ServiceServer::~ServiceServer() {
  drain();
  // Impl destruction: the Engine (declared last) goes first, joining its
  // workers and watchdog, so no completion callback outlives the rest.
}

void ServiceServer::start() {
  impl_->accept_thread = std::thread([impl = impl_.get()] {
    impl->accept_loop();
  });
}

std::uint16_t ServiceServer::port() const noexcept {
  return impl_->listener.port();
}

const std::string& ServiceServer::unix_path() const noexcept {
  return impl_->listener.path();
}

bool ServiceServer::draining() const noexcept {
  return impl_->draining.load(std::memory_order_acquire);
}

void ServiceServer::drain() {
  Impl* impl = impl_.get();
  std::lock_guard<std::mutex> lock(impl->drain_mu);
  if (impl->drained) return;
  // 1. Stop accepting: wake the accept loop, then close the listening
  //    socket so new connects are refused (not parked in the backlog).
  impl->draining.store(true, std::memory_order_release);
  impl->listener.interrupt();
  if (impl->accept_thread.joinable()) impl->accept_thread.join();
  impl->listener.close_all();
  // 2. Tell every client, then stop reading: readers wake on the read
  //    shutdown, so no new requests can enter the engine after this.
  {
    std::lock_guard<std::mutex> clock(impl->conns_mu);
    for (auto& e : impl->conns) {
      impl->send_bytes(e.conn, encode_control_frame(FrameType::kGoodbye, 0));
      e.conn->sock.shutdown_read();
    }
  }
  {
    std::lock_guard<std::mutex> clock(impl->conns_mu);
    for (auto& e : impl->conns)
      if (e.reader.joinable()) e.reader.join();
  }
  // 3. Finish or cancel in-flight searches. Cancelled searches still
  //    publish anytime results, so every accepted request gets its final
  //    frame (the engine invokes completion callbacks before drain()
  //    returns — CompletionFn guarantee 3).
  if (impl->opt.cancel_on_drain) impl->engine->cancel_all();
  impl->engine->drain();
  // 4. Flush and stop every writer (finals above are written or queued
  //    by now; a stalled peer is bounded by the write deadline), then
  //    close.
  {
    std::lock_guard<std::mutex> clock(impl->conns_mu);
    for (auto& e : impl->conns) {
      std::lock_guard<std::mutex> olock(e.conn->out_mu);
      e.conn->out_closing = true;
      e.conn->out_cv.notify_one();
    }
    for (auto& e : impl->conns)
      if (e.writer.joinable()) e.writer.join();
    impl->conns.clear();
  }
  impl->drained = true;
}

ServiceStats ServiceServer::stats() const {
  const WireStats w = impl_->wire_stats();
  ServiceStats s;
  s.connections_accepted = w.connections_accepted;
  s.connections_active = w.connections_active;
  s.requests_received = w.requests_received;
  s.results_sent = w.results_sent;
  s.partials_sent = w.partials_sent;
  s.errors_sent = w.errors_sent;
  s.bad_frames = w.bad_frames;
  s.requests_shed = w.requests_shed;
  s.requests_draining = w.requests_draining;
  s.cancels_received = w.cancels_received;
  s.accepts_dropped = w.accepts_dropped;
  s.partials_dropped = w.partials_dropped;
  s.slow_peer_disconnects = w.slow_peer_disconnects;
  s.idle_reaped = w.idle_reaped;
  s.conn_capped = w.conn_capped;
  s.dedupe_hits = w.dedupe_hits;
  s.dedupe_replays = w.dedupe_replays;
  return s;
}

EngineStats ServiceServer::engine_stats() const {
  return impl_->engine->stats();
}

}  // namespace gtpar::net
