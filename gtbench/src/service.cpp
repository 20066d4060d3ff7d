// service: the gtpard server core over a local socket. Two connections,
// each with its own client thread, run a closed loop (gtpard's callers
// wait for each answer) of small-tree requests with no deadline and no
// streaming, so every answer is exact and the wire codecs, the
// s-expression parse, the server's reader and writer threads and the
// socket carry the time. The searches are the flat batch kernels, which
// keep no table between requests, so an answer never depends on which
// requests came before it.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "gtpar/net/client.hpp"
#include "gtpar/net/server.hpp"
#include "gtpar/tree/generators.hpp"
#include "gtpar/tree/serialization.hpp"
#include "reference.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace gtbench {

namespace {

using gtpar::Algorithm;
namespace net = gtpar::net;

constexpr unsigned kConnections = 2;
// Per connection and round: distinct trees, alternating NOR and MIN/MAX.
// Most are small, B(2,9) NOR (512 leaves) and M(4,4) MIN/MAX (256
// leaves); one in kLargeEvery is large, B(2,12) or M(4,6) (4096 leaves).
// The large ones are 3% of requests, so the p99 latency falls inside
// their cost, where the distribution is dense, rather than in the sparse
// tail of the small ones.
constexpr std::size_t kRoundRequests = 64;
constexpr std::size_t kLargeEvery = 32;

struct Request {
  net::WireRequest wire;
  gtpar::Value expected;
};

struct Connection {
  std::vector<Request> requests;
  std::vector<net::WireResult> first_answers;  // the first round's, in order
  std::vector<double> latency_ns;              // every answered op
  std::vector<double> server_search_us;        // every answered op, traced
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
};

std::vector<Request> make_requests(std::uint64_t seed, unsigned conn) {
  std::vector<Request> reqs;
  for (std::size_t i = 0; i < kRoundRequests; ++i) {
    const std::uint64_t s = gtpar::hash_combine(gtpar::hash_combine(seed, conn), i);
    const bool nor = i % 2 == 0;
    const bool large = i % kLargeEvery == kLargeEvery - 1 - conn % 2;
    const gtpar::Tree t =
        nor ? gtpar::make_uniform_iid_nor(2, large ? 12 : 9, gtpar::golden_bias(), s)
            : gtpar::make_uniform_iid_minimax(4, large ? 6 : 4, -1000, 1000, s);
    Request r;
    r.wire.algorithm = static_cast<std::uint8_t>(
        nor ? Algorithm::kFlatSolveBatch : Algorithm::kFlatAbBatch);
    r.wire.tree_text = gtpar::to_string(t);
    {
      setup_clock::Exclude reference;
      r.expected = nor ? ref_solve(t).value : ref_alphabeta(t).value;
    }
    reqs.push_back(std::move(r));
  }
  return reqs;
}

// Rounds are shared: a round ends when every connection has sent all its
// requests once, and the last client to finish closes it.
struct Rounds {
  struct Close {
    Rounds* r;
    void operator()() noexcept {
      r->more.store(r->phase.next_round(r->done.exchange(0)));
    }
  };
  explicit Rounds(TimedPhase& p) : phase(p), sync(kConnections, Close{this}) {}
  Rounds(const Rounds&) = delete;
  Rounds& operator=(const Rounds&) = delete;

  TimedPhase& phase;
  std::atomic<std::uint64_t> done{0};  // ops completed in the current round
  std::atomic<bool> more{true};
  std::barrier<Close> sync;
};

// One client thread: whole rounds of its requests, one at a time.
void client_loop(net::ServiceClient& client, Connection& c, Rounds& rounds,
                 std::uint64_t op_base) {
  std::uint64_t op = op_base;
  do {
    for (const Request& req : c.requests) {
      const std::uint64_t t0 = now_ns();
      ++c.sent;
      net::CallResult r;
      try {
        r = client.call(req.wire);
      } catch (const std::exception&) {
        r = net::CallResult{};
      }
      const std::uint64_t t1 = now_ns();
      if (!r.ok()) {
        ++c.failed;
        continue;
      }
      const net::WireResult& res = *r.result;
      c.latency_ns.push_back(static_cast<double>(t1 - t0));
      const bool exact = static_cast<gtpar::Completeness>(res.completeness) ==
                         gtpar::Completeness::kExact;
      if (std::string why = check_root(res.complete && exact, res.value, req.expected);
          !why.empty() && c.errors.size() < 5)
        c.errors.push_back("service request " + std::to_string(op) + ": " + why);
      if (c.first_answers.size() < c.requests.size()) c.first_answers.push_back(res);
      if (trace::enabled()) {
        const std::uint64_t id = trace::record("service.op", t0, t1, 0, op);
        // The server reports only how long its search took, not when it
        // ran: the span has the true length, centred in the round trip.
        const std::uint64_t w = std::min(res.wall_ns, t1 - t0);
        const std::uint64_t s0 = t0 + (t1 - t0 - w) / 2;
        trace::record("net.server_search", s0, s0 + w, id, op);
        c.server_search_us.push_back(static_cast<double>(res.wall_ns) * 1e-3);
      }
      rounds.done.fetch_add(1);
      ++op;
    }
    rounds.sync.arrive_and_wait();
  } while (rounds.more.load());
}

net::WireStats server_stats(net::ServiceClient& client) {
  client.send_stats_request(1);
  const auto f = client.read_frame();
  if (!f || f->header.type != net::FrameType::kStats)
    throw std::runtime_error("service: no STATS frame");
  return net::decode_stats(f->payload.data(), f->payload.size());
}

// Wire and tree codec costs on this run's own request texts and answers,
// timed one call at a time on the main thread.
void add_codec_layers(const std::vector<Connection>& conns, Outcome& out) {
  double parse_ns = 0, encode_ns = 0, decode_ns = 0, text = 0, bytes = 0, n = 0;
  for (const Connection& c : conns) {
    for (std::size_t i = 0; i < c.first_answers.size(); ++i) {
      const net::WireRequest& w = c.requests[i].wire;
      std::uint64_t t0 = now_ns();
      const gtpar::Tree t = gtpar::parse_tree(w.tree_text);
      std::uint64_t t1 = now_ns();
      trace::record("tree.parse", t0, t1, 0, i);
      parse_ns += static_cast<double>(t1 - t0);
      t0 = now_ns();
      const std::vector<std::uint8_t> frame = net::encode_request_frame(i + 1, w);
      t1 = now_ns();
      trace::record("wire.encode_request", t0, t1, 0, i);
      encode_ns += static_cast<double>(t1 - t0);
      const std::vector<std::uint8_t> result = net::encode_result(c.first_answers[i]);
      t0 = now_ns();
      const net::WireResult back = net::decode_result(result.data(), result.size());
      t1 = now_ns();
      trace::record("wire.decode_result", t0, t1, 0, i);
      decode_ns += static_cast<double>(t1 - t0);
      if (back.value != c.first_answers[i].value || t.num_leaves() == 0)
        out.wrong_answer("service: codec round trip changed request " +
                         std::to_string(i));
      text += static_cast<double>(w.tree_text.size());
      bytes += static_cast<double>(frame.size() + net::kFrameHeaderSize + result.size());
      n += 1;
    }
  }
  out.layers["tree.parse_us_per_op"] = {parse_ns * 1e-3 / n, "us"};
  out.layers["tree.text_bytes_per_op"] = {text / n, "bytes"};
  out.layers["wire.encode_us_per_op"] = {encode_ns * 1e-3 / n, "us"};
  out.layers["wire.decode_us_per_op"] = {decode_ns * 1e-3 / n, "us"};
  out.layers["wire.bytes_per_op"] = {bytes / n, "bytes"};
}

}  // namespace

Outcome run_service(const RunOptions& opt) {
  Outcome out;
  std::vector<Connection> conns(kConnections);
  for (unsigned k = 0; k < kConnections; ++k) {
    conns[k].requests = make_requests(opt.seed, k);
    reserve_per_op(conns[k].latency_ns, opt);
  }

  net::ServiceOptions so;
  so.tcp_port = 0;  // ephemeral, loopback
  // The client threads take kConnections of the online CPUs, the engine
  // the rest (RunOptions::workers is online CPUs minus one).
  so.engine.workers = std::max(1u, opt.workers + 1 - kConnections);
  net::ServiceServer server(so);
  server.start();
  std::vector<net::ServiceClient> clients;
  for (unsigned k = 0; k < kConnections; ++k)
    clients.push_back(net::ServiceClient::connect_tcp("127.0.0.1", server.port()));
  const gtpar::EngineStats before = server.engine_stats();

  TimedPhase phase(opt);
  Rounds rounds(phase);
  phase.start();
  {
    std::vector<std::thread> threads;
    for (unsigned k = 0; k < kConnections; ++k)
      threads.emplace_back(client_loop, std::ref(clients[k]), std::ref(conns[k]),
                           std::ref(rounds), std::uint64_t{k} << 40);
    for (std::thread& t : threads) t.join();
  }
  phase.stop(out);

  std::uint64_t sent = 0, answered = 0;
  for (const Connection& c : conns) {
    sent += c.sent;
    answered += c.latency_ns.size();  // one latency per answered request
    out.attempted += c.sent;
    out.failed += c.failed;
    for (const std::string& e : c.errors) out.wrong_answer(e);
  }
  // Connection by connection, each in completion order (the reserve
  // leaves room for both).
  out.latency_ns = std::move(conns[0].latency_ns);
  std::vector<double> search_us = std::move(conns[0].server_search_us);
  for (std::size_t k = 1; k < conns.size(); ++k) {
    out.latency_ns.insert(out.latency_ns.end(), conns[k].latency_ns.begin(),
                          conns[k].latency_ns.end());
    search_us.insert(search_us.end(), conns[k].server_search_us.begin(),
                     conns[k].server_search_us.end());
  }
  const net::WireStats ws = server_stats(clients[0]);
  if (std::string why = check_service_counts(sent, answered, ws.requests_received,
                                             ws.results_sent);
      !why.empty())
    out.wrong_answer("service: " + why);

  if (trace::enabled()) {
    add_engine_layers(before, server.engine_stats(), out.attempted, 0, out.layers);
    add_codec_layers(conns, out);
    out.spans = trace::take();
    std::vector<double> overhead;
    for (std::size_t i = 0; i < search_us.size(); ++i)
      overhead.push_back(out.latency_ns[i] * 1e-3 - search_us[i]);
    out.layers["net.server_search_us_p50"] = {percentile(search_us, 50), "us"};
    out.layers["net.overhead_us_p50"] = {percentile(overhead, 50), "us"};
    out.layers["net.overhead_us_p99"] = {percentile(overhead, 99), "us"};
  }
  for (net::ServiceClient& c : clients) c.close();
  server.drain();
  return out;
}

}  // namespace gtbench
