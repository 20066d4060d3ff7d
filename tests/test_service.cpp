// End-to-end service tests: a real ServiceServer in-process on loopback
// sockets, driven by real ServiceClients over TCP (ephemeral port) and
// Unix-domain sockets. Sampled responses are checked against the
// differential oracle (check/oracle.hpp) and ground truth (values.hpp);
// the service-level contracts under test are the ones docs/SERVICE.md
// promises: overload shows up as kOverloaded frames (not hangs), tight
// deadlines as degraded-but-sound anytime answers with streamed partials,
// malformed payloads as kBadRequest on a connection that stays usable,
// and drain as every in-flight request still getting its final frame.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gtpar/check/oracle.hpp"
#include "gtpar/engine/granularity.hpp"
#include "gtpar/net/client.hpp"
#include "gtpar/net/server.hpp"
#include "gtpar/tree/generators.hpp"
#include "gtpar/tree/serialization.hpp"
#include "gtpar/tree/values.hpp"

namespace gtpar::net {
namespace {

ServiceOptions tcp_options() {
  ServiceOptions opt;
  opt.tcp_port = 0;  // ephemeral
  opt.engine.workers = 4;
  return opt;
}

WireRequest nor_request(const Tree& t, Algorithm alg = Algorithm::kFlatSolve) {
  WireRequest req;
  req.algorithm = static_cast<std::uint8_t>(alg);
  req.tree_text = to_string(t);
  return req;
}

WireRequest minimax_request(const Tree& t,
                            Algorithm alg = Algorithm::kFlatAb) {
  WireRequest req;
  req.algorithm = static_cast<std::uint8_t>(alg);
  req.tree_text = to_string(t);
  return req;
}

// --- Basic request/response on both socket families. ------------------------

TEST(Service, SolveOverLoopbackTcp) {
  ServiceServer server(tcp_options());
  server.start();
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());

  const Tree t = make_uniform_iid_nor(2, 4, 0.618, 7);
  const auto r = client.call(nor_request(t));
  ASSERT_TRUE(r.ok()) << (r.error ? r.error->message : "no frame");
  EXPECT_EQ(r.result->value, nor_value(t) ? 1 : 0);
  EXPECT_EQ(static_cast<Completeness>(r.result->completeness),
            Completeness::kExact);
  EXPECT_TRUE(r.result->complete);
}

TEST(Service, AlphaBetaOverUnixSocket) {
  ServiceOptions opt;
  opt.unix_path = ::testing::TempDir() + "gtpard_test.sock";
  opt.engine.workers = 4;
  ServiceServer server(opt);
  server.start();
  auto client = ServiceClient::connect_unix(server.unix_path());

  const Tree t = make_uniform_iid_minimax(3, 3, -50, 50, 11);
  const auto r = client.call(minimax_request(t, Algorithm::kMtParallelAb));
  ASSERT_TRUE(r.ok()) << (r.error ? r.error->message : "no frame");
  EXPECT_EQ(r.result->value, minimax_value(t));
}

// Every explicit-tree algorithm the wire accepts answers with the true
// root value over the socket.
TEST(Service, ManyAlgorithmsAgreeWithGroundTruth) {
  ServiceServer server(tcp_options());
  server.start();
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());

  const Tree nor = make_uniform_iid_nor(2, 5, 0.618, 3);
  const bool nor_truth = nor_value(nor);
  for (Algorithm alg :
       {Algorithm::kSequentialSolve, Algorithm::kParallelSolve,
        Algorithm::kMtSequentialSolve, Algorithm::kMtParallelSolve,
        Algorithm::kFlatSolve}) {
    auto req = nor_request(nor, alg);
    req.width = 2;
    const auto r = client.call(req);
    ASSERT_TRUE(r.ok()) << algorithm_name(alg);
    EXPECT_EQ(r.result->value, nor_truth ? 1 : 0) << algorithm_name(alg);
  }

  const Tree mm = make_uniform_iid_minimax(2, 6, -100, 100, 5);
  const Value mm_truth = minimax_value(mm);
  for (Algorithm alg :
       {Algorithm::kMinimax, Algorithm::kAlphaBeta, Algorithm::kScout,
        Algorithm::kSss, Algorithm::kMtSequentialAb, Algorithm::kMtParallelAb,
        Algorithm::kFlatAb}) {
    auto req = minimax_request(mm, alg);
    req.width = 2;
    const auto r = client.call(req);
    ASSERT_TRUE(r.ok()) << algorithm_name(alg);
    EXPECT_EQ(r.result->value, mm_truth) << algorithm_name(alg);
  }
}

// --- Differential oracle over the wire. -------------------------------------

// Sampled service responses must match what the full differential oracle
// (every registered algorithm + invariants) says the tree is worth.
TEST(Service, ResponsesMatchDifferentialOracle) {
  ServiceServer server(tcp_options());
  server.start();
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Tree t = make_uniform_iid_nor(2, 4, 0.618, seed);
    const auto report = check::check_nor_tree(t);
    ASSERT_TRUE(report.ok()) << report.summary();
    const auto r = client.call(nor_request(t, Algorithm::kMtParallelSolve));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.result->value, report.expected) << "seed " << seed;
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Tree t = make_uniform_iid_minimax(2, 4, -25, 25, seed);
    const auto report = check::check_minimax_tree(t);
    ASSERT_TRUE(report.ok()) << report.summary();
    const auto r = client.call(minimax_request(t, Algorithm::kMtParallelAb));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.result->value, report.expected) << "seed " << seed;
  }
}

// --- Concurrency. -----------------------------------------------------------

// Many clients, many requests each, all answers correct: the per-request
// completion-callback path must never cross wires between connections.
TEST(Service, ConcurrentClientsGetTheirOwnAnswers) {
  ServiceServer server(tcp_options());
  server.start();

  constexpr int kClients = 8;
  constexpr int kRequestsEach = 12;
  std::vector<Tree> trees;
  std::vector<Value> truths;
  for (int i = 0; i < kClients; ++i) {
    trees.push_back(
        make_uniform_iid_minimax(2, 4, -100, 100, 100 + std::uint64_t(i)));
    truths.push_back(minimax_value(trees.back()));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      try {
        auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());
        for (int k = 0; k < kRequestsEach; ++k) {
          const auto r =
              client.call(minimax_request(trees[i], Algorithm::kMtParallelAb));
          if (!r.ok() || r.result->value != truths[i]) failures.fetch_add(1);
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().results_sent,
            std::uint64_t(kClients) * kRequestsEach);
}

// Pipelined requests on ONE connection: distinct request_ids, answers
// correlate correctly even when completions land out of order.
TEST(Service, PipelinedRequestsCorrelateByRequestId) {
  ServiceServer server(tcp_options());
  server.start();
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());

  constexpr int kBatch = 16;
  std::vector<Tree> trees;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kBatch; ++i) {
    trees.push_back(
        make_uniform_iid_minimax(2, 4, -100, 100, 500 + std::uint64_t(i)));
    ids.push_back(
        client.send_request(minimax_request(trees[i], Algorithm::kFlatAb)));
  }
  int answered = 0;
  while (answered < kBatch) {
    auto f = client.read_frame();
    ASSERT_TRUE(f.has_value());
    if (f->header.type != FrameType::kResult) continue;
    const auto res = decode_result(f->payload.data(), f->payload.size());
    // Find which request this id belongs to; its value must match THAT
    // tree's ground truth.
    bool found = false;
    for (int i = 0; i < kBatch; ++i) {
      if (ids[i] == f->header.request_id) {
        EXPECT_EQ(res.value, minimax_value(trees[i])) << "request " << i;
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "result for unknown id " << f->header.request_id;
    answered += 1;
  }
}

// --- Where a request runs. --------------------------------------------------

// A request below the grain is searched on its connection's reader thread:
// the engine admits and counts it, but no task enters the scheduler.
TEST(Service, SubGrainRequestRunsOnTheReaderThread) {
  ServiceServer server(tcp_options());
  server.start();
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());

  const Tree t = make_uniform_iid_nor(2, 6, 0.618, 31);
  ASSERT_LT(t.num_leaves(), min_spawn_leaves(default_grain_policy(), 0, 0));
  const EngineStats before = server.engine_stats();
  const auto r = client.call(nor_request(t, Algorithm::kFlatSolveBatch));
  ASSERT_TRUE(r.ok()) << (r.error ? r.error->message : "no frame");
  EXPECT_EQ(r.result->value, nor_value(t) ? 1 : 0);

  const EngineStats after = server.engine_stats();
  EXPECT_EQ(after.submitted, before.submitted + 1);
  EXPECT_EQ(after.completed, before.completed + 1);
  EXPECT_EQ(after.ran_on_caller, before.ran_on_caller + 1);
  EXPECT_EQ(after.scheduler.injected, before.scheduler.injected);
}

// Sleep-cost leaves put the same kind of request above the grain: it is
// still handed to the pool.
TEST(Service, AboveGrainSleepRequestIsStillInjected) {
  ServiceServer server(tcp_options());
  server.start();
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());

  const Tree t = make_uniform_iid_nor(2, 5, 0.618, 37);
  WireRequest req = nor_request(t, Algorithm::kMtSequentialSolve);
  req.leaf_cost_ns = 300'000;
  req.cost_model = 1;  // kSleep
  ASSERT_GE(t.num_leaves(), min_spawn_leaves(default_grain_policy(), req.grain,
                                             req.leaf_cost_ns));
  const EngineStats before = server.engine_stats();
  const auto r = client.call(req);
  ASSERT_TRUE(r.ok()) << (r.error ? r.error->message : "no frame");
  EXPECT_EQ(r.result->value, nor_value(t) ? 1 : 0);

  const EngineStats after = server.engine_stats();
  EXPECT_EQ(after.submitted, before.submitted + 1);
  EXPECT_EQ(after.ran_on_caller, before.ran_on_caller);
  EXPECT_EQ(after.scheduler.injected, before.scheduler.injected + 1);
}

// A client that pipelines more sub-grain requests than the socket buffers
// hold before it reads anything: the reader's direct sends fill the
// socket, the rest backs up in the writer's queue, and later frames race
// that backlog. Every frame must still arrive whole and decode, and
// every request must get exactly one correct final.
TEST(Service, PipelinedFloodPastTheSocketBufferKeepsFramesWhole) {
  ServiceOptions opt;
  opt.unix_path = ::testing::TempDir() + "gtpard_flood.sock";
  opt.engine.workers = 2;
  opt.write_deadline_ns = 60'000'000'000;  // the client reads only at the end
  ServiceServer server(opt);
  server.start();
  auto client = ServiceClient::connect_unix(server.unix_path());

  std::vector<Tree> trees;
  for (int i = 0; i < 8; ++i)
    trees.push_back(make_uniform_iid_minimax(2, 4, -100, 100, 700 + i));
  // About 60 B per result frame: 6000 of them are well past the default
  // Unix-socket send and receive buffers.
  constexpr int kRequests = 6000;
  std::unordered_map<std::uint64_t, Value> expected;
  for (int i = 0; i < kRequests; ++i) {
    const Tree& t = trees[static_cast<std::size_t>(i) % trees.size()];
    WireRequest req = minimax_request(t, Algorithm::kFlatAbBatch);
    req.want_pv = true;
    expected[client.send_request(req)] = minimax_value(t);
  }

  std::unordered_map<std::uint64_t, int> finals;
  int wrong = 0;
  for (int i = 0; i < kRequests; ++i) {
    auto f = client.read_frame();
    ASSERT_TRUE(f.has_value()) << "connection closed after " << i << " frames";
    ASSERT_EQ(f->header.type, FrameType::kResult) << "frame " << i;
    const auto res = decode_result(f->payload.data(), f->payload.size());
    const auto it = expected.find(f->header.request_id);
    ASSERT_NE(it, expected.end()) << "unknown id " << f->header.request_id;
    if (res.value != it->second) wrong += 1;
    finals[f->header.request_id] += 1;
  }
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(finals.size(), expected.size());
  for (const auto& [id, n] : finals) EXPECT_EQ(n, 1) << "request " << id;
  EXPECT_EQ(server.stats().results_sent, std::uint64_t(kRequests));
  EXPECT_EQ(server.stats().slow_peer_disconnects, 0u);
}

// --- Overload shedding. -----------------------------------------------------
// --- Overload shedding. -----------------------------------------------------

TEST(Service, OverloadShedsWithStructuredErrors) {
  ServiceOptions opt = tcp_options();
  opt.engine.workers = 1;
  opt.engine.max_in_flight = 1;
  opt.engine.shed = ShedPolicy::kRejectNew;
  ServiceServer server(opt);
  server.start();
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());

  // Slow searches (sleep leaves) fired back-to-back: with one slot, most
  // must come back kOverloaded; every accepted one must be correct.
  const Tree t = make_uniform_iid_nor(2, 5, 0.618, 17);
  WireRequest req = nor_request(t, Algorithm::kMtSequentialSolve);
  req.leaf_cost_ns = 300'000;  // ~0.3ms x 32 leaves
  req.cost_model = 1;          // kSleep

  constexpr int kBatch = 12;
  for (int i = 0; i < kBatch; ++i) client.send_request(req);

  int ok = 0, shed = 0;
  for (int i = 0; i < kBatch; ++i) {
    auto f = client.read_frame();
    ASSERT_TRUE(f.has_value());
    if (f->header.type == FrameType::kResult) {
      const auto res = decode_result(f->payload.data(), f->payload.size());
      EXPECT_EQ(res.value, nor_value(t) ? 1 : 0);
      ok += 1;
    } else if (f->header.type == FrameType::kError) {
      const auto err = decode_error(f->payload.data(), f->payload.size());
      EXPECT_EQ(err.code, ErrorCode::kOverloaded) << err.message;
      shed += 1;
    }
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(ok + shed, kBatch);
  EXPECT_EQ(server.stats().requests_shed, std::uint64_t(shed));
}

// --- Deadlines, anytime results, streaming. ---------------------------------

TEST(Service, TightDeadlineDegradesButStaysSound) {
  ServiceServer server(tcp_options());
  server.start();
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());

  // A tree whose full evaluation (sleep leaves) far exceeds the deadline:
  // the response must arrive anyway, with a sound (possibly partial)
  // claim — never a wrong exact value, never a hang.
  const Tree t = make_uniform_iid_minimax(2, 8, -100, 100, 23);
  const Value truth = minimax_value(t);
  WireRequest req = minimax_request(t, Algorithm::kMtParallelAb);
  req.width = 2;
  req.leaf_cost_ns = 1'000'000;  // 1ms x 256 leaves >> 10ms deadline
  req.cost_model = 1;
  req.deadline_ns = 10'000'000;

  const auto r = client.call(req);
  ASSERT_TRUE(r.ok()) << (r.error ? r.error->message : "no frame");
  switch (static_cast<Completeness>(r.result->completeness)) {
    case Completeness::kExact:
      EXPECT_EQ(r.result->value, truth);
      break;
    case Completeness::kLowerBound:
      EXPECT_LE(r.result->value, truth);
      break;
    case Completeness::kUpperBound:
      EXPECT_GE(r.result->value, truth);
      break;
    case Completeness::kFailed:
      break;  // no claim to check
  }
}

TEST(Service, StreamingSendsPartialsThenFinal) {
  ServiceOptions opt = tcp_options();
  opt.stream_stages = 3;
  ServiceServer server(opt);
  server.start();
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());

  const Tree t = make_uniform_iid_minimax(2, 8, -100, 100, 29);
  const Value truth = minimax_value(t);
  WireRequest req = minimax_request(t, Algorithm::kMtParallelAb);
  req.width = 2;
  req.stream = true;
  req.leaf_cost_ns = 500'000;
  req.cost_model = 1;
  req.deadline_ns = 30'000'000;

  const auto r = client.call(req);
  ASSERT_TRUE(r.ok()) << (r.error ? r.error->message : "no frame");
  // One kPartial per non-final stage, in stage order, then the final.
  ASSERT_EQ(r.partials.size(), 2u);
  for (std::size_t i = 0; i < r.partials.size(); ++i) {
    EXPECT_EQ(r.partials[i].stage, i);
    EXPECT_EQ(r.partials[i].total_stages, 3u);
  }
  EXPECT_EQ(r.result->stage, 2u);
  EXPECT_EQ(r.result->total_stages, 3u);
  // Every snapshot (partial or final) must be sound against ground truth.
  auto check_sound = [&](const WireResult& res) {
    switch (static_cast<Completeness>(res.completeness)) {
      case Completeness::kExact:
        EXPECT_EQ(res.value, truth);
        break;
      case Completeness::kLowerBound:
        EXPECT_LE(res.value, truth);
        break;
      case Completeness::kUpperBound:
        EXPECT_GE(res.value, truth);
        break;
      case Completeness::kFailed:
        break;
    }
  };
  for (const auto& p : r.partials) check_sound(p);
  check_sound(*r.result);
  EXPECT_EQ(server.stats().partials_sent, 2u);
}

TEST(Service, StreamWithoutDeadlineIsBadRequest) {
  ServiceServer server(tcp_options());
  server.start();
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());

  const Tree t = make_uniform_iid_nor(2, 3, 0.618, 1);
  WireRequest req = nor_request(t);
  req.stream = true;  // no deadline: nothing to split into stages
  const auto r = client.call(req);
  ASSERT_FALSE(r.ok());
  ASSERT_TRUE(r.error.has_value());
  EXPECT_EQ(r.error->code, ErrorCode::kBadRequest);
}

// --- Malformed input at the service boundary. -------------------------------

TEST(Service, BadPayloadKeepsConnectionUsable) {
  ServiceServer server(tcp_options());
  server.start();
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());

  // Sound frame, nonsense request: unknown algorithm.
  const Tree t = make_uniform_iid_nor(2, 3, 0.618, 2);
  WireRequest bad = nor_request(t);
  bad.algorithm = 0xee;
  const auto r1 = client.call(bad);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.error->code, ErrorCode::kBadRequest);

  // Unparseable tree text, same story. So is text nested past the parse
  // cap: a 1M-deep frame (2,000,001 bytes) would overflow a recursive
  // parser's stack on the reader thread, and a 100k-deep chain would
  // overflow SCOUT's recursion in the search.
  const auto nest = [](std::size_t depth) {
    return std::string(depth, '(') + "1" + std::string(depth, ')');
  };
  WireRequest bad_tree = nor_request(t);
  bad_tree.tree_text = "(| 1 (oops";
  WireRequest too_deep = nor_request(t);
  too_deep.tree_text = nest(1000000);
  WireRequest deep_scout = minimax_request(t, Algorithm::kScout);
  deep_scout.tree_text = nest(100000);
  const std::pair<const WireRequest*, std::string> cases[] = {
      {&bad_tree, "unexpected character"},
      {&too_deep, "nesting too deep"},
      {&deep_scout, "nesting too deep"}};
  for (const auto& [req, why] : cases) {
    const auto r2 = client.call(*req);
    ASSERT_FALSE(r2.ok());
    ASSERT_TRUE(r2.error.has_value());
    EXPECT_EQ(r2.error->code, ErrorCode::kBadRequest);
    EXPECT_EQ(r2.error->message, "bad tree payload: parse_tree: " + why);
  }

  // The connection survived all of them: a good request still works.
  const auto r3 = client.call(nor_request(t));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.result->value, nor_value(t) ? 1 : 0);
}

TEST(Service, GarbageBytesGetErrorFrameThenClose) {
  ServiceServer server(tcp_options());
  server.start();
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());

  std::vector<std::uint8_t> garbage(64, 0xab);
  client.send_raw(garbage);

  // Header-level framing loss: one structured kBadFrame (request_id 0,
  // connection-scoped), then the server closes — no resync on a byte
  // stream.
  auto f = client.read_frame();
  ASSERT_TRUE(f.has_value());
  ASSERT_EQ(f->header.type, FrameType::kError);
  EXPECT_EQ(f->header.request_id, 0u);
  const auto err = decode_error(f->payload.data(), f->payload.size());
  EXPECT_EQ(err.code, ErrorCode::kBadFrame);
  EXPECT_FALSE(client.read_frame().has_value());  // clean close
  EXPECT_GE(server.stats().bad_frames, 1u);
}

TEST(Service, OversizedFrameGetsFrameTooLarge) {
  ServiceOptions opt = tcp_options();
  opt.limits.max_payload = 512;
  ServiceServer server(opt);
  server.start();
  WireLimits client_limits;  // default 16 MiB: client may SEND big frames
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port(),
                                           client_limits);

  const Tree t = make_uniform_iid_nor(2, 8, 0.618, 3);
  WireRequest big = nor_request(t);
  ASSERT_GT(big.tree_text.size(), opt.limits.max_payload);
  const auto r = client.call(big);
  ASSERT_FALSE(r.ok());
  ASSERT_TRUE(r.error.has_value());
  EXPECT_EQ(r.error->code, ErrorCode::kFrameTooLarge);
}

// --- Control frames. --------------------------------------------------------

TEST(Service, PingPongAndStats) {
  ServiceServer server(tcp_options());
  server.start();
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());

  client.send_ping(77);
  auto pong = client.read_frame();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->header.type, FrameType::kPong);
  EXPECT_EQ(pong->header.request_id, 77u);

  const Tree t = make_uniform_iid_nor(2, 3, 0.618, 4);
  ASSERT_TRUE(client.call(nor_request(t)).ok());

  client.send_stats_request(78);
  auto stats_frame = client.read_frame();
  ASSERT_TRUE(stats_frame.has_value());
  ASSERT_EQ(stats_frame->header.type, FrameType::kStats);
  const auto s = decode_stats(stats_frame->payload.data(),
                              stats_frame->payload.size());
  EXPECT_GE(s.requests_received, 1u);
  EXPECT_GE(s.results_sent, 1u);
  EXPECT_EQ(s.connections_active, 1u);
}

// Fault plans are refused unless the server opted in (the networked fault
// lane lives in test_failure_injection.cpp).
TEST(Service, FaultPlanRejectedWithoutOptIn) {
  ServiceServer server(tcp_options());
  server.start();
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());

  const Tree t = make_uniform_iid_nor(2, 3, 0.618, 5);
  WireRequest req = nor_request(t);
  req.fault_seed = 42;
  req.fault_transient_rate = 0.5;
  const auto r = client.call(req);
  ASSERT_FALSE(r.ok());
  ASSERT_TRUE(r.error.has_value());
  EXPECT_EQ(r.error->code, ErrorCode::kBadRequest);
}

// --- Graceful drain. --------------------------------------------------------

TEST(Service, DrainFinishesInFlightRequests) {
  ServiceServer server(tcp_options());
  server.start();
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());

  // A slow request (sleep leaves, ~100ms+) that will still be running
  // when drain starts.
  const Tree t = make_uniform_iid_nor(2, 5, 0.618, 31);
  WireRequest req = nor_request(t, Algorithm::kMtSequentialSolve);
  req.leaf_cost_ns = 3'000'000;  // 3ms x 32 leaves
  req.cost_model = 1;
  const std::uint64_t id = client.send_request(req);

  // Give the reader time to admit it, then drain from another thread
  // (gtpard does this from the signal path).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread drainer([&] { server.drain(); });

  // The client must see: kGoodbye (drain notice), then the final result
  // for the accepted request, then a clean close.
  bool saw_goodbye = false, saw_result = false;
  for (;;) {
    auto f = client.read_frame();
    if (!f) break;
    if (f->header.type == FrameType::kGoodbye) saw_goodbye = true;
    if (f->header.type == FrameType::kResult) {
      EXPECT_EQ(f->header.request_id, id);
      const auto res = decode_result(f->payload.data(), f->payload.size());
      EXPECT_EQ(res.value, nor_value(t) ? 1 : 0);
      saw_result = true;
    }
  }
  drainer.join();
  EXPECT_TRUE(saw_goodbye);
  EXPECT_TRUE(saw_result);
  EXPECT_TRUE(server.draining());

  // After drain the listener is gone: new connections are refused.
  EXPECT_THROW(ServiceClient::connect_tcp("127.0.0.1", server.port()),
               SocketError);
}

TEST(Service, RequestsAfterDrainStartAreRefusedStructurally) {
  ServiceServer server(tcp_options());
  server.start();
  auto client = ServiceClient::connect_tcp("127.0.0.1", server.port());

  // An idle connection stays open through drain long enough to be told.
  std::thread drainer([&] { server.drain(); });
  // Any request racing the drain must get kDraining or kGoodbye/close —
  // never silence.
  const Tree t = make_uniform_iid_nor(2, 3, 0.618, 6);
  bool structured = false;
  try {
    const auto r = client.call(nor_request(t));
    structured = r.goodbye ||
                 (r.error && r.error->code == ErrorCode::kDraining) || r.ok();
  } catch (const SocketError&) {
    structured = true;  // connection already torn down: also fine
  }
  drainer.join();
  EXPECT_TRUE(structured);
}

}  // namespace
}  // namespace gtpar::net
