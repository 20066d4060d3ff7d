// Wire-protocol unit tests (net/wire.hpp): round-trips for every frame
// type, hardened-decoder rejection of truncated/oversized/garbage input,
// and a seeded frame fuzzer against FrameParser. The contract under test:
// malformed bytes always surface as WireFormatError — never a crash,
// over-read, or hang — which the CI sanitizer lanes (ASan/UBSan) enforce
// for real.
#include <algorithm>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gtpar/check/net_faults.hpp"
#include "gtpar/net/socket.hpp"
#include "gtpar/net/wire.hpp"

namespace gtpar::net {
namespace {

WireRequest sample_request() {
  WireRequest req;
  req.algorithm = 7;
  req.want_pv = true;
  req.anytime = true;
  req.stream = true;
  req.width = 3;
  req.threads = 8;
  req.depth_limit = 12;
  req.cost_model = 1;
  req.seed = 0x1234567890abcdefull;
  req.leaf_cost_ns = 1500;
  req.grain = 64;
  req.deadline_ns = 250'000'000;
  req.retry_attempts = 3;
  req.retry_base_backoff_ns = 1000;
  req.retry_max_backoff_ns = 64000;
  req.idempotency_key = 0xa5a5'0000'1234'5678ull;
  req.fault_seed = 99;
  req.fault_transient_rate = 0.25;
  req.fault_permanent_rate = 0.01;
  req.fault_slow_rate = 0.5;
  req.fault_flaky_attempts = 2;
  req.fault_slow_ns = 2000;
  req.tree_text = "(| (& 1 0) (& (| 1 1) 0))";
  return req;
}

WireResult sample_result() {
  WireResult res;
  res.value = -42;
  res.completeness = 2;
  res.complete = false;
  res.stage = 1;
  res.total_stages = 3;
  res.work = 12345;
  res.wall_ns = 6789;
  res.retries = 2;
  res.faults = 5;
  res.pv = {0, 3, 17, 42};
  return res;
}

// --- Round-trips. -----------------------------------------------------------

TEST(WireRoundTrip, Request) {
  const WireRequest req = sample_request();
  const auto bytes = encode_request(req);
  const WireRequest back = decode_request(bytes.data(), bytes.size());
  EXPECT_EQ(back.algorithm, req.algorithm);
  EXPECT_EQ(back.want_pv, req.want_pv);
  EXPECT_EQ(back.anytime, req.anytime);
  EXPECT_EQ(back.stream, req.stream);
  EXPECT_EQ(back.width, req.width);
  EXPECT_EQ(back.threads, req.threads);
  EXPECT_EQ(back.depth_limit, req.depth_limit);
  EXPECT_EQ(back.cost_model, req.cost_model);
  EXPECT_EQ(back.seed, req.seed);
  EXPECT_EQ(back.leaf_cost_ns, req.leaf_cost_ns);
  EXPECT_EQ(back.grain, req.grain);
  EXPECT_EQ(back.deadline_ns, req.deadline_ns);
  EXPECT_EQ(back.retry_attempts, req.retry_attempts);
  EXPECT_EQ(back.retry_base_backoff_ns, req.retry_base_backoff_ns);
  EXPECT_EQ(back.retry_max_backoff_ns, req.retry_max_backoff_ns);
  EXPECT_EQ(back.idempotency_key, req.idempotency_key);
  EXPECT_EQ(back.fault_seed, req.fault_seed);
  EXPECT_DOUBLE_EQ(back.fault_transient_rate, req.fault_transient_rate);
  EXPECT_DOUBLE_EQ(back.fault_permanent_rate, req.fault_permanent_rate);
  EXPECT_DOUBLE_EQ(back.fault_slow_rate, req.fault_slow_rate);
  EXPECT_EQ(back.fault_flaky_attempts, req.fault_flaky_attempts);
  EXPECT_EQ(back.fault_slow_ns, req.fault_slow_ns);
  EXPECT_EQ(back.tree_text, req.tree_text);
}

TEST(WireRoundTrip, Result) {
  const WireResult res = sample_result();
  const auto bytes = encode_result(res);
  const WireResult back = decode_result(bytes.data(), bytes.size());
  EXPECT_EQ(back.value, res.value);
  EXPECT_EQ(back.completeness, res.completeness);
  EXPECT_EQ(back.complete, res.complete);
  EXPECT_EQ(back.stage, res.stage);
  EXPECT_EQ(back.total_stages, res.total_stages);
  EXPECT_EQ(back.work, res.work);
  EXPECT_EQ(back.wall_ns, res.wall_ns);
  EXPECT_EQ(back.retries, res.retries);
  EXPECT_EQ(back.faults, res.faults);
  EXPECT_EQ(back.pv, res.pv);
}

TEST(WireRoundTrip, Error) {
  WireError err;
  err.code = ErrorCode::kOverloaded;
  err.message = "queue full: 64 in flight";
  const auto bytes = encode_error(err);
  const WireError back = decode_error(bytes.data(), bytes.size());
  EXPECT_EQ(back.code, err.code);
  EXPECT_EQ(back.message, err.message);
}

TEST(WireRoundTrip, Stats) {
  WireStats s;
  s.connections_accepted = 1;
  s.connections_active = 2;
  s.requests_received = 3;
  s.results_sent = 4;
  s.partials_sent = 5;
  s.errors_sent = 6;
  s.bad_frames = 7;
  s.requests_shed = 8;
  s.requests_draining = 9;
  s.cancels_received = 10;
  s.accepts_dropped = 11;
  s.partials_dropped = 12;
  s.slow_peer_disconnects = 13;
  s.idle_reaped = 14;
  s.conn_capped = 15;
  s.dedupe_hits = 16;
  s.dedupe_replays = 17;
  const auto bytes = encode_stats(s);
  const WireStats back = decode_stats(bytes.data(), bytes.size());
  EXPECT_EQ(back.connections_accepted, 1u);
  EXPECT_EQ(back.connections_active, 2u);
  EXPECT_EQ(back.requests_received, 3u);
  EXPECT_EQ(back.results_sent, 4u);
  EXPECT_EQ(back.partials_sent, 5u);
  EXPECT_EQ(back.errors_sent, 6u);
  EXPECT_EQ(back.bad_frames, 7u);
  EXPECT_EQ(back.requests_shed, 8u);
  EXPECT_EQ(back.requests_draining, 9u);
  EXPECT_EQ(back.cancels_received, 10u);
  EXPECT_EQ(back.accepts_dropped, 11u);
  EXPECT_EQ(back.partials_dropped, 12u);
  EXPECT_EQ(back.slow_peer_disconnects, 13u);
  EXPECT_EQ(back.idle_reaped, 14u);
  EXPECT_EQ(back.conn_capped, 15u);
  EXPECT_EQ(back.dedupe_hits, 16u);
  EXPECT_EQ(back.dedupe_replays, 17u);
}

// Every frame type survives a full encode -> FrameParser -> decode cycle.
TEST(WireRoundTrip, EveryFrameTypeThroughParser) {
  std::vector<std::uint8_t> stream;
  auto append = [&stream](const std::vector<std::uint8_t>& f) {
    stream.insert(stream.end(), f.begin(), f.end());
  };
  append(encode_request_frame(1, sample_request()));
  append(encode_result_frame(FrameType::kResult, 2, sample_result()));
  append(encode_result_frame(FrameType::kPartial, 3, sample_result()));
  append(encode_error_frame(4, {ErrorCode::kStalled, "watchdog"}));
  append(encode_control_frame(FrameType::kCancel, 5));
  append(encode_control_frame(FrameType::kPing, 6));
  append(encode_control_frame(FrameType::kPong, 7));
  append(encode_control_frame(FrameType::kStatsReq, 8));
  append(encode_stats_frame(9, WireStats{}));
  append(encode_control_frame(FrameType::kGoodbye, 10));

  const FrameType expected[] = {
      FrameType::kRequest, FrameType::kResult,   FrameType::kPartial,
      FrameType::kError,   FrameType::kCancel,   FrameType::kPing,
      FrameType::kPong,    FrameType::kStatsReq, FrameType::kStats,
      FrameType::kGoodbye};

  // Feed byte-by-byte: frame boundaries must not matter.
  FrameParser parser;
  std::vector<Frame> got;
  for (std::uint8_t b : stream) {
    parser.feed(&b, 1);
    while (auto f = parser.next()) got.push_back(std::move(*f));
  }
  ASSERT_EQ(got.size(), 10u);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].header.type, expected[i]) << "frame " << i;
    EXPECT_EQ(got[i].header.request_id, i + 1);
  }
  EXPECT_EQ(parser.buffered(), 0u);
}

// --- Rejection. -------------------------------------------------------------

TEST(WireReject, BadMagic) {
  auto f = encode_control_frame(FrameType::kPing, 1);
  f[0] ^= 0xff;
  EXPECT_THROW(decode_frame_header(f.data(), kFrameHeaderSize, {}),
               WireFormatError);
}

TEST(WireReject, BadVersion) {
  auto f = encode_control_frame(FrameType::kPing, 1);
  f[4] = kWireVersion + 1;
  EXPECT_THROW(decode_frame_header(f.data(), kFrameHeaderSize, {}),
               WireFormatError);
}

TEST(WireReject, UnknownFrameType) {
  auto f = encode_control_frame(FrameType::kPing, 1);
  f[5] = 0x7f;
  EXPECT_THROW(decode_frame_header(f.data(), kFrameHeaderSize, {}),
               WireFormatError);
  EXPECT_FALSE(frame_type_known(0x7f));
  EXPECT_FALSE(frame_type_known(0x00));
}

TEST(WireReject, NonZeroReserved) {
  auto f = encode_control_frame(FrameType::kPing, 1);
  f[6] = 1;
  EXPECT_THROW(decode_frame_header(f.data(), kFrameHeaderSize, {}),
               WireFormatError);
}

// The hostile 4 GiB length prefix: rejected at the header, before any
// allocation.
TEST(WireReject, OversizedPayloadLength) {
  auto f = encode_control_frame(FrameType::kPing, 1);
  const std::uint32_t huge = 0xfffffff0u;
  std::memcpy(f.data() + 8, &huge, sizeof(huge));
  WireLimits limits;
  EXPECT_THROW(decode_frame_header(f.data(), kFrameHeaderSize, limits),
               WireFormatError);
}

TEST(WireReject, PayloadJustOverLimit) {
  WireLimits limits;
  limits.max_payload = 100;
  auto f = encode_control_frame(FrameType::kPing, 1);
  const std::uint32_t len = 101;
  std::memcpy(f.data() + 8, &len, sizeof(len));
  EXPECT_THROW(decode_frame_header(f.data(), kFrameHeaderSize, limits),
               WireFormatError);
}

// Every strict prefix of a valid payload must be rejected as truncated.
TEST(WireReject, TruncatedRequestPayloadEveryLength) {
  const auto bytes = encode_request(sample_request());
  for (std::size_t n = 0; n < bytes.size(); ++n)
    EXPECT_THROW(decode_request(bytes.data(), n), WireFormatError) << n;
}

TEST(WireReject, TruncatedResultPayloadEveryLength) {
  const auto bytes = encode_result(sample_result());
  for (std::size_t n = 0; n < bytes.size(); ++n)
    EXPECT_THROW(decode_result(bytes.data(), n), WireFormatError) << n;
}

// Trailing garbage after a well-formed payload is a framing bug upstream;
// the decoders refuse it rather than silently ignoring bytes.
TEST(WireReject, TrailingGarbage) {
  auto req = encode_request(sample_request());
  req.push_back(0);
  EXPECT_THROW(decode_request(req.data(), req.size()), WireFormatError);
  auto res = encode_result(sample_result());
  res.push_back(0);
  EXPECT_THROW(decode_result(res.data(), res.size()), WireFormatError);
}

TEST(WireReject, NonBooleanFlags) {
  auto bytes = encode_request(sample_request());
  // Byte 1 of the request payload packs want_pv/anytime/stream into bits
  // 0-2; any higher bit is undefined and must be rejected.
  bytes[1] = 0x08;
  EXPECT_THROW(decode_request(bytes.data(), bytes.size()), WireFormatError);
}

TEST(WireReject, NonFiniteFaultRate) {
  WireRequest req = sample_request();
  req.fault_transient_rate = 1.5;  // out of [0,1]
  auto bytes = encode_request(req);
  EXPECT_THROW(decode_request(bytes.data(), bytes.size()), WireFormatError);
}

TEST(WireReject, BadCompleteness) {
  WireResult res = sample_result();
  res.completeness = 9;
  auto bytes = encode_result(res);
  EXPECT_THROW(decode_result(bytes.data(), bytes.size()), WireFormatError);
}

TEST(WireReject, BadStageIndexing) {
  WireResult res = sample_result();
  res.stage = 3;
  res.total_stages = 3;  // stage must be < total_stages
  auto bytes = encode_result(res);
  EXPECT_THROW(decode_result(bytes.data(), bytes.size()), WireFormatError);
}

TEST(WireReject, BadErrorCode) {
  WireError err{ErrorCode::kInternal, "x"};
  auto bytes = encode_error(err);
  bytes[0] = 0;  // code 0 is not defined
  bytes[1] = 0;
  EXPECT_THROW(decode_error(bytes.data(), bytes.size()), WireFormatError);
}

TEST(WireReject, ControlFrameWithPayload) {
  FrameHeader h;
  h.type = FrameType::kPing;
  h.payload_len = 1;
  const std::uint8_t junk = 0;
  EXPECT_THROW(validate_payload(h, &junk, 1), WireFormatError);
}

TEST(WireReject, ParserPoisonedAfterError) {
  FrameParser parser;
  std::vector<std::uint8_t> garbage(kFrameHeaderSize, 0xee);
  parser.feed(garbage.data(), garbage.size());
  EXPECT_THROW(parser.next(), WireFormatError);
  // Once framing is lost the stream cannot resync: both feed() and next()
  // must keep throwing, even for valid bytes.
  const auto good = encode_control_frame(FrameType::kPing, 1);
  EXPECT_THROW(parser.feed(good.data(), good.size()), WireFormatError);
  EXPECT_THROW(parser.next(), WireFormatError);
}

// --- Fuzzers (run under ASan/UBSan in CI). ----------------------------------

// Seeded garbage: decode must either succeed or throw WireFormatError —
// nothing else, at any length, ever.
TEST(WireFuzz, RandomBytesNeverCrash) {
  std::mt19937_64 rng(0xfeedbeef);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::size_t len = rng() % 512;
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    try {
      decode_request(bytes.data(), bytes.size());
    } catch (const WireFormatError&) {
    }
    try {
      decode_result(bytes.data(), bytes.size());
    } catch (const WireFormatError&) {
    }
    try {
      decode_error(bytes.data(), bytes.size());
    } catch (const WireFormatError&) {
    }
    try {
      decode_stats(bytes.data(), bytes.size());
    } catch (const WireFormatError&) {
    }
    try {
      decode_frame_header(bytes.data(), bytes.size(), {});
    } catch (const WireFormatError&) {
    }
  }
}

// Bit-flip fuzzing: corrupt one bit of a valid frame stream and run it
// through the parser. Every outcome must be a parsed frame or a
// WireFormatError; the parse loop must terminate.
TEST(WireFuzz, BitFlippedFramesNeverCrashOrHang) {
  std::vector<std::uint8_t> stream;
  auto append = [&stream](const std::vector<std::uint8_t>& f) {
    stream.insert(stream.end(), f.begin(), f.end());
  };
  append(encode_request_frame(1, sample_request()));
  append(encode_result_frame(FrameType::kResult, 2, sample_result()));
  append(encode_error_frame(3, {ErrorCode::kDraining, "bye"}));
  append(encode_control_frame(FrameType::kGoodbye, 4));

  std::mt19937_64 rng(0x5eed);
  for (int iter = 0; iter < 1500; ++iter) {
    std::vector<std::uint8_t> mutated = stream;
    mutated[rng() % mutated.size()] ^=
        static_cast<std::uint8_t>(1u << (rng() % 8));
    WireLimits limits;
    limits.max_payload = 1u << 20;  // keep corrupt lengths cheap
    FrameParser parser(limits);
    parser.feed(mutated.data(), mutated.size());
    std::size_t frames = 0;
    try {
      while (auto f = parser.next()) frames += 1;
    } catch (const WireFormatError&) {
    }
    EXPECT_LE(frames, 4u);
  }
}

// Random chunking of a long valid stream: the parser must produce the
// identical frame sequence regardless of how the bytes are split.
TEST(WireFuzz, RandomChunkingPreservesFrames) {
  std::vector<std::uint8_t> stream;
  constexpr int kFrames = 64;
  for (int i = 0; i < kFrames; ++i) {
    WireResult res = sample_result();
    res.value = i;
    const auto f = encode_result_frame(FrameType::kResult,
                                       static_cast<std::uint64_t>(i + 1), res);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  std::mt19937_64 rng(42);
  for (int iter = 0; iter < 50; ++iter) {
    FrameParser parser;
    std::vector<Frame> got;
    std::size_t pos = 0;
    while (pos < stream.size()) {
      const std::size_t n =
          std::min(stream.size() - pos, 1 + rng() % 97);
      parser.feed(stream.data() + pos, n);
      pos += n;
      while (auto f = parser.next()) got.push_back(std::move(*f));
    }
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kFrames));
    for (int i = 0; i < kFrames; ++i) {
      const auto res =
          decode_result(got[i].payload.data(), got[i].payload.size());
      EXPECT_EQ(res.value, i);
    }
  }
}

// --- Adversarial transport (check/net_faults.hpp). --------------------------
//
// The same codecs, but driven through a real socketpair whose byte stream
// a seeded NetFaultPlan mangles: write_all and read_exact must resume
// across forced partial transfers without the frame sequence changing,
// corruption must surface as WireFormatError, and an injected reset as
// SocketError — the transport-level mirror of the parser fuzzers above.

std::vector<std::uint8_t> sample_stream(int frames) {
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < frames; ++i) {
    WireResult res = sample_result();
    res.value = i;
    const auto f = encode_result_frame(FrameType::kResult,
                                       static_cast<std::uint64_t>(i + 1), res);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  return stream;
}

TEST(FaultyTransport, SplitWritesAndReadsPreserveFrames) {
  auto [wend, rend] = Socket::pair();

  // Writer side: every send clamped to at most 3 bytes.
  check::NetFaultPlan wplan;
  wplan.seed = 7;
  wplan.partial_rate = 1.0;
  wplan.max_partial_chunk = 3;
  check::FaultySocket writer(std::move(wend), wplan);

  // Reader side: every recv clamped to at most 2 bytes.
  check::NetFaultPlan rplan;
  rplan.seed = 8;
  rplan.partial_rate = 1.0;
  rplan.max_partial_chunk = 2;
  check::FaultySocket reader(std::move(rend), rplan);

  constexpr int kFrames = 32;
  const auto stream = sample_stream(kFrames);
  // Write from a second thread: each 3-byte chunk costs a whole skb of
  // kernel buffer accounting, so even a few KiB of frames fills the
  // socketpair buffer unless the reader drains concurrently.
  std::thread sender([&writer, &stream] {
    writer.sock.write_all(stream.data(), stream.size());
  });

  std::vector<std::uint8_t> got(stream.size());
  ASSERT_TRUE(reader.sock.read_exact(got.data(), got.size()));
  sender.join();
  EXPECT_EQ(got, stream);
  // Both clamps actually fired, many times.
  EXPECT_GT(writer.state.partials(), static_cast<std::uint64_t>(kFrames));
  EXPECT_GT(reader.state.partials(), static_cast<std::uint64_t>(kFrames));

  FrameParser parser;
  parser.feed(got.data(), got.size());
  for (int i = 0; i < kFrames; ++i) {
    auto f = parser.next();
    ASSERT_TRUE(f.has_value()) << "frame " << i;
    EXPECT_EQ(f->header.request_id, static_cast<std::uint64_t>(i + 1));
    const auto res = decode_result(f->payload.data(), f->payload.size());
    EXPECT_EQ(res.value, i);
  }
  EXPECT_EQ(parser.buffered(), 0u);
}

// One-byte deliveries: the pathological split every resumable reader must
// survive. The reader pulls the stream a byte at a time through the
// faulty socket and feeds the parser as the bytes arrive.
TEST(FaultyTransport, OneByteReadsPreserveFrames) {
  auto [wend, rend] = Socket::pair();
  check::NetFaultPlan rplan;
  rplan.seed = 3;
  rplan.partial_rate = 1.0;
  rplan.max_partial_chunk = 1;
  check::FaultySocket reader(std::move(rend), rplan);

  constexpr int kFrames = 8;
  const auto stream = sample_stream(kFrames);
  wend.write_all(stream.data(), stream.size());

  FrameParser parser;
  std::vector<Frame> frames;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    std::uint8_t byte = 0;
    ASSERT_TRUE(reader.sock.read_exact(&byte, 1));
    parser.feed(&byte, 1);
    while (auto f = parser.next()) frames.push_back(std::move(*f));
  }
  ASSERT_EQ(frames.size(), static_cast<std::size_t>(kFrames));
  for (int i = 0; i < kFrames; ++i) {
    const auto res =
        decode_result(frames[i].payload.data(), frames[i].payload.size());
    EXPECT_EQ(res.value, i);
  }
}

// A flipped bit on the receive path must surface as WireFormatError from
// the hardened header decoder — never a crash or a silently-wrong frame.
TEST(FaultyTransport, CorruptionSurfacesAsWireFormatError) {
  auto [wend, rend] = Socket::pair();
  check::NetFaultPlan rplan;
  rplan.seed = 11;
  rplan.corrupt_rate = 1.0;  // first byte of every recv gets bit 0 flipped
  check::FaultySocket reader(std::move(rend), rplan);

  const auto frame = encode_control_frame(FrameType::kPing, 1);
  wend.write_all(frame.data(), frame.size());

  std::uint8_t hdr[kFrameHeaderSize];
  ASSERT_TRUE(reader.sock.read_exact(hdr, sizeof(hdr)));
  EXPECT_GT(reader.state.corruptions(), 0u);
  EXPECT_THROW(decode_frame_header(hdr, sizeof(hdr), {}), WireFormatError);
}

// An injected RST surfaces as SocketError, and max_resets bounds the
// schedule: after the budget is spent the stream flows again.
TEST(FaultyTransport, ResetSurfacesAsSocketErrorExactlyOnce) {
  auto [wend, rend] = Socket::pair();
  check::NetFaultPlan wplan;
  wplan.seed = 13;
  wplan.reset_rate = 1.0;
  wplan.max_resets = 1;
  check::FaultySocket writer(std::move(wend), wplan);

  const auto frame = encode_control_frame(FrameType::kPing, 1);
  EXPECT_THROW(writer.sock.write_all(frame.data(), frame.size()), SocketError);
  EXPECT_EQ(writer.state.resets(), 1u);
  // The reset shut the socket down, so later writes still fail — but as
  // plain transport errors, not further injected resets.
  EXPECT_THROW(writer.sock.write_all(frame.data(), frame.size()), SocketError);
  EXPECT_EQ(writer.state.resets(), 1u);
}

// write_some is one non-blocking send: it takes what the socket buffer has
// room for and returns 0 when the buffer is full, instead of waiting. The
// fault seam clamps it and resets it as it does one write_all syscall.
TEST(FaultyTransport, WriteSomeNeverWaitsAndGoesThroughTheFaultSeam) {
  const std::vector<std::uint8_t> big(4u << 20, 0x5a);  // past any buffer
  {
    auto [wend, rend] = Socket::pair();
    const std::size_t first = wend.write_some(big.data(), big.size());
    EXPECT_GT(first, 0u);
    EXPECT_LT(first, big.size());
    EXPECT_EQ(wend.write_some(big.data(), big.size()), 0u);
    std::vector<std::uint8_t> got(first);
    ASSERT_TRUE(rend.read_exact(got.data(), got.size()));
    EXPECT_TRUE(std::all_of(got.begin(), got.end(),
                            [](std::uint8_t b) { return b == 0x5a; }));
  }
  {
    auto [wend, rend] = Socket::pair();
    check::NetFaultPlan wplan;
    wplan.seed = 17;
    wplan.partial_rate = 1.0;
    wplan.max_partial_chunk = 3;
    check::FaultySocket writer(std::move(wend), wplan);
    const std::size_t n = writer.sock.write_some(big.data(), big.size());
    EXPECT_GE(n, 1u);
    EXPECT_LE(n, 3u);
    EXPECT_EQ(writer.state.partials(), 1u);
  }
  {
    auto [wend, rend] = Socket::pair();
    check::NetFaultPlan wplan;
    wplan.seed = 19;
    wplan.reset_rate = 1.0;
    wplan.max_resets = 1;
    check::FaultySocket writer(std::move(wend), wplan);
    EXPECT_THROW(writer.sock.write_some(big.data(), big.size()), SocketError);
    EXPECT_EQ(writer.state.resets(), 1u);
  }
}

}  // namespace
}  // namespace gtpar::net
