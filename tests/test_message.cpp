// Wire codec tests: every message kind round-trips; malformed frames are
// rejected; parameterized sweep across kinds and payload shapes.
#include <gtest/gtest.h>

#include <random>

#include "msg/message.hpp"

namespace hlock {
namespace {

Message base_message(MsgKind kind) {
  Message m;
  m.kind = kind;
  m.lock = LockId{12};
  m.from = NodeId{3};
  m.req.requester = NodeId{9};
  m.req.mode = Mode::kU;
  m.req.stamp = LamportStamp{777, NodeId{9}};
  m.req.upgrade = kind == MsgKind::kRequest;
  m.mode = Mode::kIW;
  m.frozen = ModeSet{Mode::kR, Mode::kU};
  m.sender_owned = Mode::kIR;
  m.grant_seq = 41;
  return m;
}

class CodecRoundTrip : public ::testing::TestWithParam<MsgKind> {};

TEST_P(CodecRoundTrip, EncodeDecodeIdentity) {
  const Message m = base_message(GetParam());
  EXPECT_EQ(decode(encode(m)), m);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, CodecRoundTrip,
    ::testing::Values(MsgKind::kRequest, MsgKind::kGrant, MsgKind::kToken,
                      MsgKind::kRelease, MsgKind::kFreeze,
                      MsgKind::kNaimiRequest, MsgKind::kNaimiToken,
                      MsgKind::kAck, MsgKind::kAttach),
    [](const auto& pinfo) { return to_string(pinfo.param); });

TEST(Codec, TokenWithQueueRoundTrips) {
  Message m = base_message(MsgKind::kToken);
  for (std::uint32_t i = 0; i < 50; ++i) {
    m.queue.push_back(QueuedRequest{NodeId{i},
                                    kRealModes[i % 5],
                                    LamportStamp{i * 7, NodeId{i}},
                                    i % 11 == 0});
  }
  const Message out = decode(encode(m));
  EXPECT_EQ(out, m);
  EXPECT_EQ(out.queue.size(), 50u);
}

TEST(Codec, EmptyQueueAndDefaultsRoundTrip) {
  Message m;
  EXPECT_EQ(decode(encode(m)), m);
}

TEST(Codec, RejectsTruncatedFrames) {
  const auto bytes = encode(base_message(MsgKind::kGrant));
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW(decode(bytes.data(), cut), DecodeError) << "cut " << cut;
  }
}

TEST(Codec, RejectsTrailingGarbage) {
  auto bytes = encode(base_message(MsgKind::kRelease));
  bytes.push_back(0);
  EXPECT_THROW(decode(bytes), DecodeError);
}

TEST(Codec, RejectsBadKind) {
  auto bytes = encode(base_message(MsgKind::kRequest));
  bytes[0] = 200;
  EXPECT_THROW(decode(bytes), DecodeError);
  // The kinds are dense: every byte below kMsgKindCount decodes, the first
  // one past it does not.
  bytes[0] = static_cast<std::uint8_t>(kMsgKindCount - 1);
  EXPECT_EQ(decode(bytes).kind, MsgKind::kAttach);
  bytes[0] = static_cast<std::uint8_t>(kMsgKindCount);
  EXPECT_THROW(decode(bytes), DecodeError);
}

TEST(Codec, RejectsBadModeByte) {
  const Message m = base_message(MsgKind::kGrant);
  auto bytes = encode(m);
  // The mode field sits right after the fixed request block; corrupt every
  // byte and require: either decode fails, or the message re-encodes to
  // the same bytes (i.e. the corruption was benign/canonical).
  int rejected = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto copy = bytes;
    copy[i] = 0xfe;
    try {
      const Message out = decode(copy);
      EXPECT_EQ(encode(out), copy) << "byte " << i;
    } catch (const DecodeError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

// encoded_size() is the arithmetic that SimNetwork uses for O(1) wire
// accounting; it must agree with the codec byte-for-byte on every message
// shape, or the simulated byte totals silently drift from the real wire.
TEST(EncodedSize, MatchesCodecOnRandomizedMessages) {
  std::mt19937_64 rng(0xe5c0dedULL);
  std::uniform_int_distribution<std::uint32_t> node(0, 1u << 20);
  std::uniform_int_distribution<std::uint64_t> u64(0, ~0ULL >> 8);
  std::uniform_int_distribution<std::size_t> kind(0, kMsgKindCount - 1);
  std::uniform_int_distribution<std::size_t> mode(0, kModeCount - 1);
  std::uniform_int_distribution<std::size_t> queue_len(0, 100);
  for (int trial = 0; trial < 2000; ++trial) {
    Message m;
    m.kind = static_cast<MsgKind>(kind(rng));
    m.lock = LockId{node(rng)};
    m.from = NodeId{node(rng)};
    m.req.requester = NodeId{node(rng)};
    m.req.mode = static_cast<Mode>(mode(rng));
    m.req.stamp = LamportStamp{u64(rng), NodeId{node(rng)}};
    m.req.upgrade = (trial & 1) != 0;
    m.req.priority = static_cast<std::uint8_t>(node(rng));
    m.mode = static_cast<Mode>(mode(rng));
    m.sender_owned = static_cast<Mode>(mode(rng));
    m.grant_seq = u64(rng);
    const std::size_t len = queue_len(rng);
    for (std::size_t i = 0; i < len; ++i) {
      m.queue.push_back(QueuedRequest{NodeId{node(rng)},
                                      static_cast<Mode>(mode(rng)),
                                      LamportStamp{u64(rng), NodeId{node(rng)}},
                                      (i & 1) != 0});
    }
    ASSERT_EQ(encoded_size(m), encode(m).size())
        << "trial " << trial << " kind " << static_cast<int>(m.kind)
        << " queue " << len;
  }
}

TEST(MsgKindNames, AllDistinct) {
  EXPECT_STREQ(to_string(MsgKind::kRequest), "request");
  EXPECT_STREQ(to_string(MsgKind::kGrant), "grant");
  EXPECT_STREQ(to_string(MsgKind::kToken), "token");
  EXPECT_STREQ(to_string(MsgKind::kRelease), "release");
  EXPECT_STREQ(to_string(MsgKind::kFreeze), "freeze");
  EXPECT_STREQ(to_string(MsgKind::kNaimiRequest), "naimi_request");
  EXPECT_STREQ(to_string(MsgKind::kNaimiToken), "naimi_token");
  EXPECT_STREQ(to_string(MsgKind::kAck), "ack");
  EXPECT_STREQ(to_string(MsgKind::kAttach), "attach");
}

}  // namespace
}  // namespace hlock
