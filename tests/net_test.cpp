#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/checksum.hpp"
#include "net/ipv4.hpp"
#include "net/packet.hpp"
#include "util/rng.hpp"

namespace vp::net {
namespace {

// --- addresses -------------------------------------------------------------

TEST(Ipv4Address, ParseAndPrintRoundTrip) {
  const auto addr = Ipv4Address::parse("192.168.1.200");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->to_string(), "192.168.1.200");
  EXPECT_EQ(addr->octet(0), 192);
  EXPECT_EQ(addr->octet(3), 200);
}

TEST(Ipv4Address, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4Address::parse(""));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4.5"));
  EXPECT_FALSE(Ipv4Address::parse("256.1.1.1"));
  EXPECT_FALSE(Ipv4Address::parse("a.b.c.d"));
  EXPECT_FALSE(Ipv4Address::parse("1.2.3.4 "));
  EXPECT_FALSE(Ipv4Address::parse("-1.2.3.4"));
}

TEST(Ipv4Address, ConstructionFromOctets) {
  constexpr Ipv4Address addr{10, 0, 0, 1};
  static_assert(addr.value() == 0x0a000001u);
  EXPECT_EQ(addr.to_string(), "10.0.0.1");
}

// --- prefixes ---------------------------------------------------------------

TEST(Prefix, NormalizesHostBits) {
  const Prefix p{Ipv4Address{192, 168, 1, 200}, 24};
  EXPECT_EQ(p.base().to_string(), "192.168.1.0");
  EXPECT_EQ(p.to_string(), "192.168.1.0/24");
}

TEST(Prefix, ContainsAddress) {
  const auto p = Prefix::parse("10.20.0.0/16");
  ASSERT_TRUE(p);
  EXPECT_TRUE(p->contains(*Ipv4Address::parse("10.20.255.255")));
  EXPECT_FALSE(p->contains(*Ipv4Address::parse("10.21.0.0")));
}

TEST(Prefix, ContainsPrefix) {
  const auto outer = Prefix::parse("10.0.0.0/8");
  const auto inner = Prefix::parse("10.99.0.0/16");
  ASSERT_TRUE(outer && inner);
  EXPECT_TRUE(outer->contains(*inner));
  EXPECT_FALSE(inner->contains(*outer));
}

TEST(Prefix, ZeroLengthContainsEverything) {
  const Prefix all{Ipv4Address{0}, 0};
  EXPECT_TRUE(all.contains(Ipv4Address{0xffffffff}));
  EXPECT_EQ(all.size(), 1ull << 32);
}

TEST(Prefix, SizesAndBlockCounts) {
  EXPECT_EQ(Prefix::parse("1.0.0.0/24")->block24_count(), 1u);
  EXPECT_EQ(Prefix::parse("1.0.0.0/16")->block24_count(), 256u);
  EXPECT_EQ(Prefix::parse("1.0.0.0/25")->block24_count(), 0u);
  EXPECT_EQ(Prefix::parse("1.0.0.0/30")->size(), 4u);
}

TEST(Prefix, ParseRejectsMalformed) {
  EXPECT_FALSE(Prefix::parse("1.2.3.4"));
  EXPECT_FALSE(Prefix::parse("1.2.3.4/33"));
  EXPECT_FALSE(Prefix::parse("1.2.3/24"));
  EXPECT_FALSE(Prefix::parse("1.2.3.4/-1"));
}

TEST(Block24, RoundTripsThroughAddress) {
  const Block24 block{0x010203};
  EXPECT_EQ(block.base_address().to_string(), "1.2.3.0");
  EXPECT_EQ(block.address(77).to_string(), "1.2.3.77");
  EXPECT_EQ(Block24::containing(block.address(255)), block);
  EXPECT_EQ(block.prefix().to_string(), "1.2.3.0/24");
}

// --- checksum ----------------------------------------------------------------

TEST(Checksum, KnownVector) {
  // RFC 1071 worked example: 0x0001, 0xf203, 0xf4f5, 0xf6f7.
  const std::vector<std::uint8_t> data{0x00, 0x01, 0xf2, 0x03,
                                       0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0xffff - (0xddf2));
}

TEST(Checksum, ValidatesToZero) {
  // A buffer with its checksum appended sums to zero.
  std::vector<std::uint8_t> data{0x45, 0x00, 0x00, 0x1c, 0xbe, 0xef};
  const std::uint16_t sum = internet_checksum(data);
  data.push_back(static_cast<std::uint8_t>(sum >> 8));
  data.push_back(static_cast<std::uint8_t>(sum));
  EXPECT_EQ(internet_checksum(data), 0);
}

TEST(Checksum, OddLengthHandled) {
  const std::vector<std::uint8_t> data{0xab};
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0xab00));
}

/// RFC 1071 the slow way: big-endian 16-bit words one at a time, an odd
/// trailing byte padded with zero, end-around carry.
std::uint16_t reference_checksum(std::span<const std::uint8_t> data) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < data.size(); i += 2) {
    std::uint32_t word = std::uint32_t{data[i]} << 8;
    if (i + 1 < data.size()) word |= data[i + 1];
    sum += word;
  }
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

TEST(Checksum, MatchesByteWiseReference) {
  // Every length up to 64 and some up to 4,096, at every start offset
  // 0-7 (the word-wise sum must not care about alignment or tail length).
  util::Rng rng{1071};
  std::vector<std::uint8_t> storage(4096 + 8);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (const std::size_t n : {127, 128, 255, 256, 1000, 1499, 1500, 2047,
                              2048, 4093, 4095, 4096})
    lengths.push_back(n);
  for (const std::size_t n : lengths) {
    for (int fill = 0; fill < 4; ++fill) {
      for (auto& b : storage) b = static_cast<std::uint8_t>(rng());
      for (std::size_t offset = 0; offset < 8; ++offset) {
        const std::span<const std::uint8_t> data{storage.data() + offset, n};
        ASSERT_EQ(internet_checksum(data), reference_checksum(data))
            << "length " << n << " offset " << offset;
      }
    }
  }
}

TEST(Checksum, SeparatesTheTwoZeros) {
  // One's complement has two zeros. Only an all-zero buffer sums to
  // 0x0000 (checksum 0xFFFF); a non-zero sum that is 0 mod 0xFFFF folds
  // to 0xFFFF (checksum 0x0000).
  std::vector<std::uint8_t> storage(4096 + 8);
  for (const std::size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 20, 28, 63, 64, 4096}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      std::fill(storage.begin(), storage.end(), std::uint8_t{0});
      const std::span<const std::uint8_t> data{storage.data() + offset, n};
      EXPECT_EQ(internet_checksum(data), 0xffff) << n;
      std::fill(storage.begin(), storage.end(), std::uint8_t{0xff});
      EXPECT_EQ(internet_checksum(data), reference_checksum(data)) << n;
      if (n % 2 == 0 && n > 0) {
        EXPECT_EQ(internet_checksum(data), 0) << n;
      }
    }
  }

  // Seeded words, then one closing word that brings the (non-zero) sum to
  // 0 mod 0xFFFF.
  util::Rng rng{0xffff};
  for (const std::size_t words : {1, 2, 3, 10, 14, 64, 2048}) {
    for (int trial = 0; trial < 16; ++trial) {
      std::vector<std::uint8_t> crafted;
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i + 1 < words; ++i) {
        const auto word = static_cast<std::uint16_t>(rng());
        sum += word;
        crafted.push_back(static_cast<std::uint8_t>(word >> 8));
        crafted.push_back(static_cast<std::uint8_t>(word));
      }
      // In [1, 0xFFFF], so the total stays non-zero.
      const auto closing = static_cast<std::uint16_t>(0xffff - sum % 0xffff);
      crafted.push_back(static_cast<std::uint8_t>(closing >> 8));
      crafted.push_back(static_cast<std::uint8_t>(closing));
      for (std::size_t offset = 0; offset < 8; ++offset) {
        std::copy(crafted.begin(), crafted.end(), storage.begin() + offset);
        const std::span<const std::uint8_t> data{storage.data() + offset,
                                                 crafted.size()};
        ASSERT_EQ(reference_checksum(data), 0) << words << " words";
        ASSERT_EQ(internet_checksum(data), 0) << words << " words";
      }
    }
  }
}

// --- packets ------------------------------------------------------------------

ProbePayload test_payload() {
  ProbePayload p;
  p.measurement_id = 0xdeadbeef;
  p.tx_time_usec = 123456789;
  p.original_target = Ipv4Address{1, 2, 3, 4};
  return p;
}

std::vector<std::uint8_t> echo_request(Ipv4Address source,
                                       Ipv4Address destination,
                                       std::uint16_t identifier,
                                       std::uint16_t sequence,
                                       const ProbePayload& payload) {
  // The engine builds every probe into one reused scratch vector, so every
  // packet here is built over stale bytes: the builder must clear them.
  std::vector<std::uint8_t> out(300, 0xab);
  build_echo_request_into(out, source, destination, identifier, sequence,
                          payload);
  return out;
}

/// The reply a host answering from `reply_source` sends to `request`;
/// empty if the request does not parse.
std::vector<std::uint8_t> echo_reply(std::span<const std::uint8_t> request,
                                     Ipv4Address reply_source) {
  const auto ip = Ipv4Header::parse(request);
  if (!ip) return {};
  const auto icmp = parse_icmp_echo_view(request.subspan(Ipv4Header::kSize));
  if (!icmp) return {};
  std::vector<std::uint8_t> out(300, 0xab);
  build_echo_reply_into(out, *ip, *icmp, reply_source);
  return out;
}

TEST(Packet, EchoRequestRoundTrip) {
  const auto pkt = echo_request(Ipv4Address{192, 0, 2, 1},
                                Ipv4Address{1, 2, 3, 4}, 42, 7,
                                test_payload());
  const auto ip = Ipv4Header::parse(pkt);
  ASSERT_TRUE(ip);
  EXPECT_EQ(ip->source, (Ipv4Address{192, 0, 2, 1}));
  EXPECT_EQ(ip->destination, (Ipv4Address{1, 2, 3, 4}));
  EXPECT_EQ(ip->protocol, IpProtocol::kIcmp);
  EXPECT_EQ(ip->total_length, pkt.size());  // no stale bytes survive

  const auto icmp =
      parse_icmp_echo_view(std::span{pkt}.subspan(Ipv4Header::kSize));
  ASSERT_TRUE(icmp);
  EXPECT_EQ(icmp->type, IcmpType::kEchoRequest);
  EXPECT_EQ(icmp->identifier, 42);
  EXPECT_EQ(icmp->sequence, 7);
  EXPECT_EQ(icmp->payload.size(), ProbePayload::kSize);

  const auto payload = ProbePayload::parse(icmp->payload);
  ASSERT_TRUE(payload);
  EXPECT_EQ(payload->measurement_id, 0xdeadbeefu);
  EXPECT_EQ(payload->tx_time_usec, 123456789);
  EXPECT_EQ(payload->original_target, (Ipv4Address{1, 2, 3, 4}));
}

TEST(Packet, ReplyEchoesPayloadAndSwapsAddresses) {
  const auto request = echo_request(Ipv4Address{192, 0, 2, 1},
                                    Ipv4Address{1, 2, 3, 4}, 1, 2,
                                    test_payload());
  const auto reply = echo_reply(request, Ipv4Address{1, 2, 3, 9});

  const auto parsed = parse_reply_view(reply);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->ip.total_length, reply.size());  // no stale bytes
  EXPECT_EQ(parsed->ip.source, (Ipv4Address{1, 2, 3, 9}));
  EXPECT_EQ(parsed->ip.destination, (Ipv4Address{192, 0, 2, 1}));
  EXPECT_EQ(parsed->icmp.type, IcmpType::kEchoReply);
  EXPECT_EQ(parsed->probe.original_target, (Ipv4Address{1, 2, 3, 4}));
  // The payload view points into the reply's own bytes.
  EXPECT_EQ(parsed->icmp.payload.data(),
            reply.data() + Ipv4Header::kSize + IcmpEchoView::kHeaderSize);
}

TEST(Packet, ParseReplyRejectsRequests) {
  const auto request = echo_request(Ipv4Address{192, 0, 2, 1},
                                    Ipv4Address{1, 2, 3, 4}, 1, 2,
                                    test_payload());
  EXPECT_FALSE(parse_reply_view(request));
}

TEST(Packet, ParseRejectsTruncation) {
  const auto request = echo_request(Ipv4Address{192, 0, 2, 1},
                                    Ipv4Address{1, 2, 3, 4}, 1, 2,
                                    test_payload());
  const auto reply = echo_reply(request, Ipv4Address{1, 2, 3, 4});
  ASSERT_TRUE(parse_reply_view(reply));
  for (const auto* pkt : {&request, &reply}) {
    for (std::size_t len = 0; len < pkt->size(); len += 3) {
      EXPECT_FALSE(parse_reply_view(std::span{pkt->data(), len}))
          << "accepted truncated packet of " << len << " bytes";
    }
  }
}

TEST(Packet, SingleBitCorruptionIsDetected) {
  const auto request = echo_request(Ipv4Address{192, 0, 2, 1},
                                    Ipv4Address{1, 2, 3, 4}, 1, 2,
                                    test_payload());
  const auto good = echo_reply(request, Ipv4Address{1, 2, 3, 4});
  ASSERT_TRUE(parse_reply_view(good));
  // Flip every byte (one at a time); the checksums must catch each one
  // except bits that only affect fields parse doesn't validate.
  int accepted = 0;
  for (std::size_t i = 0; i < good.size(); ++i) {
    auto bad = good;
    bad[i] ^= 0x01;
    if (parse_reply_view(bad)) ++accepted;
  }
  EXPECT_EQ(accepted, 0);
}

TEST(Packet, ChecksumFieldsAreValid) {
  const auto pkt = echo_request(Ipv4Address{203, 0, 113, 7},
                                Ipv4Address{9, 9, 9, 9}, 3, 4,
                                test_payload());
  // IPv4 header checksum validates to zero over the header.
  EXPECT_EQ(internet_checksum(std::span{pkt}.first(Ipv4Header::kSize)), 0);
  // ICMP checksum validates to zero over the ICMP part.
  EXPECT_EQ(internet_checksum(std::span{pkt}.subspan(Ipv4Header::kSize)), 0);
}

/// Property sweep: packet round trip with random payload contents.
class PacketRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketRoundTrip, SurvivesWire) {
  util::Rng rng{GetParam()};
  ProbePayload payload;
  payload.measurement_id = static_cast<std::uint32_t>(rng());
  payload.tx_time_usec = static_cast<std::int64_t>(rng() >> 1);
  payload.original_target = Ipv4Address{static_cast<std::uint32_t>(rng())};
  const Ipv4Address src{static_cast<std::uint32_t>(rng())};
  const Ipv4Address dst = payload.original_target;
  const auto id = static_cast<std::uint16_t>(rng());
  const auto seq = static_cast<std::uint16_t>(rng());

  const auto request = echo_request(src, dst, id, seq, payload);
  ASSERT_TRUE(Ipv4Header::parse(request));
  const auto reply = echo_reply(request, dst);
  const auto parsed = parse_reply_view(reply);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->probe.measurement_id, payload.measurement_id);
  EXPECT_EQ(parsed->probe.tx_time_usec, payload.tx_time_usec);
  EXPECT_EQ(parsed->probe.original_target, payload.original_target);
  EXPECT_EQ(parsed->icmp.identifier, id);
  EXPECT_EQ(parsed->icmp.sequence, seq);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketRoundTrip,
                         ::testing::Range<std::uint64_t>(100, 116));

}  // namespace
}  // namespace vp::net
