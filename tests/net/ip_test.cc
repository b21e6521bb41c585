#include "net/ip.h"

#include <gtest/gtest.h>

#include <iomanip>
#include <ostream>

#include "core/check.h"

namespace gametrace::net {
namespace {

TEST(Ipv4Address, OctetConstruction) {
  const Ipv4Address a(192, 168, 0, 10);
  EXPECT_EQ(a.value(), 0xC0A8000Au);
  EXPECT_EQ(a.ToString(), "192.168.0.10");
}

TEST(Ipv4Address, BoundaryValues) {
  EXPECT_EQ(Ipv4Address(0, 0, 0, 0).ToString(), "0.0.0.0");
  EXPECT_EQ(Ipv4Address(255, 255, 255, 255).ToString(), "255.255.255.255");
}

TEST(Ipv4Address, Ordering) {
  EXPECT_LT(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2));
  EXPECT_EQ(Ipv4Address(1, 2, 3, 4), Ipv4Address(0x01020304));
}

struct ParseCase {
  const char* text;
  bool ok;
  std::uint32_t value;
};

// gtest would otherwise print the case as its raw bytes, pointer and padding
// included, and CTest names each case after that print; this keeps the names
// the same from one build to the next.
void PrintTo(const ParseCase& c, std::ostream* os) {
  *os << '\'' << c.text << "' -> ";
  if (!c.ok) {
    *os << "invalid";
    return;
  }
  *os << "0x" << std::hex << std::setw(8) << std::setfill('0') << c.value
      << std::dec;
}

class Ipv4ParseTest : public ::testing::TestWithParam<ParseCase> {};

TEST_P(Ipv4ParseTest, Parse) {
  const auto& c = GetParam();
  const auto parsed = Ipv4Address::Parse(c.text);
  EXPECT_EQ(parsed.has_value(), c.ok) << c.text;
  if (c.ok && parsed) {
    EXPECT_EQ(parsed->value(), c.value) << c.text;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Ipv4ParseTest,
    ::testing::Values(ParseCase{"1.2.3.4", true, 0x01020304},
                      ParseCase{"0.0.0.0", true, 0},
                      ParseCase{"255.255.255.255", true, 0xffffffff},
                      ParseCase{"192.168.0.10", true, 0xC0A8000A},
                      ParseCase{"256.1.1.1", false, 0},
                      ParseCase{"1.2.3", false, 0},
                      ParseCase{"1.2.3.4.5", false, 0},
                      ParseCase{"1..3.4", false, 0},
                      ParseCase{"", false, 0},
                      ParseCase{"a.b.c.d", false, 0},
                      ParseCase{"1.2.3.4 ", false, 0},
                      ParseCase{"01.2.3.4", false, 0},  // ambiguous leading zero
                      ParseCase{"-1.2.3.4", false, 0}));

TEST(Ipv4Address, RoundTripParseFormat) {
  for (std::uint32_t v : {0u, 1u, 0xC0A8000Au, 0x0A000001u, 0xFFFFFFFFu}) {
    const Ipv4Address a(v);
    const auto parsed = Ipv4Address::Parse(a.ToString());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->value(), v);
  }
}

TEST(Ipv4Prefix, MaskAndContains) {
  const Ipv4Prefix p(Ipv4Address(10, 1, 0, 0), 16);
  EXPECT_EQ(p.mask(), 0xFFFF0000u);
  EXPECT_TRUE(p.Contains(Ipv4Address(10, 1, 2, 3)));
  EXPECT_FALSE(p.Contains(Ipv4Address(10, 2, 0, 0)));
  EXPECT_EQ(p.ToString(), "10.1.0.0/16");
}

TEST(Ipv4Prefix, HostBitsZeroed) {
  const Ipv4Prefix p(Ipv4Address(10, 1, 2, 3), 16);
  EXPECT_EQ(p.address(), Ipv4Address(10, 1, 0, 0));
}

TEST(Ipv4Prefix, DefaultRouteContainsEverything) {
  const Ipv4Prefix p(Ipv4Address(1, 2, 3, 4), 0);
  EXPECT_EQ(p.mask(), 0u);
  EXPECT_TRUE(p.Contains(Ipv4Address(255, 255, 255, 255)));
  EXPECT_TRUE(p.Contains(Ipv4Address(0, 0, 0, 0)));
}

TEST(Ipv4Prefix, HostRoute) {
  const Ipv4Prefix p(Ipv4Address(10, 0, 0, 1), 32);
  EXPECT_TRUE(p.Contains(Ipv4Address(10, 0, 0, 1)));
  EXPECT_FALSE(p.Contains(Ipv4Address(10, 0, 0, 2)));
}

TEST(Ipv4Prefix, LengthValidation) {
  EXPECT_THROW(Ipv4Prefix(Ipv4Address(0u), -1), gametrace::ContractViolation);
  EXPECT_THROW(Ipv4Prefix(Ipv4Address(0u), 33), gametrace::ContractViolation);
}

}  // namespace
}  // namespace gametrace::net
