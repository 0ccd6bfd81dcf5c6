#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "common/cycle_clock.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"

namespace grd {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesMessage) {
  Status s = OutOfRange("address 0x10 outside partition");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(s.ToString(), "OUT_OF_RANGE: address 0x10 outside partition");
}

TEST(Status, AllConstructorsMapToCodes) {
  EXPECT_EQ(InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(OutOfMemory("x").code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(PermissionDenied("x").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(FailedPrecondition("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Aborted("x").code(), StatusCode::kAborted);
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsStatus) {
  Result<int> r = NotFound("kernel");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Doubled(Result<int> in) {
  GRD_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_EQ(Doubled(Internal("boom")).status().code(), StatusCode::kInternal);
}

TEST(Bits, PowerOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(16u << 20));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_EQ(NextPowerOfTwo(0), 1u);
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(17), 32u);
  EXPECT_EQ(NextPowerOfTwo(1u << 20), 1u << 20);
  EXPECT_EQ(NextPowerOfTwo(1ull << 63), 1ull << 63);
  // No uint64 power of two is >= these: 0, never undefined behavior.
  EXPECT_EQ(NextPowerOfTwo((1ull << 63) + 1), 0u);
  EXPECT_EQ(NextPowerOfTwo(~std::uint64_t{0}), 0u);
}

TEST(Bits, Alignment) {
  EXPECT_EQ(AlignUp(13, 8), 16u);
  EXPECT_EQ(AlignUp(16, 8), 16u);
  EXPECT_EQ(AlignDown(13, 8), 8u);
  EXPECT_TRUE(IsAligned(256, 256));
  EXPECT_FALSE(IsAligned(257, 256));
}

TEST(Bits, PaperFigure4MaskExample) {
  // Paper §4.3: partition start 0x7fa2d0000000, size 16MB -> end
  // 0x7fa2d0FFFFFF, mask 0x000000FFFFFF.
  const std::uint64_t base = 0x7fa2d0000000ull;
  const std::uint64_t size = 16ull << 20;
  EXPECT_EQ(PartitionMask(size), 0x000000FFFFFFull);
  EXPECT_EQ(base + size - 1, 0x7fa2d0FFFFFFull);
}

TEST(Bits, FenceIdentityInBounds) {
  const std::uint64_t base = 0x7fa2d0000000ull;
  const std::uint64_t size = 16ull << 20;
  const std::uint64_t mask = PartitionMask(size);
  for (std::uint64_t off : {std::uint64_t{0}, std::uint64_t{1},
                            std::uint64_t{4096}, size - 1}) {
    EXPECT_EQ(FenceAddress(base + off, base, mask), base + off);
  }
}

TEST(Bits, FenceWrapsOutOfBounds) {
  // Figure 4: an address in a neighbour's partition wraps into the own one.
  const std::uint64_t base = 0x7fa2d0000000ull;
  const std::uint64_t size = 16ull << 20;
  const std::uint64_t mask = PartitionMask(size);
  const std::uint64_t neighbour = 0x7fa1d0000000ull + 100;
  const std::uint64_t fenced = FenceAddress(neighbour, base, mask);
  EXPECT_GE(fenced, base);
  EXPECT_LT(fenced, base + size);
}

TEST(Bits, FenceModuloMatchesBitwiseForPow2) {
  Rng rng(7);
  const std::uint64_t base = 0x100000000ull;
  const std::uint64_t size = 1ull << 24;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t addr = base + rng.NextBelow(1ull << 30);
    EXPECT_EQ(FenceAddress(addr, base, PartitionMask(size)),
              FenceAddressModulo(addr, base, size));
  }
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, BoundsRespected) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    const auto v = rng.NextInRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Strings, ToHex) { EXPECT_EQ(ToHex(0x7fa2d0000000ull), "0x7fa2d0000000"); }

TEST(Strings, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(176ull << 20), "176 MB");
  EXPECT_EQ(HumanBytes((2ull << 30) + (819ull << 20)), "2.8 GB");
}

TEST(Strings, SplitAndTrim) {
  const auto lines = SplitLines("a\nb\n\nc");
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[2], "");
  EXPECT_EQ(TrimWhitespace("  x \t"), "x");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_TRUE(StartsWith("cudaMalloc", "cuda"));
  EXPECT_FALSE(StartsWith("cu", "cuda"));
}

TEST(LogSpec, BareLevelSetsGlobalFloor) {
  const LogSpec spec = ParseLogSpec("debug");
  EXPECT_TRUE(spec.has_global);
  EXPECT_EQ(spec.global, LogLevel::kDebug);
  EXPECT_TRUE(spec.components.empty());
}

TEST(LogSpec, ComponentOverridesAndGlobalMix) {
  const LogSpec spec = ParseLogSpec("error,grdManager=debug, Server = info ");
  EXPECT_TRUE(spec.has_global);
  EXPECT_EQ(spec.global, LogLevel::kError);
  ASSERT_EQ(spec.components.size(), 2u);
  EXPECT_EQ(spec.components[0].first, "grdManager");
  EXPECT_EQ(spec.components[0].second, LogLevel::kDebug);
  EXPECT_EQ(spec.components[1].first, "Server");
  EXPECT_EQ(spec.components[1].second, LogLevel::kInfo);
}

TEST(LogSpec, WarningAliasAndAllLevelNames) {
  EXPECT_EQ(ParseLogSpec("warning").global, LogLevel::kWarn);
  EXPECT_EQ(ParseLogSpec("warn").global, LogLevel::kWarn);
  EXPECT_EQ(ParseLogSpec("info").global, LogLevel::kInfo);
  EXPECT_EQ(ParseLogSpec("error").global, LogLevel::kError);
}

TEST(LogSpec, MalformedEntriesAreSkippedNotFatal) {
  // A bad GRD_LOG must never take the process down: junk entries vanish,
  // valid ones still apply.
  const LogSpec spec = ParseLogSpec("bogus,=debug,x=,x=shout,,info,a=warn");
  EXPECT_TRUE(spec.has_global);
  EXPECT_EQ(spec.global, LogLevel::kInfo);
  ASSERT_EQ(spec.components.size(), 1u);
  EXPECT_EQ(spec.components[0].first, "a");
  EXPECT_EQ(spec.components[0].second, LogLevel::kWarn);
}

TEST(LogSpec, EmptySpecChangesNothing) {
  const LogSpec spec = ParseLogSpec("");
  EXPECT_FALSE(spec.has_global);
  EXPECT_TRUE(spec.components.empty());
}

TEST(LogSpec, LoggerLevelForUsesOverrideElseGlobal) {
  Logger& logger = Logger::Instance();
  const LogLevel saved = logger.level();

  logger.ApplySpec(ParseLogSpec("error,Noisy=debug"));
  EXPECT_EQ(logger.level(), LogLevel::kError);
  EXPECT_EQ(logger.LevelFor("Noisy"), LogLevel::kDebug);
  EXPECT_EQ(logger.LevelFor("Other"), LogLevel::kError);

  // A spec without a global keeps the current one and replaces overrides.
  logger.ApplySpec(ParseLogSpec("Quiet=error"));
  EXPECT_EQ(logger.level(), LogLevel::kError);
  EXPECT_EQ(logger.LevelFor("Noisy"), LogLevel::kError);
  EXPECT_EQ(logger.LevelFor("Quiet"), LogLevel::kError);

  logger.ApplySpec(LogSpec{});  // clear overrides
  logger.set_level(saved);
}

TEST(CycleClock, MonotonicNonTrivial) {
  const auto a = CycleClock::Now();
  volatile int sink = 0;
  for (int i = 0; i < 1000; ++i) sink = sink + i;
  const auto b = CycleClock::Now();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace grd
