// Interpreter arithmetic/control edge cases: every opcode family the
// patcher or the library kernels rely on, executed via small PTX snippets.
#include <gtest/gtest.h>

#include "ptx/parser.hpp"
#include "ptxexec/interpreter.hpp"

namespace grd::ptxexec {
namespace {

// Runs a kernel body that writes a u64 result to [out]. The body may use
// %rd1 (preloaded with the out pointer, already cvta'd) and args a, b as
// u64 params %rd2, %rd3.
class ArithTest : public ::testing::Test {
 protected:
  ArithTest() : memory_(1 << 20), interp_(&memory_, nullptr, 1) {}

  Result<std::uint64_t> Run(const std::string& body, std::uint64_t a = 0,
                            std::uint64_t b = 0) {
    const std::string src = R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry t(.param .u64 p_out, .param .u64 p_a, .param .u64 p_b)
{
    .reg .pred %p<4>;
    .reg .f32 %f<8>;
    .reg .f64 %fd<8>;
    .reg .b32 %r<16>;
    .reg .b64 %rd<16>;
    ld.param.u64 %rd1, [p_out];
    ld.param.u64 %rd2, [p_a];
    ld.param.u64 %rd3, [p_b];
    cvta.to.global.u64 %rd1, %rd1;
)" + body + R"(
    ret;
}
)";
    auto module = ptx::Parse(src);
    if (!module.ok()) return module.status();
    LaunchParams params;
    params.args = {KernelArg::U64(0x1000), KernelArg::U64(a),
                   KernelArg::U64(b)};
    auto stats = interp_.Execute(*module, "t", params);
    if (!stats.ok()) return stats.status();
    return memory_.Load<std::uint64_t>(0x1000);
  }

  simgpu::GlobalMemory memory_;
  Interpreter interp_;
};

TEST_F(ArithTest, SignedDivisionTruncatesTowardZero) {
  auto r = Run(R"(
    div.s32 %r1, %rd2, %rd3;
    cvt.s64.s32 %rd4, %r1;
    st.global.u64 [%rd1], %rd4;
)", static_cast<std::uint64_t>(-7), 2);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(static_cast<std::int64_t>(*r), -3);
}

TEST_F(ArithTest, UnsignedRemainder) {
  auto r = Run(R"(
    rem.u64 %rd4, %rd2, %rd3;
    st.global.u64 [%rd1], %rd4;
)", 1000003, 97);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 1000003ull % 97);
}

TEST_F(ArithTest, DivisionByZeroYieldsZeroNotCrash) {
  auto r = Run(R"(
    div.u32 %r1, %rd2, %rd3;
    cvt.u64.u32 %rd4, %r1;
    st.global.u64 [%rd1], %rd4;
)", 42, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0u);
}

TEST_F(ArithTest, MulHiUnsigned) {
  auto r = Run(R"(
    mul.hi.u32 %r1, %rd2, %rd3;
    cvt.u64.u32 %rd4, %r1;
    st.global.u64 [%rd1], %rd4;
)", 0xFFFFFFFF, 0xFFFFFFFF);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0xFFFFFFFEull);  // high 32 of (2^32-1)^2
}

TEST_F(ArithTest, MulWideSignedNegative) {
  auto r = Run(R"(
    mul.wide.s32 %rd4, %rd2, %rd3;
    st.global.u64 [%rd1], %rd4;
)", static_cast<std::uint32_t>(-3), 5);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(static_cast<std::int64_t>(*r), -15);
}

TEST_F(ArithTest, SignedMinMax) {
  auto r = Run(R"(
    min.s32 %r1, %rd2, %rd3;
    max.s32 %r2, %rd2, %rd3;
    add.s32 %r3, %r1, %r2;
    cvt.s64.s32 %rd4, %r3;
    st.global.u64 [%rd1], %rd4;
)", static_cast<std::uint64_t>(-10), 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(static_cast<std::int64_t>(*r), -7);
}

TEST_F(ArithTest, ArithmeticShiftRight) {
  auto r = Run(R"(
    shr.s32 %r1, %rd2, 2;
    cvt.s64.s32 %rd4, %r1;
    st.global.u64 [%rd1], %rd4;
)", static_cast<std::uint32_t>(-16), 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(static_cast<std::int64_t>(*r), -4);  // sign-preserving
}

TEST_F(ArithTest, LogicalShiftRight) {
  auto r = Run(R"(
    shr.u32 %r1, %rd2, 2;
    cvt.u64.u32 %rd4, %r1;
    st.global.u64 [%rd1], %rd4;
)", 0xFFFFFFF0, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0x3FFFFFFCull);
}

TEST_F(ArithTest, ShiftLeftMasksToWidth) {
  auto r = Run(R"(
    shl.b32 %r1, %rd2, 8;
    cvt.u64.u32 %rd4, %r1;
    st.global.u64 [%rd1], %rd4;
)", 0x01000001, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 0x00000100ull);  // bit 24 shifted out of 32-bit lane
}

TEST_F(ArithTest, SelpSelectsByPredicate) {
  auto r = Run(R"(
    setp.lt.u64 %p1, %rd2, %rd3;
    selp.b64 %rd4, 111, 222, %p1;
    st.global.u64 [%rd1], %rd4;
)", 1, 2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 111u);
  auto r2 = Run(R"(
    setp.lt.u64 %p1, %rd2, %rd3;
    selp.b64 %rd4, 111, 222, %p1;
    st.global.u64 [%rd1], %rd4;
)", 5, 2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, 222u);
}

TEST_F(ArithTest, UnsignedComparisonAliases) {
  // lo/ls/hi/hs are the unsigned spellings.
  auto r = Run(R"(
    setp.hi.u32 %p1, %rd2, %rd3;
    selp.b64 %rd4, 1, 0, %p1;
    st.global.u64 [%rd1], %rd4;
)", 0xFFFFFFFF, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 1u);  // unsigned: 0xFFFFFFFF > 1
}

TEST_F(ArithTest, SignedComparisonOfNegative) {
  auto r = Run(R"(
    setp.lt.s32 %p1, %rd2, %rd3;
    selp.b64 %rd4, 1, 0, %p1;
    st.global.u64 [%rd1], %rd4;
)", static_cast<std::uint32_t>(-5), 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 1u);  // signed: -5 < 1
}

TEST_F(ArithTest, NegatedPredicateGuard) {
  auto r = Run(R"(
    setp.eq.u64 %p1, %rd2, 0;
    mov.u64 %rd4, 7;
    @!%p1 mov.u64 %rd4, 9;
    st.global.u64 [%rd1], %rd4;
)", 5, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 9u);  // a != 0, negated guard fires
}

TEST_F(ArithTest, FloatConversionRoundTrip) {
  auto r = Run(R"(
    cvt.rn.f32.u64 %f1, %rd2;
    mul.f32 %f2, %f1, 0f40000000;
    cvt.rzi.u64.f32 %rd4, %f2;
    st.global.u64 [%rd1], %rd4;
)", 21, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42u);  // (float)21 * 2.0 -> 42
}

TEST_F(ArithTest, DoublePrecisionChain) {
  auto r = Run(R"(
    cvt.rn.f64.u64 %fd1, %rd2;
    sqrt.rn.f64 %fd2, %fd1;
    cvt.rzi.u64.f64 %rd4, %fd2;
    st.global.u64 [%rd1], %rd4;
)", 144, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 12u);
}

TEST_F(ArithTest, NotAndXorChain) {
  auto r = Run(R"(
    not.b64 %rd4, %rd2;
    xor.b64 %rd4, %rd4, %rd3;
    st.global.u64 [%rd1], %rd4;
)", 0x00FF, 0xFF00);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (~0x00FFull) ^ 0xFF00ull);
}

TEST_F(ArithTest, AbsOfNegative) {
  auto r = Run(R"(
    neg.s64 %rd4, %rd2;
    abs.s64 %rd4, %rd4;
    st.global.u64 [%rd1], %rd4;
)", 17, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 17u);
}

TEST_F(ArithTest, SubByteLoadsSignExtend) {
  ASSERT_TRUE(memory_.Store<std::uint8_t>(0x2000, 0xFF).ok());
  auto r = Run(R"(
    mov.u64 %rd5, 8192;
    ld.global.s8 %r1, [%rd5];
    cvt.s64.s32 %rd4, %r1;
    st.global.u64 [%rd1], %rd4;
)");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(static_cast<std::int64_t>(*r), -1);
}

TEST_F(ArithTest, TwoDimensionalGrid) {
  const auto module = ptx::Parse(R"(
.version 7.7
.target sm_86
.address_size 64
.visible .entry grid2d(.param .u64 p0)
{
    .reg .b32 %r<8>;
    .reg .b64 %rd<6>;
    ld.param.u64 %rd1, [p0];
    cvta.to.global.u64 %rd1, %rd1;
    mov.u32 %r1, %ctaid.y;
    mov.u32 %r2, %nctaid.x;
    mov.u32 %r3, %ctaid.x;
    mad.lo.s32 %r4, %r1, %r2, %r3;
    mov.u32 %r5, %tid.y;
    mov.u32 %r6, %ntid.x;
    mov.u32 %r7, %tid.x;
    mad.lo.s32 %r5, %r5, %r6, %r7;
    mad.lo.s32 %r4, %r4, 4, %r5;
    mul.wide.u32 %rd2, %r4, 4;
    add.s64 %rd3, %rd1, %rd2;
    st.global.u32 [%rd3], %r4;
    ret;
}
)");
  ASSERT_TRUE(module.ok()) << module.status();
  LaunchParams params;
  params.grid = {2, 2, 1};
  params.block = {2, 2, 1};
  params.args = {KernelArg::U64(0x4000)};
  ASSERT_TRUE(interp_.Execute(*module, "grid2d", params).ok());
  // 16 distinct linear ids, each written to its own slot.
  for (std::uint32_t i = 0; i < 16; ++i) {
    auto v = memory_.Load<std::uint32_t>(0x4000 + i * 4);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, i);
  }
}

}  // namespace
}  // namespace grd::ptxexec
