// Scalar helpers shared by the engine (engine.cpp) and the reference
// engine (interpreter.cpp). Both engines must produce bit-identical results
// and identical faults — the parity suite compares them — so the width
// masking / sign extension / float reinterpretation primitives and the
// alignment rule live here exactly once.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/status.hpp"
#include "common/strings.hpp"

namespace grd::ptxexec::scalar {

// Shared-memory addresses are tagged so fenced global arithmetic can never
// collide with them (fencing applies only to global/local accesses anyway).
inline constexpr std::uint64_t kSharedTag = 0x4000'0000'0000'0000ull;

// A GPU faults a global access whose address is not a multiple of its full
// size (type width x vector lanes: 1..8 x 1/2/4, always a power of two).
// Both engines check before the access policy sees the address, so a
// misaligned pointer can never straddle a partition end past a fence.
// Shared-segment accesses are bounds-checked per block instead.
inline bool MisalignedGlobal(std::uint64_t addr, std::size_t bytes) {
  return (addr & (bytes - 1)) != 0 && (addr & kSharedTag) == 0;
}

// The one status both engines fault a misaligned global access with.
inline Status MisalignedAccess(std::uint64_t addr, std::size_t bytes,
                               bool is_store) {
  return InvalidArgument("device fault: misaligned " + std::to_string(bytes) +
                         "-byte " + (is_store ? "store" : "load") + " at " +
                         ToHex(addr));
}

inline std::uint64_t MaskToWidth(std::uint64_t v, std::size_t bytes) {
  if (bytes >= 8) return v;
  return v & ((std::uint64_t{1} << (bytes * 8)) - 1);
}

inline std::int64_t SignExtend(std::uint64_t v, std::size_t bytes) {
  if (bytes >= 8) return static_cast<std::int64_t>(v);
  const int shift = static_cast<int>(64 - bytes * 8);
  return static_cast<std::int64_t>(v << shift) >> shift;
}

// Float-to-integer cvt as PTX defines it: truncated toward zero, clamped to
// the `bytes`-wide destination's range, NaN converted to 0. A plain cast of
// an out-of-range double would be undefined behaviour a kernel could reach.
inline std::uint64_t FloatToInt(double v, std::size_t bytes, bool is_signed) {
  if (std::isnan(v)) return 0;
  const int bits = static_cast<int>(bytes * 8);
  if (is_signed) {
    const double limit = std::ldexp(1.0, bits - 1);
    const std::uint64_t max = (std::uint64_t{1} << (bits - 1)) - 1;
    if (v >= limit) return max;
    if (v <= -limit) return MaskToWidth(~max, bytes);
    return MaskToWidth(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)),
                       bytes);
  }
  if (v <= 0.0) return 0;
  if (v >= std::ldexp(1.0, bits)) return MaskToWidth(~std::uint64_t{0}, bytes);
  return static_cast<std::uint64_t>(v);
}

inline float AsF32(std::uint64_t bits) {
  float f;
  const auto b = static_cast<std::uint32_t>(bits);
  std::memcpy(&f, &b, sizeof(f));
  return f;
}

inline std::uint64_t F32Bits(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, sizeof(b));
  return b;
}

inline double AsF64(std::uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

inline std::uint64_t F64Bits(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

}  // namespace grd::ptxexec::scalar
