/**
 * @file
 * Runtime CPU feature detection and the SP_SIMD knob.
 *
 * The AVX2 probe kernel (src/cache/probe_kernel.h) is compiled in its
 * own translation unit with a per-file -mavx2, so the binary stays
 * portable and the kernel is picked at run time. This header answers the two
 * questions that selection needs: what the host CPU supports, and
 * what the user asked for via the SP_SIMD environment variable
 * (scalar | native, default native).
 */

#ifndef SP_COMMON_CPU_FEATURES_H
#define SP_COMMON_CPU_FEATURES_H

namespace sp::common
{

/** True when the host CPU executes AVX2 (x86-64 only; false elsewhere). */
bool cpuSupportsAvx2();

/** User intent for SIMD kernel selection. */
enum class SimdPreference
{
    Scalar, //!< force the scalar reference kernels everywhere
    Native, //!< best kernel the build and the CPU both support
};

/**
 * Parse an SP_SIMD value ("scalar" or "native"); fatal()s on anything
 * else. Split out from simdPreference() so tests can exercise the
 * parsing without mutating the process environment.
 */
SimdPreference parseSimdPreference(const char *value);

/**
 * The process-wide preference: SP_SIMD when set, else Native. Read
 * once and cached -- kernel selection must not flip mid-run.
 */
SimdPreference simdPreference();

/** "scalar" / "native". */
const char *simdPreferenceName(SimdPreference preference);

} // namespace sp::common

#endif // SP_COMMON_CPU_FEATURES_H
