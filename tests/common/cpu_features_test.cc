/** @file CPU feature detection and SP_SIMD parsing tests. */

#include <gtest/gtest.h>

#include "common/cpu_features.h"
#include "common/logging.h"

namespace sp::common
{
namespace
{

TEST(CpuFeatures, ParseSimdPreference)
{
    EXPECT_EQ(parseSimdPreference("scalar"), SimdPreference::Scalar);
    EXPECT_EQ(parseSimdPreference("native"), SimdPreference::Native);
    // Unset / empty means "use the best kernel" -- the default a user
    // who never heard of SP_SIMD should get.
    EXPECT_EQ(parseSimdPreference(nullptr), SimdPreference::Native);
    EXPECT_EQ(parseSimdPreference(""), SimdPreference::Native);
    EXPECT_THROW(parseSimdPreference("avx2"), FatalError);
    EXPECT_THROW(parseSimdPreference("Scalar"), FatalError);
}

TEST(CpuFeatures, PreferenceNames)
{
    EXPECT_STREQ(simdPreferenceName(SimdPreference::Scalar), "scalar");
    EXPECT_STREQ(simdPreferenceName(SimdPreference::Native), "native");
}

TEST(CpuFeatures, DetectionIsStableAndArchConsistent)
{
    // Answers are runner-dependent but must be stable within one
    // process, and AVX2 never appears off x86-64.
    EXPECT_EQ(cpuSupportsAvx2(), cpuSupportsAvx2());
#if !defined(__x86_64__) && !defined(_M_X64)
    EXPECT_FALSE(cpuSupportsAvx2());
#endif
}

TEST(CpuFeatures, ProcessPreferenceIsLatched)
{
    // Whatever SP_SIMD the process started with, repeated reads agree
    // (kernel selection must not flip mid-run).
    EXPECT_EQ(simdPreference(), simdPreference());
}

} // namespace
} // namespace sp::common
