/**
 * @file
 * Batched Hit-Map probe kernels with runtime dispatch.
 *
 * HitMap::findMany is the hottest loop of the whole simulator -- the
 * [Plan] pre-probe runs it for every table of every batch -- and its
 * layout (parallel open-addressed arrays: 64-bit keys, 32-bit slots)
 * keeps the probe-deciding key array dense and gather-friendly, so
 * the batched probe is implemented as a family of kernels over the
 * raw arrays:
 *
 *   scalar  the software-pipelined prefetch-ring reference (always
 *           compiled; the ground truth every other kernel must match
 *           bit for bit);
 *   avx2    mix64-hash 8 keys per step (64-bit multiplies stay
 *           scalar; AVX2 has no cheap 64x64 lane multiply), then
 *           vpgatherqq the 8 start-bucket keys and vpgatherdd their
 *           slots, with vectorized key-compare / empty-compare masks
 *           settling the common single-probe lanes; the rare
 *           collision chains fall back to the scalar continuation
 *           (compiled in its own TU with a per-file -mavx2, so the
 *           rest of the binary stays portable).
 *
 * Other architectures (aarch64 included) run the scalar reference.
 *
 * Selection: ProbeMode::Auto follows the SP_SIMD environment variable
 * (scalar | native), Scalar/Native pin it per HitMap via the probe=
 * system-spec key. Every kernel returns byte-identical results --
 * enforced by tests/cache/probe_kernel_equivalence_test.cc -- so the
 * choice is a pure perf knob.
 */

#ifndef SP_CACHE_PROBE_KERNEL_H
#define SP_CACHE_PROBE_KERNEL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sp::cache
{

/** Sentinel key marking an empty bucket (never a legal row ID). */
constexpr uint64_t kProbeEmptyKey = 0xffffffffffffffffull;
/** Sentinel probe result on miss (HitMap::kNotFound). */
constexpr uint32_t kProbeNotFound = 0xffffffffu;

/**
 * A read-only view of a HitMap's open addressing state: `mask + 1`
 * power-of-two buckets as parallel arrays -- 64-bit keys (the probe
 * hot stream) and their 32-bit Storage slots, read only on a hit.
 * Valid only while the owning map is not mutated.
 */
struct ProbeTable
{
    const uint64_t *keys = nullptr;
    const uint32_t *slots = nullptr;
    size_t mask = 0;
};

/** Murmur3 64-bit finalizer: good avalanche for sequential IDs. */
inline uint64_t
probeHashKey(uint64_t key)
{
    uint64_t h = key;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

/** Start bucket of `key` in `table`. */
inline size_t
probeBucketFor(const ProbeTable &table, uint64_t key)
{
    return probeHashKey(key) & table.mask;
}

/**
 * Linear-probe `key` from `bucket` until it hits or reaches an empty
 * bucket: the shared collision-continuation every kernel funnels into.
 */
inline uint32_t
probeChainFrom(const ProbeTable &table, size_t bucket, uint64_t key)
{
    for (;;) {
        const uint64_t bucket_key = table.keys[bucket];
        if (bucket_key == kProbeEmptyKey)
            return kProbeNotFound;
        if (bucket_key == key)
            return table.slots[bucket];
        bucket = (bucket + 1) & table.mask;
    }
}

/**
 * A batched-probe implementation: out[i] = probe of keys[i]. Keys are
 * pre-validated by the caller (no kProbeEmptyKey); `out` holds `n`
 * results.
 */
using ProbeKernelFn = void (*)(const ProbeTable &table,
                               const uint64_t *keys, uint32_t *out,
                               size_t n);

/** One compiled kernel. */
struct ProbeKernel
{
    const char *name;        //!< "scalar" / "avx2"
    ProbeKernelFn fn;        //!< the batched probe
    bool (*supported)();     //!< host CPU can execute it right now
};

/** Per-HitMap kernel selection (spec key probe=auto|scalar|native). */
enum class ProbeMode
{
    Auto,   //!< follow the process-wide SP_SIMD preference
    Scalar, //!< pin the scalar reference kernel
    Native, //!< pin the best compiled + supported kernel
};

/** The scalar reference kernel (always compiled, always supported). */
const ProbeKernel &scalarProbeKernel();

/** The AVX2 kernel, or nullptr when this build has no x86-64 TU. */
const ProbeKernel *avx2ProbeKernel();

/**
 * Every kernel in this binary, scalar first. Kernels the host CPU
 * cannot execute are included (check supported()); the equivalence
 * harness enumerates this to prove each one against scalar.
 */
std::vector<const ProbeKernel *> compiledProbeKernels();

/**
 * Resolve a mode to a kernel: Scalar (or Auto under SP_SIMD=scalar)
 * yields the reference kernel; Native yields the widest compiled
 * kernel the CPU supports, falling back to scalar.
 */
const ProbeKernel &selectProbeKernel(ProbeMode mode);

/** Parse a probe= spec value (auto|scalar|native); fatal()s otherwise. */
ProbeMode probeModeFromName(const std::string &name);

/** Spec-key spelling of `mode`. */
const char *probeModeName(ProbeMode mode);

} // namespace sp::cache

#endif // SP_CACHE_PROBE_KERNEL_H
