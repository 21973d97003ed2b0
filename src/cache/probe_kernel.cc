#include "cache/probe_kernel.h"

#include <algorithm>

#include "common/cpu_features.h"
#include "common/logging.h"

namespace sp::cache
{

namespace
{

/**
 * The scalar reference: a two-stage software pipeline over a small
 * ring. Stage 1 hashes key i+D and prefetches its start bucket; stage
 * 2 probes key i from the bucket hashed D iterations ago. Keeping the
 * hashed bucket in the ring avoids recomputing it at probe time, and
 * the prefetch distance gives DRAM time to deliver the line.
 */
void
probeScalar(const ProbeTable &table, const uint64_t *keys, uint32_t *out,
            size_t n)
{
    // splint:hot-path-begin(probe-kernel-scalar)
    constexpr size_t kDistance = 12;
    size_t ring[kDistance];

    const size_t lead = std::min(n, kDistance);
    for (size_t i = 0; i < lead; ++i) {
        const size_t bucket = probeBucketFor(table, keys[i]);
        ring[i % kDistance] = bucket;
        __builtin_prefetch(table.keys + bucket);
    }
    for (size_t i = 0; i < n; ++i) {
        if (i + kDistance < n) {
            const size_t ahead = probeBucketFor(table, keys[i + kDistance]);
            __builtin_prefetch(table.keys + ahead);
            // The probe below frees ring slot i % kDistance; the
            // lookahead bucket lands in it right after.
            const size_t bucket = ring[i % kDistance];
            ring[i % kDistance] = ahead;
            out[i] = probeChainFrom(table, bucket, keys[i]);
        } else {
            out[i] = probeChainFrom(table, ring[i % kDistance], keys[i]);
        }
    }
    // splint:hot-path-end
}

bool
alwaysSupported()
{
    return true;
}

constexpr ProbeKernel kScalarKernel = {"scalar", probeScalar,
                                       alwaysSupported};

} // namespace

const ProbeKernel &
scalarProbeKernel()
{
    return kScalarKernel;
}

std::vector<const ProbeKernel *>
compiledProbeKernels()
{
    std::vector<const ProbeKernel *> kernels = {&kScalarKernel};
    if (const ProbeKernel *avx2 = avx2ProbeKernel())
        kernels.push_back(avx2);
    return kernels;
}

const ProbeKernel &
selectProbeKernel(ProbeMode mode)
{
    if (mode == ProbeMode::Auto) {
        mode = common::simdPreference() ==
                       common::SimdPreference::Scalar
                   ? ProbeMode::Scalar
                   : ProbeMode::Native;
    }
    if (mode == ProbeMode::Scalar)
        return kScalarKernel;
    // Native: the widest kernel both compiled into this binary and
    // executable on this CPU. Bit-identical to scalar by the
    // equivalence contract, so falling back is always safe.
    if (const ProbeKernel *avx2 = avx2ProbeKernel();
        avx2 != nullptr && avx2->supported())
        return *avx2;
    return kScalarKernel;
}

ProbeMode
probeModeFromName(const std::string &name)
{
    if (name == "auto")
        return ProbeMode::Auto;
    if (name == "scalar")
        return ProbeMode::Scalar;
    if (name == "native")
        return ProbeMode::Native;
    fatal("unknown probe kernel mode '", name,
          "' (auto, scalar, native)");
}

const char *
probeModeName(ProbeMode mode)
{
    switch (mode) {
    case ProbeMode::Auto:
        return "auto";
    case ProbeMode::Scalar:
        return "scalar";
    case ProbeMode::Native:
        return "native";
    }
    panic("invalid ProbeMode ", static_cast<int>(mode));
}

} // namespace sp::cache
