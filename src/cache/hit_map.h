/**
 * @file
 * The (key, value) store of the GPU embedding cache.
 *
 * The paper's Hit-Map maps a sparse feature ID (key) to the index of
 * the cached embedding inside the Storage array (value); querying it
 * classifies each lookup as hit or miss (Section IV-D). This is the
 * hot structure of the whole runtime -- it sees every sparse ID of
 * every mini-batch -- so it is a purpose-built open-addressing table:
 * linear probing, power-of-two capacity, tombstone-free deletion via
 * backward-shift, zero allocation per op. Keys are the full 64-bit
 * row IDs (tables above 2^32 rows must not alias); values are 32-bit
 * Storage slots. The two live in parallel arrays so the probe hot
 * stream (keys) stays dense and the slot array is only touched on a
 * hit.
 *
 * Batched probes run through the probe-kernel family
 * (cache/probe_kernel.h): scalar software-pipelined reference or
 * AVX2 gather, selected at runtime (SP_SIMD / setProbeMode) and
 * bit-identical by the equivalence harness.
 */

#ifndef SP_CACHE_HIT_MAP_H
#define SP_CACHE_HIT_MAP_H

#include <cstdint>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "cache/probe_kernel.h"

namespace sp::cache
{

/** Open-addressing hash map: sparse ID -> Storage slot. */
class HitMap
{
  public:
    /** Sentinel returned by find() on miss. */
    static constexpr uint32_t kNotFound = 0xffffffffu;

    /** @param expected_entries sizing hint (grows as needed). */
    explicit HitMap(size_t expected_entries = 64);

    /** Number of live entries. */
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Slot for `key`, or kNotFound. */
    uint32_t find(uint64_t key) const;

    /**
     * Batched probe: out[i] = find(keys[i]), executed by the selected
     * probe kernel -- the software-pipelined scalar reference or a
     * SIMD kernel gathering 8 start buckets per step (bit-identical
     * either way). Keys are validated against the reserved sentinel
     * in one pre-pass, off the probe hot loop. `out` must hold
     * keys.size() entries.
     */
    void findMany(std::span<const uint64_t> keys,
                  std::span<uint32_t> out) const;

    /** True if `key` is present. */
    bool contains(uint64_t key) const { return find(key) != kNotFound; }

    /**
     * Insert key -> slot. The key must not already be present
     * (the cache controller never double-inserts); panics otherwise.
     */
    void insert(uint64_t key, uint32_t slot);

    /**
     * Bulk-load keys n-1, ..., 0 with slot == key into this empty map:
     * the warm-start resident set. Inserts in exactly that descending
     * order, so the bucket arrays come out byte-identical to n
     * descending insert(k, k) calls, but prefetches each home bucket
     * a few dozen keys ahead and skips the per-insert grow check. The
     * map must already be sized for n (HitMap(n) is); panics
     * otherwise.
     */
    void loadIdentity(uint32_t n);

    /** Remove `key`; panics if absent (controller invariant). */
    void erase(uint64_t key);

    /** Remove all entries. */
    void clear();

    /** Visit every (key, slot) pair (unspecified order). */
    void forEach(const std::function<void(uint64_t, uint32_t)> &fn) const;

    /** Current bucket count (power of two). */
    size_t capacity() const { return keys_.size(); }

    /** Approximate heap bytes used (overhead accounting, §VI-D). */
    size_t memoryBytes() const;

    /**
     * Raw view of the open-addressing array for the probe kernels
     * (and the fuzz harness's chain-invariant checks). Invalidated by
     * any mutation.
     */
    ProbeTable probeTable() const
    {
        return {keys_.data(), slots_.data(), mask_};
    }

    /**
     * Pin this map's batched-probe kernel (spec key probe=). Auto
     * (the default) follows the process-wide SP_SIMD preference; the
     * choice is a pure perf knob -- every kernel is bit-identical.
     */
    void setProbeMode(ProbeMode mode) { kernel_ = &selectProbeKernel(mode); }

    /** Name of the kernel findMany currently dispatches to. */
    const char *probeKernelName() const { return kernel_->name; }

  private:
    // All-ones is the one 64-bit value no table geometry can produce
    // as a row ID (it would need 2^64 rows), so it marks empty
    // buckets; every 2^32-boundary ID, including 0xffffffff, is legal.
    static constexpr uint64_t kEmptyKey = kProbeEmptyKey;

    size_t bucketFor(uint64_t key) const;
    uint32_t probeFrom(size_t bucket, uint64_t key) const;
    void grow();
#ifdef SP_CHECK_INVARIANTS
    void checkClusterAfterErase(uint64_t erased_key, size_t start) const;
#endif

    // Parallel arrays: keys_ is the probe hot stream (8 buckets per
    // 64-byte line), slots_ is read only on a hit.
    std::vector<uint64_t> keys_;
    std::vector<uint32_t> slots_;
    size_t size_ = 0;
    size_t mask_ = 0;
    const ProbeKernel *kernel_ = &selectProbeKernel(ProbeMode::Auto);
};

} // namespace sp::cache

#endif // SP_CACHE_HIT_MAP_H
