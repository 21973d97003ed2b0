#include "cache/hit_map.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace sp::cache
{

HitMap::HitMap(size_t expected_entries)
{
    size_t buckets = std::bit_ceil(std::max<size_t>(
        16, expected_entries * 2));
    keys_.assign(buckets, kEmptyKey);
    slots_.assign(buckets, 0);
    mask_ = buckets - 1;
}

size_t
HitMap::bucketFor(uint64_t key) const
{
    return probeHashKey(key) & mask_;
}

uint32_t
HitMap::probeFrom(size_t bucket, uint64_t key) const
{
    return probeChainFrom(probeTable(), bucket, key);
}

uint32_t
HitMap::find(uint64_t key) const
{
    panicIf(key == kEmptyKey,
            "HitMap does not support key 2^64-1 (empty sentinel)");
    return probeFrom(bucketFor(key), key);
}

void
HitMap::findMany(std::span<const uint64_t> keys,
                 std::span<uint32_t> out) const
{
    panicIf(out.size() != keys.size(),
            "findMany output size ", out.size(), " != key count ",
            keys.size());
    // Single validation pre-pass shared by every kernel: the reserved
    // sentinel is rejected up front instead of per key inside the
    // probe hot loop (a trivially vectorized scan over the key
    // stream, vs a branch per probe).
    panicIf(std::ranges::find(keys, kEmptyKey) != keys.end(),
            "HitMap does not support key 2^64-1 (empty sentinel)");
    kernel_->fn(probeTable(), keys.data(), out.data(), keys.size());
}

void
HitMap::insert(uint64_t key, uint32_t slot)
{
    panicIf(key == kEmptyKey,
            "HitMap does not support key 2^64-1 (empty sentinel)");
    if ((size_ + 1) * 10 >= keys_.size() * 7)
        grow();
    size_t bucket = bucketFor(key);
    while (keys_[bucket] != kEmptyKey) {
        panicIf(keys_[bucket] == key,
                "HitMap::insert of already-present key ", key);
        bucket = (bucket + 1) & mask_;
    }
    keys_[bucket] = key;
    slots_[bucket] = slot;
    ++size_;
}

void
HitMap::loadIdentity(uint32_t n)
{
    panicIf(size_ != 0, "HitMap::loadIdentity needs an empty map, it "
                        "holds ", size_, " entries");
    // Same bound as insert()'s grow check at the last of n inserts.
    panicIf(static_cast<uint64_t>(n) * 10 >= keys_.size() * 7,
            "HitMap::loadIdentity of ", n, " keys needs more than ",
            keys_.size(), " buckets");
    // Each insert is a DRAM miss into a table far larger than cache;
    // hashing kDistance keys ahead and prefetching both arrays' home
    // lines overlaps those misses. The ring keeps each hashed bucket
    // until its key's turn, as the scalar probe kernel does.
    constexpr uint32_t kDistance = 32;
    size_t ring[kDistance];
    const auto hashAhead = [&](uint32_t i) {
        const size_t bucket = bucketFor(n - 1 - i);
        __builtin_prefetch(keys_.data() + bucket, 1);
        __builtin_prefetch(slots_.data() + bucket, 1);
        ring[i % kDistance] = bucket;
    };
    for (uint32_t i = 0; i < std::min(n, kDistance); ++i)
        hashAhead(i);
    for (uint32_t i = 0; i < n; ++i) {
        const uint32_t key = n - 1 - i;
        size_t bucket = ring[i % kDistance];
        if (i + kDistance < n)
            hashAhead(i + kDistance);
        while (keys_[bucket] != kEmptyKey)
            bucket = (bucket + 1) & mask_;
        keys_[bucket] = key;
        slots_[bucket] = key;
    }
    size_ = n;
}

void
HitMap::erase(uint64_t key)
{
    panicIf(key == kEmptyKey,
            "HitMap does not support key 2^64-1 (empty sentinel)");
    size_t bucket = bucketFor(key);
    while (keys_[bucket] != key) {
        panicIf(keys_[bucket] == kEmptyKey,
                "HitMap::erase of absent key ", key);
        bucket = (bucket + 1) & mask_;
    }

    // Backward-shift deletion: close the probe chain without
    // tombstones so load factor never degrades.
    const size_t start = bucket;
    size_t hole = bucket;
    size_t probe = (hole + 1) & mask_;
    while (keys_[probe] != kEmptyKey) {
        const size_t home = bucketFor(keys_[probe]);
        // The entry at `probe` can fill the hole if its home bucket
        // does not lie (cyclically) between hole (exclusive) and
        // probe (inclusive).
        const bool can_move =
            ((probe - home) & mask_) >= ((probe - hole) & mask_);
        if (can_move) {
            keys_[hole] = keys_[probe];
            slots_[hole] = slots_[probe];
            hole = probe;
        }
        probe = (probe + 1) & mask_;
    }
    keys_[hole] = kEmptyKey;
    --size_;
#ifdef SP_CHECK_INVARIANTS
    checkClusterAfterErase(key, start);
#else
    (void)start;
#endif
}

#ifdef SP_CHECK_INVARIANTS
/**
 * Checked-invariant build only: the backward shift rearranged exactly
 * the buckets from the erased key's position to the new hole, so walk
 * that region and re-probe every entry from its home bucket. Any
 * entry the shift stranded behind an empty bucket (the classic
 * backward-shift bug) fails its re-probe here, at the erase that
 * broke it, instead of as a phantom miss many batches later.
 */
void
HitMap::checkClusterAfterErase(uint64_t erased_key, size_t start) const
{
    SP_ASSERT(probeFrom(bucketFor(erased_key), erased_key) == kNotFound,
              "erased key ", erased_key, " is still reachable");
    size_t probe = start;
    while (keys_[probe] != kEmptyKey) {
        const uint64_t key = keys_[probe];
        const uint32_t slot = slots_[probe];
        SP_ASSERT(probeFrom(bucketFor(key), key) == slot,
                  "backward-shift broke the probe chain: key ", key,
                  " in bucket ", probe, " no longer reachable from its "
                  "home bucket ", bucketFor(key));
        probe = (probe + 1) & mask_;
    }
}
#endif

void
HitMap::clear()
{
    std::fill(keys_.begin(), keys_.end(), kEmptyKey);
    size_ = 0;
}

void
HitMap::forEach(const std::function<void(uint64_t, uint32_t)> &fn) const
{
    for (size_t bucket = 0; bucket < keys_.size(); ++bucket) {
        if (keys_[bucket] != kEmptyKey)
            fn(keys_[bucket], slots_[bucket]);
    }
}

size_t
HitMap::memoryBytes() const
{
    return keys_.capacity() * sizeof(uint64_t) +
           slots_.capacity() * sizeof(uint32_t);
}

void
HitMap::grow()
{
    std::vector<uint64_t> old_keys = std::move(keys_);
    std::vector<uint32_t> old_slots = std::move(slots_);
    keys_.assign(old_keys.size() * 2, kEmptyKey);
    slots_.assign(old_slots.size() * 2, 0);
    mask_ = keys_.size() - 1;
    size_ = 0;
    for (size_t bucket = 0; bucket < old_keys.size(); ++bucket) {
        if (old_keys[bucket] != kEmptyKey)
            insert(old_keys[bucket], old_slots[bucket]);
    }
}

} // namespace sp::cache
