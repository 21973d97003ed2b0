#include "core/hold_mask.h"

#include <algorithm>

#include "common/logging.h"

namespace sp::core
{

HoldMask::HoldMask(uint32_t num_slots, uint32_t past_window,
                   uint32_t future_window)
    : num_slots_(num_slots), past_window_(past_window),
      future_window_(future_window)
{
    fatalIf(num_slots == 0, "HoldMask needs at least one slot");
    fatalIf(widthBits() > kHoldMaskBits, "hold-mask window of ",
            widthBits(), " bits exceeds the ", kHoldMaskBits,
            "-bit mask storage");
    masks_.assign(num_slots_, 0);
}

void
HoldMask::advance()
{
    for (auto &mask : masks_)
        mask = static_cast<uint16_t>(mask >> 1);
}

void
HoldMask::markCurrent(uint32_t slot)
{
    panicIf(slot >= num_slots_, "markCurrent of bad slot ", slot);
    masks_[slot] =
        static_cast<uint16_t>(masks_[slot] | (1u << past_window_));
}

void
HoldMask::markFuture(uint32_t slot, uint32_t distance)
{
    panicIf(slot >= num_slots_, "markFuture of bad slot ", slot);
    panicIf(distance == 0 || distance > future_window_,
            "markFuture distance ", distance, " outside window of ",
            future_window_);
    masks_[slot] = static_cast<uint16_t>(
        masks_[slot] | (1u << (past_window_ + distance)));
}

void
HoldMask::markCurrentShared(uint32_t slot)
{
    panicIf(slot >= num_slots_, "markCurrent of bad slot ", slot);
    std::atomic_ref<uint16_t>(masks_[slot])
        .fetch_or(static_cast<uint16_t>(1u << past_window_),
                  std::memory_order_relaxed);
}

void
HoldMask::markFutureShared(uint32_t slot, uint32_t distance)
{
    panicIf(slot >= num_slots_, "markFuture of bad slot ", slot);
    panicIf(distance == 0 || distance > future_window_,
            "markFuture distance ", distance, " outside window of ",
            future_window_);
    std::atomic_ref<uint16_t>(masks_[slot])
        .fetch_or(static_cast<uint16_t>(1u << (past_window_ + distance)),
                  std::memory_order_relaxed);
}

uint32_t
HoldMask::heldCount() const
{
    return static_cast<uint32_t>(
        std::count_if(masks_.begin(), masks_.end(),
                      [](uint16_t m) { return m != 0; }));
}

} // namespace sp::core
