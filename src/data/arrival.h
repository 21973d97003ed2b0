/**
 * @file
 * Open-loop request arrival processes for the serving engine.
 *
 * An ArrivalProcess emits a nondecreasing stream of absolute arrival
 * times (seconds of virtual time) for inference requests, independent
 * of how fast the server drains them -- the open-loop discipline that
 * makes tail latency visible when offered load exceeds capacity.
 *
 * Three processes share one mean rate `rate` (requests/second):
 *
 *   poisson  exponential inter-arrival gaps, -ln(u)/rate
 *   uniform  deterministic 1/rate spacing (closed-form pacing)
 *   bursty   a rate-modulated Poisson: the on-phase of every
 *            (burst_on + burst_off)-second period runs at
 *            rate * burst_x, the off-phase at whatever non-negative
 *            rate keeps the long-run mean equal to `rate`
 *
 * Determinism: draws come from a private splitmix64 stream seeded as
 * mix64(seed ^ kStreamArrival * golden-gamma) -- the same
 * stream-constant discipline as WorkloadShaper's churn/burst streams
 * -- so arrival times are a pure function of (config, seed) and never
 * perturb, or get perturbed by, the trace/workload streams.
 *
 * The uniform draw is clamped to (0, 1]: a raw draw of exactly 0
 * would make the exponential gap -ln(0)/rate infinite and wedge the
 * virtual clock.
 */

#ifndef SP_DATA_ARRIVAL_H
#define SP_DATA_ARRIVAL_H

#include <cstdint>
#include <string>

namespace sp::data
{

/** Which inter-arrival process generates request timestamps. */
enum class ArrivalKind
{
    Poisson,
    Uniform,
    Bursty,
};

/** Spec-grammar name ("poisson"/"uniform"/"bursty"). */
const char *arrivalKindName(ArrivalKind kind);

/** Inverse of arrivalKindName(); fatal() on unknown names. */
ArrivalKind arrivalKindFromName(const std::string &name);

/** Shape of the open-loop request stream. */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /** Long-run mean request rate, requests/second. Must be a
     *  positive, finite number: rate=0 would divide every
     *  inter-arrival gap by zero. */
    double rate = 1.0e6;
    /** Bursty only: on-phase rate multiplier (>= 1; the three burst
     *  keys are range-checked whatever the kind). */
    double burst_x = 8.0;
    /** Bursty only: on-phase length, microseconds (> 0). Spec-facing
     *  durations are stored in the unit they are typed in so the spec
     *  grammar round-trips exactly. */
    double burst_on_us = 500.0;
    /** Bursty only: off-phase length, microseconds (> 0). */
    double burst_off_us = 4500.0;

    /**
     * Human-readable reason this config is invalid, or "" when it is
     * fine (same contract as WorkloadConfig::validationError). Checks
     * the rate, the burst keys' ranges and, for bursty, that the
     * off-phase rate implied by the mean-preserving modulation is
     * non-negative
     * (burst_x * burst_on_us <= burst_on_us + burst_off_us).
     */
    std::string validationError() const;
};

/** Deterministic generator of absolute arrival times. */
class ArrivalProcess
{
  public:
    /** fatal() when `config` fails validationError(). */
    ArrivalProcess(const ArrivalConfig &config, uint64_t seed);

    /** Absolute time of the next arrival (nondecreasing, finite). */
    double next();

    /** Time of the most recently emitted arrival (0 before any). */
    double now() const { return now_; }

  private:
    /** One draw in (0, 1] -- clamped away from 0, see file comment. */
    double uniformDraw();

    ArrivalConfig config_;
    uint64_t state_;
    double now_ = 0.0;
    /** Bursty: phase lengths in seconds, derived once. */
    double on_seconds_ = 0.0;
    double off_seconds_ = 0.0;
    /** Bursty: derived off-phase rate keeping the long-run mean. */
    double off_rate_ = 0.0;
};

} // namespace sp::data

#endif // SP_DATA_ARRIVAL_H
