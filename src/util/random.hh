/**
 * @file
 * Deterministic pseudo-random number generation for simulation and
 * property-based testing.
 *
 * The simulator requires a fast, reproducible generator whose streams can
 * be split per node so results do not depend on event interleaving. We use
 * xoshiro256** (Blackman & Vigna) seeded through SplitMix64, the
 * recommended seeding procedure for the xoshiro family.
 */

#ifndef EBDA_UTIL_RANDOM_HH
#define EBDA_UTIL_RANDOM_HH

#include <array>
#include <cstdint>

namespace ebda {

/**
 * SplitMix64: a tiny 64-bit generator used to seed xoshiro streams and to
 * derive independent substreams from a master seed.
 */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state(seed) {}

    /** Next 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state;
};

/**
 * xoshiro256**: the main PRNG. Passes BigCrush; period 2^256 - 1.
 *
 * The draw methods are defined inline: the simulator performs one
 * Bernoulli draw per node per cycle, so the generator is hot-loop code.
 */
class Rng
{
  public:
    /** Construct from a master seed; substream selects an independent
     *  stream (e.g. one per network node). */
    explicit Rng(std::uint64_t seed, std::uint64_t substream = 0);

    /** Uniform 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;

        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound) using Lemire's method. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        if (bound == 0)
            return 0;
        // Lemire's nearly-divisionless unbiased bounded generation.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        std::uint64_t l = static_cast<std::uint64_t>(m);
        if (l < bound) {
            std::uint64_t t = -bound % bound;
            while (l < t) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                l = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        // 53 random mantissa bits -> uniform in [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p. */
    bool
    nextBool(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    nextRange(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
            nextBounded(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** @name Raw state access
     *  For block-batched draw engines (sim/event_queue.cc) that advance
     *  many streams in lockstep, one vector lane per stream running
     *  next()'s recurrence, and must hand a stream back to / take it
     *  over from a live Rng without perturbing the sequence. A stream
     *  restored via setState continues bit-identically.
     *  @{ */
    std::array<std::uint64_t, 4>
    state() const
    {
        return {s[0], s[1], s[2], s[3]};
    }

    void
    setState(const std::array<std::uint64_t, 4> &state_)
    {
        s[0] = state_[0];
        s[1] = state_[1];
        s[2] = state_[2];
        s[3] = state_[3];
    }
    /** @} */

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s[4];
};

} // namespace ebda

#endif // EBDA_UTIL_RANDOM_HH
