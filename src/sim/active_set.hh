/**
 * @file
 * The active-set scheduler: an index set over a fixed universe that
 * lets the simulator visit only components with pending work (input
 * VCs holding flits, links with owned output VCs, nodes with pending
 * ejections) instead of rescanning the whole fabric every cycle.
 *
 * Bit-identity contract: a sweep visits the scheduled indices in
 * exactly the rotated ascending order the monolithic simulator used to
 * scan the full range in — `offset, offset+1, ..., N-1, 0, ...,
 * offset-1` restricted to members — so as long as the skipped indices
 * would have been no-ops (the scheduling invariant each caller
 * maintains), every arbitration decision is unchanged.
 *
 * Representation: one bit per universe index, swept word-at-a-time
 * with count-trailing-zeros. Rotated ascending order falls out of the
 * scan for free, membership insert/test/drop are O(1) bit ops, and a
 * sweep costs O(universe/64 + members) with no sorting and no heap
 * traffic; it stops at its last member, so an empty set costs nothing
 * and a sparse one only the words up to that member. The previous
 * sorted-vector representation re-sorted and compacted its index list
 * almost every sweep, which profiling showed as a fixed per-cycle tax
 * rivalling the switch allocator itself.
 *
 * Membership is idempotent; items scheduled during a sweep of the SAME
 * set are parked in a pending list and join when that sweep finishes
 * (callers never need same-sweep visibility — activations during a
 * stage always target a different set). Removal is decided by the
 * visitor's return value; each index is visited at most once per sweep
 * because the word's bits are snapshotted before visiting it.
 */

#ifndef EBDA_SIM_ACTIVE_SET_HH
#define EBDA_SIM_ACTIVE_SET_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace ebda::sim {

/** Bitmap index set with O(1) idempotent insertion and rotated
 *  word-scan sweeps. */
class ActiveSet
{
  public:
    explicit ActiveSet(std::size_t universe)
        : words((universe + 63) / 64, 0), n(universe)
    {
        pending.reserve(16);
    }

    /** Add index i (no-op when already scheduled). Inside a sweep of
     *  this same set the index is parked and joins afterwards. */
    void
    schedule(std::size_t i)
    {
        if (sweeping) {
            pending.push_back(i);
            return;
        }
        set(i);
    }

    bool
    contains(std::size_t i) const
    {
        return (words[i >> 6] >> (i & 63)) & 1;
    }

    /** Number of scheduled indices. */
    std::size_t size() const { return cnt; }

    std::size_t universe() const { return n; }

    /**
     * Visit every member in rotated ascending order starting at the
     * first member >= offset. The visitor returns true to keep the
     * index scheduled, false to drop it. Dropped indices may be
     * re-scheduled later; indices scheduled mid-sweep are visited from
     * the next sweep on. Since nothing joins mid-sweep, the sweep ends
     * as soon as it has visited as many members as the set held at its
     * start, without scanning the words past the last one.
     */
    template <typename Fn>
    void
    sweep(std::size_t offset, Fn &&fn)
    {
        if (cnt == 0)
            return;
        sweeping = true;
        std::size_t left = cnt;
        if (scanRange(offset, n, left, fn))
            scanRange(0, std::min(offset, n), left, fn);
        sweeping = false;
        for (const std::size_t i : pending)
            set(i);
        pending.clear();
    }

  private:
    void
    set(std::size_t i)
    {
        std::uint64_t &w = words[i >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (i & 63);
        if (!(w & bit)) {
            w |= bit;
            ++cnt;
        }
    }

    /** Visit members in [lo, hi) in ascending order, counting `left`
     *  down per visit; false once it reaches 0 (nothing left to
     *  visit). */
    template <typename Fn>
    bool
    scanRange(std::size_t lo, std::size_t hi, std::size_t &left, Fn &fn)
    {
        if (lo >= hi)
            return true;
        std::size_t w = lo >> 6;
        const std::size_t last = (hi - 1) >> 6;
        std::uint64_t bits =
            words[w] & (~std::uint64_t{0} << (lo & 63));
        for (;;) {
            if (w == last && (hi & 63))
                bits &= ~std::uint64_t{0} >> (64 - (hi & 63));
            while (bits) {
                const std::size_t i = (w << 6)
                    + static_cast<std::size_t>(std::countr_zero(bits));
                bits &= bits - 1;
                if (!fn(i)) {
                    words[w] &= ~(std::uint64_t{1} << (i & 63));
                    --cnt;
                }
                if (--left == 0)
                    return false;
            }
            if (w == last)
                return true;
            bits = words[++w];
        }
    }

    /** Membership bits over the universe. */
    std::vector<std::uint64_t> words;
    /** Indices scheduled during a sweep of this set (flushed after). */
    std::vector<std::size_t> pending;
    std::size_t n;
    /** Set bits in `words` (pending excluded until flushed). */
    std::size_t cnt = 0;
    bool sweeping = false;
};

} // namespace ebda::sim

#endif // EBDA_SIM_ACTIVE_SET_HH
