/**
 * @file
 * Property tests for the arena containers: FlitRing (the per-VC view
 * into the fabric's flit slab, sim/flit.hh) against a std::deque
 * reference model, and RingQueue (the source-queue container,
 * util/ring_queue.hh) against the same model. Random push/pop/erase
 * sequences drive both containers through capacity wraparound — the
 * regime where head+count exceeds the slab width and every access has
 * to fold the index — and assert element-for-element agreement.
 */

#include <cstdint>
#include <deque>
#include <vector>

#include <gtest/gtest.h>

#include "sim/flit.hh"
#include "util/ring_queue.hh"
#include "util/random.hh"

namespace ebda::sim {
namespace {

Flit
mkFlit(std::uint32_t pkt, bool head = false, bool tail = false)
{
    Flit f;
    f.pkt = pkt;
    f.head = head;
    f.tail = tail;
    f.arrival = pkt * 7 + 1;
    return f;
}

void
expectEqual(const FlitRing &ring, const std::deque<Flit> &model)
{
    ASSERT_EQ(ring.size(), model.size());
    ASSERT_EQ(ring.empty(), model.empty());
    for (std::size_t k = 0; k < model.size(); ++k) {
        EXPECT_EQ(ring[k].pkt, model[k].pkt) << "index " << k;
        EXPECT_EQ(ring[k].head, model[k].head) << "index " << k;
        EXPECT_EQ(ring[k].tail, model[k].tail) << "index " << k;
        EXPECT_EQ(ring[k].arrival, model[k].arrival) << "index " << k;
    }
    if (!model.empty()) {
        EXPECT_EQ(ring.front().pkt, model.front().pkt);
    }
    // Iterator order must agree with indexed order.
    std::size_t k = 0;
    for (const Flit &f : ring) {
        EXPECT_EQ(f.pkt, model[k].pkt) << "iterator index " << k;
        ++k;
    }
    EXPECT_EQ(k, model.size());
}

TEST(FlitRing, WrapsAroundCapacityBoundary)
{
    constexpr std::uint32_t kCap = 4;
    std::vector<Flit> slab(kCap);
    FlitRing ring;
    ring.bind(slab.data(), kCap);

    // Walk the head all the way around the slab: after each
    // push/pop pair the head advances one slot, so 3 * kCap rounds
    // cross the wrap boundary several times with the ring non-empty.
    std::deque<Flit> model;
    for (std::uint32_t i = 0; i < 3 * kCap; ++i) {
        ring.push_back(mkFlit(i));
        model.push_back(mkFlit(i));
        ring.push_back(mkFlit(i + 100));
        model.push_back(mkFlit(i + 100));
        expectEqual(ring, model);
        ring.pop_front();
        model.pop_front();
        ring.pop_front();
        model.pop_front();
        expectEqual(ring, model);
    }
}

TEST(FlitRing, RandomOpsMatchDequeModel)
{
    constexpr std::uint32_t kCap = 8;
    std::vector<Flit> slab(kCap);
    FlitRing ring;
    ring.bind(slab.data(), kCap);
    std::deque<Flit> model;

    Rng rng(0xF117);
    std::uint32_t next = 0;
    for (int step = 0; step < 20000; ++step) {
        const auto op = rng.next() % 4;
        if (op <= 1) { // push (biased so the ring stays loaded)
            if (model.size() < kCap) {
                const Flit f =
                    mkFlit(next, next % 4 == 0, next % 4 == 3);
                ++next;
                ring.push_back(f);
                model.push_back(f);
            }
        } else if (op == 2) {
            if (!model.empty()) {
                ring.pop_front();
                model.pop_front();
            }
        } else {
            if (!model.empty()) {
                ring.pop_back();
                model.pop_back();
            }
        }
        ASSERT_EQ(ring.size(), model.size());
        if (!model.empty()) {
            ASSERT_EQ(ring.front().pkt, model.front().pkt);
            ASSERT_EQ(ring[model.size() - 1].pkt,
                      model.back().pkt);
        }
        if (step % 97 == 0)
            expectEqual(ring, model);
    }
    expectEqual(ring, model);
}

TEST(FlitRing, EraseIfUnderWrapPreservesOrder)
{
    constexpr std::uint32_t kCap = 6;
    std::vector<Flit> slab(kCap);
    FlitRing ring;
    ring.bind(slab.data(), kCap);
    std::deque<Flit> model;

    Rng rng(0xE6A5E);
    std::uint32_t next = 0;
    for (int round = 0; round < 4000; ++round) {
        // Load to a random fill, advancing the head so erase runs
        // with the live span wrapped across the slab end.
        const std::size_t fill = 1 + rng.next() % kCap;
        while (model.size() < fill) {
            const Flit f = mkFlit(next++);
            ring.push_back(f);
            model.push_back(f);
        }
        // The purge predicate the fault injector uses: kill every
        // flit of a victim packet set (here: pkt % 3 == victim).
        const std::uint32_t victim = rng.next() % 3;
        const auto pred = [victim](const Flit &f) {
            return f.pkt % 3 == victim;
        };
        const std::size_t removed = ring.eraseIf(pred);
        std::size_t modelRemoved = 0;
        for (auto it = model.begin(); it != model.end();) {
            if (pred(*it)) {
                it = model.erase(it);
                ++modelRemoved;
            } else {
                ++it;
            }
        }
        ASSERT_EQ(removed, modelRemoved) << "round " << round;
        expectEqual(ring, model);
        // Drain a random amount to walk the head forward.
        const std::size_t drop =
            model.empty() ? 0 : rng.next() % (model.size() + 1);
        for (std::size_t i = 0; i < drop; ++i) {
            ring.pop_front();
            model.pop_front();
        }
    }
}

TEST(RingQueue, RandomOpsMatchDequeModel)
{
    RingQueue<std::uint32_t> queue;
    std::deque<std::uint32_t> model;

    Rng rng(0x51E9E);
    std::uint32_t next = 0;
    for (int step = 0; step < 30000; ++step) {
        const auto op = rng.next() % 5;
        if (op <= 2) { // push-biased: forces regrowth mid-wrap
            queue.push_back(next);
            model.push_back(next);
            ++next;
        } else if (op == 3) {
            if (!model.empty()) {
                queue.pop_front();
                model.pop_front();
            }
        } else if (!model.empty()) {
            // In-place erase of a residue class, as
            // dropDeadQueuedPackets does for dead destinations.
            const std::uint32_t victim = rng.next() % 7;
            queue.eraseIf([victim](std::uint32_t v) {
                return v % 7 == victim;
            });
            for (auto it = model.begin(); it != model.end();) {
                if (*it % 7 == victim)
                    it = model.erase(it);
                else
                    ++it;
            }
        }
        ASSERT_EQ(queue.size(), model.size());
        for (std::size_t k = 0; k < model.size(); ++k)
            ASSERT_EQ(queue[k], model[k]) << "step " << step;
    }
}

TEST(RingQueue, ReserveThenSteadyChurnKeepsCapacity)
{
    RingQueue<std::uint32_t> queue;
    queue.reserve(8);
    const std::size_t cap0 = queue.capacity();
    ASSERT_GE(cap0, 8u);
    // Bounded churn below the reserved capacity must never regrow —
    // this is the steady-state no-allocation contract the simulator's
    // source queues rely on.
    for (std::uint32_t i = 0; i < 1000; ++i) {
        queue.push_back(i);
        queue.push_back(i + 1);
        queue.pop_front();
        queue.pop_front();
    }
    EXPECT_EQ(queue.capacity(), cap0);
    EXPECT_TRUE(queue.empty());
}

} // namespace
} // namespace ebda::sim
