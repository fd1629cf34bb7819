/**
 * @file
 * The block-batched injection draw engine behind idle-span skipping.
 * See event_queue.hh for the model and the equivalence argument.
 */

#include "sim/event_queue.hh"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/host_threads.hh"

namespace ebda::sim {

namespace {

/** Draws per block pass. One block advances every lane 64 steps. */
constexpr int kBlockCycles = 64;

/** Cycles per window: the unit helpers draw ahead of the serial loop
 *  (64 blocks; long enough that one hand-off per window is noise). */
constexpr std::uint64_t kWindowCycles = 64 * kBlockCycles;

/** One state word of W streams: a GCC/Clang vector of W lanes, or a
 *  plain word at W = 1. */
template <int W>
struct LaneWords
{
    typedef std::uint64_t type __attribute__((vector_size(8 * W)));
};

template <>
struct LaneWords<1>
{
    using type = std::uint64_t;
};

/**
 * The block pass, written once for every width: advance the eight
 * streams of `g`, W at a time, kBlockCycles steps of the xoshiro256**
 * recurrence (Rng::next, lane for lane) and return the mask of streams
 * (bit i: lane i) that drew at least one value whose top 53 bits are
 * below `thr`. Each lane keeps its least draw and takes the hit test
 * once per block: x -> x >> 11 is monotone, so (least >> 11) < thr
 * exactly when some draw passes it. The template is inlined into one
 * wrapper per instruction set, so W follows the vector width that
 * wrapper's target executes.
 */
template <int W>
[[gnu::always_inline]] inline unsigned
passGroup(Lanes8 &g, std::uint64_t thr)
{
    using V = typename LaneWords<W>::type;
    unsigned lane_hits = 0;
    for (int h = 0; h < 8; h += W) {
        V s0, s1, s2, s3;
        std::memcpy(&s0, &g.s[0][h], sizeof(V));
        std::memcpy(&s1, &g.s[1][h], sizeof(V));
        std::memcpy(&s2, &g.s[2][h], sizeof(V));
        std::memcpy(&s3, &g.s[3][h], sizeof(V));
        V least = ~V{};
        for (int b = 0; b < kBlockCycles; ++b) {
            const V x = s1 * 5;
            const V res = ((x << 7) | (x >> 57)) * 9;
            const V t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = (s3 << 45) | (s3 >> 19);
            least = res < least ? res : least;
        }
        std::memcpy(&g.s[0][h], &s0, sizeof(V));
        std::memcpy(&g.s[1][h], &s1, sizeof(V));
        std::memcpy(&g.s[2][h], &s2, sizeof(V));
        std::memcpy(&g.s[3][h], &s3, sizeof(V));
        const auto hit = (least >> 11) < thr;
        if constexpr (W == 1) {
            lane_hits |= static_cast<unsigned>(hit) << h;
        } else {
            for (int i = 0; i < W; ++i)
                if (hit[i])
                    lane_hits |= 1u << (h + i);
        }
    }
    return lane_hits;
}

#if defined(__x86_64__)
__attribute__((target("avx512f"))) unsigned
passGroupAvx512(Lanes8 &g, std::uint64_t thr)
{
    return passGroup<8>(g, thr);
}

__attribute__((target("avx2"))) unsigned
passGroupAvx2(Lanes8 &g, std::uint64_t thr)
{
    return passGroup<4>(g, thr);
}
#endif

unsigned
passGroupBaseline(Lanes8 &g, std::uint64_t thr)
{
    return passGroup<1>(g, thr);
}

/** Streams per vector of the widest block pass this CPU executes. */
unsigned
hostLaneWidth()
{
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx512f"))
        return 8;
    if (__builtin_cpu_supports("avx2"))
        return 4;
#endif
    return 1;
}

InjectionEngine::BlockPass
passOfWidth(unsigned width)
{
    switch (width) {
#if defined(__x86_64__)
      case 8:
        return passGroupAvx512;
      case 4:
        return passGroupAvx2;
#endif
      case 1:
        return passGroupBaseline;
    }
    EBDA_PANIC("no injection block pass of width ", width);
}

} // namespace

unsigned
detail::injectionBlockPass(unsigned width, Lanes8 &g, std::uint64_t thr)
{
    return passOfWidth(width)(g, thr);
}

const char *
injectionEngineSimdPath()
{
    switch (hostLaneWidth()) {
      case 8:
        return "avx512";
      case 4:
        return "avx2";
      default:
        return "scalar";
    }
}

unsigned
InjectionEngine::defaultHelpers()
{
    return hostThreads() - 1;
}

InjectionEngine::InjectionEngine(const std::vector<Router> &routers,
                                 const TrafficGenerator &traffic,
                                 double packet_rate,
                                 std::uint64_t horizon, unsigned helpers)
    : traffic(traffic), horizon(horizon),
      drawEnd((horizon + kBlockCycles - 1) / kBlockCycles * kBlockCycles),
      numWindows((drawEnd + kWindowCycles - 1) / kWindowCycles),
      numNodes(static_cast<std::uint32_t>(routers.size())),
      pass(passOfWidth(hostLaneWidth()))
{
    // nextDouble() < p  <=>  (next() >> 11) < ceil(p * 2^53):
    // p * 2^53 is exact in a double (the product only shifts the
    // exponent), so the integer threshold reproduces the Bernoulli
    // comparison bit for bit.
    thr = static_cast<std::uint64_t>(
        std::ceil(packet_rate * 9007199254740992.0));
    // Pad to whole groups; padding lanes draw from throwaway streams
    // and can never become hits (node id out of range).
    lanes.resize((routers.size() + 7) / 8);
    SplitMix64 filler(0x9e3779b97f4a7c15ULL);
    for (std::size_t g = 0; g < lanes.size(); ++g) {
        for (int i = 0; i < 8; ++i) {
            const std::size_t node = g * 8 + static_cast<std::size_t>(i);
            if (node < routers.size()) {
                const auto st = routers[node].rng.state();
                for (int w = 0; w < 4; ++w)
                    lanes[g].s[w][i] = st[w];
            } else {
                for (int w = 0; w < 4; ++w)
                    lanes[g].s[w][i] = filler.next();
            }
        }
    }
    // Contiguous runs of whole groups, one slice per helper (one
    // slice drawn by the caller when there are none).
    const std::size_t groups = lanes.size();
    const std::size_t n_helpers = std::min<std::size_t>(helpers, groups);
    const std::size_t n_slices = std::max<std::size_t>(n_helpers, 1);
    slices.resize(n_slices);
    for (std::size_t k = 0; k < n_slices; ++k) {
        slices[k].firstGroup = k * groups / n_slices;
        slices[k].endGroup = (k + 1) * groups / n_slices;
    }
    try {
        for (std::size_t k = 0; k < n_helpers; ++k)
            threads.emplace_back([this, k] { helperLoop(slices[k]); });
    } catch (...) {
        stopHelpers();
        throw;
    }
    releaseWindows(kWindowsAhead);
}

InjectionEngine::~InjectionEngine()
{
    stopHelpers();
}

void
InjectionEngine::stopHelpers()
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        stopping = true;
    }
    cvStart.notify_all();
    for (auto &t : threads)
        t.join();
}

void
InjectionEngine::helperLoop(Slice &slice)
{
    for (;;) {
        std::uint64_t w = 0;
        {
            std::unique_lock<std::mutex> lock(mtx);
            cvStart.wait(lock, [&] {
                return stopping
                    || (slice.claimed == slice.drawn
                        && slice.claimed < released);
            });
            if (stopping)
                return;
            w = slice.claimed++;
            ++counts.helper;
        }
        drawWindow(slice, w);
        {
            std::lock_guard<std::mutex> lock(mtx);
            slice.drawn = w + 1;
        }
        cvDone.notify_one();
    }
}

void
InjectionEngine::releaseWindows(std::uint64_t upto)
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        released = std::min(upto, numWindows);
    }
    cvStart.notify_all();
}

void
InjectionEngine::takeWindow()
{
    const std::uint64_t w = taken;
    EBDA_ASSERT(w < numWindows, "injection engine drew past its horizon");
    // A slice whose helper has not started window w (or that has no
    // helper) is drawn here rather than waited for, so the loop never
    // idles on a helper the OS has not run yet.
    for (Slice &slice : slices) {
        {
            std::lock_guard<std::mutex> lock(mtx);
            if (slice.claimed != w)
                continue;
            EBDA_ASSERT(slice.drawn == w, "slice window drawn twice");
            slice.claimed = w + 1;
            ++counts.serial;
        }
        drawWindow(slice, w);
        std::lock_guard<std::mutex> lock(mtx);
        slice.drawn = w + 1;
    }
    {
        std::unique_lock<std::mutex> lock(mtx);
        cvDone.wait(lock, [&] {
            return std::all_of(slices.begin(), slices.end(),
                               [&](const Slice &s) { return s.drawn > w; });
        });
    }
    hits.erase(hits.begin(),
               hits.begin() + static_cast<std::ptrdiff_t>(hitHead));
    hitHead = 0;
    const std::size_t first_new = hits.size();
    for (const Slice &slice : slices)
        for (const Hit &h : slice.hits[w % kWindowsAhead])
            if (h.cycle < horizon)
                hits.push_back(h);
    taken = w + 1;
    frontier = std::min(taken * kWindowCycles, drawEnd);
    // Window w's buffers are copied out, so their slot may take
    // window w + kWindowsAhead while this one is sorted and consumed.
    releaseWindows(taken + kWindowsAhead);
    // Slices appended their hits lane by lane; the consumer needs
    // global (cycle, node) order. Windows are disjoint cycle ranges,
    // so sorting the new tail suffices, and since a node draws once
    // per cycle the order is total: no slice split can change it.
    std::sort(hits.begin() + static_cast<std::ptrdiff_t>(first_new),
              hits.end(), [](const Hit &a, const Hit &b) {
                  return a.cycle != b.cycle ? a.cycle < b.cycle
                                            : a.node < b.node;
              });
}

std::array<std::uint64_t, 4>
InjectionEngine::streamState(std::uint32_t node) const
{
    EBDA_ASSERT(taken == released && node < numNodes,
                "stream state read while a window is in flight");
    const Lanes8 &g = lanes[node / 8];
    const std::size_t i = node % 8;
    return {g.s[0][i], g.s[1][i], g.s[2][i], g.s[3][i]};
}

void
InjectionEngine::drawWindow(Slice &slice, std::uint64_t w)
{
    std::vector<Hit> &out = slice.hits[w % kWindowsAhead];
    out.clear();
    const std::uint64_t end = std::min((w + 1) * kWindowCycles, drawEnd);
    for (std::uint64_t base = w * kWindowCycles; base < end;
         base += kBlockCycles) {
        for (std::size_t g = slice.firstGroup; g < slice.endGroup; ++g) {
            const Lanes8 snap = lanes[g];
            if (const unsigned m = pass(lanes[g], thr))
                replayGroup(g, m, snap, base, out);
        }
    }
}

void
InjectionEngine::replayGroup(std::size_t g, unsigned lane_mask,
                             const Lanes8 &snap, std::uint64_t base,
                             std::vector<Hit> &out)
{
    for (int i = 0; i < 8; ++i) {
        if (!(lane_mask & (1u << i)))
            continue;
        const std::size_t node = g * 8 + static_cast<std::size_t>(i);
        if (node >= numNodes)
            continue;
        Rng rng(0);
        rng.setState({snap.s[0][i], snap.s[1][i], snap.s[2][i],
                      snap.s[3][i]});
        for (int b = 0; b < kBlockCycles; ++b) {
            if ((rng.next() >> 11) >= thr)
                continue;
            // Self-addressed destinations consume their draws but
            // produce no packet, exactly like per-cycle generation.
            const auto d = traffic.dest(static_cast<topo::NodeId>(node),
                                        rng);
            if (d)
                out.push_back({base + static_cast<std::uint64_t>(b),
                               static_cast<std::uint32_t>(node), *d});
        }
        const auto st = rng.state();
        for (int w = 0; w < 4; ++w)
            lanes[g].s[w][i] = st[w];
    }
}
} // namespace ebda::sim
