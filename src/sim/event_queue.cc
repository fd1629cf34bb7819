/**
 * @file
 * The block-batched injection draw engine behind idle-span skipping.
 * See event_queue.hh for the model and the equivalence argument.
 */

#include "sim/event_queue.hh"

#include <algorithm>
#include <cmath>

#include "util/host_threads.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ebda::sim {

namespace {

int
detectSimdPath()
{
#if defined(__x86_64__)
    // The kernels need AVX512F (rol, unsigned compare-to-mask) plus
    // AVX512DQ (64-bit mullo); avx2 covers the 256-bit fallback.
    if (__builtin_cpu_supports("avx512f")
        && __builtin_cpu_supports("avx512dq"))
        return 2;
    if (__builtin_cpu_supports("avx2"))
        return 1;
#endif
    return 0;
}

/** Draws per block pass. One block advances every lane 64 steps. */
constexpr int kBlockCycles = 64;

/** Cycles per window: the unit helpers draw ahead of the serial loop
 *  (64 blocks; long enough that one hand-off per window is noise). */
constexpr std::uint64_t kWindowCycles = 64 * kBlockCycles;

/**
 * Scalar block pass: advance the four lanes kBlockCycles draws through
 * the scalar Rng itself (the reference recurrence by definition) and
 * report which lanes saw at least one sub-threshold draw.
 */
unsigned
passGroupScalar(Lanes4 &g, std::uint64_t thr)
{
    unsigned lane_hits = 0;
    for (int i = 0; i < 4; ++i) {
        Rng rng(0);
        rng.setState({g.s[0][i], g.s[1][i], g.s[2][i], g.s[3][i]});
        for (int b = 0; b < kBlockCycles; ++b)
            if ((rng.next() >> 11) < thr)
                lane_hits |= 1u << i;
        const auto st = rng.state();
        for (int w = 0; w < 4; ++w)
            g.s[w][i] = st[w];
    }
    return lane_hits;
}

#if defined(__x86_64__)

/**
 * AVX2 block pass over one group (4 lanes). The vector recurrence is
 * the exact xoshiro256** step — rotl(s1*5,7)*9 with the multiplies
 * strength-reduced to shift+add (AVX2 has no 64-bit mullo) — so lane
 * streams match Rng::next() bit for bit. Signed cmpgt is safe: draws
 * are pre-shifted to 53 bits and thr <= 2^53, both far below 2^63.
 */
__attribute__((target("avx2"))) unsigned
passGroupAvx2(Lanes4 &g, std::uint64_t thr)
{
    __m256i s0 = _mm256_load_si256(reinterpret_cast<__m256i *>(g.s[0]));
    __m256i s1 = _mm256_load_si256(reinterpret_cast<__m256i *>(g.s[1]));
    __m256i s2 = _mm256_load_si256(reinterpret_cast<__m256i *>(g.s[2]));
    __m256i s3 = _mm256_load_si256(reinterpret_cast<__m256i *>(g.s[3]));
    const __m256i vthr =
        _mm256_set1_epi64x(static_cast<long long>(thr));
    unsigned lane_hits = 0;
    for (int b = 0; b < kBlockCycles; ++b) {
        const __m256i x5 =
            _mm256_add_epi64(s1, _mm256_slli_epi64(s1, 2));
        const __m256i r = _mm256_or_si256(_mm256_slli_epi64(x5, 7),
                                          _mm256_srli_epi64(x5, 57));
        const __m256i res =
            _mm256_add_epi64(r, _mm256_slli_epi64(r, 3));
        const __m256i t = _mm256_slli_epi64(s1, 17);
        s2 = _mm256_xor_si256(s2, s0);
        s3 = _mm256_xor_si256(s3, s1);
        s1 = _mm256_xor_si256(s1, s2);
        s0 = _mm256_xor_si256(s0, s3);
        s2 = _mm256_xor_si256(s2, t);
        s3 = _mm256_or_si256(_mm256_slli_epi64(s3, 45),
                             _mm256_srli_epi64(s3, 19));
        const __m256i k = _mm256_srli_epi64(res, 11);
        const __m256i hit = _mm256_cmpgt_epi64(vthr, k);
        lane_hits |= static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(hit)));
    }
    _mm256_store_si256(reinterpret_cast<__m256i *>(g.s[0]), s0);
    _mm256_store_si256(reinterpret_cast<__m256i *>(g.s[1]), s1);
    _mm256_store_si256(reinterpret_cast<__m256i *>(g.s[2]), s2);
    _mm256_store_si256(reinterpret_cast<__m256i *>(g.s[3]), s3);
    return lane_hits;
}

/**
 * AVX-512 block pass over two groups (8 lanes packed per register,
 * group a in the low 256 bits). Returns the 8-bit lane-hit mask:
 * bits 0-3 group a, bits 4-7 group b.
 */
__attribute__((target("avx512f,avx512dq"))) unsigned
passPairAvx512(Lanes4 &a, Lanes4 &b, std::uint64_t thr)
{
    // No lambda helpers: a lambda is its own function and does not
    // inherit this function's target attribute (the 256-bit loads
    // would fail to inline under the default ISA).
#define EBDA_PACK512(lo, hi)                                          \
    _mm512_inserti64x4(                                               \
        _mm512_castsi256_si512(                                       \
            _mm256_load_si256(reinterpret_cast<__m256i *>(lo))),      \
        _mm256_load_si256(reinterpret_cast<__m256i *>(hi)), 1)
    __m512i s0 = EBDA_PACK512(a.s[0], b.s[0]);
    __m512i s1 = EBDA_PACK512(a.s[1], b.s[1]);
    __m512i s2 = EBDA_PACK512(a.s[2], b.s[2]);
    __m512i s3 = EBDA_PACK512(a.s[3], b.s[3]);
#undef EBDA_PACK512
    const __m512i five = _mm512_set1_epi64(5);
    const __m512i nine = _mm512_set1_epi64(9);
    const __m512i vthr =
        _mm512_set1_epi64(static_cast<long long>(thr));
    __mmask8 lane_hits = 0;
    for (int b_i = 0; b_i < kBlockCycles; ++b_i) {
        const __m512i res = _mm512_mullo_epi64(
            _mm512_rol_epi64(_mm512_mullo_epi64(s1, five), 7), nine);
        const __m512i t = _mm512_slli_epi64(s1, 17);
        s2 = _mm512_xor_si512(s2, s0);
        s3 = _mm512_xor_si512(s3, s1);
        s1 = _mm512_xor_si512(s1, s2);
        s0 = _mm512_xor_si512(s0, s3);
        s2 = _mm512_xor_si512(s2, t);
        s3 = _mm512_rol_epi64(s3, 45);
        lane_hits = _kor_mask8(
            lane_hits,
            _mm512_cmplt_epu64_mask(_mm512_srli_epi64(res, 11), vthr));
    }
#define EBDA_UNPACK512(z, lo, hi)                                     \
    _mm256_store_si256(reinterpret_cast<__m256i *>(lo),               \
                       _mm512_castsi512_si256(z));                    \
    _mm256_store_si256(reinterpret_cast<__m256i *>(hi),               \
                       _mm512_extracti64x4_epi64(z, 1))
    EBDA_UNPACK512(s0, a.s[0], b.s[0]);
    EBDA_UNPACK512(s1, a.s[1], b.s[1]);
    EBDA_UNPACK512(s2, a.s[2], b.s[2]);
    EBDA_UNPACK512(s3, a.s[3], b.s[3]);
#undef EBDA_UNPACK512
    return static_cast<unsigned>(lane_hits);
}

#endif // __x86_64__

} // namespace

const char *
injectionEngineSimdPath()
{
    switch (detectSimdPath()) {
      case 2:
        return "avx512";
      case 1:
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
      path(detectSimdPath())
{
    // nextDouble() < p  <=>  (next() >> 11) < ceil(p * 2^53):
    // p * 2^53 is exact in a double (the product only shifts the
    // exponent), so the integer threshold reproduces the Bernoulli
    // comparison bit for bit.
    thr = static_cast<std::uint64_t>(
        std::ceil(packet_rate * 9007199254740992.0));
    // Pad to a whole, even number of groups so the AVX-512 path
    // can always take pairs; padding lanes draw from throwaway
    // streams and can never become hits (node id out of range).
    const std::size_t groups = (routers.size() + 3) / 4;
    lanes.resize(groups + (groups & 1));
    SplitMix64 filler(0x9e3779b97f4a7c15ULL);
    for (std::size_t g = 0; g < lanes.size(); ++g) {
        for (int i = 0; i < 4; ++i) {
            const std::size_t node = g * 4 + static_cast<std::size_t>(i);
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
    // Contiguous runs of whole lane pairs, one slice per helper (one
    // slice drawn by the caller when there are none).
    const std::size_t pairs = lanes.size() / 2;
    const std::size_t n_helpers = std::min<std::size_t>(helpers, pairs);
    const std::size_t n_slices = std::max<std::size_t>(n_helpers, 1);
    slices.resize(n_slices);
    for (std::size_t k = 0; k < n_slices; ++k) {
        slices[k].firstGroup = 2 * (k * pairs / n_slices);
        slices[k].endGroup = 2 * ((k + 1) * pairs / n_slices);
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
    const Lanes4 &g = lanes[node / 4];
    const std::size_t i = node % 4;
    return {g.s[0][i], g.s[1][i], g.s[2][i], g.s[3][i]};
}

void
InjectionEngine::drawWindow(Slice &slice, std::uint64_t w)
{
    std::vector<Hit> &out = slice.hits[w % kWindowsAhead];
    out.clear();
    const std::uint64_t end = std::min((w + 1) * kWindowCycles, drawEnd);
    const std::size_t g_end = slice.endGroup;
    for (std::uint64_t base = w * kWindowCycles; base < end;
         base += kBlockCycles) {
        std::size_t g = slice.firstGroup;
#if defined(__x86_64__)
        if (path == 2) {
            for (; g < g_end; g += 2) {
                const Lanes4 snap_a = lanes[g];
                const Lanes4 snap_b = lanes[g + 1];
                const unsigned m =
                    passPairAvx512(lanes[g], lanes[g + 1], thr);
                if (m & 0x0fu)
                    replayGroup(g, m & 0x0fu, snap_a, base, out);
                if (m & 0xf0u)
                    replayGroup(g + 1, (m >> 4) & 0x0fu, snap_b, base,
                                out);
            }
        } else if (path == 1) {
            for (; g < g_end; ++g) {
                const Lanes4 snap = lanes[g];
                const unsigned m = passGroupAvx2(lanes[g], thr);
                if (m)
                    replayGroup(g, m, snap, base, out);
            }
        }
#endif
        for (; g < g_end; ++g) {
            const Lanes4 snap = lanes[g];
            const unsigned m = passGroupScalar(lanes[g], thr);
            if (m)
                replayGroup(g, m, snap, base, out);
        }
    }
}

void
InjectionEngine::replayGroup(std::size_t g, unsigned lane_mask,
                             const Lanes4 &snap, std::uint64_t base,
                             std::vector<Hit> &out)
{
    for (int i = 0; i < 4; ++i) {
        if (!(lane_mask & (1u << i)))
            continue;
        const std::size_t node = g * 4 + static_cast<std::size_t>(i);
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
