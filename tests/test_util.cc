/**
 * @file
 * Unit tests for the util substrate: RNG, statistics, tables, the
 * host thread probe.
 */

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sched.h>
#endif

#include <cmath>
#include <limits>
#include <set>
#include <sstream>

#include "util/host_threads.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace ebda {
namespace {

TEST(SplitMix64, DeterministicAndDistinct)
{
    SplitMix64 a(42);
    SplitMix64 b(42);
    SplitMix64 c(43);
    const auto a1 = a.next();
    EXPECT_EQ(a1, b.next());
    EXPECT_NE(a1, c.next());
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(7, 0);
    Rng b(7, 0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SubstreamsDiffer)
{
    Rng a(7, 0);
    Rng b(7, 1);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(99);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBounded(bound), bound);
    }
}

TEST(Rng, BoundedCoversRange)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBounded(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(13);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        if (rng.nextBool(0.3))
            ++hits;
    const double freq = static_cast<double>(hits) / trials;
    EXPECT_NEAR(freq, 0.3, 0.02);
}

TEST(Rng, BernoulliEdges)
{
    Rng rng(17);
    EXPECT_FALSE(rng.nextBool(0.0));
    EXPECT_TRUE(rng.nextBool(1.0));
    EXPECT_FALSE(rng.nextBool(-0.5));
    EXPECT_TRUE(rng.nextBool(2.0));
}

TEST(Rng, RangeInclusive)
{
    Rng rng(23);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        const auto v = rng.nextRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(StatAccumulator, EmptyIsZero)
{
    StatAccumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_EQ(acc.mean(), 0.0);
    EXPECT_EQ(acc.variance(), 0.0);
}

TEST(StatAccumulator, MeanVarianceMinMax)
{
    StatAccumulator acc;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(v);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_EQ(acc.min(), 2.0);
    EXPECT_EQ(acc.max(), 9.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(StatAccumulator, MergeMatchesSequential)
{
    StatAccumulator all;
    StatAccumulator left;
    StatAccumulator right;
    Rng rng(31);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.nextDouble() * 10 - 5;
        all.add(v);
        (i % 2 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
    EXPECT_EQ(left.min(), all.min());
    EXPECT_EQ(left.max(), all.max());
}

TEST(StatAccumulator, MergeWithEmpty)
{
    StatAccumulator a;
    a.add(1.0);
    a.add(3.0);
    StatAccumulator empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);

    StatAccumulator b;
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(StatAccumulator, SumIsExactNotMeanTimesCount)
{
    // Regression: sum() used to be reconstructed as mean()*count(),
    // which loses precision once magnitudes are mixed — Welford's
    // running mean rounds away small addends next to a huge one, so
    // 1e15 + 1e6 * 1.0 reconstructed to ...005.1 instead of ...000.
    StatAccumulator acc;
    acc.add(1e15);
    for (int i = 0; i < 1000000; ++i)
        acc.add(1.0);
    EXPECT_EQ(acc.sum(), 1000000001000000.0);

    // The reconstruction really is lossy here, so this proves sum()
    // no longer goes through the mean.
    EXPECT_NE(acc.mean() * static_cast<double>(acc.count()),
              1000000001000000.0);
}

TEST(StatAccumulator, MergePreservesExactSum)
{
    StatAccumulator left;
    StatAccumulator right;
    left.add(1e15);
    for (int i = 0; i < 1000; ++i)
        right.add(1.0);
    left.merge(right);
    EXPECT_EQ(left.sum(), 1000000000001000.0);
}

TEST(Histogram, PercentilesExact)
{
    Histogram h(16);
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.add(v % 10);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.percentile(0.0), 0u);
    EXPECT_EQ(h.percentile(0.5), 4u);
    EXPECT_EQ(h.percentile(1.0), 9u);
}

TEST(Histogram, OverflowValuesKeptExactly)
{
    Histogram h(4);
    h.add(2);
    h.add(100);
    h.add(1000);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.max(), 1000u);
    EXPECT_EQ(h.percentile(1.0), 1000u);
    EXPECT_EQ(h.percentile(0.3), 2u);
    EXPECT_EQ(h.percentile(0.34), 100u); // nearest-rank: ceil(1.02) = 2nd
    EXPECT_NEAR(h.mean(), (2.0 + 100.0 + 1000.0) / 3.0, 1e-12);
}

TEST(Histogram, ResetClears)
{
    Histogram h(8);
    h.add(3);
    h.add(300);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
}

TEST(TextTable, AlignsColumns)
{
    TextTable t;
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string s = t.toString();
    EXPECT_NE(s.find("| name  | value |"), std::string::npos);
    EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(TextTable, CsvEscapesSpecials)
{
    TextTable t;
    t.setHeader({"a", "b"});
    t.addRow({"x,y", "q\"z"});
    std::ostringstream os;
    t.writeCsv(os);
    EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"q\"\"z\"\n");
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(std::uint64_t{42}), "42");
    EXPECT_EQ(TextTable::num(-7), "-7");
}

TEST(TextTable, RulesDoNotCountAsRows)
{
    TextTable t;
    t.addRow({"a"});
    t.addRule();
    t.addRow({"b"});
    EXPECT_EQ(t.numRows(), 2u);
    // Rendering should not crash with rules and no header.
    EXPECT_FALSE(t.toString().empty());
}

TEST(Logging, WarnGoesToStderr)
{
    ::testing::internal::CaptureStderr();
    EBDA_WARN("value is ", 42);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(err, "warn: value is 42\n");
}

TEST(Logging, InformGoesToStdout)
{
    ::testing::internal::CaptureStdout();
    EBDA_INFORM("phase ", 2, " done");
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(out, "info: phase 2 done\n");
}

TEST(Logging, AssertPassesQuietly)
{
    EBDA_ASSERT(1 + 1 == 2, "arithmetic broke");
    SUCCEED();
}

TEST(Logging, AssertFailureAborts)
{
    EXPECT_DEATH(EBDA_ASSERT(false, "doom ", 7),
                 "assertion 'false' failed: doom 7");
}

TEST(JsonWriter, FlatObject)
{
    JsonWriter w;
    w.beginObject();
    w.field("name", "ebda");
    w.field("latency", 12.5);
    w.field("count", std::uint64_t{7});
    w.field("neg", -3);
    w.field("ok", true);
    w.end();
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(w.str(), "{\"name\":\"ebda\",\"latency\":12.5,"
                       "\"count\":7,\"neg\":-3,\"ok\":true}");
}

TEST(JsonWriter, NestedStructures)
{
    JsonWriter w;
    w.beginObject();
    w.beginArray("xs");
    w.value(1);
    w.value(2.5);
    w.value(false);
    w.end();
    w.beginObject("inner");
    w.field("k", "v");
    w.end();
    w.end();
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(w.str(),
              "{\"xs\":[1,2.5,false],\"inner\":{\"k\":\"v\"}}");
}

TEST(JsonWriter, EscapesStrings)
{
    JsonWriter w;
    w.beginObject();
    w.field("s", "a\"b\\c\nd\te");
    w.end();
    EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(JsonWriter, NonFiniteBecomesNull)
{
    JsonWriter w;
    w.beginArray();
    w.value(std::numeric_limits<double>::infinity());
    w.value(std::nan(""));
    w.end();
    EXPECT_EQ(w.str(), "[null,null]");
}

TEST(JsonWriter, ArrayOfObjects)
{
    JsonWriter w;
    w.beginArray();
    for (int i = 0; i < 2; ++i) {
        w.beginObject();
        w.field("i", i);
        w.end();
    }
    w.end();
    EXPECT_EQ(w.str(), "[{\"i\":0},{\"i\":1}]");
    EXPECT_TRUE(w.complete());
}

TEST(JsonWriter, EndWithoutScopePanics)
{
    JsonWriter w;
    EXPECT_DEATH(w.end(), "no open scope");
}

TEST(HostThreads, AtLeastOne)
{
    EXPECT_GE(hostThreads(), 1u);
}

#if defined(__linux__)
/** The probe follows the affinity mask (`taskset -c 0` means one
 *  thread), not the machine's core count. */
TEST(HostThreads, FollowsTheAffinityMask)
{
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved))
        ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const unsigned pinned = hostThreads();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(pinned, 1u);
    EXPECT_EQ(hostThreads(),
              static_cast<unsigned>(CPU_COUNT(&saved)));
}
#endif

} // namespace
} // namespace ebda
