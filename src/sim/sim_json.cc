#include "sim_json.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <concepts>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <utility>

namespace ebda::sim {

namespace {

/** Significant digits that round-trip any double exactly. */
constexpr int kExact = 17;

/** One {value, name} row of an enum's wire spelling; the table serves
 *  both directions. */
template <typename E>
struct Name
{
    E value;
    const char *name;
};

constexpr Name<SwitchingMode> kSwitchingNames[] = {
    {SwitchingMode::Wormhole, "wormhole"},
    {SwitchingMode::VirtualCutThrough, "vct"},
    {SwitchingMode::StoreAndForward, "saf"},
};

constexpr Name<SelectionPolicy> kSelectionNames[] = {
    {SelectionPolicy::MaxCredits, "max-credits"},
    {SelectionPolicy::RoundRobin, "round-robin"},
    {SelectionPolicy::Random, "random"},
    {SelectionPolicy::FirstCandidate, "first"},
};

constexpr Name<SchedMode> kSchedModeNames[] = {
    {SchedMode::Auto, "auto"},
    {SchedMode::Cycle, "cycle"},
    {SchedMode::Event, "event"},
};

/** A fault event's "kind" spells FaultEvent::router. */
constexpr Name<bool> kKindNames[] = {
    {false, "link"},
    {true, "router"},
};

template <typename E, std::size_t N>
const char *
nameOf(const Name<E> (&names)[N], E value)
{
    for (const auto &n : names)
        if (n.value == value)
            return n.name;
    return "?";
}

template <typename E, std::size_t N>
std::optional<E>
valueOf(const Name<E> (&names)[N], const std::string &name)
{
    for (const auto &n : names)
        if (name == n.name)
            return n.value;
    return std::nullopt;
}

/** Lower bound of an integer field, checked on read. */
struct AtLeast
{
    int min;
};

/** The preconditions Fabric asserts on VC and packet sizes. */
constexpr AtLeast kPositive{1};

/** T, const or not: one field list serves the writer (const struct)
 *  and the reader (mutable struct). */
template <typename T, typename S>
concept Is = std::same_as<std::remove_const_t<T>, S>;

/*
 * One field list per wire struct: the only place its JSON keys, their
 * order and their emission rules are spelled. A visitor is called as
 *
 *   v(key, field)                   always on the wire;
 *   v(key, field, onWire)           emitted only when onWire holds;
 *   v(key, field, names[, onWire])  an enum, spelled by its table;
 *   v(key, field, AtLeast{n})       an integer with a lower bound.
 *
 * Readers take every key that is present, whatever onWire says; for a
 * kComplete struct every on-wire field is also required.
 */

/** Structs whose every on-wire field must be present when read. */
template <typename S>
constexpr bool kComplete = false;

/** A fault event means nothing without its cycle, kind and endpoints. */
template <>
constexpr bool kComplete<FaultEvent> = true;

template <typename V>
void
fields(V &v, Is<FaultEvent> auto &e)
{
    v("cycle", e.cycle);
    v("kind", e.router, kKindNames);
    v("node", e.node, e.router);
    v("src", e.src, !e.router);
    v("dst", e.dst, !e.router);
}

template <typename V>
void
fields(V &v, Is<FaultPlan> auto &p)
{
    v("seed", p.seed);
    v("randomLinkFaults", p.randomLinkFaults);
    v("randomRouterFaults", p.randomRouterFaults);
    v("firstCycle", p.firstCycle);
    v("spacing", p.spacing);
    v("maxRecoveryAttempts", p.maxRecoveryAttempts);
    v("maxRetransmits", p.maxRetransmits);
    v("retransmitBackoff", p.retransmitBackoff);
    v("retransmitBackoffCap", p.retransmitBackoffCap);
    v("checkDegradedCdg", p.checkDegradedCdg);
    v("events", p.events);
}

template <typename V>
void
fields(V &v, Is<ProtocolConfig> auto &p)
{
    v("requestReply", p.requestReply);
    v("replyBufferDepth", p.replyBufferDepth);
    v("serviceLatency", p.serviceLatency);
    v("serviceJitter", p.serviceJitter);
    v("messageClasses", p.messageClasses);
    v("reserveReplyBuffer", p.reserveReplyBuffer);
}

template <typename V>
void
fields(V &v, Is<SimConfig> auto &c)
{
    v("seed", c.seed);
    v("vcDepth", c.vcDepth, kPositive);
    v("packetLength", c.packetLength, kPositive);
    v("switching", c.switching, kSwitchingNames);
    v("routerLatency", c.routerLatency, kPositive);
    v("selection", c.selection, kSelectionNames);
    v("injectionRate", c.injectionRate);
    v("injectionVcs", c.injectionVcs, kPositive);
    v("atomicVcAllocation", c.atomicVcAllocation);
    v("warmupCycles", c.warmupCycles);
    v("measureCycles", c.measureCycles);
    v("drainCycles", c.drainCycles);
    v("watchdogCycles", c.watchdogCycles);
    v("routeTable", c.routeTable);
    v("routeTableBudget", c.routeTableBudget);
    // Only when explicitly pinned: the Auto default is omitted so
    // every pre-existing spec keeps its byte-identical canonical form
    // (and with it its sweep cache key), and an Auto run stays
    // cache-compatible with both resolutions — legitimate because the
    // two modes are trace-equivalent.
    v("schedMode", c.schedMode, kSchedModeNames,
      c.schedMode != SchedMode::Auto);
    // Omitted at the Auto default (0), like schedMode, so every
    // pre-sharding spec keeps its byte-identical cache key. Explicit
    // values — including the serial-forcing 1 — are emitted: a
    // forced shard count changes the per-shard arbitration domains
    // and must therefore be distinguishable from Auto in the cache
    // identity (Auto resolves from the fabric size, which is itself
    // part of the canonical job config, so Auto results stay pure).
    v("shards", c.shards, c.shards != 0);
    // Omitted when disabled (the default), like schedMode: every
    // pre-protocol spec keeps its byte-identical canonical form and
    // sweep cache key.
    v("protocol", c.protocol, c.protocol.enabled());
    // Always emitted (even when empty) so the canonical form — and
    // with it every sweep cache key — is stable.
    v("faults", c.faults);
}

template <typename V>
void
fields(V &v, Is<SimResult> auto &r)
{
    v("avgLatency", r.avgLatency);
    v("p50Latency", r.p50Latency);
    v("p99Latency", r.p99Latency);
    v("maxLatency", r.maxLatency);
    v("avgHops", r.avgHops);
    v("acceptedRate", r.acceptedRate);
    v("offeredRate", r.offeredRate);
    v("packetsMeasured", r.packetsMeasured);
    v("packetsEjected", r.packetsEjected);
    v("deadlocked", r.deadlocked);
    v("drained", r.drained);
    v("cycles", r.cycles);
    v("channelLoadMean", r.channelLoadMean);
    v("channelLoadCv", r.channelLoadCv);
    v("channelLoadMaxRatio", r.channelLoadMaxRatio);
    v("channelsUnused", r.channelsUnused);
    v("stallRouteCompute", r.stallRouteCompute);
    v("stallVcStarved", r.stallVcStarved);
    v("stallCreditStarved", r.stallCreditStarved);
    v("stallSwitchLost", r.stallSwitchLost);
    v("hottestRouter", r.hottestRouter);
    v("hottestRouterStalls", r.hottestRouterStalls);
    v("channelOccupancyMean", r.channelOccupancyMean);
    v("channelOccupancyPeak", r.channelOccupancyPeak);
    v("deadlockCycle", r.deadlockCycle);
    v("deadlockCycleInCdg", r.deadlockCycleInCdg);
    v("faultEventsApplied", r.faultEventsApplied);
    v("packetsDropped", r.packetsDropped);
    v("packetsRetransmitted", r.packetsRetransmitted);
    v("packetsLost", r.packetsLost);
    v("recoveryPasses", r.recoveryPasses);
    v("faultChecks", r.faultChecks);
    v("faultChecksClean", r.faultChecksClean);
    v("deliveredFraction", r.deliveredFraction);
    v("degradedGracefully", r.degradedGracefully);
    v("aborted", r.aborted);
    // routeTableCompileNanos is deliberately absent: wall-clock noise
    // would break the byte-identity of serial/parallel/cached sweeps.
    v("routeComputeCalls", r.routeComputeCalls);
    v("routeTableCompiled", r.routeTableCompiled);
    v("routeTablePerSource", r.routeTablePerSource);
    v("routeTableBytes", r.routeTableBytes);
    // Protocol counters only for protocol runs: non-protocol results
    // stay byte-identical to the pre-protocol schema.
    const bool protocol = r.protocolEnabled;
    v("protocolEnabled", r.protocolEnabled, protocol);
    v("protocolRequestsDelivered", r.protocolRequestsDelivered, protocol);
    v("protocolRepliesInjected", r.protocolRepliesInjected, protocol);
    v("protocolRepliesDelivered", r.protocolRepliesDelivered, protocol);
    v("protocolEndpointStalls", r.protocolEndpointStalls, protocol);
    v("protocolThrottled", r.protocolThrottled, protocol);
    v("protocolPeakOccupancy", r.protocolPeakOccupancy, protocol);
    v("protocolDeadlock", r.protocolDeadlock, protocol);
    // Scheduling metadata last: equivalence checks strip exactly this
    // tail when diffing cycle- against event-mode result JSON.
    v("schedMode", r.schedMode, kSchedModeNames);
    v("wakeups", r.wakeups);
}

/** Appends each on-wire field to the writer's open object. */
struct Writer
{
    JsonWriter &w;

    template <typename T>
    void
    operator()(const char *key, const T &value, bool onWire = true)
    {
        if (onWire)
            put(key, value);
    }

    template <typename T>
    void
    operator()(const char *key, const T &value, AtLeast)
    {
        put(key, value);
    }

    template <typename E, std::size_t N>
    void
    operator()(const char *key, const E &value, const Name<E> (&names)[N],
               bool onWire = true)
    {
        if (onWire)
            w.field(key, nameOf(names, value));
    }

    void put(const char *key, bool v) { w.field(key, v); }
    void put(const char *key, int v) { w.field(key, v); }
    void put(const char *key, std::uint64_t v) { w.field(key, v); }
    void put(const char *key, double v) { w.field(key, v, kExact); }

    void
    put(const char *key, std::uint32_t v)
    {
        w.field(key, std::uint64_t{v});
    }

    template <typename T>
    void
    put(const char *key, const std::vector<T> &v)
    {
        w.beginArray(key);
        for (const T &x : v) {
            if constexpr (std::integral<T>) {
                w.value(std::uint64_t{x});
            } else {
                w.beginObject();
                fields(*this, x);
                w.end();
            }
        }
        w.end();
    }

    template <typename S>
    void
    put(const char *key, const S &s)
    {
        w.beginObject(key);
        fields(*this, s);
        w.end();
    }
};

/** Collects a struct's wire keys. */
struct Keys
{
    std::vector<std::string_view> names;

    template <typename T, typename... Opt>
    void
    operator()(const char *key, T &, Opt &&...)
    {
        names.emplace_back(key);
    }
};

/** The first member of @p obj that is not a wire key of S, if any. */
template <typename S>
const std::string *
unknownKey(const JsonValue &obj)
{
    S probe{};
    Keys keys;
    fields(keys, probe);
    for (const auto &[key, val] : obj.members())
        if (std::ranges::find(keys.names, key) == keys.names.end())
            return &key;
    return nullptr;
}

/** @p f as a T when it is an integral value in [lo, max T]. */
template <typename T>
std::optional<T>
integral(const JsonValue &f, T lo)
{
    // Plain digit lexemes parse exactly: a u64 past 2^53 would round
    // as a double.
    const std::string &lexeme = f.asString();
    if (lexeme.find_first_not_of("0123456789") == std::string::npos) {
        errno = 0;
        const auto u = std::strtoull(lexeme.c_str(), nullptr, 10);
        if (errno == 0 && std::cmp_greater_equal(u, lo)
            && std::cmp_less_equal(u, std::numeric_limits<T>::max()))
            return static_cast<T>(u);
        return std::nullopt;
    }
    const double d = f.asDouble();
    if (d == std::trunc(d) && d >= static_cast<double>(lo)
        && d < std::ldexp(1.0, std::numeric_limits<T>::digits))
        return static_cast<T>(d);
    return std::nullopt;
}

/**
 * Reads the fields present in one JSON object. Errors name the full
 * key path ("'faults.events[2].cycle' must be a number"); the first
 * one wins.
 */
struct Reader
{
    const JsonValue &obj;
    /** Path of obj plus a dot ("faults."); empty at the top level. */
    std::string prefix;
    /** Every on-wire field must be present (kComplete structs). */
    bool complete;
    std::string err;

    explicit Reader(const JsonValue &o, std::string path = {},
                    bool all = false)
        : obj(o), prefix(std::move(path)), complete(all)
    {
    }

    template <typename T>
    void
    operator()(const char *key, T &field, bool onWire = true)
    {
        if (const JsonValue *f = find(key, onWire))
            get(prefix + key, *f, field);
    }

    template <typename T>
    void
    operator()(const char *key, T &field, AtLeast bound)
    {
        if (const JsonValue *f = find(key, true))
            integer(prefix + key, *f, field, static_cast<T>(bound.min));
    }

    template <typename E, std::size_t N>
    void
    operator()(const char *key, E &field, const Name<E> (&names)[N],
               bool onWire = true)
    {
        const JsonValue *f = find(key, onWire);
        if (!f)
            return;
        const auto v = f->isString() ? valueOf(names, f->asString())
                                     : std::nullopt;
        if (v)
            field = *v;
        else
            fail("bad '" + prefix + key + "' value");
    }

    void
    fail(std::string what)
    {
        if (err.empty())
            err = std::move(what);
    }

  private:
    /** The member to read: nullptr to skip it, a null value (which
     *  fails every type check) when a required one is missing. */
    const JsonValue *
    find(const char *key, bool onWire)
    {
        static const JsonValue kMissing;
        if (!err.empty())
            return nullptr;
        const JsonValue *f = obj.find(key);
        return f || !(complete && onWire) ? f : &kMissing;
    }

    void
    get(const std::string &at, const JsonValue &f, bool &out)
    {
        if (f.isBool())
            out = f.asBool();
        else
            fail("'" + at + "' must be a bool");
    }

    void
    get(const std::string &at, const JsonValue &f, double &out)
    {
        if (f.isNumber())
            out = f.asDouble();
        else
            fail("'" + at + "' must be a number");
    }

    template <std::integral T>
    void
    get(const std::string &at, const JsonValue &f, T &out)
    {
        integer(at, f, out, std::numeric_limits<T>::min());
    }

    template <typename T>
    void
    integer(const std::string &at, const JsonValue &f, T &out, T lo)
    {
        if (!f.isNumber())
            return fail("'" + at + "' must be a number");
        if (const auto v = integral(f, lo))
            out = *v;
        else
            fail("'" + at + "' must be an integer in ["
                 + std::to_string(lo) + ", "
                 + std::to_string(std::numeric_limits<T>::max()) + "]");
    }

    template <typename T>
    void
    get(const std::string &at, const JsonValue &f, std::vector<T> &out)
    {
        if (!f.isArray())
            return fail("'" + at + "' must be an array");
        for (std::size_t i = 0; i < f.size() && err.empty(); ++i)
            get(at + "[" + std::to_string(i) + "]", f.at(i),
                out.emplace_back());
    }

    template <typename S>
    void
    get(const std::string &at, const JsonValue &f, S &out)
    {
        if (!f.isObject())
            return fail("'" + at + "' must be a JSON object");
        if (const std::string *key = unknownKey<S>(f))
            return fail("unknown key '" + at + "." + *key + "'");
        Reader sub{f, at + ".", kComplete<S>};
        fields(sub, out);
        if (!sub.err.empty())
            fail(sub.err);
    }
};

template <typename T>
std::optional<T>
orError(T value, const std::string &err, std::string *error)
{
    if (err.empty())
        return value;
    if (error)
        *error = err;
    return std::nullopt;
}

} // namespace

std::string
toString(SwitchingMode m)
{
    return nameOf(kSwitchingNames, m);
}

std::optional<SwitchingMode>
switchingFromString(const std::string &s)
{
    return valueOf(kSwitchingNames, s);
}

std::string
toString(SelectionPolicy p)
{
    return nameOf(kSelectionNames, p);
}

std::optional<SelectionPolicy>
selectionFromString(const std::string &s)
{
    return valueOf(kSelectionNames, s);
}

std::string
toString(SchedMode m)
{
    return nameOf(kSchedModeNames, m);
}

std::optional<SchedMode>
schedModeFromString(const std::string &s)
{
    return valueOf(kSchedModeNames, s);
}

void
jsonFields(JsonWriter &w, const SimConfig &c)
{
    Writer out{w};
    fields(out, c);
}

void
jsonFields(JsonWriter &w, const SimResult &r)
{
    Writer out{w};
    fields(out, r);
}

std::string
toJson(const SimConfig &c)
{
    JsonWriter w;
    w.beginObject();
    jsonFields(w, c);
    w.end();
    return w.str();
}

std::string
toJson(const SimResult &r)
{
    JsonWriter w;
    w.beginObject();
    jsonFields(w, r);
    w.end();
    return w.str();
}

std::optional<SimConfig>
configFromJson(const JsonValue &v, std::string *error)
{
    SimConfig c;
    Reader r{v};
    if (!v.isObject()) {
        r.fail("config must be a JSON object");
    } else if (const std::string *key = unknownKey<SimConfig>(v)) {
        r.fail("unknown config key '" + *key + "'");
    } else {
        fields(r, c);
        // The last precondition Fabric asserts: VCT/SAF buffer a whole
        // packet per VC.
        if (c.switching != SwitchingMode::Wormhole
            && c.vcDepth < c.packetLength)
            r.fail("'vcDepth' must be >= 'packetLength' ("
                   + std::to_string(c.packetLength) + ") under "
                   + toString(c.switching) + " switching");
    }
    return orError(std::move(c), r.err, error);
}

std::optional<SimResult>
resultFromJson(const JsonValue &v, std::string *error)
{
    // Unknown keys are ignored so the cache survives additive schema
    // growth.
    SimResult res;
    Reader r{v};
    if (!v.isObject())
        r.fail("result must be a JSON object");
    else
        fields(r, res);
    return orError(std::move(res), r.err, error);
}

} // namespace ebda::sim
