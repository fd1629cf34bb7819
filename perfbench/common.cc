/**
 * @file
 * The span recorder and the helpers shared by the workloads.
 */

#include "perfbench.hh"

#include <algorithm>
#include <iomanip>

#include "sim/shard_partition.hh"
#include "sim/sim_json.hh"
#include "util/json.hh"

namespace perfbench {

Tracer::Open::Open(Tracer &t, const char *name)
    : tracer(t), start(Clock::now())
{
    if (!t.recordOn)
        return;
    index = static_cast<int>(t.recorded.size());
    t.recorded.push_back({name,
                          t.openStack.empty() ? -1 : t.openStack.back(),
                          t.runId, start, start});
    t.openStack.push_back(index);
}

Tracer::Open::~Open()
{
    if (!closed)
        close();
}

double
Tracer::Open::close()
{
    const auto end = Clock::now();
    if (index >= 0) {
        tracer.recorded[static_cast<std::size_t>(index)].end = end;
        tracer.openStack.pop_back();
    }
    closed = true;
    return seconds(end - start);
}

void
Tracer::interval(const char *name, Clock::time_point start,
                 Clock::time_point end)
{
    if (!recordOn)
        return;
    recorded.push_back({name, openStack.empty() ? -1 : openStack.back(),
                        runId, start, end});
}

std::vector<double>
Tracer::selfSeconds() const
{
    std::vector<double> self(recorded.size());
    for (std::size_t i = 0; i < recorded.size(); ++i)
        self[i] = seconds(recorded[i].end - recorded[i].start);
    for (const Span &s : recorded)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -=
                seconds(s.end - s.start);
    return self;
}

void
Tracer::writeJsonl(std::ostream &out) const
{
    if (recorded.empty())
        return;
    const auto origin = recorded.front().start;
    const auto self = selfSeconds();
    for (std::size_t i = 0; i < recorded.size(); ++i) {
        const Span &s = recorded[i];
        ebda::JsonWriter w;
        w.beginObject();
        w.field("run", s.run);
        w.field("id", static_cast<std::uint64_t>(i));
        w.field("parent", s.parent);
        w.field("name", s.name);
        w.field("start_s", seconds(s.start - origin), 17);
        w.field("end_s", seconds(s.end - origin), 17);
        w.field("self_s", self[i], 17);
        w.end();
        out << w.str() << '\n';
    }
}

void
Tracer::printSelfTimes(std::ostream &out) const
{
    struct Total
    {
        std::string name;
        std::size_t count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::vector<Total> totals;
    const auto self = selfSeconds();
    for (std::size_t i = 0; i < recorded.size(); ++i) {
        const Span &s = recorded[i];
        auto it = std::find_if(totals.begin(), totals.end(),
                               [&](const Total &t) { return t.name == s.name; });
        if (it == totals.end())
            it = totals.insert(totals.end(), Total{s.name});
        ++it->count;
        it->total += seconds(s.end - s.start);
        it->self += self[i];
    }
    out << "trace  " << std::left << std::setw(20) << "span" << std::right
        << std::setw(8) << "count" << std::setw(14) << "total_s"
        << std::setw(14) << "self_s" << '\n';
    for (const Total &t : totals)
        out << "trace  " << std::left << std::setw(20) << t.name
            << std::right << std::setw(8) << t.count << std::setw(14)
            << std::fixed << std::setprecision(6) << t.total
            << std::setw(14) << t.self << std::defaultfloat << '\n';
}

std::string
simulatedJson(const ebda::sim::SimResult &result)
{
    ebda::sim::SimResult r = result;
    r.schedMode = ebda::sim::SchedMode::Cycle;
    r.wakeups = 0;
    return ebda::sim::toJson(r);
}

bool
simulationFailed(const ebda::sim::SimResult &r)
{
    return r.aborted || r.deadlocked
        || (r.drained && r.deliveredFraction < 1.0);
}

std::pair<int, unsigned>
resolvedShards(const ebda::sim::SimResult &r, std::size_t nodes,
               int shards)
{
    const int count = r.schedMode == ebda::sim::SchedMode::Event
        ? 1
        : ebda::sim::resolveShardCount(shards, nodes, r.routeTableCompiled,
                                       /*faults_enabled=*/false,
                                       /*protocol_enabled=*/false);
    return {count, ebda::sim::shardWorkerThreads(count)};
}

void
SimTotals::add(const ebda::sim::SimResult &r, std::size_t nodes,
               int shards)
{
    ++runs;
    cycles += r.cycles;
    wakeups += r.wakeups;
    ++(r.schedMode == ebda::sim::SchedMode::Event ? eventRuns : cycleRuns);
    routeCalls += r.routeComputeCalls;
    compileNanos += r.routeTableCompileNanos;
    tablesCompiled += r.routeTableCompiled ? 1 : 0;
    maxTableBytes = std::max(maxTableBytes, r.routeTableBytes);
    packetsEjected += r.packetsEjected;
    stallRouteCompute += r.stallRouteCompute;
    stallVcStarved += r.stallVcStarved;
    stallCreditStarved += r.stallCreditStarved;
    stallSwitchLost += r.stallSwitchLost;
    const auto [count, threads] = resolvedShards(r, nodes, shards);
    maxShards = std::max(maxShards, count);
    maxShardThreads = std::max(maxShardThreads, threads);
}

void
SimTotals::report(Round &round) const
{
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    auto &m = round.layer;
    m["routing.table_compile_s"] = d(compileNanos) * 1e-9;
    m["routing.table_compiled"] = runs ? d(tablesCompiled) / d(runs) : 0.0;
    m["routing.table_bytes"] = d(maxTableBytes);
    m["routing.route_calls"] = d(routeCalls);
    m["sim.cycles"] = d(cycles);
    m["sim.wakeup_frac"] = cycles ? d(wakeups) / d(cycles) : 0.0;
    m["sim.packets_ejected"] = d(packetsEjected);
    m["sim.stall_route_compute"] = d(stallRouteCompute);
    m["sim.stall_vc_starved"] = d(stallVcStarved);
    m["sim.stall_credit_starved"] = d(stallCreditStarved);
    m["sim.stall_switch_lost"] = d(stallSwitchLost);
    m["sim.shards"] = maxShards;
    m["sim.shard_threads"] = maxShardThreads;
}

std::string
SimTotals::provenance() const
{
    ebda::JsonWriter w;
    w.beginObject();
    w.field("runs", runs);
    w.beginObject("sched");
    w.field("cycle", cycleRuns);
    w.field("event", eventRuns);
    w.end();
    w.field("cycles", cycles);
    w.field("wakeups", wakeups);
    w.field("route_tables_compiled", tablesCompiled);
    w.field("route_table_bytes_max", maxTableBytes);
    w.field("shards_max", maxShards);
    w.field("shard_threads_max", static_cast<std::uint64_t>(maxShardThreads));
    w.end();
    return w.str();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo]
        + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

} // namespace perfbench
