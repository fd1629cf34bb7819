/**
 * @file
 * verify_catalog: the design-verification side. The Section-2 turn-
 * model space (65,536 removal combinations on a 4x4 2-VC mesh), a
 * relation catalog checked by the Dally CDG oracle, the Mendlovic–
 * Matias fixpoint and the connectivity check, and Theorem-1 validation
 * of the paper's partition schemes. Every verdict is pinned.
 *
 * Relations memoise reachability, so each checker call gets its own
 * freshly built relation: one verdict's time neither includes nor skips
 * another's work. The catalog order is fixed.
 */

#include "perfbench.hh"

#include <functional>
#include <optional>
#include <stdexcept>

#include "cdg/mm_check.hh"
#include "cdg/relation_cdg.hh"
#include "cdg/turn_model_enum.hh"
#include "core/catalog.hh"
#include "core/minimal.hh"
#include "sweep/router_factory.hh"
#include "sweep/sweep_spec.hh"
#include "util/json.hh"

namespace perfbench {
namespace {

using namespace ebda;

/** One (network, router) pair and its pinned verdicts. */
struct Entry
{
    std::string label;
    std::function<topo::Network()> build;
    std::string router;
    bool dallyFree;
    bool mmFree;
    bool connected;
    /** One candidate per state: Dally and MM must then agree. */
    bool deterministic;
};

/** Pinned outcome of the turn-model enumeration (EXPERIMENTS.md). */
constexpr std::size_t kTurnCombinations = 65536;
constexpr std::size_t kTurnDeadlockFree = 68;

/** Setups per round: a round takes seconds, so few fit in a run, and
 *  setup_s is the median over every setup of the run. */
constexpr int kSetups = 10;

/** What one setup builds: per entry one network and three relations
 *  (Dally, MM, connectivity), the turn-enumeration mesh and the scheme
 *  catalog. Relations are destroyed before the networks they route. */
struct Built
{
    std::vector<topo::Network> nets;
    std::vector<std::unique_ptr<cdg::RoutingRelation>> relations;
    std::optional<topo::Network> turnNet;
    std::vector<core::PartitionScheme> schemes;
};

class VerifyCatalog final : public Workload
{
  public:
    explicit VerifyCatalog(std::uint64_t seed);

    Round round(Tracer &tr, int index) override;

  private:
    std::unique_ptr<Built> setup(Tracer &tr, Round &out) const;

    std::vector<Entry> entries;
};

VerifyCatalog::VerifyCatalog(std::uint64_t seed)
{
    // The seed picks the up/down spanning-tree root; the torus is
    // vertex-transitive, so every root is the same amount of work.
    const std::string updown = "updown:" + std::to_string(seed % 64);
    const auto mesh = [](int k, int vcs) {
        return [=] { return topo::Network::mesh({k, k}, {vcs, vcs}); };
    };
    const auto dragonfly = [] { return topo::Network::dragonfly(6, 3, 3); };
    const auto fullmesh = [] { return topo::Network::fullMesh(16); };
    entries = {
        {"mesh 24x24", mesh(24, 1), "xy", true, true, true, true},
        {"mesh 16x16 vc2", mesh(16, 2), "fig7b", true, true, true, false},
        {"mesh 16x16", mesh(16, 1), "odd-even", true, true, true, false},
        {"torus 8x8 vc2",
         [] { return topo::Network::torus({8, 8}, {2, 2}); }, updown, true,
         true, true, false},
        {"dragonfly(6,3,3)", dragonfly, "dragonfly-min", true, true, true,
         false},
        {"fullmesh 16", fullmesh, "fullmesh-2hop", true, true, true, false},
        // Cyclic full CDG, but every packet drains through the escape
        // sub-DAG: the documented Dally/MM strictness gap.
        {"mesh 8x8 vc2", mesh(8, 2), "duato", false, true, true, false},
        // Negative controls.
        {"mesh 8x8", mesh(8, 1), "minimal", false, false, true, false},
        {"dragonfly(6,3,3)", dragonfly, "dragonfly-noescape", false, false,
         true, false},
        {"fullmesh 16", fullmesh, "fullmesh-naive", false, false, true,
         false},
    };
}

/** The paper's partition schemes, each a Theorem-1 verdict. */
std::vector<core::PartitionScheme>
schemeCatalog()
{
    return {core::schemeFig6P1(),       core::schemeFig6P2(),
            core::schemeFig6P3(),       core::schemeFig6P4(),
            core::schemeFig6P5(),       core::schemeNorthLast(),
            core::schemeFig7b(),        core::schemeFig7c(),
            core::schemeFig9b(),        core::schemeFig9c(),
            core::schemeOddEven(),      core::schemeHamiltonian(),
            core::schemePartial3d(),    core::schemePlanarAdaptive3d(),
            core::regionScheme(2),      core::regionScheme(3),
            core::mergedScheme(3)};
}

std::unique_ptr<Built>
VerifyCatalog::setup(Tracer &tr, Round &out) const
{
    auto b = std::make_unique<Built>();
    double build = 0.0, make_router = 0.0;
    b->nets.reserve(entries.size());
    out.setupSamples.push_back(tr.span("setup", [&] {
        for (const Entry &e : entries) {
            build += tr.span("topo.build",
                             [&] { b->nets.push_back(e.build()); });
            for (int checker = 0; checker < 3; ++checker)
                make_router += tr.span("routing.make_router", [&] {
                    std::string err;
                    auto rel =
                        sweep::makeRouter(b->nets.back(), e.router, &err);
                    if (!rel)
                        throw std::runtime_error(e.router + ": " + err);
                    b->relations.push_back(std::move(rel));
                });
        }
        build += tr.span("topo.build", [&] {
            b->turnNet.emplace(topo::Network::mesh({4, 4}, {2, 2}));
        });
        b->schemes = schemeCatalog();
    }));
    out.layer["topo.build_s"] = build;
    out.layer["routing.make_router_s"] = make_router;
    return b;
}

Round
VerifyCatalog::round(Tracer &tr, int)
{
    Round out;
    std::unique_ptr<Built> b;
    for (int k = 0; k < kSetups; ++k) {
        b.reset();
        b = setup(tr, out);
    }
    const auto &relations = b->relations;

    double dally_s = 0.0, mm_s = 0.0, conn_s = 0.0, validate_s = 0.0,
           turn_s = 0.0;
    double dependencies = 0.0, mm_states = 0.0;
    std::string digest_text;
    const auto verdict = [&](bool got, bool pinned) {
        ++out.ops;
        if (got != pinned)
            ++out.failed;
        digest_text += got ? '1' : '0';
    };
    out.workSeconds = tr.span("work", [&] {
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const Entry &e = entries[i];
            std::optional<cdg::CdgReport> dally;
            std::optional<cdg::MmReport> mm;
            std::optional<cdg::ConnectivityReport> conn;
            // A checker that throws leaves its report empty: a failed
            // verdict.
            const auto guarded = [](auto &&fn) {
                try {
                    fn();
                } catch (const std::exception &) {
                }
            };
            dally_s += tr.span("cdg.dally", [&] {
                guarded([&] { dally = cdg::checkDeadlockFree(*relations[3 * i]); });
            });
            mm_s += tr.span("cdg.mm", [&] {
                guarded([&] {
                    mm = cdg::checkMendlovicMatias(*relations[3 * i + 1]);
                });
            });
            conn_s += tr.span("cdg.connectivity", [&] {
                guarded([&] {
                    conn = cdg::checkConnectivity(*relations[3 * i + 2]);
                });
            });
            verdict(dally && dally->deadlockFree, e.dallyFree);
            verdict(mm && mm->deadlockFree, e.mmFree);
            verdict(conn && conn->connected, e.connected);
            if (e.deterministic && dally && mm
                && dally->deadlockFree != mm->deadlockFree)
                ++out.failed;
            if (dally)
                dependencies += static_cast<double>(dally->numDependencies);
            if (mm)
                mm_states += static_cast<double>(mm->numStates);

            JsonWriter w;
            w.beginObject();
            w.field("network", e.label);
            w.field("router", e.router);
            w.field("dally_free", dally && dally->deadlockFree);
            w.field("mm_free", mm && mm->deadlockFree);
            w.field("connected", conn && conn->connected);
            w.field("dependencies",
                    static_cast<std::uint64_t>(dally ? dally->numDependencies : 0));
            w.field("mm_states",
                    static_cast<std::uint64_t>(mm ? mm->numStates : 0));
            w.end();
            out.provenance.push_back(w.str());
            digest_text += w.str();
        }

        cdg::TurnModelEnumResult turns;
        turn_s = tr.span("cdg.turn_enum", [&] {
            turns = cdg::enumerateTurnModels(*b->turnNet);
        });
        verdict(turns.combinations == kTurnCombinations
                    && turns.deadlockFree == kTurnDeadlockFree,
                true);
        out.layer["cdg.turn_combinations"] =
            static_cast<double>(turns.combinations);
        digest_text += " turns " + std::to_string(turns.combinations) + ' '
            + std::to_string(turns.deadlockFree) + ' '
            + std::to_string(turns.connected) + ' '
            + std::to_string(turns.distinctDeadlockFreeSets);

        for (const core::PartitionScheme &s : b->schemes) {
            bool ok = false;
            validate_s += tr.span("core.validate",
                                  [&] { ok = s.validate().ok; });
            verdict(ok, true);
        }
    });

    out.digest = sweep::fnv1a64(digest_text);
    auto &m = out.layer;
    m["cdg.dally_s"] = dally_s;
    m["cdg.mm_s"] = mm_s;
    m["cdg.connectivity_s"] = conn_s;
    m["cdg.turn_enum_s"] = turn_s;
    m["core.validate_s"] = validate_s;
    m["cdg.dependencies"] = dependencies;
    m["cdg.mm_states"] = mm_states;
    m["cdg.mm_states_per_s"] = mm_s > 0.0 ? mm_states / mm_s : 0.0;
    m["verify_s"] = out.workSeconds;
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeVerifyCatalog(std::uint64_t seed)
{
    return std::make_unique<VerifyCatalog>(seed);
}

} // namespace perfbench
