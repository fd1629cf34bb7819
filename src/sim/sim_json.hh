/**
 * @file
 * JSON (de)serialization of SimConfig and SimResult — the wire format
 * shared by the sweep engine's result cache, the ebda_sweep results
 * JSONL, ebda_tool --json, and the benches' machine-readable dumps.
 *
 * Each wire struct (SimConfig, its ProtocolConfig and FaultPlan, and
 * SimResult) has one field list in sim_json.cc. That list drives the
 * writer, the reader and the unknown-key check, so a key cannot reach
 * one of them and miss another. Each enum has one {value, name} table
 * for both directions. The emission rules sit beside their fields:
 *   - config: "schedMode" is omitted at Auto, "shards" at 0 and
 *     "protocol" when disabled; "faults" is always emitted, so
 *     pre-existing specs keep their canonical form and cache key;
 *   - result: the protocol counters appear only for protocol runs, and
 *     "schedMode" and "wakeups" come last.
 *
 * Doubles are emitted with 17 significant digits so every IEEE-754
 * value round-trips exactly: a cache hit reproduces the stored result
 * bit-for-bit, and serial/parallel sweep outputs are byte-comparable.
 * Integer fields read back only as integral values in their type's
 * range; errors name the full key path ("'faults.events[0].cycle'").
 */

#ifndef EBDA_SIM_SIM_JSON_HH
#define EBDA_SIM_SIM_JSON_HH

#include <optional>
#include <string>

#include "sim/simconfig.hh"
#include "util/json.hh"

namespace ebda::sim {

/** Enum names ("wormhole"/"vct"/"saf", "max-credits"/...). */
std::string toString(SwitchingMode m);
std::optional<SwitchingMode> switchingFromString(const std::string &s);
std::string toString(SelectionPolicy p);
std::optional<SelectionPolicy> selectionFromString(const std::string &s);

/** Append the struct's fields to the writer's currently open object
 *  (field-list order; stable across runs). */
void jsonFields(JsonWriter &w, const SimConfig &c);
void jsonFields(JsonWriter &w, const SimResult &r);

/** Whole-object convenience wrappers. */
std::string toJson(const SimConfig &c);
std::string toJson(const SimResult &r);

/**
 * Rebuild a SimConfig from a parsed JSON object. Missing fields keep
 * their defaults; unknown keys, type mismatches, non-integral or
 * out-of-range integers and the sizes Fabric would reject (vcDepth,
 * packetLength, injectionVcs, routerLatency < 1; vct/saf with
 * vcDepth < packetLength) are errors: they would silently change what
 * a sweep measures, or abort the run.
 */
std::optional<SimConfig> configFromJson(const JsonValue &v,
                                        std::string *error = nullptr);

/** Rebuild a SimResult (cache load). Unknown keys are ignored so the
 *  cache survives additive schema growth. */
std::optional<SimResult> resultFromJson(const JsonValue &v,
                                        std::string *error = nullptr);

} // namespace ebda::sim

#endif // EBDA_SIM_SIM_JSON_HH
