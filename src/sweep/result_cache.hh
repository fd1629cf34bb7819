/**
 * @file
 * Content-addressed persistent result cache for simulation jobs.
 *
 * Storage is the binary record store (record_store.hh): an append-only
 * record file plus a persisted hash index, mmap-served so opening a
 * warm cache costs O(index bytes) and each lookup touches only its own
 * record's pages — not O(parse the whole file). Keys are unchanged
 * from day one: fnv1a64 of the job's canonical JSON (sweep_spec.hh),
 * so identical (router, topology, pattern, config) points — across
 * benches, reruns and spec files — resolve to the same address, and
 * every cache populated by earlier versions keeps its addresses.
 *
 * The original JSONL format (one `{"key":"<16 hex>","config":{...},
 * "result":{...}[,"quarantine":"<reason>"]}` line per entry) is demoted
 * to an interchange format: a legacy `<dir>/cache.jsonl` is migrated
 * into the record store once, transparently, on open (then renamed to
 * `cache.jsonl.migrated`), and `exportJsonl`/`importJsonl` round-trip
 * the store through the same line format for inspection and transport.
 *
 * store() group-commits: records accumulate in memory and hit disk in
 * batches (or on flush()/destruction), instead of the old per-line
 * flush under the global mutex. Torn tails from a killed writer are
 * truncated on the next open; records whose index append was lost are
 * re-indexed (see record_store.hh for the recovery contract). Later
 * records win on duplicate keys, as later lines always did.
 */

#ifndef EBDA_SWEEP_RESULT_CACHE_HH
#define EBDA_SWEEP_RESULT_CACHE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "sim/simulator.hh"
#include "sweep/record_store.hh"

namespace ebda::sweep {

/** The on-disk cache: persisted index loaded on construction, record
 *  payloads parsed only when their key is looked up. */
class ResultCache
{
  public:
    /** Open (creating dir and files as needed), recover, and migrate a
     *  legacy cache.jsonl if one is present. */
    explicit ResultCache(std::string dir);
    ~ResultCache();

    const std::string &directory() const { return dirPath; }

    /** Path of the legacy JSONL file inside a cache dir (now only the
     *  migration source and export/import interchange path). */
    static std::string cacheFile(const std::string &dir);
    /** Paths of the binary store's files inside a cache dir. */
    static std::string binFile(const std::string &dir);
    static std::string indexFile(const std::string &dir);

    /** A cache entry: the result plus the quarantine reason (empty for
     *  healthy entries) and the measured simulation wall-clock that
     *  produced it (0 = unknown; feeds the runner's cost model). */
    struct Entry
    {
        sim::SimResult result;
        std::string quarantine;
        double wallSeconds = 0.0;
        bool quarantined() const { return !quarantine.empty(); }
    };

    /** Distinct keys served (on-disk winners plus this session's
     *  stores). */
    std::size_t entries() const;

    /** Served keys whose winning record carries a quarantine reason. */
    std::size_t quarantinedEntries() const;

    /** Malformed data skipped on open: corrupt legacy JSONL lines
     *  during migration, stale index entries, and a torn record tail
     *  (counted once). Never fatal. */
    std::size_t corruptedLines() const { return corrupted; }

    /** Legacy JSONL entries migrated into the store by this open. */
    std::size_t migratedEntries() const { return migrated; }

    /** Cached result for a key; counts a hit or a miss. Quarantined
     *  entries are served like any other (callers that must know use
     *  lookupEntry). */
    std::optional<sim::SimResult> lookup(std::uint64_t key);

    /** Cached entry (result + quarantine + wall-clock) for a key;
     *  counts a hit or a miss. */
    std::optional<Entry> lookupEntry(std::uint64_t key);

    /** Insert and enqueue for the next group commit. wallSeconds is
     *  the measured simulation wall-clock (0 = unknown). */
    void store(std::uint64_t key, const std::string &canonicalConfig,
               const sim::SimResult &result, double wallSeconds = 0.0);

    /** Insert a quarantine record: the job's (partial) result plus a
     *  one-line reason, so future sweeps serve it instead of rerunning
     *  a known-wedged or over-budget job. */
    void storeQuarantine(std::uint64_t key,
                         const std::string &canonicalConfig,
                         const sim::SimResult &result,
                         const std::string &reason,
                         double wallSeconds = 0.0);

    /** Write all pending records to disk (one record-file append + one
     *  index append). Called automatically every kGroupCommitRecords
     *  stores, at destruction, and by the runner at sweep end. */
    bool flush();

    std::uint64_t hits() const { return hitCount.load(); }
    std::uint64_t misses() const { return missCount.load(); }

    /** Wall-clock seconds threads have spent inside cache calls
     *  (lock waits, serialization, group commits, record parses) —
     *  the sweep summary's cache-blocked stat. */
    double blockedSeconds() const
    {
        return static_cast<double>(blockedNanos.load()) * 1e-9;
    }

    /** Measured simulation wall-clock for a key, served from the index
     *  (or this session's stores) without touching record payloads.
     *  nullopt when the key is absent or its wall-clock was unknown. */
    std::optional<double> measuredWallSeconds(std::uint64_t key) const;

    /** @name Open-time recovery accounting (see record_store.hh). */
    std::size_t tailRecovered() const { return store_->tailRecovered(); }
    std::uint64_t tornBytesTruncated() const
    {
        return store_->tornBytesTruncated();
    }
    bool indexRebuilt() const { return store_->indexRebuilt(); }

    /** Delete the cache's files — record store, index, legacy JSONL,
     *  and `manifest-*.json` files older builds left behind; a
     *  `cache.jsonl.migrated` backup and the directory are kept.
     *  False + *error when removal failed; missing files are success. */
    static bool clear(const std::string &dir,
                      std::string *error = nullptr);

    /** Outcome of compact(). */
    struct CompactStats
    {
        /** Distinct keys kept. */
        std::size_t kept = 0;
        /** Unreadable trailing records dropped. */
        std::size_t droppedCorrupted = 0;
        /** Superseded duplicate-key records dropped. */
        std::size_t droppedDuplicate = 0;
        /** Record-file bytes reclaimed by the rewrite. */
        std::uint64_t reclaimedBytes = 0;
    };

    /**
     * Rewrite the record store keeping only each key's winning record
     * (the latest, matching lookup()), sorted by key, and rebuild the
     * index to match; both files are swapped in via temp file +
     * rename. A missing store compacts to nothing successfully.
     */
    static std::optional<CompactStats> compact(
        const std::string &dir, std::string *error = nullptr);

    /** Store shape without loading any result payloads — `cache
     *  stats` is O(index). */
    struct StoreStats
    {
        std::size_t records = 0;     ///< distinct keys served
        std::size_t quarantined = 0; ///< of which quarantined
        std::uint64_t fileBytes = 0; ///< record-file size
        std::uint64_t indexBytes = 0;
        std::size_t tailRecovered = 0;
        std::uint64_t tornBytesTruncated = 0;
        bool indexRebuilt = false;
        bool legacyJsonlPresent = false; ///< unmigrated cache.jsonl
    };
    static StoreStats stats(const std::string &dir);

    /** Export the store to the legacy JSONL line format (sorted by key
     *  for stable diffs), replacing outPath. Records round-trip
     *  byte-identically through importJsonl. */
    static bool exportJsonl(const std::string &dir,
                            const std::string &outPath,
                            std::size_t *exported = nullptr,
                            std::string *error = nullptr);

    /** Outcome of importJsonl(). */
    struct ImportStats
    {
        std::size_t imported = 0;
        std::size_t corrupted = 0;
    };

    /** Append every valid line of a legacy-format JSONL file to the
     *  store (imported records win on duplicate keys, as later lines
     *  always did). */
    static std::optional<ImportStats> importJsonl(
        const std::string &dir, const std::string &inPath,
        std::string *error = nullptr);

    /** Stores per group commit (exposed for tests/benches). Bounds
     *  what a killed sweep can lose to 31 results: a rerun against the
     *  same cache re-simulates only those. */
    static constexpr std::size_t kGroupCommitRecords = 32;
    /** Pending payload bytes that force a commit early. */
    static constexpr std::size_t kGroupCommitBytes = 1u << 20;

  private:
    void migrateLegacyJsonl();

    std::string dirPath;
    mutable std::mutex mtx;
    /** This session's stores (they win over on-disk records). */
    std::unordered_map<std::uint64_t, Entry> fresh;
    std::unique_ptr<RecordStore> store_;
    std::size_t corrupted = 0;
    std::size_t migrated = 0;
    std::atomic<std::uint64_t> hitCount{0};
    std::atomic<std::uint64_t> missCount{0};
    std::atomic<std::uint64_t> blockedNanos{0};
};

} // namespace ebda::sweep

#endif // EBDA_SWEEP_RESULT_CACHE_HH
