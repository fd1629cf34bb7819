#include "result_cache.hh"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <vector>

#include "sim/sim_json.hh"
#include "sweep/sweep_spec.hh"
#include "util/json.hh"

namespace ebda::sweep {

namespace fs = std::filesystem;

namespace {

/** RAII accumulator for the cache-blocked stat: adds the scope's
 *  wall-clock to the counter on destruction. */
class BlockedTimer
{
  public:
    explicit BlockedTimer(std::atomic<std::uint64_t> *acc)
        : acc(acc), t0(std::chrono::steady_clock::now())
    {
    }
    ~BlockedTimer()
    {
        const auto dt = std::chrono::steady_clock::now() - t0;
        acc->fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(dt)
                    .count()),
            std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> *acc;
    std::chrono::steady_clock::time_point t0;
};

/** One parsed line of the legacy JSONL format, with the raw byte
 *  extents of the config and result members preserved so records
 *  round-trip byte-identically through migrate/export/import. */
struct LegacyLine
{
    std::uint64_t key = 0;
    std::string_view config; ///< raw bytes into the line
    std::string_view result; ///< raw bytes into the line
    std::string quarantine;
    sim::SimResult parsed;
};

/** One past the end of the JSON value starting at pos (string-aware
 *  nesting scan); npos on malformed input. */
std::size_t skipJsonValue(const std::string &s, std::size_t pos)
{
    if (pos >= s.size())
        return std::string::npos;
    if (s[pos] == '"') {
        for (std::size_t i = pos + 1; i < s.size(); ++i) {
            if (s[i] == '\\') {
                ++i;
                continue;
            }
            if (s[i] == '"')
                return i + 1;
        }
        return std::string::npos;
    }
    if (s[pos] == '{' || s[pos] == '[') {
        int depth = 0;
        bool inString = false;
        for (std::size_t i = pos; i < s.size(); ++i) {
            const char c = s[i];
            if (inString) {
                if (c == '\\')
                    ++i;
                else if (c == '"')
                    inString = false;
                continue;
            }
            if (c == '"')
                inString = true;
            else if (c == '{' || c == '[')
                ++depth;
            else if (c == '}' || c == ']') {
                if (--depth == 0)
                    return i + 1;
            }
        }
        return std::string::npos;
    }
    // Bare scalar: runs to a delimiter.
    std::size_t i = pos;
    while (i < s.size() && s[i] != ',' && s[i] != '}' && s[i] != ']' &&
           !std::isspace(static_cast<unsigned char>(s[i])))
        ++i;
    return i > pos ? i : std::string::npos;
}

/** Raw byte extents of each top-level member value of a one-line JSON
 *  object (the line must already have passed parseJson). */
bool rawMemberExtents(
    const std::string &line,
    std::vector<std::pair<std::string_view, std::string_view>> *out)
{
    std::size_t i = line.find('{');
    if (i == std::string::npos)
        return false;
    ++i;
    while (i < line.size()) {
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
        if (i < line.size() && line[i] == '}')
            return true;
        if (i >= line.size() || line[i] != '"')
            return false;
        const std::size_t nameStart = ++i;
        while (i < line.size() && line[i] != '"') {
            if (line[i] == '\\')
                ++i;
            ++i;
        }
        if (i >= line.size())
            return false;
        const std::string_view name(line.data() + nameStart, i - nameStart);
        ++i; // closing quote
        while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
        if (i >= line.size() || line[i] != ':')
            return false;
        ++i;
        while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
        const std::size_t valueStart = i;
        const std::size_t valueEnd = skipJsonValue(line, i);
        if (valueEnd == std::string::npos || valueEnd > line.size())
            return false;
        out->emplace_back(
            name, std::string_view(line.data() + valueStart,
                                   valueEnd - valueStart));
        i = valueEnd;
        while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
        if (i < line.size() && line[i] == ',') {
            ++i;
            continue;
        }
        if (i < line.size() && line[i] == '}')
            return true;
        return false;
    }
    return false;
}

/** Parse + validate one legacy cache line. The returned views point
 *  into `line` and are only valid while it lives. */
bool parseLegacyLine(const std::string &line, LegacyLine *out)
{
    const auto doc = parseJson(line);
    if (!doc || !doc->isObject())
        return false;
    const auto *key = doc->find("key");
    const auto *result = doc->find("result");
    if (!key || !key->isString() || key->asString().empty() || !result)
        return false;
    char *end = nullptr;
    out->key = std::strtoull(key->asString().c_str(), &end, 16);
    if (!end || *end != '\0')
        return false;
    const auto res = sim::resultFromJson(*result);
    if (!res)
        return false;
    out->parsed = *res;
    const auto *quarantine = doc->find("quarantine");
    out->quarantine = quarantine && quarantine->isString()
                          ? quarantine->asString()
                          : std::string();
    std::vector<std::pair<std::string_view, std::string_view>> members;
    if (!rawMemberExtents(line, &members))
        return false;
    out->config = std::string_view();
    out->result = std::string_view();
    for (const auto &[name, raw] : members) {
        if (name == "config")
            out->config = raw;
        else if (name == "result")
            out->result = raw;
    }
    return !out->result.empty();
}

/** Render one record back into the legacy line format, byte-identical
 *  to what the old per-line writer produced. */
std::string legacyLine(std::uint64_t key, std::string_view config,
                       std::string_view result, std::string_view quarantine)
{
    JsonWriter w;
    w.beginObject();
    w.field("key", keyToHex(key));
    w.end();
    std::string line = w.str();
    line.pop_back(); // drop '}'
    if (!config.empty()) {
        line += ",\"config\":";
        line.append(config);
    }
    line += ",\"result\":";
    line.append(result);
    if (!quarantine.empty()) {
        JsonWriter q;
        q.beginObject();
        q.field("quarantine", std::string(quarantine));
        q.end();
        // Reuse the writer's string escaping: strip the braces and
        // splice the rendered member in.
        const std::string member = q.str();
        if (member.size() >= 2) {
            line += ',';
            line.append(member, 1, member.size() - 2);
        }
    }
    line += "}";
    return line;
}

/** Winners (latest record per key) in key order — the stable order
 *  compact and export both emit. */
std::vector<RecordView> sortedWinners(const RecordStore &store,
                                      std::size_t *totalRecords,
                                      std::uint64_t *tailBytes = nullptr)
{
    std::unordered_map<std::uint64_t, RecordView> winners;
    std::size_t total = 0;
    const std::uint64_t tail = store.forEachRecord([&](const RecordView &v) {
        ++total;
        winners.insert_or_assign(v.key, v);
    });
    if (totalRecords)
        *totalRecords = total;
    if (tailBytes)
        *tailBytes = tail;
    std::vector<RecordView> order;
    order.reserve(winners.size());
    for (const auto &[k, v] : winners) {
        (void)k;
        order.push_back(v);
    }
    std::sort(order.begin(), order.end(),
              [](const RecordView &a, const RecordView &b) {
                  return a.key < b.key;
              });
    return order;
}

} // namespace

std::string
ResultCache::cacheFile(const std::string &dir)
{
    return (fs::path(dir) / "cache.jsonl").string();
}

std::string
ResultCache::binFile(const std::string &dir)
{
    return RecordStore::binFile(dir);
}

std::string
ResultCache::indexFile(const std::string &dir)
{
    return RecordStore::indexFile(dir);
}

ResultCache::ResultCache(std::string dir) : dirPath(std::move(dir))
{
    store_ = std::make_unique<RecordStore>(dirPath);
    corrupted += store_->invalidIndexEntries();
    if (store_->tornBytesTruncated() > 0)
        ++corrupted; // one torn tail record
    migrateLegacyJsonl();
}

ResultCache::~ResultCache()
{
    flush();
}

void
ResultCache::migrateLegacyJsonl()
{
    const std::string legacy = cacheFile(dirPath);
    std::error_code ec;
    if (!fs::exists(legacy, ec))
        return;
    std::ifstream in(legacy);
    if (!in)
        return;
    std::string line;
    std::size_t appended = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        LegacyLine ll;
        if (!parseLegacyLine(line, &ll)) {
            ++corrupted;
            continue;
        }
        // A key already in the record store was written after the
        // legacy file went stale — the binary record wins.
        if (store_->index().count(ll.key))
            continue;
        store_->append(ll.key, !ll.quarantine.empty(), /*wallSeconds=*/0.0,
                       ll.config, ll.result, ll.quarantine);
        ++appended;
    }
    in.close();
    if (appended)
        store_->commit();
    migrated = appended;
    fs::rename(legacy, legacy + ".migrated", ec);
    // Reopen so the migrated records are index-served like any others.
    if (appended)
        store_ = std::make_unique<RecordStore>(dirPath);
}

std::size_t
ResultCache::entries() const
{
    std::lock_guard<std::mutex> lock(mtx);
    std::size_t n = fresh.size();
    for (const auto &[k, meta] : store_->index()) {
        (void)meta;
        if (!fresh.count(k))
            ++n;
    }
    return n;
}

std::size_t
ResultCache::quarantinedEntries() const
{
    std::lock_guard<std::mutex> lock(mtx);
    std::size_t n = 0;
    for (const auto &[k, e] : fresh) {
        (void)k;
        if (e.quarantined())
            ++n;
    }
    for (const auto &[k, meta] : store_->index())
        if (meta.quarantined && !fresh.count(k))
            ++n;
    return n;
}

std::optional<sim::SimResult>
ResultCache::lookup(std::uint64_t key)
{
    auto entry = lookupEntry(key);
    if (!entry)
        return std::nullopt;
    return std::move(entry->result);
}

std::optional<ResultCache::Entry>
ResultCache::lookupEntry(std::uint64_t key)
{
    BlockedTimer timer(&blockedNanos);
    {
        std::lock_guard<std::mutex> lock(mtx);
        const auto it = fresh.find(key);
        if (it != fresh.end()) {
            hitCount.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    // Disk path: the index is immutable after open and the mapping is
    // read-only, so the record read + parse runs lock-free.
    if (const auto rec = store_->read(key)) {
        const auto doc = parseJson(std::string(rec->result));
        std::optional<sim::SimResult> res;
        if (doc)
            res = sim::resultFromJson(*doc);
        if (res) {
            hitCount.fetch_add(1, std::memory_order_relaxed);
            Entry entry;
            entry.result = *res;
            entry.quarantine = std::string(rec->quarantine);
            entry.wallSeconds = rec->wallSeconds;
            // Memoize the parsed entry: repeat lookups of a hot key
            // (refine rounds, bench reps) skip the record parse. The
            // record is immutable for this store's lifetime, so the
            // copy can never go stale.
            {
                std::lock_guard<std::mutex> lock(mtx);
                fresh.emplace(key, entry);
            }
            return entry;
        }
    }
    missCount.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
}

std::optional<double>
ResultCache::measuredWallSeconds(std::uint64_t key) const
{
    {
        std::lock_guard<std::mutex> lock(mtx);
        const auto it = fresh.find(key);
        if (it != fresh.end())
            return it->second.wallSeconds > 0.0
                       ? std::optional<double>(it->second.wallSeconds)
                       : std::nullopt;
    }
    const auto it = store_->index().find(key);
    if (it == store_->index().end() || it->second.wallSeconds <= 0.0)
        return std::nullopt;
    return it->second.wallSeconds;
}

void
ResultCache::store(std::uint64_t key, const std::string &canonical_config,
                   const sim::SimResult &result, double wallSeconds)
{
    storeQuarantine(key, canonical_config, result, std::string(),
                    wallSeconds);
}

void
ResultCache::storeQuarantine(std::uint64_t key,
                             const std::string &canonical_config,
                             const sim::SimResult &result,
                             const std::string &reason, double wallSeconds)
{
    BlockedTimer timer(&blockedNanos);
    // Render outside the lock; only the map insert, the buffer append
    // and (every kGroupCommitRecords stores) the group commit happen
    // under it — the old per-line flush() is gone.
    const std::string resultJson = sim::toJson(result);
    std::lock_guard<std::mutex> lock(mtx);
    fresh[key] = Entry{result, reason, wallSeconds};
    store_->append(key, !reason.empty(), wallSeconds, canonical_config,
                   resultJson, reason);
    if (store_->pendingRecords() >= kGroupCommitRecords ||
        store_->pendingBytes() >= kGroupCommitBytes)
        store_->commit();
}

bool
ResultCache::flush()
{
    BlockedTimer timer(&blockedNanos);
    std::lock_guard<std::mutex> lock(mtx);
    return store_->commit();
}

ResultCache::StoreStats
ResultCache::stats(const std::string &dir)
{
    StoreStats s;
    std::error_code ec;
    s.legacyJsonlPresent = fs::exists(cacheFile(dir), ec);
    if (!fs::exists(RecordStore::binFile(dir), ec))
        return s;
    RecordStore store(dir);
    s.records = store.index().size();
    s.quarantined = store.quarantinedRecords();
    s.fileBytes = store.fileBytes();
    s.indexBytes = store.indexBytes();
    s.tailRecovered = store.tailRecovered();
    s.tornBytesTruncated = store.tornBytesTruncated();
    s.indexRebuilt = store.indexRebuilt();
    return s;
}

std::optional<ResultCache::CompactStats>
ResultCache::compact(const std::string &dir, std::string *error)
{
    CompactStats stats;
    std::error_code ec;
    // Migrate a legacy JSONL first so compaction sees the whole cache.
    if (fs::exists(cacheFile(dir), ec)) {
        ResultCache migrator(dir);
    }
    if (!fs::exists(RecordStore::binFile(dir), ec))
        return stats; // nothing to compact

    std::string bin = RecordStore::fileHeader(/*index=*/false);
    std::string idxStream = RecordStore::fileHeader(/*index=*/true);
    std::uint64_t oldBytes = 0;
    {
        RecordStore store(dir);
        // fileBytes() is post-truncation; the torn bytes the open cut
        // off are space this compaction reclaimed too.
        oldBytes = store.fileBytes() + store.indexBytes()
                   + store.tornBytesTruncated();
        std::size_t total = 0;
        std::uint64_t tail = 0;
        const auto winners = sortedWinners(store, &total, &tail);
        // A torn tail is normally truncated by the open itself; count
        // it as compaction's corruption drop either way.
        if (tail > 0 || store.tornBytesTruncated() > 0)
            stats.droppedCorrupted = 1; // unreadable tail
        for (const RecordView &v : winners)
            RecordStore::serialize(&bin, &idxStream, /*binBase=*/0, v.key,
                                   v.quarantined, v.wallSeconds, v.config,
                                   v.result, v.quarantine);
        stats.kept = winners.size();
        stats.droppedDuplicate = total - winners.size();
    }

    const std::string binPath = RecordStore::binFile(dir);
    const std::string idxPath = RecordStore::indexFile(dir);
    const auto writeWhole = [&](const std::string &path,
                                const std::string &bytes) {
        std::ofstream out(path, std::ios::trunc | std::ios::binary);
        if (!out)
            return false;
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        out.flush();
        return static_cast<bool>(out);
    };
    if (!writeWhole(binPath + ".compact.tmp", bin) ||
        !writeWhole(idxPath + ".compact.tmp", idxStream)) {
        if (error)
            *error = "cannot write compaction temp files in " + dir;
        fs::remove(binPath + ".compact.tmp", ec);
        fs::remove(idxPath + ".compact.tmp", ec);
        return std::nullopt;
    }
    // Records first, index second — a crash between the renames leaves
    // a stale index, which the next open detects and rebuilds.
    fs::rename(binPath + ".compact.tmp", binPath, ec);
    if (!ec)
        fs::rename(idxPath + ".compact.tmp", idxPath, ec);
    if (ec) {
        if (error)
            *error = "cannot replace store in " + dir + ": " + ec.message();
        return std::nullopt;
    }
    const std::uint64_t newBytes = bin.size() + idxStream.size();
    stats.reclaimedBytes = oldBytes > newBytes ? oldBytes - newBytes : 0;
    return stats;
}

bool
ResultCache::clear(const std::string &dir, std::string *error)
{
    std::error_code ec;
    bool ok = true;
    const auto removeIfPresent = [&](const std::string &path) {
        std::error_code rec;
        if (!fs::exists(path, rec))
            return;
        if (!fs::remove(path, rec) || rec) {
            if (error)
                *error = "cannot remove " + path + ": " + rec.message();
            ok = false;
        }
    };
    removeIfPresent(RecordStore::binFile(dir));
    removeIfPresent(RecordStore::indexFile(dir));
    removeIfPresent(cacheFile(dir));
    // `manifest-*.json` checkpoints that older builds kept next to the
    // cache; nothing reads them.
    if (fs::exists(dir, ec)) {
        for (const auto &entry : fs::directory_iterator(dir, ec)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind("manifest-", 0) == 0 &&
                name.size() > 5 &&
                name.compare(name.size() - 5, 5, ".json") == 0)
                removeIfPresent(entry.path().string());
        }
    }
    return ok;
}

bool
ResultCache::exportJsonl(const std::string &dir, const std::string &outPath,
                         std::size_t *exported, std::string *error)
{
    std::error_code ec;
    // Fold a pending legacy file in first so the export is complete.
    if (fs::exists(cacheFile(dir), ec)) {
        ResultCache migrator(dir);
    }
    std::ofstream out(outPath, std::ios::trunc);
    if (!out) {
        if (error)
            *error = "cannot write " + outPath;
        return false;
    }
    std::size_t n = 0;
    if (fs::exists(RecordStore::binFile(dir), ec)) {
        RecordStore store(dir);
        for (const RecordView &v : sortedWinners(store, nullptr)) {
            out << legacyLine(v.key, v.config, v.result, v.quarantine)
                << '\n';
            ++n;
        }
    }
    out.flush();
    if (!out) {
        if (error)
            *error = "write failed for " + outPath;
        return false;
    }
    if (exported)
        *exported = n;
    return true;
}

std::optional<ResultCache::ImportStats>
ResultCache::importJsonl(const std::string &dir, const std::string &inPath,
                         std::string *error)
{
    std::ifstream in(inPath);
    if (!in) {
        if (error)
            *error = "cannot read " + inPath;
        return std::nullopt;
    }
    ImportStats stats;
    RecordStore store(dir);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        LegacyLine ll;
        if (!parseLegacyLine(line, &ll)) {
            ++stats.corrupted;
            continue;
        }
        store.append(ll.key, !ll.quarantine.empty(), /*wallSeconds=*/0.0,
                     ll.config, ll.result, ll.quarantine);
        ++stats.imported;
    }
    if (!store.commit()) {
        if (error)
            *error = "write failed for store in " + dir;
        return std::nullopt;
    }
    return stats;
}

} // namespace ebda::sweep
