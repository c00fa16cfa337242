#include "result_cache.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/logging.hh"
#include "exp/alone_cache.hh"
#include "exp/json.hh"
#include "exp/jsonl_read.hh"
#include "workload/mixes.hh"

namespace dbsim::exp {

std::uint64_t
fnv1a64(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t
fnv1a64File(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    fatal_if(!f, "cannot read trace file '%s' for cache hashing",
             path.c_str());
    std::uint64_t h = 0xcbf29ce484222325ull;
    unsigned char buf[1 << 16];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        for (std::size_t i = 0; i < got; ++i) {
            h ^= buf[i];
            h *= 0x100000001b3ull;
        }
    }
    fatal_if(std::ferror(f), "read error hashing trace file '%s'",
             path.c_str());
    std::fclose(f);
    return h;
}

std::string
keyHex(std::uint64_t key)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

namespace {

void
kv(std::string &out, const char *key, const std::string &value)
{
    out += key;
    out += '=';
    out += value;
    out += ';';
}

void
kv(std::string &out, const char *key, std::uint64_t value)
{
    kv(out, key, jsonNumber(value));
}

void
kv(std::string &out, const char *key, double value)
{
    kv(out, key, jsonNumber(value));
}

void
kv(std::string &out, const char *key, bool value)
{
    kv(out, key, std::string(value ? "1" : "0"));
}

/**
 * The payload fields of a shard line, serialized: everything a hit
 * returns. Its hash is stored with the line, and load() recomputes it
 * from the parsed record, so a payload corrupted into other valid JSON
 * is dropped instead of served.
 */
std::string
payloadJson(const PointRecord &rec)
{
    std::string s = "\"mechanism\":" + jsonString(rec.mechanism) +
                    ",\"mix\":" + jsonString(rec.mix) + ",\"metrics\":{";
    bool first = true;
    for (const auto &[k, v] : rec.metrics) {
        if (!first) {
            s += ",";
        }
        first = false;
        s += jsonString(k) + ":" + jsonNumber(v);
    }
    s += "},\"stats\":{";
    first = true;
    for (const auto &[k, v] : rec.stats) {
        if (!first) {
            s += ",";
        }
        first = false;
        s += jsonString(k) + ":" + jsonNumber(v);
    }
    s += "}";
    return s;
}

} // namespace

std::string
canonicalConfig(const SystemConfig &cfg)
{
    std::string s;
    s.reserve(640);
    kv(s, "mech", mechanismSpecString(cfg.mech));
    kv(s, "cores", std::uint64_t(cfg.numCores));
    kv(s, "llc.bytesPerCore", cfg.llcBytesPerCore);
    kv(s, "llc.assoc", std::uint64_t(cfg.llcAssoc));
    kv(s, "llc.tagLat", std::uint64_t(cfg.llcTagLatency));
    kv(s, "llc.dataLat", std::uint64_t(cfg.llcDataLatency));
    kv(s, "drrip", cfg.useDrrip);
    kv(s, "slices", std::uint64_t(cfg.llcSlices));
    kv(s, "hop", std::uint64_t(cfg.shardHopLatency));
    kv(s, "seed", cfg.seed);
    kv(s, "maxCycles", cfg.maxCycles);

    // The dcache block is serialized only when the tier is enabled:
    // dcache.enable=false configs keep byte-identical canonical strings
    // (and therefore content keys) to records written before the tier
    // existed, so no stored sweep result is invalidated by the refactor.
    if (cfg.dcache.enable) {
        kv(s, "dcache.enable", cfg.dcache.enable);
        kv(s, "dcache.bytes", cfg.dcache.sizeBytes);
        kv(s, "dcache.pageBytes", std::uint64_t(cfg.dcache.pageBytes));
        kv(s, "dcache.assoc", std::uint64_t(cfg.dcache.assoc));
        kv(s, "dcache.dirtyInTags", cfg.dcache.dirtyInTags);
        kv(s, "dcache.indexEntries",
           std::uint64_t(cfg.dcache.indexEntries));
        kv(s, "dcache.indexAssoc", std::uint64_t(cfg.dcache.indexAssoc));
        kv(s, "dcache.tagLat", std::uint64_t(cfg.dcache.tagLatency));
        kv(s, "dcache.dataLat", std::uint64_t(cfg.dcache.dataLatency));
        kv(s, "dcache.seed", cfg.dcache.seed);
    }

    kv(s, "dbi.alpha", cfg.dbi.alpha);
    kv(s, "dbi.gran", std::uint64_t(cfg.dbi.granularity));
    kv(s, "dbi.assoc", std::uint64_t(cfg.dbi.assoc));
    kv(s, "dbi.repl", std::uint64_t(cfg.dbi.repl));
    kv(s, "dbi.lat", std::uint64_t(cfg.dbi.latency));
    kv(s, "dbi.seed", cfg.dbi.seed);

    const DramConfig &d = cfg.dram;
    kv(s, "dram.banks", std::uint64_t(d.numBanks));
    kv(s, "dram.rowBytes", d.rowBytes);
    kv(s, "dram.channels", std::uint64_t(d.channels));
    kv(s, "dram.tCkCpu", std::uint64_t(d.tCkCpu));
    kv(s, "dram.tCas", std::uint64_t(d.tCas));
    kv(s, "dram.tRcd", std::uint64_t(d.tRcd));
    kv(s, "dram.tRp", std::uint64_t(d.tRp));
    kv(s, "dram.tRas", std::uint64_t(d.tRas));
    kv(s, "dram.tWr", std::uint64_t(d.tWr));
    kv(s, "dram.tBurst", std::uint64_t(d.tBurst));
    kv(s, "dram.tRtw", std::uint64_t(d.tRtw));
    kv(s, "dram.tWtr", std::uint64_t(d.tWtr));
    kv(s, "dram.tRrd", std::uint64_t(d.tRrd));
    kv(s, "dram.tFaw", std::uint64_t(d.tFaw));
    kv(s, "dram.ioLat", std::uint64_t(d.ioLatency));
    kv(s, "dram.wbuf", std::uint64_t(d.writeBufEntries));
    kv(s, "dram.drainLow", std::uint64_t(d.drainLowWatermark));
    kv(s, "dram.writeIdle", d.writeWhenIdle);
    kv(s, "dram.eAct", d.eActivatePj);
    kv(s, "dram.eRead", d.eReadPj);
    kv(s, "dram.eWrite", d.eWritePj);
    kv(s, "dram.bgMw", d.backgroundMw);

    kv(s, "core.rob", std::uint64_t(cfg.core.robSize));
    kv(s, "core.mshrs", std::uint64_t(cfg.core.mshrs));
    kv(s, "core.slack", cfg.core.slack);
    kv(s, "core.warmup", cfg.core.warmupInstrs);
    kv(s, "core.measure", cfg.core.measureInstrs);
    kv(s, "core.overrun", std::uint64_t(cfg.core.maxOverrun));

    kv(s, "l1.bytes", cfg.mem.l1.sizeBytes);
    kv(s, "l1.assoc", std::uint64_t(cfg.mem.l1.assoc));
    kv(s, "l1.lat", std::uint64_t(cfg.mem.l1.latency));
    kv(s, "l2.bytes", cfg.mem.l2.sizeBytes);
    kv(s, "l2.assoc", std::uint64_t(cfg.mem.l2.assoc));
    kv(s, "l2.lat", std::uint64_t(cfg.mem.l2.latency));

    kv(s, "pred.thresh", cfg.pred.missThreshold);
    kv(s, "pred.epoch", cfg.pred.epochCycles);
    kv(s, "pred.sample", std::uint64_t(cfg.pred.sampleInterval));
    kv(s, "pred.threads", std::uint64_t(cfg.pred.numThreads));

    // Trace input and sampling serialize only when in use, keeping
    // synthetic-workload configs byte-identical (same keys) to records
    // written before trace ingest existed. The trace participates by
    // *content* hash: rewriting the file in place flips the key even
    // though the path is unchanged, so a changed trace can never be
    // served a stale result.
    if (!cfg.traceFile.empty()) {
        kv(s, "trace.file", cfg.traceFile);
        kv(s, "trace.hash", keyHex(fnv1a64File(cfg.traceFile)));
    }
    if (cfg.sampling.enabled()) {
        kv(s, "sample.ff", cfg.sampling.ffOps);
        kv(s, "sample.ops", cfg.sampling.sampleOps);
        kv(s, "sample.period", cfg.sampling.periodOps);
    }
    return s;
}

std::string
canonicalPoint(const SweepPoint &p, const SystemConfig &alone_base)
{
    std::string s = "v1;";
    switch (p.kind) {
      case PointKind::Custom: {
        kv(s, "kind", std::string("custom"));
        kv(s, "index", std::uint64_t(p.index));
        for (const auto &[k, v] : p.tags) {
            kv(s, ("tag." + k).c_str(), v);
        }
        return s;
      }
      case PointKind::Sim:
        kv(s, "kind", std::string("sim"));
        break;
      case PointKind::MixSim:
        kv(s, "kind", std::string("mix"));
        break;
    }
    kv(s, "mix", mixLabel(p.mix));
    // "@<path>" mix entries replay trace files: fold their content in
    // so an edited per-core trace is a miss, not a stale hit.
    for (const std::string &entry : p.mix) {
        if (!entry.empty() && entry[0] == '@') {
            kv(s, ("mix.hash." + entry.substr(1)).c_str(),
               keyHex(fnv1a64File(entry.substr(1))));
        }
    }
    s += canonicalConfig(p.cfg);
    if (p.kind == PointKind::MixSim) {
        s += "alone{";
        s += canonicalConfig(aloneRunConfig(alone_base));
        s += "}";
    }
    return s;
}

std::string
buildStamp()
{
    if (const char *env = std::getenv("DBSIM_CACHE_STAMP")) {
        return env;
    }
    return std::string(ResultCache::kVersion) + " " __DATE__ " " __TIME__;
}

ResultCache::ResultCache(const std::string &directory)
    : dir(directory), stamp(buildStamp())
{
    fatal_if(dir.empty(), "result cache needs a directory");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    fatal_if(static_cast<bool>(ec), "cannot create cache dir '%s': %s",
             dir.c_str(), ec.message().c_str());
    load();
}

std::string
ResultCache::shardPath(std::uint64_t key) const
{
    char name[32];
    std::snprintf(name, sizeof(name), "shard_%02x.jsonl",
                  static_cast<unsigned>(key % kNumShards));
    return dir + "/" + name;
}

void
ResultCache::writeIndex()
{
    std::ofstream out(dir + "/index.json", std::ios::trunc);
    out << "{\"version\":" << jsonString(kVersion)
        << ",\"stamp\":" << jsonString(stamp)
        << ",\"shards\":" << kNumShards << "}\n";
}

void
ResultCache::wipeShards()
{
    for (std::uint32_t i = 0; i < kNumShards; ++i) {
        std::remove(shardPath(i).c_str());
    }
}

void
ResultCache::load()
{
    // Trust the stored entries only when index.json matches this
    // build exactly; any mismatch or corruption wipes the store —
    // entries are recomputable by definition, stale ones are not.
    bool valid = false;
    {
        std::ifstream in(dir + "/index.json");
        if (in) {
            std::string text((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
            JsonValue idx;
            if (parseJson(text, idx) && idx.isObject()) {
                const JsonValue *version = idx.find("version");
                const JsonValue *st = idx.find("stamp");
                const JsonValue *shards = idx.find("shards");
                std::uint64_t n = 0;
                valid = version && version->isString() &&
                        version->text == kVersion && st &&
                        st->isString() && st->text == stamp && shards &&
                        shards->asU64(n) && n == kNumShards;
            }
        }
    }
    if (!valid) {
        wipeShards();
        writeIndex();
        return;
    }

    for (std::uint32_t i = 0; i < kNumShards; ++i) {
        JsonlFile file = readJsonl(shardPath(i));
        for (const JsonlRow &row : file.rows) {
            const JsonValue *key = row.value.find("key");
            const JsonValue *canon = row.value.find("canon");
            if (!key || !key->isString() || !canon ||
                !canon->isString()) {
                continue;
            }
            std::uint64_t k = 0;
            {
                char *end = nullptr;
                k = std::strtoull(key->text.c_str(), &end, 16);
                if (end == key->text.c_str() || *end != '\0') {
                    continue;
                }
            }
            // The key must be the hash of the stored canonical string
            // and must map to this shard file — anything else is a
            // corrupt or misplaced entry.
            if (k != fnv1a64(canon->text) || k % kNumShards != i) {
                continue;
            }
            PointRecord payload;
            const JsonValue *sum = row.value.find("sum");
            const JsonValue *mechanism = row.value.find("mechanism");
            const JsonValue *mix = row.value.find("mix");
            const JsonValue *metrics = row.value.find("metrics");
            const JsonValue *stats = row.value.find("stats");
            if (!sum || !sum->isString() || !mechanism ||
                !mechanism->isString() || !mix || !mix->isString() ||
                !metrics || !stats) {
                continue;
            }
            // Reuse the record-object loader by wrapping the payload
            // fields in the record shape it expects.
            JsonValue wrapper;
            wrapper.kind = JsonValue::Kind::Object;
            JsonValue zero;
            zero.kind = JsonValue::Kind::Number;
            zero.text = "0";
            JsonValue empty_str;
            empty_str.kind = JsonValue::Kind::String;
            JsonValue empty_obj;
            empty_obj.kind = JsonValue::Kind::Object;
            wrapper.members.emplace_back("index", zero);
            wrapper.members.emplace_back("experiment", empty_str);
            wrapper.members.emplace_back("mechanism", *mechanism);
            wrapper.members.emplace_back("mix", *mix);
            wrapper.members.emplace_back("tags", empty_obj);
            wrapper.members.emplace_back("metrics", *metrics);
            wrapper.members.emplace_back("stats", *stats);
            if (!pointRecordFromJson(wrapper, payload)) {
                continue;
            }
            if (sum->text != keyHex(fnv1a64(payloadJson(payload)))) {
                continue;
            }
            payload.experiment.clear();
            payload.tags.clear();
            Entry e;
            e.canon = canon->text;
            e.payload = std::move(payload);
            entries[k] = std::move(e);  // last write wins
        }
    }
}

bool
ResultCache::lookup(std::uint64_t key, const std::string &canon,
                    PointRecord &out)
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(key);
    if (it == entries.end() || it->second.canon != canon) {
        ++ctr.misses;
        return false;
    }
    const PointRecord &p = it->second.payload;
    out.mechanism = p.mechanism;
    out.mix = p.mix;
    out.metrics = p.metrics;
    out.stats = p.stats;
    ++ctr.hits;
    return true;
}

void
ResultCache::insert(std::uint64_t key, const std::string &canon,
                    const PointRecord &rec)
{
    std::lock_guard<std::mutex> lock(mu);
    if (entries.count(key)) {
        return;  // racing workers computed the same point
    }
    Entry e;
    e.canon = canon;
    e.payload.mechanism = rec.mechanism;
    e.payload.mix = rec.mix;
    e.payload.metrics = rec.metrics;
    e.payload.stats = rec.stats;

    const std::string payload = payloadJson(rec);
    std::string line = "{\"key\":" + jsonString(keyHex(key)) +
                       ",\"canon\":" + jsonString(canon) +
                       ",\"sum\":" + jsonString(keyHex(fnv1a64(payload))) +
                       "," + payload + "}";

    std::ofstream out(shardPath(key), std::ios::app);
    if (out) {
        out << line << '\n';
        out.flush();
    } else {
        warn("cannot append to cache shard '%s'",
             shardPath(key).c_str());
    }
    entries[key] = std::move(e);
}

void
ResultCache::noteBypass()
{
    std::lock_guard<std::mutex> lock(mu);
    ++ctr.bypasses;
}

CacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return ctr;
}

std::size_t
ResultCache::entryCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return entries.size();
}

} // namespace dbsim::exp
