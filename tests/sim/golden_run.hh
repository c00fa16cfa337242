/**
 * @file
 * Shared definition of the golden runs: the exact system
 * configurations, workloads, and result serialization used both by
 * tools/gen_mechanism_golden (which captures the snapshots) and by the
 * tests that assert them bit for bit — tests/sim/test_mechanism_golden
 * (every Table 2 preset through the composed-policy LLC, on the
 * monolithic machine) and tests/sim/test_shard_identity (partitioned
 * machines through the epoch engine). Keeping both sides on this one
 * header is what makes the comparison meaningful: any drift in the run
 * setup would be shared.
 */

#ifndef DBSIM_TESTS_SIM_GOLDEN_RUN_HH
#define DBSIM_TESTS_SIM_GOLDEN_RUN_HH

#include <cctype>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/system.hh"

namespace dbsim::golden {

/**
 * One golden point: a label unique within its snapshot (the preset
 * name, plus the variant on partitioned machines), a workload mix, and
 * the full machine configuration.
 */
struct GoldenRun
{
    std::string label;
    WorkloadMix mix;
    SystemConfig cfg;
};

/** The fixed configuration every monolithic golden run uses. */
inline SystemConfig
goldenConfig(const char *preset, std::uint32_t num_cores)
{
    SystemConfig cfg;
    cfg.mech = mechanismByName(preset);
    cfg.numCores = num_cores;
    // Small LLC so eviction/writeback paths are exercised heavily even
    // at short instruction counts.
    cfg.llcBytesPerCore = 512 * 1024;
    cfg.core.warmupInstrs = 200'000;
    cfg.core.measureInstrs = 200'000;
    cfg.seed = 1;
    cfg.auditEvery = 1024;  // audited throughout (passive, stat-free)
    return cfg;
}

/** Preset x mix grid the monolithic snapshot covers (1 and 2 cores). */
inline const std::vector<GoldenRun> &
goldenRuns()
{
    static const std::vector<GoldenRun> runs = [] {
        const std::vector<const char *> presets = {
            "Baseline", "TA-DIP",  "DAWB",    "VWQ",        "SkipCache",
            "DBI",      "DBI+AWB", "DBI+CLB", "DBI+AWB+CLB",
        };
        std::vector<GoldenRun> out;
        for (const char *p : presets) {
            for (const WorkloadMix &mix :
                 {WorkloadMix{"lbm"}, WorkloadMix{"mcf"},
                  WorkloadMix{"mcf", "lbm"}}) {
                out.push_back({p, mix,
                               goldenConfig(p, static_cast<std::uint32_t>(
                                                   mix.size()))});
            }
        }
        return out;
    }();
    return runs;
}

/** The four-core mixes every partitioned golden point runs. */
inline const std::vector<WorkloadMix> &
shardedMixes()
{
    static const std::vector<WorkloadMix> mixes = {
        {"stream", "stream", "stream", "stream"},
        {"mcf", "lbm", "mcf", "lbm"},
        {"libquantum", "stream", "mcf", "lbm"},
    };
    return mixes;
}

/** A four-core machine at 4 LLC slices x 4 DRAM channels. */
inline SystemConfig
shardedConfig(MechanismSpec mech)
{
    SystemConfig cfg;
    cfg.mech = mech;
    cfg.numCores = 4;
    cfg.llcSlices = 4;
    cfg.dram.channels = 4;
    cfg.core.warmupInstrs = 40'000;
    cfg.core.measureInstrs = 30'000;
    // Shorten the predictor epoch so Skip/CLB mechanisms actually train
    // inside this short run.
    cfg.pred.epochCycles = 100'000;
    return cfg;
}

/** Every Table 2 preset x shardedMixes() on the 4x4 machine. */
inline const std::vector<GoldenRun> &
shardedRuns()
{
    static const std::vector<GoldenRun> runs = [] {
        std::vector<GoldenRun> out;
        for (Mechanism m : allMechanisms()) {
            for (const WorkloadMix &mix : shardedMixes()) {
                out.push_back({mechanismName(m), mix, shardedConfig(m)});
            }
        }
        return out;
    }();
    return runs;
}

/**
 * Partitioned machines off the 4x4 grid: asymmetric slice/channel
 * counts, other hop latencies, and the DRAM-cache tier in both
 * dirty-tracking modes. Labels name the variant.
 */
inline const std::vector<GoldenRun> &
shardedVariantRuns()
{
    static const std::vector<GoldenRun> runs = [] {
        const std::vector<WorkloadMix> &mixes = shardedMixes();
        std::vector<GoldenRun> out;
        for (auto [slices, channels] : {std::pair{4u, 2u}, {2u, 4u}}) {
            SystemConfig cfg = shardedConfig(Mechanism::Dbi);
            cfg.llcSlices = slices;
            cfg.dram.channels = channels;
            out.push_back({"DBI " + std::to_string(slices) + "s" +
                               std::to_string(channels) + "ch",
                           mixes[2], cfg});
        }
        for (Cycle hop : {1u, 16u, 128u}) {
            SystemConfig cfg = shardedConfig(Mechanism::TaDip);
            cfg.shardHopLatency = hop;
            out.push_back(
                {"TA-DIP hop" + std::to_string(hop), mixes[0], cfg});
        }
        for (bool tags : {false, true}) {
            SystemConfig cfg = shardedConfig(Mechanism::Dbi);
            cfg.dcache.enable = true;
            cfg.dcache.sizeBytes = 2ull << 20;  // 512KB/slice: evictions
            cfg.dcache.indexEntries = 64;
            cfg.dcache.dirtyInTags = tags;
            out.push_back({tags ? "DBI dcache-tags" : "DBI dcache-index",
                           mixes[1], cfg});
        }
        return out;
    }();
    return runs;
}

/**
 * Split a snapshot into per-run blocks keyed by the "run <label> |
 * <mix>" header line (header included in the block, so a comparison
 * failure prints which run it is).
 */
inline std::map<std::string, std::string>
goldenBlocks(const std::string &all)
{
    std::map<std::string, std::string> blocks;
    std::string key;
    std::size_t pos = 0;
    while (pos < all.size()) {
        std::size_t eol = all.find('\n', pos);
        if (eol == std::string::npos) {
            eol = all.size();
        }
        const std::string line = all.substr(pos, eol - pos);
        if (line.rfind("run ", 0) == 0) {
            key = line;
            blocks[key] = line + "\n";
        } else if (!key.empty() && !line.empty()) {
            blocks[key] += line + "\n";
        }
        pos = eol + 1;
    }
    return blocks;
}

/** The block key of one golden point. */
inline std::string
goldenKey(const std::string &label, const WorkloadMix &mix)
{
    return "run " + label + " | " + mixLabel(mix);
}

/** A gtest-safe parameter name for one golden point. */
inline std::string
goldenTestName(const GoldenRun &g)
{
    std::string name = g.label + "_" + mixLabel(g.mix);
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) {
            c = '_';
        }
    }
    return name;
}

/** Serialize one result with round-trip-exact doubles. */
inline std::string
goldenSerialize(const std::string &label, const WorkloadMix &mix,
                const SimResult &r)
{
    char buf[128];
    std::string out = goldenKey(label, mix) + "\n";
    auto emitD = [&](const char *key, double v) {
        std::snprintf(buf, sizeof(buf), "%s=%.17g\n", key, v);
        out += buf;
    };
    for (std::size_t c = 0; c < r.ipc.size(); ++c) {
        std::snprintf(buf, sizeof(buf), "ipc%zu=%.17g\n", c, r.ipc[c]);
        out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "windowCycles=%llu\ntotalInstrs=%llu\n",
                  static_cast<unsigned long long>(r.windowCycles),
                  static_cast<unsigned long long>(r.totalInstrs));
    out += buf;
    emitD("readRowHitRate", r.readRowHitRate);
    emitD("writeRowHitRate", r.writeRowHitRate);
    emitD("tagLookupsPki", r.tagLookupsPki);
    emitD("wpki", r.wpki);
    emitD("mpki", r.mpki);
    emitD("dramEnergyPj", r.dramEnergyPj);
    for (const auto &[k, v] : r.stats) {
        std::snprintf(buf, sizeof(buf), "stat %s=%llu\n", k.c_str(),
                      static_cast<unsigned long long>(v));
        out += buf;
    }
    return out;
}

} // namespace dbsim::golden

#endif // DBSIM_TESTS_SIM_GOLDEN_RUN_HH
