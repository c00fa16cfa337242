/**
 * @file
 * Property suite for the sharded engine under the invariant auditor:
 * generated op streams (a locality x dirtiness x pointer-chasing knob
 * grid, replayed through file traces so every run sees the exact same
 * access sequence) drive a 4-shard audited System. Every stream must
 * (a) complete with all four per-slice auditors quiet — the auditors
 * panic on any dirty-state divergence, including cross-shard ordering
 * bugs that corrupt a slice's DBI — and (b) leave each slice a final
 * memory image of only the addresses that slice owns.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/system.hh"
#include "support/temp_path.hh"
#include "workload/file_trace.hh"

namespace dbsim {
namespace {

struct StreamKnobs
{
    std::uint64_t seed;
    double writeFraction;
    double localityFraction;
    double chaseFraction;
};

/** Deterministic trace for one core: the op-stream generator. */
std::vector<TraceOp>
generateStream(const StreamKnobs &k, std::size_t count)
{
    Rng rng(k.seed);
    std::vector<TraceOp> ops;
    ops.reserve(count);
    std::vector<Addr> pool;
    for (std::size_t i = 0; i < count; ++i) {
        TraceOp op;
        op.gap = static_cast<std::uint32_t>(rng.below(24));
        op.isWrite = rng.chance(k.writeFraction);
        op.dependent = rng.chance(k.chaseFraction);
        if (!pool.empty() && rng.chance(k.localityFraction)) {
            op.addr = pool[rng.below(pool.size())];
        } else {
            op.addr = blockAlign(rng.below(64ull << 20));
            if (pool.size() < 128) {
                pool.push_back(op.addr);
            } else {
                pool[rng.below(pool.size())] = op.addr;
            }
        }
        ops.push_back(op);
    }
    return ops;
}

/** Knob grid point i: cycles the corners deterministically. */
StreamKnobs
knobsFor(int i)
{
    StreamKnobs k;
    k.seed = 0x5AD5EED + static_cast<std::uint64_t>(i) * 7919;
    k.writeFraction = 0.10 + 0.25 * (i % 4);      // 0.10 .. 0.85
    k.localityFraction = 0.30 * (i % 3);          // 0.0 .. 0.6
    k.chaseFraction = (i % 2) ? 0.3 : 0.0;
    return k;
}

/** Write 4 generated traces and return the "@path" workload mix. */
WorkloadMix
writeTraces(int stream)
{
    WorkloadMix mix;
    for (int core = 0; core < 4; ++core) {
        std::string path = test::tempPath(
            "shardprop_" + std::to_string(stream) + "_" +
            std::to_string(core) + ".trace");
        FileTrace::write(path,
                         generateStream(knobsFor(stream * 4 + core),
                                        2'000));
        mix.push_back("@" + path);
    }
    return mix;
}

SystemConfig
auditedShardedConfig(MechanismSpec mech)
{
    SystemConfig cfg;
    cfg.mech = mech;
    cfg.numCores = 4;
    cfg.llcSlices = 4;
    cfg.dram.channels = 4;
    cfg.core.warmupInstrs = 8'000;
    cfg.core.measureInstrs = 8'000;
    cfg.auditEvery = 256;  // aggressive: cross-check every 256 events
    return cfg;
}

/** The mechanisms whose dirty-state plumbing differs structurally. */
const std::vector<std::string> kMechanisms = {
    "TA-DIP",
    "DBI",
    "DBI+AWB+CLB",
    "dbi+vwq",
    "dawb+clb",
};

TEST(PropertyShards, AuditedShardedRunsStayQuiet)
{
    constexpr int kStreams = 6;
    for (int i = 0; i < kStreams; ++i) {
        WorkloadMix mix = writeTraces(i);
        for (const std::string &name : kMechanisms) {
            System sys(auditedShardedConfig(mechanismByName(name)), mix);
            sys.run();  // auditor panics on divergence

            // The auditors observed real traffic on every slice.
            const std::string what =
                name + " stream " + std::to_string(i);
            for (std::uint32_t s = 0; s < 4; ++s) {
                ASSERT_NE(sys.sliceAuditor(s), nullptr);
                EXPECT_GT(sys.sliceAuditor(s)->eventsObserved(), 0u)
                    << what << " slice " << s;
                EXPECT_GT(sys.sliceAuditor(s)->checksRun(), 0u)
                    << what << " slice " << s;
            }
        }
    }
}

TEST(PropertyShards, FinalImagesStayInTheirSlice)
{
    // The run itself already enforces mechanism-vs-shadow image
    // equality per slice (System panics otherwise). On top of that,
    // each slice's image must hold only addresses the slice owns:
    // DRAM-row interleaving never lets a block's history land on a
    // slice that does not own it.
    WorkloadMix mix = writeTraces(97);

    for (const std::string &name : {std::string("DBI"),
                                    std::string("DBI+AWB+CLB")}) {
        System sys(auditedShardedConfig(mechanismByName(name)), mix);
        sys.run();
        std::size_t blocks = 0;
        for (std::uint32_t s = 0; s < 4; ++s) {
            const audit::MemoryImage img =
                sys.sliceAuditor(s)->finalImage();
            blocks += img.size();
            for (const auto &[addr, version] : img) {
                EXPECT_EQ(sys.topology().sliceOf(addr), s)
                    << name << " slice " << s << " addr " << addr;
            }
        }
        EXPECT_GT(blocks, 0u) << name;
    }
}

} // namespace
} // namespace dbsim
