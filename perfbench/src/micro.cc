#include "micro.hh"

#include <algorithm>
#include <chrono>
#include <vector>

#include "cache/tag_store.hh"
#include "common/event_queue.hh"
#include "common/rng.hh"
#include "dbi/dbi.hh"
#include "dram/dram_controller.hh"

namespace perfbench {

using namespace dbsim;

namespace {

/** Keep a computed value alive without the optimizer seeing its use. */
template <typename T>
inline void
doNotOptimize(const T &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

/**
 * Median ns/op of five batches of `op(n)`, with n grown until one batch
 * takes at least 4 ms.
 */
template <typename Op>
double
nsPerOp(Op &&op)
{
    using clock = std::chrono::steady_clock;
    auto batch = [&](std::uint64_t n) {
        const auto start = clock::now();
        op(n);
        return std::chrono::duration<double, std::nano>(clock::now() -
                                                        start)
            .count();
    };
    std::uint64_t n = 256;
    while (batch(n) < 4e6 && n < (1ull << 28)) {
        n *= 2;
    }
    std::vector<double> per_op;
    for (int i = 0; i < 5; ++i) {
        per_op.push_back(batch(n) / static_cast<double>(n));
    }
    std::sort(per_op.begin(), per_op.end());
    return per_op[2];
}

} // namespace

MicroResults
runMicros(const SystemConfig &cfg, std::uint64_t seed)
{
    MicroResults m;
    const ShardTopology topo = cfg.topology();
    LlcConfig llc = cfg.resolveLlc();
    llc.sizeBytes /= topo.slices;
    const CacheGeometry geo{llc.sizeBytes, llc.assoc, llc.repl,
                            cfg.numCores, llc.seed};
    const std::uint64_t blocks = llc.sizeBytes / kBlockBytes;
    Rng rng(seed ^ 0x6a09e667f3bcc909ull);

    {
        // Footprint twice the capacity: about half the probes hit.
        TagStore tags(geo);
        const std::uint64_t footprint = 2 * blocks;
        for (std::uint64_t i = 0; i < 2 * blocks; ++i) {
            const Addr a = rng.below(footprint) * kBlockBytes;
            if (!tags.contains(a)) {
                tags.insert(a, 0, false);
            }
        }
        m.cacheFindNs = nsPerOp([&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                doNotOptimize(
                    tags.find(rng.below(footprint) * kBlockBytes));
            }
        });
        // Never-seen blocks (an odd multiplier permutes 2^34 block
        // numbers): every insert misses and displaces a victim.
        std::uint32_t thread = 0;
        std::uint64_t fresh = rng.next();
        m.cacheInsertNs = nsPerOp([&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                const std::uint64_t block =
                    (++fresh * 0x9e3779b97f4a7c15ull) & ((1ull << 34) - 1);
                const auto ev = tags.insert(
                    (footprint + block) * kBlockBytes, thread, false);
                doNotOptimize(ev.block);
                thread = (thread + 1) % cfg.numCores;
            }
        });
    }

    {
        DbiConfig dcfg = cfg.dbi;
        Dbi dbi(dcfg, blocks);
        const std::uint64_t footprint = 4 * blocks;
        m.dbiSetDirtyNs = nsPerOp([&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                auto drained =
                    dbi.setDirty(rng.below(footprint) * kBlockBytes);
                doNotOptimize(drained.data());
            }
        });
        m.dbiRowQueryNs = nsPerOp([&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                auto row = dbi.dirtyBlocksInRegion(rng.below(footprint) *
                                                   kBlockBytes);
                doNotOptimize(row.data());
            }
        });
    }

    {
        // 64 events pending, each step schedules one more.
        EventQueue eq;
        std::uint64_t fired = 0;
        for (int i = 0; i < 64; ++i) {
            eq.schedule(1 + rng.below(64), [&fired] { ++fired; });
        }
        m.eqScheduleStepNs = nsPerOp([&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; ++i) {
                eq.schedule(eq.now() + 1 + rng.below(64),
                            [&fired] { ++fired; });
                eq.step();
            }
        });
        doNotOptimize(fired);
    }

    {
        EventQueue eq;
        DramConfig dcfg = cfg.dram;
        dcfg.channels = topo.channels;
        DramController dram(dcfg, eq);
        std::uint64_t completed = 0;
        // Addresses over a footprint of 256 rows per bank: a mix of row
        // hits and conflicts.
        const std::uint64_t span =
            256ull * dcfg.numBanks * dcfg.rowBytes / kBlockBytes;
        m.dramRequestNs = nsPerOp([&](std::uint64_t n) {
            for (std::uint64_t i = 0; i < n; i += 32) {
                for (int r = 0; r < 32; ++r) {
                    const Addr a = rng.below(span) * kBlockBytes;
                    if (r % 4 == 3) {
                        dram.enqueueWrite(a, eq.now());
                    } else {
                        dram.enqueueRead(a, eq.now(),
                                         [&completed](Cycle) {
                                             ++completed;
                                         });
                    }
                }
                eq.runAll();
            }
        });
        doNotOptimize(completed);
    }
    return m;
}

} // namespace perfbench
