/**
 * @file
 * Tests for the DDR3 controller: row buffer behaviour, FR-FCFS
 * scheduling, the drain-when-full write buffer, forwarding, and the
 * row-locality cost asymmetry that the AWB optimization exploits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "dram/dram_controller.hh"

namespace dbsim {
namespace {

struct DramTest : public ::testing::Test
{
    DramTest() : ctrl(DramConfig{}, eq) {}

    /** Issue a read and run to completion; returns the latency. */
    Cycle
    readLatency(Addr a, Cycle when)
    {
        Cycle done = 0;
        ctrl.enqueueRead(a, when, [&](Cycle c) { done = c; });
        eq.runAll();
        EXPECT_GT(done, when);
        return done - when;
    }

    EventQueue eq;
    DramController ctrl;
};

TEST_F(DramTest, RowHitFasterThanRowMiss)
{
    const DramAddrMap &map = ctrl.addrMap();
    Addr row0_b0 = 0;
    Addr row0_b1 = map.blockInRowAddr(0, 1);
    // Same bank, different row: rows stride by numBanks in the map.
    Addr other_row_same_bank = map.rowBytes() * map.numBanks();

    Cycle first = readLatency(row0_b0, 0);       // closed bank
    Cycle hit = readLatency(row0_b1, 10000);     // open row
    Cycle conflict = readLatency(other_row_same_bank, 20000);
    EXPECT_LT(hit, first);
    EXPECT_LT(first, conflict);
}

TEST_F(DramTest, RowHitRateTracksLocality)
{
    // 16 reads to the same row: 1 activate, 15 hits.
    for (std::uint32_t i = 0; i < 16; ++i) {
        ctrl.enqueueRead(i * kBlockBytes, i, [](Cycle) {});
    }
    eq.runAll();
    EXPECT_EQ(ctrl.statReads.value(), 16u);
    EXPECT_EQ(ctrl.statReadRowHits.value(), 15u);
    EXPECT_NEAR(ctrl.readRowHitRate(), 15.0 / 16.0, 1e-9);
}

TEST_F(DramTest, FrFcfsPrefersRowHits)
{
    const DramAddrMap &map = ctrl.addrMap();
    // Open row 0 in bank 0.
    readLatency(0, 0);
    Cycle t = eq.now();
    std::vector<int> order;
    // Queue a conflict (same bank, other row) then a hit to row 0: the
    // hit should be serviced first despite arriving later.
    ctrl.enqueueRead(map.rowBytes() * map.numBanks(), t + 1,
                     [&](Cycle) { order.push_back(1); });
    ctrl.enqueueRead(kBlockBytes, t + 1,
                     [&](Cycle) { order.push_back(2); });
    eq.runAll();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 2);
}

TEST_F(DramTest, WritesWaitForDrain)
{
    ctrl.enqueueWrite(0, 0);
    eq.runAll();
    // writeWhenIdle is off by default: the write sits in the buffer.
    EXPECT_EQ(ctrl.statWrites.value(), 0u);
    EXPECT_EQ(ctrl.pendingWrites(), 1u);
}

TEST_F(DramTest, DrainTriggersWhenFull)
{
    std::uint32_t cap = ctrl.config().writeBufEntries;
    for (std::uint32_t i = 0; i < cap; ++i) {
        ctrl.enqueueWrite(i * kBlockBytes * 131, i);  // scattered rows
    }
    eq.runAll();
    EXPECT_EQ(ctrl.statDrains.value(), 1u);
    EXPECT_EQ(ctrl.statWrites.value(), cap);
    EXPECT_EQ(ctrl.pendingWrites(), 0u);
}

TEST_F(DramTest, DrainCyclesCreditedWhenDrainEndsQuietly)
{
    // A drain that empties the buffer with no subsequent traffic must
    // still close its accounting window: the cycles are credited at the
    // dequeue that crosses the watermark, not at some later service
    // event that may never come.
    std::uint32_t cap = ctrl.config().writeBufEntries;
    for (std::uint32_t i = 0; i < cap; ++i) {
        ctrl.enqueueWrite(i * kBlockBytes * 131, i);  // scattered rows
    }
    eq.runAll();
    EXPECT_EQ(ctrl.statDrains.value(), 1u);
    EXPECT_EQ(ctrl.pendingWrites(), 0u);
    EXPECT_FALSE(ctrl.draining());
    EXPECT_GT(ctrl.statDrainCycles.value(), 0u);
}

TEST_F(DramTest, DrainStopsAndIsAccountedAtLowWatermark)
{
    DramConfig cfg;
    cfg.writeBufEntries = 8;
    cfg.drainLowWatermark = 4;
    EventQueue q;
    DramController c(cfg, q);
    for (std::uint32_t i = 0; i < cfg.writeBufEntries; ++i) {
        c.enqueueWrite(i * kBlockBytes * 131, i);
    }
    q.runAll();
    // Drained exactly down to the watermark, then stopped; the window
    // was credited when the crossing dequeue happened.
    EXPECT_FALSE(c.draining());
    EXPECT_EQ(c.statWrites.value(), 4u);
    EXPECT_EQ(c.pendingWrites(), 4u);
    EXPECT_EQ(c.statDrains.value(), 1u);
    EXPECT_GT(c.statDrainCycles.value(), 0u);
}

TEST_F(DramTest, ConsecutiveDrainsAccumulateDrainCycles)
{
    std::uint32_t cap = ctrl.config().writeBufEntries;
    for (std::uint32_t i = 0; i < cap; ++i) {
        ctrl.enqueueWrite(i * kBlockBytes * 131, i);
    }
    eq.runAll();
    std::uint64_t first = ctrl.statDrainCycles.value();
    EXPECT_GT(first, 0u);
    for (std::uint32_t i = 0; i < cap; ++i) {
        ctrl.enqueueWrite((cap + i) * kBlockBytes * 131, eq.now());
    }
    eq.runAll();
    EXPECT_EQ(ctrl.statDrains.value(), 2u);
    EXPECT_GT(ctrl.statDrainCycles.value(), first);
}

TEST_F(DramTest, RowClusteredDrainFasterThanScattered)
{
    // The heart of AWB: a buffer of same-row writes drains much faster
    // than a buffer of row-scattered writes.
    DramConfig cfg;
    EventQueue eq1, eq2;
    DramController clustered(cfg, eq1), scattered(cfg, eq2);

    const DramAddrMap &map = clustered.addrMap();
    for (std::uint32_t i = 0; i < cfg.writeBufEntries; ++i) {
        clustered.enqueueWrite(map.blockInRowAddr(0, i), 0);
        scattered.enqueueWrite(
            static_cast<Addr>(i) * map.rowBytes() * map.numBanks() * 3,
            0);
    }
    eq1.runAll();
    eq2.runAll();
    EXPECT_GE(clustered.writeRowHitRate(), 0.9);
    EXPECT_LE(scattered.writeRowHitRate(), 0.1);
    EXPECT_LT(eq1.now() * 2, eq2.now())
        << "clustered drain should be at least 2x faster";
}

TEST_F(DramTest, ReadsBlockedDuringDrain)
{
    std::uint32_t cap = ctrl.config().writeBufEntries;
    for (std::uint32_t i = 0; i < cap; ++i) {
        ctrl.enqueueWrite(i * kBlockBytes * 257, 0);
    }
    Cycle read_done = 0;
    ctrl.enqueueRead(0x777000, 1, [&](Cycle c) { read_done = c; });
    eq.runAll();
    // The read completes only after the drain finishes.
    EventQueue eq_alone;
    DramController ctrl_alone(DramConfig{}, eq_alone);
    Cycle alone_done = 0;
    ctrl_alone.enqueueRead(0x777000, 1,
                           [&](Cycle c) { alone_done = c; });
    eq_alone.runAll();
    EXPECT_GT(read_done, alone_done * 4);
}

TEST_F(DramTest, ReadForwardedFromWriteBuffer)
{
    ctrl.enqueueWrite(0x4000, 0);
    Cycle done = 0;
    ctrl.enqueueRead(0x4000, 5, [&](Cycle c) { done = c; });
    eq.runAll();
    EXPECT_EQ(ctrl.statForwards.value(), 1u);
    EXPECT_EQ(done, 5 + ctrl.config().ioLatency);
}

TEST_F(DramTest, DuplicateWritesCoalesce)
{
    ctrl.enqueueWrite(0x8000, 0);
    ctrl.enqueueWrite(0x8000, 1);
    ctrl.enqueueWrite(0x8040, 2);
    EXPECT_EQ(ctrl.pendingWrites(), 2u);
    EXPECT_EQ(ctrl.statCoalesced.value(), 1u);
}

TEST_F(DramTest, BankParallelismOverlapsActivates)
{
    // N reads to N different banks should finish far sooner than N
    // serialized row activations.
    DramConfig cfg;
    const DramAddrMap map(cfg.rowBytes, cfg.numBanks);
    std::vector<Cycle> dones;
    for (std::uint32_t b = 0; b < cfg.numBanks; ++b) {
        ctrl.enqueueRead(static_cast<Addr>(b) * map.rowBytes(), 0,
                         [&](Cycle c) { dones.push_back(c); });
    }
    eq.runAll();
    ASSERT_EQ(dones.size(), cfg.numBanks);
    Cycle serial_estimate = cfg.numBanks *
                            (cfg.tRcd + cfg.tCas + cfg.tBurst) *
                            cfg.tCkCpu;
    EXPECT_LT(dones.back(), serial_estimate);
}

TEST_F(DramTest, EnergyGrowsWithActivity)
{
    auto before = ctrl.energySince(eq.now());
    readLatency(0, 0);
    readLatency(1 << 20, 10000);
    auto after = ctrl.energySince(eq.now());
    EXPECT_GT(after.activatePj, before.activatePj);
    EXPECT_GT(after.readPj, before.readPj);
    EXPECT_GT(after.totalPj(), 0.0);
}

TEST_F(DramTest, StatsSnapshotResetsRates)
{
    readLatency(0, 0);
    StatSet set("dram");
    ctrl.registerStats(set);
    set.snapshotAll();
    EXPECT_EQ(ctrl.statReads.sinceSnapshot(), 0u);
    readLatency(kBlockBytes, eq.now() + 1);
    EXPECT_EQ(ctrl.statReads.sinceSnapshot(), 1u);
    EXPECT_NEAR(ctrl.readRowHitRate(), 1.0, 1e-9);
}

/**
 * The controller's scheduling is frozen: a seeded stream of 20k reads
 * and writes over two geometries, mixing row hits and conflicts within
 * a few hot rows per bank, reads forwarded from the write buffer,
 * coalesced writes, and many drains. FNV-1a folds each read's (enqueue
 * index, completion cycle) in completion order, then every dram.*
 * counter. The behavioural tests above compare the controller against
 * itself; only this catches a queue rewrite that reorders a single
 * request. A deliberate change to the timing model regenerates the
 * table from the failure messages, as for the mechanism goldens. The
 * parked-callback array must also stay within the peak number of reads
 * in flight: slots are recycled, never leaked.
 */
TEST_F(DramTest, CompletionStreamMatchesFrozenDigest)
{
    struct Frozen
    {
        const char *name;
        DramConfig cfg;
        std::uint64_t digest;
    };
    DramConfig table1;  // 8 banks, 8 KB rows, 64-entry buffer
    DramConfig wide;    // 16 banks, 4 KB rows, 2 channels, partial drains
    wide.numBanks = 16;
    wide.rowBytes = 4096;
    wide.channels = 2;
    wide.writeBufEntries = 16;
    wide.drainLowWatermark = 4;
    const Frozen kFrozen[] = {
        {"table1", table1, 0x7de39102cc742146ULL},
        {"wide", wide, 0x74a00757946b9b1eULL},
    };

    auto fold = [](std::uint64_t h, std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
        return h;
    };
    for (const Frozen &f : kFrozen) {
        EventQueue queue;
        DramController dram(f.cfg, queue);
        const DramAddrMap &map = dram.addrMap();
        Rng rng(0x5eed'd7a3ULL);
        std::uint64_t h = 14695981039346656037ULL;
        std::uint64_t in_flight = 0;
        std::uint64_t peak_in_flight = 0;
        std::size_t peak_queued = 0;
        std::uint64_t reads = 0;
        std::uint64_t completed = 0;
        std::vector<Addr> recent_writes;
        Cycle t = 0;
        for (std::uint64_t i = 0; i < 20000; ++i) {
            // Mostly back-to-back arrivals so the queues fill; now and
            // then an idle gap so they drain out.
            t += rng.below(100) == 0 ? 3000 : rng.below(60);
            queue.runUntil(t);
            Addr a;
            std::uint64_t kind = rng.below(100);
            if (kind < 10 && !recent_writes.empty()) {
                // Reuse a recently written block: a forward or a
                // coalesce, if it is still buffered.
                a = recent_writes[rng.below(recent_writes.size())];
            } else {
                // Four hot rows per bank: row hits and conflicts.
                std::uint64_t bank = rng.below(map.numBanks());
                std::uint64_t row = rng.below(4);
                std::uint64_t col = rng.below(map.blocksPerRow());
                a = (row * map.numBanks() + bank) * map.rowBytes() +
                    col * kBlockBytes;
            }
            if (rng.below(100) < 40) {
                dram.enqueueWrite(a, t);
                recent_writes.push_back(a);
                if (recent_writes.size() > 32) {
                    recent_writes.erase(recent_writes.begin());
                }
            } else {
                std::uint64_t idx = reads++;
                ++in_flight;
                peak_in_flight = std::max(peak_in_flight, in_flight);
                dram.enqueueRead(a, t, [&, idx](Cycle c) {
                    --in_flight;
                    ++completed;
                    h = fold(fold(h, idx), c);
                });
                peak_queued = std::max(peak_queued, dram.pendingReads());
            }
        }
        queue.runAll();
        EXPECT_EQ(completed, reads) << f.name;
        StatSet set("dram");
        dram.registerStats(set);
        for (const auto &[name, value] : set.collect()) {
            h = fold(h, value);
        }
        EXPECT_GT(dram.statDrains.value(), 10u) << f.name;
        EXPECT_GT(dram.statForwards.value(), 0u) << f.name;
        EXPECT_GT(dram.statCoalesced.value(), 0u) << f.name;
        EXPECT_GT(dram.statReadRowHits.value(), 0u) << f.name;
        EXPECT_LT(dram.statReadRowHits.value(), dram.statReads.value())
            << f.name;
        EXPECT_GT(peak_queued, 4u) << f.name;  // FR-FCFS had choices
        // Completed reads return their callback slots for reuse.
        EXPECT_LE(dram.callbackSlots(), peak_in_flight) << f.name;
        EXPECT_EQ(h, f.digest)
            << f.name << ": 0x" << std::hex << h << " reads=" << std::dec
            << reads << " peak=" << peak_in_flight << " queued="
            << peak_queued << " drains=" << dram.statDrains.value()
            << " fwd=" << dram.statForwards.value()
            << " coal=" << dram.statCoalesced.value() << " rowhits="
            << dram.statReadRowHits.value();
    }
}

} // namespace
} // namespace dbsim
