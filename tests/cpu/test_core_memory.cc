/**
 * @file
 * Unit tests for the private L1/L2 hierarchy in isolation: hit
 * latencies, dirty-ownership transfer between levels, writeback
 * cascades into the LLC, write-allocate store misses, and MSHR
 * bookkeeping.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/addr_table.hh"
#include "common/event_queue.hh"
#include "cpu/core_memory.hh"
#include "dram/dram_controller.hh"
#include "llc/llc.hh"

namespace dbsim {
namespace {

struct CoreMemoryTest : public ::testing::Test
{
    CoreMemoryTest()
        : dram(DramConfig{}, eq),
          llc(LlcConfig{2ull << 20, 16, ReplPolicy::Lru, 10, 24, 1, 1},
              dram, eq),
          mem(CoreMemoryConfig{}, llc, 0, 1)
    {
    }

    /** Load and wait; returns total latency. */
    Cycle
    loadLatency(Addr a, Cycle when)
    {
        Cycle done_at = 0;
        auto res = mem.load(a, when, [&](Cycle c) { done_at = c; });
        if (!res.pending) {
            return res.latency;
        }
        eq.runAll();
        EXPECT_GT(done_at, when);
        return done_at - when;
    }

    EventQueue eq;
    DramController dram;
    Llc llc;
    CoreMemory mem;
};

TEST_F(CoreMemoryTest, L1HitLatencyIsTwoCycles)
{
    loadLatency(0x1000, 0);  // miss fills L1
    Cycle lat = loadLatency(0x1000, eq.now() + 1);
    EXPECT_EQ(lat, 2u);  // Table 1 L1 latency
    EXPECT_EQ(mem.statL1Hits.value(), 1u);
}

TEST_F(CoreMemoryTest, MissGoesThroughLlc)
{
    Cycle lat = loadLatency(0x2000, 0);
    EXPECT_GT(lat, 50u);  // DRAM round trip
    EXPECT_EQ(mem.statLlcAccesses.value(), 1u);
    EXPECT_TRUE(llc.tags().contains(0x2000));
}

TEST_F(CoreMemoryTest, StoreMissWriteAllocates)
{
    bool done = false;
    auto res = mem.store(0x3000, 0, [&](Cycle) { done = true; });
    EXPECT_TRUE(res.pending);
    eq.runAll();
    EXPECT_TRUE(done);
    // The block is now dirty in L1 and a subsequent load hits.
    EXPECT_EQ(loadLatency(0x3000, eq.now() + 1), 2u);
}

TEST_F(CoreMemoryTest, StoreHitIsImmediate)
{
    loadLatency(0x4000, 0);
    auto res = mem.store(0x4000, eq.now() + 1, [](Cycle) {});
    EXPECT_FALSE(res.pending);
    EXPECT_EQ(res.latency, 1u);
}

TEST_F(CoreMemoryTest, DirtyDataSpillsDownToLlcAsWriteback)
{
    // Write a footprint much larger than L1+L2 (288KB): dirty blocks
    // must cascade L1 -> L2 -> LLC writeback requests.
    for (Addr a = 0; a < (1u << 20); a += kBlockBytes) {
        mem.store(a, eq.now(), [](Cycle) {});
        eq.runAll();
    }
    EXPECT_GT(llc.statWritebacksIn.value(), 5000u);
    EXPECT_GT(llc.tags().countDirty(), 1000u);
}

TEST_F(CoreMemoryTest, MshrMergeSecondaryMisses)
{
    int completions = 0;
    mem.load(0x5000, 0, [&](Cycle) { ++completions; });
    mem.load(0x5008, 1, [&](Cycle) { ++completions; });  // same block
    mem.load(0x5010, 2, [&](Cycle) { ++completions; });
    EXPECT_EQ(mem.mshrsInUse(), 1u);
    EXPECT_EQ(mem.statMshrMerges.value(), 2u);
    eq.runAll();
    EXPECT_EQ(completions, 3);
    EXPECT_EQ(mem.mshrsInUse(), 0u);
    EXPECT_EQ(mem.statLlcAccesses.value(), 1u);
}

/**
 * More blocks in flight than the MSHR table's initial capacity, each
 * with merged secondaries, so the table grows while its waiter lists
 * hold live callbacks. Every callback fires exactly once and every
 * MSHR frees.
 */
TEST_F(CoreMemoryTest, ManyOutstandingMissesAllComplete)
{
    constexpr int kBlocks = 40;
    static_assert(kBlocks > AddrTable<int>::kInitialCapacity);
    std::vector<int> fired(3 * kBlocks, 0);
    for (int b = 0; b < kBlocks; ++b) {
        Addr base = 0x100000 + static_cast<Addr>(b) * kBlockBytes;
        Cycle t = static_cast<Cycle>(b);
        mem.load(base, t, [&fired, b](Cycle) { ++fired[3 * b]; });
        mem.store(base + 8, t, [&fired, b](Cycle) { ++fired[3 * b + 1]; });
        mem.load(base + 16, t, [&fired, b](Cycle) { ++fired[3 * b + 2]; });
    }
    EXPECT_EQ(mem.mshrsInUse(), static_cast<std::uint32_t>(kBlocks));
    EXPECT_EQ(mem.statMshrMerges.value(), 2u * kBlocks);
    eq.runAll();
    for (std::size_t i = 0; i < fired.size(); ++i) {
        EXPECT_EQ(fired[i], 1) << "waiter " << i;
    }
    EXPECT_EQ(mem.mshrsInUse(), 0u);
    EXPECT_EQ(mem.statLlcAccesses.value(),
              static_cast<std::uint64_t>(kBlocks));
}

TEST_F(CoreMemoryTest, MergedStoreDirtiesTheFill)
{
    mem.load(0x6000, 0, [](Cycle) {});
    mem.store(0x6008, 1, [](Cycle) {});  // merges into the same MSHR
    eq.runAll();
    // After the fill, the block must be dirty (the store happened).
    // Spill it all the way down and check a writeback occurs.
    for (Addr a = 1 << 21; a < (1u << 21) + (1u << 20);
         a += kBlockBytes) {
        mem.load(a, eq.now(), [](Cycle) {});
        eq.runAll();
    }
    EXPECT_GT(llc.statWritebacksIn.value(), 0u);
}

TEST_F(CoreMemoryTest, MshrFreedHookFires)
{
    int fires = 0;
    mem.onMshrFreed([&] { ++fires; });
    mem.load(0x7000, 0, [](Cycle) {});
    mem.load(0x8000, 0, [](Cycle) {});
    eq.runAll();
    EXPECT_EQ(fires, 2);
}

TEST_F(CoreMemoryTest, L2HitFasterThanLlcSlowerThanL1)
{
    loadLatency(0x9000, 0);
    // Evict 0x9000 from L1 (2-way, 256 sets -> two conflicting fills).
    Addr conflict1 = 0x9000 + 256 * kBlockBytes;
    Addr conflict2 = 0x9000 + 512 * kBlockBytes;
    loadLatency(conflict1, eq.now() + 1);
    loadLatency(conflict2, eq.now() + 1);
    Cycle lat = loadLatency(0x9000, eq.now() + 1);
    EXPECT_EQ(lat, 2u + 14u);  // L1 miss + L2 hit
    EXPECT_EQ(mem.statL2Hits.value(), 1u);
}

} // namespace
} // namespace dbsim
