/**
 * @file
 * Unit tests for the private L1/L2 hierarchy in isolation: hit
 * latencies, dirty-ownership transfer between levels, writeback
 * cascades into the LLC, write-allocate store misses, and MSHR
 * bookkeeping, including how fills hand merged waiters back to the
 * core's completion hook.
 */

#include <gtest/gtest.h>

#include <span>
#include <utility>
#include <vector>

#include "common/addr_table.hh"
#include "common/event_queue.hh"
#include "cpu/core_memory.hh"
#include "dram/dram_controller.hh"
#include "llc/llc.hh"

namespace dbsim {
namespace {

/**
 * Stands in for the core: records every waiter each fill hands back,
 * with the fill's cycle and the queue time it was reported at.
 */
struct FillRecorder : public CoreMemory::Client
{
    struct Report
    {
        std::uint64_t tag;
        bool isWrite;
        Cycle when;  ///< completion cycle the fill reported
        Cycle at;    ///< simulated time the report arrived
    };

    explicit FillRecorder(const EventQueue &queue) : eq(queue) {}

    void
    fillDone(std::span<const CoreMemory::Waiter> waiters,
             Cycle when) override
    {
        ++fills;
        for (const CoreMemory::Waiter &w : waiters) {
            reports.push_back(Report{w.tag, w.isWrite, when, eq.now()});
        }
    }

    /** Reports of the loads (non-write waiters), in arrival order. */
    std::vector<Report>
    loads() const
    {
        std::vector<Report> out;
        for (const Report &r : reports) {
            if (!r.isWrite) {
                out.push_back(r);
            }
        }
        return out;
    }

    const EventQueue &eq;
    std::vector<Report> reports;
    int fills = 0;
};

struct CoreMemoryTest : public ::testing::Test
{
    CoreMemoryTest()
        : dram(DramConfig{}, eq),
          llc(LlcConfig{2ull << 20, 16, ReplPolicy::Lru, 10, 24, 1, 1},
              dram, eq),
          mem(CoreMemoryConfig{}, llc, 0, 1), recorder(eq)
    {
        mem.attachClient(&recorder);
    }

    /** Load and wait; returns total latency. */
    Cycle
    loadLatency(Addr a, Cycle when)
    {
        const std::uint64_t tag = nextTag++;
        auto res = mem.load(a, when, tag);
        if (!res.pending) {
            return res.latency;
        }
        eq.runAll();
        Cycle done_at = 0;
        for (const auto &r : recorder.loads()) {
            if (r.tag == tag) {
                done_at = r.when;
            }
        }
        EXPECT_GT(done_at, when);
        return done_at - when;
    }

    EventQueue eq;
    DramController dram;
    Llc llc;
    CoreMemory mem;
    FillRecorder recorder;
    std::uint64_t nextTag = 1000;
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
    auto res = mem.store(0x3000, 0);
    EXPECT_TRUE(res.pending);
    EXPECT_EQ(mem.mshrsInUse(), 1u);  // the store miss holds an MSHR
    eq.runAll();
    // The miss resolved: its fill reached the core's hook and freed
    // the MSHR, reporting the store and no load.
    EXPECT_EQ(recorder.fills, 1);
    ASSERT_EQ(recorder.reports.size(), 1u);
    EXPECT_TRUE(recorder.reports[0].isWrite);
    EXPECT_EQ(mem.mshrsInUse(), 0u);
    // The block is now dirty in L1 and a subsequent load hits.
    EXPECT_EQ(loadLatency(0x3000, eq.now() + 1), 2u);
}

TEST_F(CoreMemoryTest, StoreHitIsImmediate)
{
    loadLatency(0x4000, 0);
    auto res = mem.store(0x4000, eq.now() + 1);
    EXPECT_FALSE(res.pending);
    EXPECT_EQ(res.latency, 1u);
}

TEST_F(CoreMemoryTest, DirtyDataSpillsDownToLlcAsWriteback)
{
    // Write a footprint much larger than L1+L2 (288KB): dirty blocks
    // must cascade L1 -> L2 -> LLC writeback requests.
    for (Addr a = 0; a < (1u << 20); a += kBlockBytes) {
        mem.store(a, eq.now());
        eq.runAll();
    }
    EXPECT_GT(llc.statWritebacksIn.value(), 5000u);
    EXPECT_GT(llc.tags().countDirty(), 1000u);
}

TEST_F(CoreMemoryTest, MshrMergeSecondaryMisses)
{
    mem.load(0x5000, 0, 1);
    mem.load(0x5008, 1, 2);  // same block
    mem.load(0x5010, 2, 3);
    EXPECT_EQ(mem.mshrsInUse(), 1u);
    EXPECT_EQ(mem.statMshrMerges.value(), 2u);
    eq.runAll();
    EXPECT_EQ(recorder.loads().size(), 3u);
    EXPECT_EQ(mem.mshrsInUse(), 0u);
    EXPECT_EQ(mem.statLlcAccesses.value(), 1u);
}

/**
 * Loads and stores to two blocks, interleaved so both MSHRs collect
 * merged waiters of both kinds. Each fill reports its own waiters in
 * issue order, at its own fill cycle; every load tag completes exactly
 * once, and a store completes no load (the recorder sees it marked as
 * a write, never as a load tag).
 */
TEST_F(CoreMemoryTest, MergedWaitersCompleteOnceInIssueOrder)
{
    const Addr a = 0x40000;
    const Addr b = 0x80000;
    mem.load(a, 0, 100);
    mem.store(a + 8, 1);
    mem.load(a + 16, 2, 101);
    mem.load(b, 3, 102);
    mem.store(b + 8, 4);
    mem.load(a + 24, 5, 103);
    EXPECT_EQ(mem.mshrsInUse(), 2u);
    EXPECT_EQ(mem.statMshrMerges.value(), 4u);
    eq.runAll();

    EXPECT_EQ(recorder.fills, 2);
    ASSERT_EQ(recorder.reports.size(), 6u);
    // Block a was requested first, so it fills first.
    const std::vector<std::pair<std::uint64_t, bool>> expected = {
        {100, false}, {0, true}, {101, false}, {103, false},  // block a
        {102, false}, {0, true},                              // block b
    };
    for (std::size_t i = 0; i < expected.size(); ++i) {
        const auto &r = recorder.reports[i];
        EXPECT_EQ(r.isWrite, expected[i].second) << "waiter " << i;
        if (!r.isWrite) {
            EXPECT_EQ(r.tag, expected[i].first) << "waiter " << i;
        }
        // Reported at the fill cycle itself, not before or after it.
        EXPECT_EQ(r.when, r.at) << "waiter " << i;
    }
    const Cycle fill_a = recorder.reports[0].when;
    const Cycle fill_b = recorder.reports[4].when;
    EXPECT_GT(fill_a, 5u);
    EXPECT_GE(fill_b, fill_a);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(recorder.reports[i].when, fill_a);
    }
    EXPECT_EQ(recorder.reports[5].when, fill_b);

    std::vector<std::uint64_t> load_tags;
    for (const auto &r : recorder.loads()) {
        load_tags.push_back(r.tag);
    }
    EXPECT_EQ(load_tags,
              (std::vector<std::uint64_t>{100, 101, 103, 102}));
    EXPECT_EQ(mem.mshrsInUse(), 0u);
}

/**
 * More blocks in flight than the MSHR table's initial capacity, each
 * with merged secondaries, so the table grows while its waiter lists
 * are live. Every load tag completes exactly once, every fill reports
 * its store, and every MSHR frees.
 */
TEST_F(CoreMemoryTest, ManyOutstandingMissesAllComplete)
{
    constexpr int kBlocks = 40;
    static_assert(kBlocks > AddrTable<int>::kInitialCapacity);
    for (int b = 0; b < kBlocks; ++b) {
        Addr base = 0x100000 + static_cast<Addr>(b) * kBlockBytes;
        Cycle t = static_cast<Cycle>(b);
        mem.load(base, t, 3 * b);
        mem.store(base + 8, t);
        mem.load(base + 16, t, 3 * b + 2);
    }
    EXPECT_EQ(mem.mshrsInUse(), static_cast<std::uint32_t>(kBlocks));
    EXPECT_EQ(mem.statMshrMerges.value(), 2u * kBlocks);
    eq.runAll();
    std::vector<int> fired(3 * kBlocks, 0);
    for (const auto &r : recorder.loads()) {
        ASSERT_LT(r.tag, fired.size());
        ++fired[r.tag];
    }
    for (int b = 0; b < kBlocks; ++b) {
        EXPECT_EQ(fired[3 * b], 1) << "load " << 3 * b;
        EXPECT_EQ(fired[3 * b + 1], 0) << "store slot " << 3 * b + 1;
        EXPECT_EQ(fired[3 * b + 2], 1) << "load " << 3 * b + 2;
    }
    EXPECT_EQ(recorder.fills, kBlocks);
    ASSERT_EQ(recorder.reports.size(), 3u * kBlocks);
    for (int b = 0; b < kBlocks; ++b) {
        EXPECT_TRUE(recorder.reports[3 * b + 1].isWrite) << "fill " << b;
    }
    EXPECT_EQ(mem.mshrsInUse(), 0u);
    EXPECT_EQ(mem.statLlcAccesses.value(),
              static_cast<std::uint64_t>(kBlocks));
}

TEST_F(CoreMemoryTest, MergedStoreDirtiesTheFill)
{
    mem.load(0x6000, 0, 1);
    mem.store(0x6008, 1);  // merges into the same MSHR
    eq.runAll();
    // After the fill, the block must be dirty (the store happened).
    // Spill it all the way down and check a writeback occurs.
    for (Addr a = 1 << 21; a < (1u << 21) + (1u << 20);
         a += kBlockBytes) {
        mem.load(a, eq.now(), nextTag++);
        eq.runAll();
    }
    EXPECT_GT(llc.statWritebacksIn.value(), 0u);
}

TEST_F(CoreMemoryTest, MshrFreedHookFires)
{
    mem.load(0x7000, 0, 1);
    mem.load(0x8000, 0, 2);
    eq.runAll();
    EXPECT_EQ(recorder.fills, 2);
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
