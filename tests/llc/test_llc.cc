/**
 * @file
 * Tests for the composed LLC policy behaviors: the conventional
 * writeback path, DAWB's full-row sweeps, VWQ's SSV filtering, Skip
 * Cache write-through + bypass, and the DBI organization's semantics
 * (dirtiness lives only in the DBI; AWB and DBI evictions write back
 * whole rows; CLB bypasses clean predicted misses).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"
#include "dram/dram_controller.hh"
#include "llc/llc.hh"

namespace dbsim {
namespace {

/** Small LLC so evictions are easy to force: 64KB, 4-way, 256 sets. */
LlcConfig
smallLlc()
{
    LlcConfig cfg;
    cfg.sizeBytes = 64 * 1024;
    cfg.assoc = 4;
    cfg.repl = ReplPolicy::Lru;
    cfg.tagLatency = 10;
    cfg.dataLatency = 24;
    cfg.numCores = 1;
    return cfg;
}

DbiConfig
smallDbi()
{
    DbiConfig cfg;
    cfg.alpha = 0.25;
    cfg.granularity = 16;  // 1024 blocks * 0.25 / 16 = 16 entries
    cfg.assoc = 4;
    cfg.repl = DbiReplPolicy::Lrw;
    return cfg;
}

struct LlcTest : public ::testing::Test
{
    LlcTest() : dram(DramConfig{}, eq) {}

    /** The DBI-backed store's own counters (AWB / DBI-eviction wbs). */
    static DbiDirtyStore &
    dbiStore(Llc &llc)
    {
        return static_cast<DbiDirtyStore &>(llc.dirtyStore());
    }

    /** Blocking read helper. */
    Cycle
    readDone(Llc &llc, Addr a, Cycle when, std::uint32_t core = 0)
    {
        Cycle done = 0;
        llc.read(a, core, when, [&](Cycle c) { done = c; });
        eq.runAll();
        return done;
    }

    /** Address of way-filler i for `set` in the small LLC (256 sets). */
    static Addr
    filler(std::uint32_t set, std::uint32_t i)
    {
        return (static_cast<Addr>(i) * 256 + set) * kBlockBytes;
    }

    EventQueue eq;
    DramController dram;
};

// ---------------------------------------------------------------- base

TEST_F(LlcTest, ReadMissFillsAndHits)
{
    Llc llc(smallLlc(), dram, eq);
    Cycle miss_done = readDone(llc, 0x1000, 0);
    EXPECT_GT(miss_done, 50u);  // went to DRAM
    EXPECT_EQ(llc.statDemandMisses.value(), 1u);

    Cycle t = eq.now() + 1;
    Cycle hit_done = readDone(llc, 0x1000, t);
    EXPECT_EQ(hit_done, t + 10 + 24);  // serial tag + data
    EXPECT_EQ(llc.statDemandHits.value(), 1u);
}

TEST_F(LlcTest, DuplicateMissesMergeToOneDramRead)
{
    Llc llc(smallLlc(), dram, eq);
    int completions = 0;
    llc.read(0x2000, 0, 0, [&](Cycle) { ++completions; });
    llc.read(0x2000, 0, 1, [&](Cycle) { ++completions; });
    eq.runAll();
    EXPECT_EQ(completions, 2);
    EXPECT_EQ(dram.statReads.value(), 1u);
}

/**
 * Two cores miss on the same 64 blocks — four times the pending-miss
 * table's initial capacity — before any fill returns: each block costs
 * one DRAM read, and all 128 callbacks fire exactly once.
 */
TEST_F(LlcTest, CrossCoreMissesMergeAcrossTableGrowth)
{
    LlcConfig cfg = smallLlc();
    cfg.numCores = 2;
    Llc llc(cfg, dram, eq);
    constexpr int kBlocks = 64;
    std::vector<int> fired(2 * kBlocks, 0);
    for (std::uint32_t core = 0; core < 2; ++core) {
        for (int b = 0; b < kBlocks; ++b) {
            Addr a = 0x40000 + static_cast<Addr>(b) * kBlockBytes;
            int slot = static_cast<int>(core) * kBlocks + b;
            llc.read(a, core, core, [&fired, slot](Cycle) { ++fired[slot]; });
        }
    }
    eq.runAll();
    EXPECT_EQ(dram.statReads.value(), static_cast<std::uint64_t>(kBlocks));
    EXPECT_EQ(llc.statDemandMisses.value(), 2u * kBlocks);
    for (std::size_t i = 0; i < fired.size(); ++i) {
        EXPECT_EQ(fired[i], 1) << "request " << i;
    }
}

TEST_F(LlcTest, WritebackMarksResidentBlockDirty)
{
    Llc llc(smallLlc(), dram, eq);
    readDone(llc, 0x3000, 0);
    llc.writeback(0x3000, 0, eq.now());
    EXPECT_TRUE(llc.tags().isDirty(0x3000));
    EXPECT_EQ(llc.statWritebacksIn.value(), 1u);
}

TEST_F(LlcTest, WritebackAllocatesWhenAbsent)
{
    Llc llc(smallLlc(), dram, eq);
    llc.writeback(0x4000, 0, 0);
    eq.runAll();
    EXPECT_TRUE(llc.tags().contains(0x4000));
    EXPECT_TRUE(llc.tags().isDirty(0x4000));
}

TEST_F(LlcTest, DirtyEvictionWritesToDram)
{
    Llc llc(smallLlc(), dram, eq);
    llc.writeback(filler(9, 0), 0, 0);
    for (std::uint32_t i = 1; i <= 4; ++i) {
        readDone(llc, filler(9, i), eq.now() + 1);
    }
    EXPECT_FALSE(llc.tags().contains(filler(9, 0)));
    EXPECT_EQ(llc.statWbToDram.value(), 1u);
}

TEST_F(LlcTest, CleanEvictionIsSilent)
{
    Llc llc(smallLlc(), dram, eq);
    for (std::uint32_t i = 0; i <= 4; ++i) {
        readDone(llc, filler(9, i), eq.now() + 1);
    }
    EXPECT_EQ(llc.statWbToDram.value(), 0u);
}

// ---------------------------------------------------------------- DAWB

TEST_F(LlcTest, DawbSweepsWholeRowOnDirtyEviction)
{
    Llc llc(smallLlc(), dram, eq, nullptr,
            std::make_unique<DawbSweepPolicy>());
    // Dirty the victim and two of its DRAM-row mates (other sets).
    Addr victim = filler(9, 0);
    std::uint32_t row_mate1 = dram.addrMap().blockInRow(victim) + 1;
    std::uint32_t row_mate2 = dram.addrMap().blockInRow(victim) + 2;
    Addr mate1 = dram.addrMap().blockInRowAddr(victim, row_mate1);
    Addr mate2 = dram.addrMap().blockInRowAddr(victim, row_mate2);
    llc.writeback(victim, 0, 0);
    llc.writeback(mate1, 0, 1);
    llc.writeback(mate2, 0, 2);
    eq.runAll();
    std::uint64_t sweeps_before = llc.statSweepLookups.value();

    for (std::uint32_t i = 1; i <= 4; ++i) {
        readDone(llc, filler(9, i), eq.now() + 1);
    }
    // One dirty eviction -> sweep of the other 127 row blocks.
    EXPECT_EQ(llc.statSweepLookups.value() - sweeps_before,
              dram.addrMap().blocksPerRow() - 1);
    // The row mates were proactively written back and cleaned.
    EXPECT_FALSE(llc.tags().isDirty(mate1));
    EXPECT_FALSE(llc.tags().isDirty(mate2));
    EXPECT_TRUE(llc.tags().contains(mate1));  // data stays cached
    EXPECT_EQ(llc.statWbToDram.value(), 3u);
}

// ----------------------------------------------------------------- VWQ

TEST_F(LlcTest, VwqSweepsLessThanDawbWhenCleanButWritesBackLruDirty)
{
    Llc llc(smallLlc(), dram, eq, nullptr,
            std::make_unique<VwqSweepPolicy>(/*lru_ways=*/2));
    Addr victim = filler(9, 0);
    Addr mate = dram.addrMap().blockInRowAddr(
        victim, dram.addrMap().blockInRow(victim) + 1);
    llc.writeback(victim, 0, 0);
    llc.writeback(mate, 0, 1);
    eq.runAll();
    for (std::uint32_t i = 1; i <= 4; ++i) {
        readDone(llc, filler(9, i), eq.now() + 1);
    }
    // The SSV filtered most sets, but the dirty LRU row-mate was found.
    EXPECT_LT(llc.statSweepLookups.value(),
              dram.addrMap().blocksPerRow() - 1);
    EXPECT_GT(llc.statSweepLookups.value(), 0u);
    EXPECT_FALSE(llc.tags().isDirty(mate));
    EXPECT_EQ(llc.statWbToDram.value(), 2u);
}

// ---------------------------------------------------------- Skip Cache

TEST_F(LlcTest, SkipCacheIsWriteThrough)
{
    auto pred = std::make_shared<NeverMissPredictor>();
    Llc llc(smallLlc(), dram, eq, std::make_unique<WriteThroughStore>(),
            nullptr, std::make_unique<SkipBypassLookup>(pred));
    llc.writeback(0x5000, 0, 0);
    eq.runAll();
    // The write went straight to memory and did not allocate.
    EXPECT_EQ(llc.statWbToDram.value(), 1u);
    EXPECT_FALSE(llc.tags().contains(0x5000));
    EXPECT_EQ(llc.tags().countDirty(), 0u);
}

namespace {

/** Predictor that always predicts miss (outside sampled sets). */
class AlwaysMissPredictor : public MissPredictor
{
  public:
    bool
    predictMiss(std::uint32_t set, std::uint32_t, Cycle) override
    {
        return set % 64 != 0;
    }
    void recordOutcome(std::uint32_t, std::uint32_t, bool, Cycle) override
    {}
    bool
    isSampledSet(std::uint32_t set) const override
    {
        return set % 64 == 0;
    }
};

} // namespace

TEST_F(LlcTest, SkipCacheBypassesPredictedMisses)
{
    auto pred = std::make_shared<AlwaysMissPredictor>();
    Llc llc(smallLlc(), dram, eq, std::make_unique<WriteThroughStore>(),
            nullptr, std::make_unique<SkipBypassLookup>(pred));
    readDone(llc, filler(9, 0), 0);
    EXPECT_EQ(llc.statBypasses.value(), 1u);
    EXPECT_EQ(llc.statTagLookups.value(), 0u);
    EXPECT_FALSE(llc.tags().contains(filler(9, 0)));  // no allocation

    // Sampled sets still take the normal path.
    readDone(llc, filler(0, 0), eq.now() + 1);
    EXPECT_EQ(llc.statTagLookups.value(), 1u);
    EXPECT_TRUE(llc.tags().contains(filler(0, 0)));
}

// ----------------------------------------------------------------- DBI

TEST_F(LlcTest, DbiWritebackSetsDbiNotTagDirty)
{
    Llc llc(smallLlc(), dram, eq,
            std::make_unique<DbiDirtyStore>(smallDbi()));
    llc.writeback(0x6000, 0, 0);
    eq.runAll();
    EXPECT_TRUE(llc.tags().contains(0x6000));
    EXPECT_EQ(llc.tags().countDirty(), 0u);  // tag store has no dirty bits
    EXPECT_TRUE(llc.dbiIndex()->isDirty(0x6000));
    llc.checkInvariants();
}

TEST_F(LlcTest, DbiDirtyEvictionWritesBackAndClears)
{
    Llc llc(smallLlc(), dram, eq,
            std::make_unique<DbiDirtyStore>(smallDbi()));
    llc.writeback(filler(9, 0), 0, 0);
    for (std::uint32_t i = 1; i <= 4; ++i) {
        readDone(llc, filler(9, i), eq.now() + 1);
    }
    EXPECT_EQ(llc.statWbToDram.value(), 1u);
    EXPECT_FALSE(llc.dbiIndex()->isDirty(filler(9, 0)));
    llc.checkInvariants();
}

TEST_F(LlcTest, DbiAwbWritesBackRowMates)
{
    Llc llc(smallLlc(), dram, eq,
            std::make_unique<DbiDirtyStore>(smallDbi()),
            std::make_unique<DbiAwbPolicy>());
    Addr victim = filler(9, 0);
    // Row mates within the same DBI region (granularity 16).
    Addr mate1 = victim + kBlockBytes;
    Addr mate2 = victim + 2 * kBlockBytes;
    llc.writeback(victim, 0, 0);
    llc.writeback(mate1, 0, 1);
    llc.writeback(mate2, 0, 2);
    eq.runAll();
    std::uint64_t sweeps_before = llc.statSweepLookups.value();
    for (std::uint32_t i = 1; i <= 4; ++i) {
        readDone(llc, filler(9, i), eq.now() + 1);
    }
    // AWB looked up ONLY the two actually-dirty mates (vs DAWB's 127).
    EXPECT_EQ(llc.statSweepLookups.value() - sweeps_before, 2u);
    EXPECT_EQ(dbiStore(llc).statAwbWritebacks.value(), 2u);
    EXPECT_EQ(llc.statWbToDram.value(), 3u);
    EXPECT_FALSE(llc.dbiIndex()->isDirty(mate1));
    EXPECT_TRUE(llc.tags().contains(mate1));  // stays cached, clean
    llc.checkInvariants();
}

TEST_F(LlcTest, DbiEvictionDrainsEntryButKeepsBlocksCached)
{
    // Fill the DBI (16 entries of granularity 16) with distinct regions
    // so an extra region forces a DBI eviction.
    Llc llc(smallLlc(), dram, eq,
            std::make_unique<DbiDirtyStore>(smallDbi()));
    std::uint64_t entries = llc.dbiIndex()->numEntries();
    for (std::uint64_t r = 0; r <= entries; ++r) {
        // One dirty block per region; regions spaced by granularity.
        llc.writeback(r * 16 * kBlockBytes, 0, r);
    }
    eq.runAll();
    EXPECT_EQ(dbiStore(llc).statDbiEvictionWbs.value(), 1u);
    EXPECT_EQ(llc.statWbToDram.value(), 1u);
    // The drained block is still cached, now clean.
    EXPECT_TRUE(llc.tags().contains(0));
    EXPECT_FALSE(llc.dbiIndex()->isDirty(0));
    llc.checkInvariants();
}

TEST_F(LlcTest, DbiClbBypassesCleanPredictedMiss)
{
    auto pred = std::make_shared<AlwaysMissPredictor>();
    Llc llc(smallLlc(), dram, eq,
            std::make_unique<DbiDirtyStore>(smallDbi()), nullptr,
            std::make_unique<ClbBypassLookup>(pred));
    readDone(llc, filler(9, 0), 0);
    EXPECT_EQ(llc.statBypasses.value(), 1u);
    EXPECT_EQ(llc.statDbiChecks.value(), 1u);
    EXPECT_EQ(llc.statTagLookups.value(), 0u);
    EXPECT_FALSE(llc.tags().contains(filler(9, 0)));
}

TEST_F(LlcTest, DbiClbDirtyBlockTakesNormalPath)
{
    auto pred = std::make_shared<AlwaysMissPredictor>();
    Llc llc(smallLlc(), dram, eq,
            std::make_unique<DbiDirtyStore>(smallDbi()), nullptr,
            std::make_unique<ClbBypassLookup>(pred));
    llc.writeback(filler(9, 0), 0, 0);
    eq.runAll();
    std::uint64_t dram_reads = dram.statReads.value();
    Cycle t = eq.now() + 1;
    Cycle done = readDone(llc, filler(9, 0), t);
    // Dirty: must be served from the cache, not memory (Figure 4).
    EXPECT_EQ(llc.statBypasses.value(), 0u);
    EXPECT_EQ(dram.statReads.value(), dram_reads);
    EXPECT_EQ(done, t + smallDbi().latency + 10 + 24);
}

// ------------------------------------------------------ fill semantics

TEST_F(LlcTest, FillMergesDirtyIntoResidentBlock)
{
    // Racing writeback-allocate: a dirty fill can land after a demand
    // read already made the block resident (and clean). The dirty state
    // must merge — dropping it silently loses a memory update.
    Llc llc(smallLlc(), dram, eq);
    readDone(llc, 0x7000, 0);
    ASSERT_TRUE(llc.tags().contains(0x7000));
    ASSERT_FALSE(llc.tags().isDirty(0x7000));

    llc.fillBlock(0x7000, 0, true, eq.now());
    EXPECT_TRUE(llc.tags().isDirty(0x7000));

    // And a later clean fill must not revert it.
    llc.fillBlock(0x7000, 0, false, eq.now());
    EXPECT_TRUE(llc.tags().isDirty(0x7000));
}

TEST_F(LlcTest, DbiStressInvariantsHold)
{
    Llc llc(smallLlc(), dram, eq,
            std::make_unique<DbiDirtyStore>(smallDbi()),
            std::make_unique<DbiAwbPolicy>());
    Rng rng(42);
    for (int op = 0; op < 20000; ++op) {
        Addr a = blockAlign(rng.below(1 << 20));
        if (rng.chance(0.4)) {
            llc.writeback(a, 0, eq.now());
        } else {
            llc.read(a, 0, eq.now(), [](Cycle) {});
        }
        if (op % 512 == 0) {
            eq.runAll();
            llc.checkInvariants();
        }
    }
    eq.runAll();
    llc.checkInvariants();
    // The DBI bounds the number of dirty blocks (Section 2.1 property).
    EXPECT_LE(llc.dbiIndex()->countDirtyBlocks(), llc.dbiIndex()->trackableBlocks());
}

} // namespace
} // namespace dbsim
