/** @file Unit and property tests for the set-associative tag store. */

#include <gtest/gtest.h>

#include <iterator>
#include <map>

#include "cache/tag_store.hh"
#include "common/rng.hh"

namespace dbsim {
namespace {

CacheGeometry
smallLru()
{
    // 4KB, 4-way, 64B blocks -> 16 sets.
    return CacheGeometry{4096, 4, ReplPolicy::Lru, 1, 5};
}

Addr
addrForSet(std::uint32_t set, std::uint32_t i, std::uint32_t num_sets = 16)
{
    return (static_cast<Addr>(i) * num_sets + set) * kBlockBytes;
}

TEST(TagStore, InsertAndFind)
{
    TagStore ts(smallLru());
    EXPECT_FALSE(ts.contains(0x1000));
    auto ev = ts.insert(0x1000, 0, false);
    EXPECT_FALSE(ev.valid);
    EXPECT_TRUE(ts.contains(0x1000));
    EXPECT_TRUE(ts.contains(0x1004));  // same block, sub-block address
    EXPECT_FALSE(ts.contains(0x1040));
}

TEST(TagStore, LruEvictsOldest)
{
    TagStore ts(smallLru());
    for (std::uint32_t i = 0; i < 4; ++i) {
        ts.insert(addrForSet(3, i), 0, false);
    }
    // Touch the oldest so the second-oldest becomes the victim.
    ts.touch(addrForSet(3, 0), 0);
    auto ev = ts.insert(addrForSet(3, 4), 0, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.block, addrForSet(3, 1));
}

TEST(TagStore, EvictionReportsDirty)
{
    TagStore ts(smallLru());
    for (std::uint32_t i = 0; i < 4; ++i) {
        ts.insert(addrForSet(1, i), 0, false);
    }
    ts.markDirty(addrForSet(1, 0));
    auto ev = ts.insert(addrForSet(1, 4), 0, false);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.block, addrForSet(1, 0));
    EXPECT_TRUE(ev.dirty);
}

TEST(TagStore, DirtyBitRoundTrip)
{
    TagStore ts(smallLru());
    ts.insert(0x2000, 0, false);
    EXPECT_FALSE(ts.isDirty(0x2000));
    ts.markDirty(0x2000);
    EXPECT_TRUE(ts.isDirty(0x2000));
    ts.markClean(0x2000);
    EXPECT_FALSE(ts.isDirty(0x2000));
}

TEST(TagStore, InsertWithDirtyFlag)
{
    TagStore ts(smallLru());
    ts.insert(0x3000, 0, true);
    EXPECT_TRUE(ts.isDirty(0x3000));
    EXPECT_EQ(ts.countDirty(), 1u);
}

TEST(TagStore, InvalidateRemoves)
{
    TagStore ts(smallLru());
    ts.insert(0x4000, 0, true);
    ts.invalidate(0x4000);
    EXPECT_FALSE(ts.contains(0x4000));
    EXPECT_EQ(ts.countDirty(), 0u);
}

TEST(TagStore, LruRankOrdersByRecency)
{
    TagStore ts(smallLru());
    for (std::uint32_t i = 0; i < 4; ++i) {
        ts.insert(addrForSet(2, i), 0, false);
    }
    EXPECT_EQ(ts.lruRank(addrForSet(2, 0)), 0u);
    EXPECT_EQ(ts.lruRank(addrForSet(2, 3)), 3u);
    ts.touch(addrForSet(2, 0), 0);
    EXPECT_EQ(ts.lruRank(addrForSet(2, 0)), 3u);
    EXPECT_EQ(ts.lruRank(addrForSet(2, 1)), 0u);
}

TEST(TagStore, AnyDirtyInLruWays)
{
    TagStore ts(smallLru());
    for (std::uint32_t i = 0; i < 4; ++i) {
        ts.insert(addrForSet(5, i), 0, false);
    }
    // Dirty the MRU block only: not visible in the 2 LRU ways.
    ts.markDirty(addrForSet(5, 3));
    EXPECT_FALSE(ts.anyDirtyInLruWays(5, 2));
    EXPECT_TRUE(ts.anyDirtyInLruWays(5, 4));
    ts.markDirty(addrForSet(5, 0));
    EXPECT_TRUE(ts.anyDirtyInLruWays(5, 2));
}

TEST(TagStore, StatsCountHitsAndMisses)
{
    TagStore ts(smallLru());
    ts.insert(0x5000, 0, false);
    ts.touch(0x5000, 0);
    ts.touch(0x5000, 0);
    EXPECT_EQ(ts.statHits.value(), 2u);
    EXPECT_EQ(ts.statMisses.value(), 1u);
}

/**
 * Property: under random accesses, fills, dirty-bit writes and
 * invalidations, every way's (valid, dirty, block) and the O(1)
 * dirty count match a reference model, for every replacement policy.
 */
TEST(TagStore, PropertyMatchesReferenceModel)
{
    for (ReplPolicy repl : {ReplPolicy::Lru, ReplPolicy::TaDip,
                            ReplPolicy::Drrip, ReplPolicy::Random}) {
        SCOPED_TRACE(testing::Message()
                     << "policy " << static_cast<int>(repl));
        // 4KB, 4-way: 16 sets, so set-dueling leaders are sets 0..3.
        TagStore ts(CacheGeometry{4096, 4, repl, 2, 5});
        Rng rng(77);
        std::map<Addr, bool> model;
        auto pickResident = [&] {
            auto it = model.begin();
            std::advance(it, static_cast<long>(rng.below(model.size())));
            return it->first;
        };
        for (int op = 0; op < 5000; ++op) {
            std::uint64_t kind = rng.below(10);
            if (kind == 0 && !model.empty()) {
                Addr a = pickResident();
                ts.markDirty(a);
                model[a] = true;
            } else if (kind == 1 && !model.empty()) {
                Addr a = pickResident();
                ts.markClean(a);
                model[a] = false;
            } else if (kind == 2) {
                Addr a = blockAlign(rng.below(1 << 16));
                ts.invalidate(a);  // absent blocks are a no-op
                model.erase(a);
            } else {
                Addr a = blockAlign(rng.below(1 << 16));
                auto thread = static_cast<std::uint32_t>(rng.below(2));
                TagStore::Slot s = ts.find(a);
                if (s != TagStore::kNoSlot) {
                    ASSERT_TRUE(model.count(a));
                    ASSERT_EQ(ts.dirtyAt(s), model[a]);
                    ts.touchSlot(s);
                } else {
                    ASSERT_FALSE(model.count(a));
                    bool dirty = rng.chance(0.3);
                    auto ev = ts.insert(a, thread, dirty);
                    if (ev.valid) {
                        ASSERT_TRUE(model.count(ev.block));
                        ASSERT_EQ(ev.dirty, model[ev.block]);
                        model.erase(ev.block);
                    }
                    model[a] = dirty;
                }
            }

            std::uint64_t model_dirty = 0;
            for (const auto &[addr, dirty] : model) {
                model_dirty += dirty;
            }
            ASSERT_EQ(ts.countDirty(), model_dirty);
            std::size_t valid = 0;
            for (std::uint32_t set = 0; set < ts.numSets(); ++set) {
                for (std::uint32_t way = 0; way < ts.assoc(); ++way) {
                    TagStore::Entry e = ts.entryAt(set, way);
                    if (!e.valid) {
                        ASSERT_FALSE(e.dirty);
                        ASSERT_EQ(e.block, kInvalidAddr);
                        continue;
                    }
                    ++valid;
                    ASSERT_EQ(ts.setIndex(e.block), set);
                    auto it = model.find(e.block);
                    ASSERT_NE(it, model.end());
                    ASSERT_EQ(e.dirty, it->second);
                }
            }
            ASSERT_EQ(valid, model.size());
        }
    }
}

TEST(TagStoreDeath, InsertOfResidentBlockPanics)
{
    // The resident block sits in a later way than the first free one:
    // the fused free-way/residency scan must still see it.
    TagStore ts(smallLru());
    for (std::uint32_t i = 0; i < 3; ++i) {
        ts.insert(addrForSet(6, i), 0, false);
    }
    ts.invalidate(addrForSet(6, 0));
    EXPECT_DEATH(ts.insert(addrForSet(6, 2), 0, false),
                 "insert of resident block");
}

// --- TA-DIP behaviour ---

TEST(TagStoreDip, BimodalLeaderSetsInsertAtLru)
{
    CacheGeometry geo{64 * 1024, 4, ReplPolicy::TaDip, 1, 5};
    TagStore ts(geo);  // 256 sets
    // Set 1 is thread 0's bimodal leader (slot == 2*0+1).
    std::uint32_t set = 1;
    int bimodal_count = 0;
    for (std::uint32_t i = 0; i < 200; ++i) {
        ts.insert(addrForSet(set, i, ts.numSets()), 0, false);
        if (ts.lastInsertUsedBimodal()) {
            ++bimodal_count;
        }
    }
    // BIP inserts at LRU except with probability 1/64.
    EXPECT_GT(bimodal_count, 150);
}

TEST(TagStoreDip, PrimaryLeaderSetsNeverBimodal)
{
    CacheGeometry geo{64 * 1024, 4, ReplPolicy::TaDip, 1, 5};
    TagStore ts(geo);
    std::uint32_t set = 0;  // thread 0's primary (LRU) leader
    for (std::uint32_t i = 0; i < 100; ++i) {
        ts.insert(addrForSet(set, i, ts.numSets()), 0, false);
        EXPECT_FALSE(ts.lastInsertUsedBimodal());
    }
}

TEST(TagStoreDip, ThrashingWorkloadFlipsToBip)
{
    // A cyclic working set larger than the cache: LRU leader sets miss
    // every access, pushing PSEL toward BIP in follower sets.
    CacheGeometry geo{64 * 1024, 4, ReplPolicy::TaDip, 1, 5};
    TagStore ts(geo);
    std::uint32_t sets = ts.numSets();
    for (int round = 0; round < 30; ++round) {
        for (std::uint32_t i = 0; i < 8; ++i) {  // 8 > 4 ways: thrash
            Addr a = addrForSet(0, i, sets);     // LRU leader set
            if (ts.contains(a)) {
                ts.touch(a, 0);
            } else {
                ts.insert(a, 0, false);
            }
        }
    }
    // Now a follower set should use bimodal insertion most of the time.
    int bimodal = 0;
    for (std::uint32_t i = 0; i < 64; ++i) {
        ts.insert(addrForSet(40, i, sets), 0, false);  // follower set
        if (ts.lastInsertUsedBimodal()) {
            ++bimodal;
        }
    }
    EXPECT_GT(bimodal, 48);
}

// --- DRRIP behaviour ---

TEST(TagStoreDrrip, VictimHasMaxRrpv)
{
    CacheGeometry geo{4096, 4, ReplPolicy::Drrip, 1, 5};
    TagStore ts(geo);
    for (std::uint32_t i = 0; i < 4; ++i) {
        ts.insert(addrForSet(7, i), 0, false);
    }
    // Promote one block; it must survive the next two insertions.
    ts.touch(addrForSet(7, 2), 0);
    ts.insert(addrForSet(7, 4), 0, false);
    ts.insert(addrForSet(7, 5), 0, false);
    EXPECT_TRUE(ts.contains(addrForSet(7, 2)));
}

TEST(TagStoreRandom, EvictsSomethingValid)
{
    CacheGeometry geo{4096, 4, ReplPolicy::Random, 1, 5};
    TagStore ts(geo);
    for (std::uint32_t i = 0; i < 4; ++i) {
        ts.insert(addrForSet(7, i), 0, false);
    }
    auto ev = ts.insert(addrForSet(7, 9), 0, false);
    EXPECT_TRUE(ev.valid);
}

} // namespace
} // namespace dbsim
