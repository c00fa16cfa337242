/**
 * @file
 * Tests for AddrTable: a seeded property test against std::unordered_map,
 * probe runs that wrap past the end of the slot array with erases in the
 * middle of a run, growth while values own live callbacks, and the
 * duplicate-insert panic.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/addr_table.hh"
#include "common/rng.hh"

namespace dbsim {
namespace {

/** The first `n` block addresses whose home is `slot` in `cap` slots. */
std::vector<Addr>
keysWithHome(std::size_t slot, std::size_t cap, std::size_t n)
{
    std::vector<Addr> keys;
    for (Addr b = 1; keys.size() < n; ++b) {
        Addr a = b * kBlockBytes;
        if (AddrTable<int>::homeSlot(a, cap) == slot) {
            keys.push_back(a);
        }
    }
    return keys;
}

TEST(AddrTable, StartsEmpty)
{
    AddrTable<int> t;
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.capacity(), AddrTable<int>::kInitialCapacity);
    EXPECT_EQ(t.find(0x40), nullptr);
    EXPECT_FALSE(t.contains(0x40));
    EXPECT_FALSE(t.erase(0x40));
}

TEST(AddrTable, InsertFindErase)
{
    AddrTable<int> t;
    t.insert(0x1000) = 7;
    t.insert(0x2000) = 9;
    ASSERT_NE(t.find(0x1000), nullptr);
    EXPECT_EQ(*t.find(0x1000), 7);
    EXPECT_EQ(*t.find(0x2000), 9);
    EXPECT_EQ(t.size(), 2u);
    EXPECT_TRUE(t.erase(0x1000));
    EXPECT_FALSE(t.contains(0x1000));
    EXPECT_TRUE(t.contains(0x2000));
    EXPECT_EQ(t.size(), 1u);
    // A re-inserted key starts from a default-constructed value.
    EXPECT_EQ(t.insert(0x1000), 0);
}

TEST(AddrTable, DoublesAtHalfLoadAndNeverShrinks)
{
    AddrTable<int> t;
    const std::size_t cap0 = t.capacity();
    for (std::size_t i = 0; i < cap0 / 2; ++i) {
        t.insert((i + 1) * kBlockBytes);
    }
    EXPECT_EQ(t.capacity(), cap0);  // exactly half full
    t.insert((cap0 / 2 + 1) * kBlockBytes);
    EXPECT_EQ(t.capacity(), 2 * cap0);
    for (std::size_t i = 0; i <= cap0 / 2; ++i) {
        EXPECT_TRUE(t.erase((i + 1) * kBlockBytes));
    }
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.capacity(), 2 * cap0);
}

/**
 * Property: 100k random inserts, finds and erases over a small key
 * space (so the table grows, runs collide, and erases shift entries)
 * agree with std::unordered_map step by step.
 */
TEST(AddrTable, PropertyMatchesUnorderedMap)
{
    AddrTable<std::uint64_t> t;
    std::unordered_map<Addr, std::uint64_t> model;
    Rng rng(2024);
    for (int op = 0; op < 100000; ++op) {
        Addr a = (rng.below(600) + 1) * kBlockBytes;
        std::uint64_t kind = rng.below(3);
        auto it = model.find(a);
        if (kind == 0) {
            if (it == model.end()) {
                std::uint64_t v = rng.next();
                t.insert(a) = v;
                model.emplace(a, v);
            } else {
                ASSERT_NE(t.find(a), nullptr);
                ASSERT_EQ(*t.find(a), it->second);
            }
        } else if (kind == 1) {
            ASSERT_EQ(t.erase(a), it != model.end());
            if (it != model.end()) {
                model.erase(it);
            }
        } else {
            const std::uint64_t *v = t.find(a);
            ASSERT_EQ(v != nullptr, it != model.end());
            if (v) {
                ASSERT_EQ(*v, it->second);
            }
        }
        ASSERT_EQ(t.size(), model.size());
        ASSERT_LE(2 * t.size(), t.capacity());
        if (op % 5000 == 0) {
            for (const auto &[key, val] : model) {
                ASSERT_NE(t.find(key), nullptr);
                ASSERT_EQ(*t.find(key), val);
            }
        }
    }
}

/**
 * Keys sharing the last home slot fill a probe run that wraps to the
 * front of the array; a key homed at slot 0 sits behind them. Erasing
 * from the middle of the run must keep every survivor reachable.
 */
TEST(AddrTable, WrappedProbeRunSurvivesMidRunErase)
{
    const std::size_t cap = AddrTable<int>::kInitialCapacity;
    std::vector<Addr> last = keysWithHome(cap - 1, cap, 4);
    std::vector<Addr> first = keysWithHome(0, cap, 2);

    AddrTable<int> t;
    int v = 0;
    for (Addr a : last) {
        t.insert(a) = ++v;  // slots cap-1, 0, 1, 2
    }
    for (Addr a : first) {
        t.insert(a) = ++v;  // slots 3, 4: displaced past the wrap
    }
    ASSERT_EQ(t.capacity(), cap);  // no growth hid the wrap

    auto expectPresent = [&](const std::vector<Addr> &keys, int base) {
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const int *got = t.find(keys[i]);
            ASSERT_NE(got, nullptr) << "key " << i;
            EXPECT_EQ(*got, base + static_cast<int>(i) + 1);
        }
    };

    EXPECT_TRUE(t.erase(last[1]));  // the slot-0 wrap point
    EXPECT_FALSE(t.contains(last[1]));
    expectPresent({last[0]}, 0);
    expectPresent({last[2], last[3]}, 2);
    expectPresent(first, 4);

    EXPECT_TRUE(t.erase(last[0]));  // the run's head
    expectPresent({last[2], last[3]}, 2);
    expectPresent(first, 4);

    EXPECT_TRUE(t.erase(first[0]));  // past the wrap, mid-run
    expectPresent({last[2], last[3]}, 2);
    expectPresent({first[1]}, 5);
    EXPECT_EQ(t.size(), 3u);

    // Refill the holes: the run must re-form without duplicates.
    t.insert(last[0]) = 1;
    t.insert(first[0]) = 5;
    t.insert(last[1]) = 2;
    expectPresent(last, 0);
    expectPresent(first, 4);
}

/**
 * Values that own heap-held callbacks survive growth (they are moved,
 * not copied), and erase releases what the erased value held. Each
 * callback fires exactly once.
 */
TEST(AddrTable, GrowthKeepsLiveCallbacks)
{
    constexpr int kKeys = 300;  // several doublings from 16 slots
    AddrTable<std::function<void()>> t;
    std::vector<int> fired(kKeys, 0);
    auto token = std::make_shared<int>(0);
    for (int i = 0; i < kKeys; ++i) {
        // A capture too large for std::function's inline buffer.
        std::array<std::uint64_t, 3> pad{};
        t.insert(static_cast<Addr>(i + 1) * kBlockBytes) =
            [&fired, i, token, pad] { fired[i] += 1 + int(pad[0]); };
        if (i % 3 == 0) {
            // Complete every third request as it goes.
            Addr a = static_cast<Addr>(i / 3 + 1) * kBlockBytes;
            std::function<void()> fn = std::move(*t.find(a));
            ASSERT_TRUE(t.erase(a));
            fn();
        }
    }
    for (int i = 0; i < kKeys; ++i) {
        Addr a = static_cast<Addr>(i + 1) * kBlockBytes;
        if (std::function<void()> *fn = t.find(a)) {
            std::function<void()> run = std::move(*fn);
            ASSERT_TRUE(t.erase(a));
            run();
        }
    }
    EXPECT_EQ(t.size(), 0u);
    for (int i = 0; i < kKeys; ++i) {
        EXPECT_EQ(fired[i], 1) << "callback " << i;
    }
    // Every closure copy of the token is gone: nothing leaked in a slot.
    EXPECT_EQ(token.use_count(), 1);

    // Erasing a live value releases what it holds.
    t.insert(0x40) = [token] {};
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_TRUE(t.erase(0x40));
    EXPECT_EQ(token.use_count(), 1);
}

TEST(AddrTable, SetMembership)
{
    AddrSet s;
    s.insert(0x40);
    EXPECT_TRUE(s.contains(0x40));
    EXPECT_FALSE(s.contains(0x80));
    EXPECT_TRUE(s.erase(0x40));
    EXPECT_FALSE(s.contains(0x40));
}

TEST(AddrTableDeathTest, InsertingAPresentKeyPanics)
{
    AddrTable<int> t;
    t.insert(0x1000);
    EXPECT_DEATH(t.insert(0x1000), "already present");
}

} // namespace
} // namespace dbsim
