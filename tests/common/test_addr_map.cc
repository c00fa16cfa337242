/** @file Unit tests for the DRAM address map and DBI region map. */

#include <gtest/gtest.h>

#include "common/addr_map.hh"
#include "common/rng.hh"

namespace dbsim {
namespace {

TEST(DramAddrMap, Geometry)
{
    DramAddrMap map(8192, 8);
    EXPECT_EQ(map.rowBytes(), 8192u);
    EXPECT_EQ(map.numBanks(), 8u);
    EXPECT_EQ(map.blocksPerRow(), 128u);
}

TEST(DramAddrMap, RowInterleavingRotatesBanks)
{
    DramAddrMap map(8192, 8);
    // Consecutive rows land in consecutive banks.
    for (std::uint64_t row = 0; row < 16; ++row) {
        Addr a = row * 8192;
        EXPECT_EQ(map.rowId(a), row);
        EXPECT_EQ(map.bank(a), row % 8);
        EXPECT_EQ(map.rowInBank(a), row / 8);
    }
}

TEST(DramAddrMap, BlocksWithinRowShareRow)
{
    DramAddrMap map(8192, 8);
    Addr row_base = 42 * 8192;
    for (std::uint32_t i = 0; i < 128; ++i) {
        Addr a = row_base + i * 64;
        EXPECT_EQ(map.rowId(a), 42u);
        EXPECT_EQ(map.blockInRow(a), i);
        EXPECT_EQ(map.rowBase(a), row_base);
        EXPECT_EQ(map.blockInRowAddr(a, i), a);
    }
}

TEST(DramAddrMap, RoundTripProperty)
{
    // The shift/mask decode must agree with the division formulas it
    // replaces on every geometry, over the whole address space.
    for (std::uint32_t channels : {1u, 2u, 4u}) {
        for (std::uint32_t banks : {8u, 16u}) {
            for (std::uint64_t row_bytes : {4096u, 8192u, 16384u}) {
                SCOPED_TRACE(testing::Message()
                             << channels << " ch, " << banks
                             << " banks, " << row_bytes << " B rows");
                DramAddrMap map(row_bytes, banks, channels);
                Rng rng(7 + channels * 100 + banks + row_bytes);
                for (int i = 0; i < 1000; ++i) {
                    Addr a = rng.next();
                    if (i % 2) {
                        a = blockAlign(a & ((Addr{1} << 44) - 1));
                    }
                    std::uint64_t row = a / row_bytes;
                    ASSERT_EQ(map.rowId(a), row);
                    ASSERT_EQ(map.channel(a), row % channels);
                    ASSERT_EQ(map.bank(a), (row / channels) % banks);
                    ASSERT_EQ(map.rowInBank(a), row / channels / banks);
                    ASSERT_EQ(map.blockInRow(a),
                              (a % row_bytes) / kBlockBytes);
                    ASSERT_EQ(map.rowBase(a), a - a % row_bytes);
                    std::uint32_t idx = map.blockInRow(a);
                    ASSERT_EQ(map.blockInRowAddr(a, idx), blockAlign(a));
                }
            }
        }
    }
}

TEST(DbiRegionMap, FullRowGranularity)
{
    DbiRegionMap map(128);
    EXPECT_EQ(map.granularity(), 128u);
    Addr a = 5 * 8192 + 3 * 64;
    EXPECT_EQ(map.regionTag(a), 5u);
    EXPECT_EQ(map.blockIndex(a), 3u);
    EXPECT_EQ(map.blockAddr(5, 3), a);
}

TEST(DbiRegionMap, HalfRowGranularitySplitsRows)
{
    // granularity 64 = half an 8KB row: two regions per DRAM row.
    DbiRegionMap map(64);
    Addr first_half = 10 * 8192;
    Addr second_half = 10 * 8192 + 64 * 64;
    EXPECT_NE(map.regionTag(first_half), map.regionTag(second_half));
    EXPECT_EQ(map.blockIndex(second_half), 0u);
}

TEST(DbiRegionMap, RoundTripProperty)
{
    for (std::uint32_t gran = 1; gran <= 128; gran *= 2) {
        SCOPED_TRACE(testing::Message() << "granularity " << gran);
        DbiRegionMap map(gran);
        const std::uint64_t region_bytes = std::uint64_t{gran} * kBlockBytes;
        Rng rng(gran);
        for (int i = 0; i < 500; ++i) {
            Addr a = rng.next();
            if (i % 2) {
                a = blockAlign(a & ((Addr{1} << 40) - 1));
            }
            // Against the division formulas the shift/mask decode
            // replaces.
            ASSERT_EQ(map.regionTag(a), a / region_bytes);
            ASSERT_EQ(map.blockIndex(a), (a % region_bytes) / kBlockBytes);
            ASSERT_EQ(map.blockAddr(map.regionTag(a), map.blockIndex(a)),
                      blockAlign(a));
        }
    }
}

} // namespace
} // namespace dbsim
