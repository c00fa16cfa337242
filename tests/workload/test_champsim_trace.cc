/**
 * @file
 * ChampSim streaming front-end tests: wire-format round trips through
 * every codec, the record -> TraceOp conversion rules (gap
 * accumulation, load-before-store emission, the pointer-chase
 * dependence heuristic), loop bit-identity, and the parser-robustness
 * suite — truncated tails, bit-flipped flag bytes, garbage, empty
 * files, and gap-run overflow must all fatal() cleanly, and a multi-GB
 * sparse file must stream in bounded memory, never materialize.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "workload/champsim_trace.hh"
#include "workload/trace_decode.hh"
#include "support/temp_path.hh"

namespace dbsim {
namespace {

/** Peak RSS of this process in bytes (Linux RU_MAXRSS is in KB). */
std::uint64_t
peakRssBytes()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

ChampSimRecord
loadRec(std::uint64_t addr, std::uint8_t dest_reg = 0,
        std::uint8_t src_reg = 0)
{
    ChampSimRecord r{};
    r.ip = 0x400000;
    r.destRegs[0] = dest_reg;
    r.srcRegs[0] = src_reg;
    r.srcMem[0] = addr;
    return r;
}

ChampSimRecord
storeRec(std::uint64_t addr, std::uint8_t dest_reg = 0)
{
    ChampSimRecord r{};
    r.ip = 0x400000;
    r.destRegs[0] = dest_reg;
    r.destMem[0] = addr;
    return r;
}

ChampSimRecord
nopRec(bool branch = false)
{
    ChampSimRecord r{};
    r.ip = 0x400000;
    r.isBranch = branch;
    r.branchTaken = branch;
    return r;
}

class ChampSimTraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = test::tempPath("dbsim_champsim_test.champsim");
    }

    void TearDown() override { std::remove(path.c_str()); }

    std::string path;
};

TEST_F(ChampSimTraceTest, RoundTripBasics)
{
    ChampSimTrace::write(path, {loadRec(0x1000), storeRec(0x2000),
                                loadRec(0x3000)});
    ChampSimTrace trace(path);

    TraceOp a = trace.next();
    EXPECT_FALSE(a.isWrite);
    EXPECT_EQ(a.addr, 0x1000u);
    EXPECT_EQ(a.gap, 0u);

    TraceOp b = trace.next();
    EXPECT_TRUE(b.isWrite);
    EXPECT_EQ(b.addr, 0x2000u);

    TraceOp c = trace.next();
    EXPECT_EQ(c.addr, 0x3000u);
    EXPECT_EQ(trace.opsEmitted(), 3u);
}

TEST_F(ChampSimTraceTest, NonMemoryRecordsBecomeGap)
{
    ChampSimTrace::write(path, {nopRec(), nopRec(true), nopRec(),
                                loadRec(0x1000), storeRec(0x2000)});
    ChampSimTrace trace(path);
    TraceOp a = trace.next();
    EXPECT_EQ(a.gap, 3u);
    EXPECT_EQ(a.addr, 0x1000u);
    TraceOp b = trace.next();
    EXPECT_EQ(b.gap, 0u);
    EXPECT_EQ(b.addr, 0x2000u);
}

TEST_F(ChampSimTraceTest, MultiOperandRecordEmitsLoadsThenStores)
{
    ChampSimRecord r{};
    r.ip = 0x400000;
    r.srcMem[0] = 0x1000;
    r.srcMem[2] = 0x2000;  // slot order preserved, holes skipped
    r.destMem[1] = 0x3000;
    ChampSimTrace::write(path, {nopRec(), r});
    ChampSimTrace trace(path);

    TraceOp a = trace.next();
    EXPECT_FALSE(a.isWrite);
    EXPECT_EQ(a.addr, 0x1000u);
    EXPECT_EQ(a.gap, 1u);  // only the record's first op carries gap
    TraceOp b = trace.next();
    EXPECT_FALSE(b.isWrite);
    EXPECT_EQ(b.addr, 0x2000u);
    EXPECT_EQ(b.gap, 0u);
    TraceOp c = trace.next();
    EXPECT_TRUE(c.isWrite);
    EXPECT_EQ(c.addr, 0x3000u);
    EXPECT_EQ(c.gap, 0u);
}

TEST_F(ChampSimTraceTest, PointerChaseHeuristic)
{
    // Record 0 writes register 5; record 1 loads through register 5
    // (dependent); record 2's source registers don't overlap (not);
    // register 0 never creates dependences.
    ChampSimTrace::write(path, {loadRec(0x1000, /*dest=*/5),
                                loadRec(0x2000, /*dest=*/7, /*src=*/5),
                                loadRec(0x3000, /*dest=*/0, /*src=*/5),
                                loadRec(0x4000, /*dest=*/0, /*src=*/0)});
    ChampSimTrace trace(path);
    EXPECT_FALSE(trace.next().dependent);
    EXPECT_TRUE(trace.next().dependent);
    EXPECT_FALSE(trace.next().dependent);  // prev dest was 7, src is 5
    EXPECT_FALSE(trace.next().dependent);  // register 0 excluded
}

TEST_F(ChampSimTraceTest, LoopsBitIdentically)
{
    ChampSimTrace::write(path, {nopRec(), loadRec(0x1000, 5),
                                loadRec(0x2000, 0, 5), storeRec(0x3000),
                                nopRec(), nopRec(), loadRec(0x4000)});
    ChampSimTrace trace(path);
    std::vector<TraceOp> first;
    for (int i = 0; i < 4; ++i) {
        first.push_back(trace.next());
    }
    EXPECT_EQ(trace.loops(), 0u);
    // Two more full passes must replay the same ops exactly: the gap
    // and dependence carry state resets at each rewind.
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t i = 0; i < first.size(); ++i) {
            TraceOp got = trace.next();
            EXPECT_EQ(got.gap, first[i].gap) << "pass " << pass;
            EXPECT_EQ(got.isWrite, first[i].isWrite);
            EXPECT_EQ(got.dependent, first[i].dependent);
            EXPECT_EQ(got.addr, first[i].addr);
        }
    }
    EXPECT_EQ(trace.loops(), 2u);
}

TEST_F(ChampSimTraceTest, CompressedRoundTripsMatchRaw)
{
    std::vector<ChampSimRecord> recs;
    for (int i = 0; i < 5000; ++i) {
        recs.push_back(i % 7 == 0 ? nopRec()
                       : i % 3 == 0
                           ? storeRec(0x1000 + 64ull * i)
                           : loadRec(0x100000 + 64ull * i,
                                     static_cast<std::uint8_t>(i % 32),
                                     static_cast<std::uint8_t>(i % 29)));
    }
    ChampSimTrace::write(path, recs);
    ChampSimTrace raw(path);
    std::vector<TraceOp> want;
    for (int i = 0; i < 6000; ++i) {  // crosses the loop boundary
        want.push_back(raw.next());
    }

    for (TraceCodec codec : {TraceCodec::Gzip, TraceCodec::Xz}) {
        if (!traceCodecAvailable(codec)) {
            continue;  // build without the library: covered elsewhere
        }
        std::string cpath = path + (codec == TraceCodec::Gzip ? ".gz"
                                                              : ".xz");
        ChampSimTrace::write(cpath, recs, codec);
        ChampSimTrace trace(cpath);
        for (std::size_t i = 0; i < want.size(); ++i) {
            TraceOp got = trace.next();
            ASSERT_EQ(got.addr, want[i].addr)
                << traceCodecName(codec) << " op " << i;
            ASSERT_EQ(got.gap, want[i].gap);
            ASSERT_EQ(got.isWrite, want[i].isWrite);
            ASSERT_EQ(got.dependent, want[i].dependent);
        }
        std::remove(cpath.c_str());
    }
}

TEST_F(ChampSimTraceTest, UnavailableCodecIsCleanFatal)
{
    if (traceCodecAvailable(TraceCodec::Zstd)) {
        GTEST_SKIP() << "zstd support compiled in";
    }
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A zstd magic header on a build without the library must refuse
    // with the recompress hint, not crash or misparse.
    std::ofstream out(path, std::ios::binary);
    const unsigned char magic[] = {0x28, 0xb5, 0x2f, 0xfd, 0, 0, 0, 0};
    out.write(reinterpret_cast<const char *>(magic), sizeof(magic));
    out.close();
    EXPECT_DEATH(ChampSimTrace trace(path),
                 "not compiled into this build");
}

// -- Parser-robustness suite -----------------------------------------

using ChampSimDeathTest = ChampSimTraceTest;

TEST_F(ChampSimDeathTest, EmptyFileIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::ofstream(path, std::ios::binary).close();
    EXPECT_DEATH(
        {
            ChampSimTrace trace(path);
            trace.next();
        },
        "empty file");
}

TEST_F(ChampSimDeathTest, TruncatedTailRecordIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ChampSimTrace::write(path, {loadRec(0x1000), storeRec(0x2000)});
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("garbagetail", 11);  // 11 trailing bytes: not a record
    out.close();
    EXPECT_DEATH(
        {
            ChampSimTrace trace(path);
            while (true) {
                trace.next();
            }
        },
        "truncated record .*11 trailing bytes");
}

TEST_F(ChampSimDeathTest, BitFlippedFlagByteIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::vector<ChampSimRecord> recs = {loadRec(0x1000),
                                        loadRec(0x2000)};
    recs[1].isBranch = 0x40;  // flipped bit: not a boolean
    ChampSimTrace::write(path, recs);
    EXPECT_DEATH(
        {
            ChampSimTrace trace(path);
            while (true) {
                trace.next();
            }
        },
        "invalid flag bytes");
}

TEST_F(ChampSimDeathTest, GarbageBytesAreFatalNotUb)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // 4KB of non-record bytes. Every 64-byte frame has 0xbd in its
    // flag positions, so the flag check rejects the very first record.
    std::ofstream out(path, std::ios::binary);
    for (int i = 0; i < 4096; ++i) {
        out.put(static_cast<char>(0xbd));
    }
    out.close();
    EXPECT_DEATH(
        {
            ChampSimTrace trace(path);
            while (true) {
                trace.next();
            }
        },
        "corrupt or not a ChampSim trace");
}

TEST_F(ChampSimDeathTest, CorruptGzipStreamIsFatal)
{
    if (!traceCodecAvailable(TraceCodec::Gzip)) {
        GTEST_SKIP() << "no zlib in this build";
    }
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // gzip magic followed by junk: the decoder must fatal, not hand
    // garbage to the parser.
    std::ofstream out(path, std::ios::binary);
    out.put(0x1f);
    out.put(static_cast<char>(0x8b));
    for (int i = 0; i < 256; ++i) {
        out.put(static_cast<char>(i * 37));
    }
    out.close();
    EXPECT_DEATH(
        {
            ChampSimTrace trace(path);
            while (true) {
                trace.next();
            }
        },
        "trace");
}

TEST_F(ChampSimDeathTest, GapRunPastCapIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::vector<ChampSimRecord> recs(200, nopRec());
    recs.push_back(loadRec(0x1000));
    ChampSimTrace::write(path, recs);
    EXPECT_DEATH(
        {
            ChampSimTrace trace(path, /*max_gap_instrs=*/100);
            trace.next();
        },
        "consecutive records with no memory access");
}

TEST_F(ChampSimDeathTest, AllNopTraceIsFatalNotInfiniteLoop)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A trace with records but no memory accesses must be rejected at
    // the first loop boundary instead of spinning forever.
    ChampSimTrace::write(path, std::vector<ChampSimRecord>(64,
                                                           nopRec()));
    EXPECT_DEATH(
        {
            ChampSimTrace trace(path);
            trace.next();
        },
        "no memory accesses in 64 records");
}

/**
 * Bounded-memory law: a multi-GB trace must stream, never materialize.
 * The file is 2GB of zero records (all-zero bytes parse as valid
 * non-memory records) with one real access every 4M records; peak RSS
 * may not grow by more than a small constant while two full passes are
 * consumed. Written in dense 64KB blocks — hole-backed sparse files
 * read pathologically slowly on some hosts, and the parser has to
 * consume every byte either way.
 */
TEST_F(ChampSimTraceTest, MultiGbFileStreamsBounded)
{
    const std::uint64_t kRecords = 32ull << 20;  // 2GB of records
    const std::uint64_t kEvery = 4ull << 20;
    const std::uint64_t kPerBlock = 1024;  // 64KB write blocks
    {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out);
        std::vector<char> block(kPerBlock * 64, 0);
        ChampSimRecord probe = loadRec(0x1000);
        for (std::uint64_t b = 0; b < kRecords / kPerBlock; ++b) {
            // Probe records land on indexes kEvery-1, 2*kEvery-1, ...
            // — always the last record of their 64KB block.
            bool has_probe = (b + 1) % (kEvery / kPerBlock) == 0;
            if (has_probe) {
                std::uint64_t i = (b + 1) * kPerBlock - 1;
                probe.srcMem[0] = 0x1000 + i * 64;
                std::memcpy(block.data() + (kPerBlock - 1) * 64, &probe,
                            64);
            }
            out.write(block.data(),
                      static_cast<std::streamsize>(block.size()));
            if (has_probe) {
                std::memset(block.data() + (kPerBlock - 1) * 64, 0, 64);
            }
        }
        ASSERT_TRUE(out);
    }

    const std::uint64_t before = peakRssBytes();
    ChampSimTrace trace(path, /*max_gap_instrs=*/kEvery);
    const std::uint64_t per_pass = kRecords / kEvery;
    for (std::uint64_t i = 0; i < 2 * per_pass; ++i) {
        TraceOp op = trace.next();
        EXPECT_EQ(op.addr % 64, 0u);
        EXPECT_GE(op.addr, 0x1000u);
    }
    EXPECT_EQ(trace.loops(), 1u);
    const std::uint64_t after = peakRssBytes();

    // The 2GB file may contribute only the 64KB decode chunk (plus
    // allocator noise). 64MB of headroom is well over an order of
    // magnitude below materializing the file.
    EXPECT_LT(after - before, 64ull << 20)
        << "streaming a 2GB trace grew peak RSS by "
        << (after - before) / (1 << 20) << " MB";
}

} // namespace
} // namespace dbsim
