/** @file Tests for benchmark profiles, trace generation, and mixes. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <set>

#include "workload/mixes.hh"
#include "workload/profiles.hh"
#include "workload/synthetic_trace.hh"

namespace dbsim {
namespace {

TEST(Profiles, FourteenBenchmarks)
{
    EXPECT_EQ(allBenchmarks().size(), 14u);
}

TEST(Profiles, MixturesSumToOne)
{
    for (const auto &p : allBenchmarks()) {
        for (const Mixture *m : {&p.readMix, &p.writeMix}) {
            double sum = m->hot + m->warm + m->stream + m->cold;
            EXPECT_NEAR(sum, 1.0, 1e-9) << p.name;
        }
        EXPECT_GT(p.memFrac, 0.0);
        EXPECT_LE(p.memFrac, 1.0);
        EXPECT_GE(p.writeFrac, 0.0);
        EXPECT_LE(p.writeFrac, 1.0);
    }
}

TEST(Profiles, LookupByName)
{
    EXPECT_EQ(benchmarkByName("mcf").name, "mcf");
    EXPECT_EQ(benchmarkByName("lbm").writeClass, Intensity::High);
}

TEST(SyntheticTrace, DeterministicForSeed)
{
    const auto &prof = benchmarkByName("soplex");
    SyntheticTrace a(prof, 0, 42), b(prof, 0, 42);
    for (int i = 0; i < 1000; ++i) {
        TraceOp x = a.next(), y = b.next();
        EXPECT_EQ(x.gap, y.gap);
        EXPECT_EQ(x.isWrite, y.isWrite);
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.dependent, y.dependent);
    }
}

/**
 * The generated streams themselves are frozen: FNV-1a over the first
 * 200k ops (gap, isWrite, dependent, addr) of every profile, for cores
 * 0 and 3 at seed 1. DeterministicForSeed compares two instances of
 * the same code, so only this catches a change to what the generator
 * emits. A deliberate change regenerates the table from the failure
 * messages and justifies the diff, as for the mechanism goldens.
 */
TEST(SyntheticTrace, StreamMatchesFrozenDigest)
{
    struct Frozen
    {
        const char *profile;
        std::uint32_t core;
        std::uint64_t digest;
    };
    static const Frozen kFrozen[] = {
        {"mcf", 0, 0xe2bde4e6cbd0b25dULL},
        {"mcf", 3, 0x93824caee1b90819ULL},
        {"lbm", 0, 0x6f673ef644617a14ULL},
        {"lbm", 3, 0xd6150a79b0d89abdULL},
        {"GemsFDTD", 0, 0xeb5b6c305d55ea5fULL},
        {"GemsFDTD", 3, 0xc83cea668e6fcfcbULL},
        {"soplex", 0, 0x807f12835724c6d1ULL},
        {"soplex", 3, 0x3df2adeb353aeae5ULL},
        {"omnetpp", 0, 0x2d979689bda9a576ULL},
        {"omnetpp", 3, 0xbb482b8a2287d9bcULL},
        {"cactusADM", 0, 0x2470a1388680a52aULL},
        {"cactusADM", 3, 0x98803730e5cd3438ULL},
        {"stream", 0, 0xea20fa5f4a006c9aULL},
        {"stream", 3, 0x8ec129ad59cdf779ULL},
        {"leslie3d", 0, 0xb8ebb5dd7821753fULL},
        {"leslie3d", 3, 0x12858a652f502a59ULL},
        {"milc", 0, 0x06d88d3eec3ff742ULL},
        {"milc", 3, 0x3967d4d37f7f990aULL},
        {"sphinx3", 0, 0xc0d9b774c688d5faULL},
        {"sphinx3", 3, 0x98a9ecfa6bdbf6f2ULL},
        {"libquantum", 0, 0x191e6fd1357218e2ULL},
        {"libquantum", 3, 0x1539f8659c49bc8eULL},
        {"bzip2", 0, 0xe6f6429d5a9c2d57ULL},
        {"bzip2", 3, 0xc30b2071c6c768caULL},
        {"astar", 0, 0xa0c9323c7b685c96ULL},
        {"astar", 3, 0x2305d07ae8ed0cc6ULL},
        {"bwaves", 0, 0x941d9734a65386cfULL},
        {"bwaves", 3, 0x8f46c04ff94fc470ULL},
    };

    auto fold = [](std::uint64_t h, std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
        return h;
    };
    std::size_t checked = 0;
    for (const auto &prof : allBenchmarks()) {
        for (std::uint32_t core : {0u, 3u}) {
            SyntheticTrace t(prof, core, 1);
            std::uint64_t h = 1469598103934665603ULL;
            for (int i = 0; i < 200000; ++i) {
                TraceOp op = t.next();
                h = fold(h, op.gap, 4);
                h = fold(h, op.isWrite, 1);
                h = fold(h, op.dependent, 1);
                h = fold(h, op.addr, 8);
            }
            const Frozen *want = nullptr;
            for (const Frozen &f : kFrozen) {
                if (prof.name == f.profile && core == f.core) {
                    want = &f;
                }
            }
            ASSERT_NE(want, nullptr) << prof.name << " core " << core;
            EXPECT_EQ(h, want->digest)
                << "{\"" << prof.name << "\", " << core << ", 0x"
                << std::hex << h << "ULL},";
            ++checked;
        }
    }
    EXPECT_EQ(checked, std::size(kFrozen));
}

TEST(SyntheticTrace, CoresGetDisjointAddressSpaces)
{
    const auto &prof = benchmarkByName("lbm");
    SyntheticTrace t0(prof, 0, 1), t1(prof, 1, 1);
    std::set<Addr> bases0, bases1;
    for (int i = 0; i < 2000; ++i) {
        bases0.insert(t0.next().addr >> 40);
        bases1.insert(t1.next().addr >> 40);
    }
    for (Addr b : bases0) {
        EXPECT_FALSE(bases1.count(b));
    }
}

TEST(SyntheticTrace, MemoryIntensityMatchesProfile)
{
    const auto &prof = benchmarkByName("stream");
    SyntheticTrace t(prof, 0, 3);
    std::uint64_t mem_ops = 0, instrs = 0;
    for (int i = 0; i < 50000; ++i) {
        TraceOp op = t.next();
        instrs += op.gap + 1;
        ++mem_ops;
    }
    double frac = static_cast<double>(mem_ops) /
                  static_cast<double>(instrs);
    EXPECT_NEAR(frac, prof.memFrac, 0.02);
}

TEST(SyntheticTrace, WriteFractionMatchesProfile)
{
    const auto &prof = benchmarkByName("lbm");
    SyntheticTrace t(prof, 0, 3);
    std::uint64_t writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        if (t.next().isWrite) {
            ++writes;
        }
    }
    EXPECT_NEAR(static_cast<double>(writes) / n, prof.writeFrac, 0.02);
}

TEST(SyntheticTrace, StreamWritesCoverBlocksDensely)
{
    // Stream writes should touch consecutive words of a block before
    // moving on, so per-block store counts concentrate at 8.
    const auto &prof = benchmarkByName("stream");
    SyntheticTrace t(prof, 0, 9);
    std::map<Addr, int> per_block;
    for (int i = 0; i < 200000; ++i) {
        TraceOp op = t.next();
        if (op.isWrite && (op.addr >> 32 & 0xff) == 4) {  // stream-W
            per_block[blockAlign(op.addr)]++;
        }
    }
    ASSERT_FALSE(per_block.empty());
    int full = 0, total = 0;
    for (auto &[a, n] : per_block) {
        ++total;
        if (n == 8) {
            ++full;
        }
    }
    EXPECT_GT(static_cast<double>(full) / total, 0.8);
}

TEST(SyntheticTrace, DependentFractionRoughlyMatches)
{
    const auto &prof = benchmarkByName("mcf");
    SyntheticTrace t(prof, 0, 5);
    std::uint64_t dep = 0, loads = 0;
    for (int i = 0; i < 50000; ++i) {
        TraceOp op = t.next();
        if (!op.isWrite) {
            ++loads;
            dep += op.dependent;
        }
    }
    EXPECT_NEAR(static_cast<double>(dep) / loads, prof.depFrac, 0.03);
}

TEST(Mixes, CorrectShapeAndDeterminism)
{
    auto a = makeMixes(4, 10, 7);
    auto b = makeMixes(4, 10, 7);
    ASSERT_EQ(a.size(), 10u);
    EXPECT_EQ(a, b);
    for (const auto &mix : a) {
        ASSERT_EQ(mix.size(), 4u);
        for (const auto &name : mix) {
            benchmarkByName(name);  // must not fatal
        }
    }
    auto c = makeMixes(4, 10, 8);
    EXPECT_NE(a, c);
}

TEST(Mixes, CoversIntensityClasses)
{
    auto mixes = makeMixes(8, 20, 3);
    std::set<Intensity> seen;
    for (const auto &mix : mixes) {
        for (const auto &name : mix) {
            seen.insert(benchmarkByName(name).readClass);
        }
    }
    EXPECT_EQ(seen.size(), 3u);
}

TEST(Mixes, LabelJoinsNames)
{
    EXPECT_EQ(mixLabel({"a", "b"}), "a+b");
    EXPECT_EQ(mixLabel({"solo"}), "solo");
}

} // namespace
} // namespace dbsim
