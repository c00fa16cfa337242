/**
 * @file
 * Partitioned-machine golden suite: every Table 2 preset on three
 * four-core mixes at 4 LLC slices x 4 DRAM channels, plus asymmetric
 * slice/channel machines, other hop latencies and the DRAM-cache tier,
 * must reproduce the frozen snapshot in tests/sim/sharded_golden.inc
 * bit for bit — IPCs and derived metrics at %.17g, every registered
 * counter at full width. The snapshot was captured from the threaded
 * epoch engine, whose 1-worker and N-worker runs were proven identical
 * over this matrix; the epoch engine (common/shard.hh) must keep
 * reproducing it. Regenerate it only for an intentional behavior
 * change, via `gen_mechanism_golden --sharded`.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "sim/golden_run.hh"

#include "sim/sharded_golden.inc"

namespace dbsim {
namespace {

/** Run `g` and expect its serialized result to match the snapshot. */
SimResult
expectSnapshot(const golden::GoldenRun &g)
{
    static const std::map<std::string, std::string> blocks =
        golden::goldenBlocks(kShardedGolden);
    const SimResult r = runWorkload(g.cfg, g.mix);
    const std::string key = golden::goldenKey(g.label, g.mix);
    auto it = blocks.find(key);
    EXPECT_NE(it, blocks.end()) << "no golden block for " << key;
    if (it != blocks.end()) {
        EXPECT_EQ(golden::goldenSerialize(g.label, g.mix, r), it->second);
    }
    return r;
}

/** The variant run labelled `label`. */
const golden::GoldenRun &
variant(const std::string &label)
{
    for (const golden::GoldenRun &g : golden::shardedVariantRuns()) {
        if (g.label == label) {
            return g;
        }
    }
    ADD_FAILURE() << "no variant run " << label;
    return golden::shardedVariantRuns().front();
}

class ShardedGolden : public testing::TestWithParam<std::size_t>
{};

TEST_P(ShardedGolden, ReproducesSnapshotExactly)
{
    expectSnapshot(golden::shardedRuns()[GetParam()]);
}

INSTANTIATE_TEST_SUITE_P(
    Partitioned, ShardedGolden,
    testing::Range<std::size_t>(0, golden::shardedRuns().size()),
    [](const testing::TestParamInfo<std::size_t> &info) {
        return golden::goldenTestName(golden::shardedRuns()[info.param]);
    });

TEST(ShardedGolden, SnapshotCoversEveryRun)
{
    const auto blocks = golden::goldenBlocks(kShardedGolden);
    EXPECT_EQ(blocks.size(), golden::shardedRuns().size() +
                                 golden::shardedVariantRuns().size());
    for (const auto *runs :
         {&golden::shardedRuns(), &golden::shardedVariantRuns()}) {
        for (const golden::GoldenRun &g : *runs) {
            EXPECT_TRUE(blocks.count(golden::goldenKey(g.label, g.mix)))
                << g.label;
        }
    }
}

TEST(ShardIdentity, AsymmetricSliceChannelMachinesAgree)
{
    // Slices != channels: partitions follow the larger axis, some
    // shards own a slice but no channel — the routing asymmetry the
    // mailbox has to get right in both directions.
    for (const char *label : {"DBI 4s2ch", "DBI 2s4ch"}) {
        const golden::GoldenRun &g = variant(label);
        EXPECT_EQ(g.cfg.topology().partitions, 4u) << label;
        expectSnapshot(g);
    }
}

TEST(ShardIdentity, ShardedRunsAreDeterministicAcrossRepeats)
{
    // Same config, two runs: results and the dispatched-event count
    // must not depend on anything outside the simulation.
    const golden::GoldenRun &g = golden::shardedRuns()[0];
    System a(g.cfg, g.mix);
    const SimResult ra = a.run();
    System b(g.cfg, g.mix);
    const SimResult rb = b.run();
    EXPECT_EQ(golden::goldenSerialize(g.label, g.mix, ra),
              golden::goldenSerialize(g.label, g.mix, rb));
    EXPECT_EQ(ra.telemetry, rb.telemetry);
    EXPECT_EQ(ra.metadata, rb.metadata);
    EXPECT_EQ(a.eventsDispatched(), b.eventsDispatched());
}

TEST(ShardIdentity, HopLatencyChangesStatsButNotIdentity)
{
    // The hop is part of the simulated machine: varying it must change
    // results (it's a real latency), while every value — including the
    // minimum W=1, where the epoch engine degenerates to near-lockstep
    // — still reproduces its snapshot.
    const SimResult base = runWorkload(
        golden::shardedConfig(Mechanism::TaDip), golden::shardedMixes()[0]);
    for (const char *label : {"TA-DIP hop1", "TA-DIP hop16",
                              "TA-DIP hop128"}) {
        const SimResult r = expectSnapshot(variant(label));
        EXPECT_NE(r.windowCycles, base.windowCycles)
            << label << ": hop latency should be a real simulated latency";
    }
}

TEST(ShardIdentity, DCacheTierMatchesSnapshotInBothModes)
{
    // The interposed DRAM-cache level adds per-slice state below the
    // LLC (and, in index mode, a second DBI-style structure).
    for (const char *label : {"DBI dcache-index", "DBI dcache-tags"}) {
        const SimResult r = expectSnapshot(variant(label));
        EXPECT_GT(r.stats.at("dcache.reads"), 0u) << label;
    }
}

} // namespace
} // namespace dbsim
