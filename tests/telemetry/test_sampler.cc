/** @file Unit tests for the epoch StatSampler. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/stats.hh"
#include "telemetry/sampler.hh"
#include "support/temp_path.hh"

namespace dbsim::telemetry {
namespace {

TEST(StatSampler, ClosesEpochsOnGridCrossings)
{
    StatSampler s(100);
    int reads = 0;
    s.addGauge("g", [&reads] { return double(reads); });

    reads = 1;
    s.poll(50);  // inside epoch 0: nothing closes
    EXPECT_EQ(s.epochsClosed(), 0u);

    reads = 2;
    s.poll(100);  // boundary: epoch 0 closes with the current value
    ASSERT_EQ(s.epochsClosed(), 1u);
    EXPECT_EQ(s.ring()[0].start, 0u);
    EXPECT_EQ(s.ring()[0].end, 100u);
    EXPECT_DOUBLE_EQ(s.ring()[0].values[0], 2.0);
}

TEST(StatSampler, EventGapsSubsumeEmptyEpochs)
{
    // Event-driven time can jump several grid epochs at once; the next
    // sample covers the whole gap and the boundary resets forward.
    StatSampler s(100);
    s.addGauge("g", [] { return 1.0; });
    s.poll(350);
    ASSERT_EQ(s.epochsClosed(), 1u);
    EXPECT_EQ(s.ring()[0].start, 0u);
    EXPECT_EQ(s.ring()[0].end, 350u);
    s.poll(399);  // still inside the re-gridded epoch [350, 400)
    EXPECT_EQ(s.epochsClosed(), 1u);
    s.poll(400);
    EXPECT_EQ(s.epochsClosed(), 2u);
    EXPECT_EQ(s.ring()[1].start, 350u);
    EXPECT_EQ(s.ring()[1].end, 400u);
}

TEST(StatSampler, CounterChannelReportsPerEpochDeltas)
{
    StatSampler s(10);
    Counter c;
    c += 5;  // pre-registration counts never appear in epochs
    s.addCounter("c", c);
    c += 3;
    s.poll(10);
    c += 4;
    s.poll(20);
    ASSERT_EQ(s.epochsClosed(), 2u);
    EXPECT_DOUBLE_EQ(s.ring()[0].values[0], 3.0);
    EXPECT_DOUBLE_EQ(s.ring()[1].values[0], 4.0);
}

TEST(StatSampler, SamplingNeverTouchesCounterSnapshots)
{
    // The sampler keeps private last-value bookkeeping; the StatSet
    // measurement-window math must be unaffected by sampling.
    StatSampler s(10);
    Counter c;
    s.addCounter("c", c);
    c += 7;
    c.snapshot();
    c += 2;
    s.poll(10);
    s.poll(20);
    EXPECT_EQ(c.sinceSnapshot(), 2u);
    EXPECT_EQ(c.value(), 9u);
}

TEST(StatSampler, RateChannelDividesEpochDeltas)
{
    StatSampler s(10);
    Counter hits, total;
    s.addRate("rate", hits, total);
    hits += 1;
    total += 4;
    s.poll(10);
    s.poll(20);  // no movement: rate reports 0, not NaN
    hits += 3;
    total += 3;
    s.poll(30);
    ASSERT_EQ(s.epochsClosed(), 3u);
    EXPECT_DOUBLE_EQ(s.ring()[0].values[0], 0.25);
    EXPECT_DOUBLE_EQ(s.ring()[1].values[0], 0.0);
    EXPECT_DOUBLE_EQ(s.ring()[2].values[0], 1.0);
}

TEST(StatSampler, RingDropsOldestBeyondCapacity)
{
    StatSampler s(10, 3);
    s.addGauge("g", [] { return 0.0; });
    for (Cycle t = 10; t <= 60; t += 10) {
        s.poll(t);
    }
    EXPECT_EQ(s.epochsClosed(), 6u);
    ASSERT_EQ(s.ring().size(), 3u);
    EXPECT_EQ(s.ring().front().epoch, 3u);
    EXPECT_EQ(s.ring().back().epoch, 5u);
}

TEST(StatSampler, FinishClosesThePartialEpoch)
{
    StatSampler s(100);
    s.addGauge("g", [] { return 4.0; });
    s.poll(100);
    s.finish(130);  // partial [100, 130] epoch
    ASSERT_EQ(s.epochsClosed(), 2u);
    EXPECT_EQ(s.ring()[1].start, 100u);
    EXPECT_EQ(s.ring()[1].end, 130u);
}

TEST(StatSampler, FinishOnEmptyRunStillEmitsOneEpoch)
{
    StatSampler s(100);
    s.addGauge("g", [] { return 1.0; });
    s.finish(0);
    EXPECT_EQ(s.epochsClosed(), 1u);
}

TEST(StatSampler, JsonlStreamHasOneParseableRowPerEpoch)
{
    std::string path = test::tempPath("sampler_test.jsonl");
    {
        StatSampler s(10);
        s.openJsonl(path);
        Counter c;
        s.addCounter("dramReads", c);
        s.addGauge("depth", [] { return 2.5; });
        c += 6;
        s.poll(10);
        s.finish(15);
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    std::size_t rows = 0;
    while (std::getline(in, line)) {
        ++rows;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"epoch\":"), std::string::npos);
        EXPECT_NE(line.find("\"dramReads\":"), std::string::npos);
        EXPECT_NE(line.find("\"depth\":"), std::string::npos);
    }
    EXPECT_EQ(rows, 2u);
    std::remove(path.c_str());
}

TEST(StatSampler, ChannelNamesPreserveRegistrationOrder)
{
    StatSampler s(10);
    Counter c;
    s.addGauge("a", [] { return 0.0; });
    s.addCounter("b", c);
    s.addRate("c", c, c);
    std::vector<std::string> names = s.channelNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "b");
    EXPECT_EQ(names[2], "c");
}

} // namespace
} // namespace dbsim::telemetry
