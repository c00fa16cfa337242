/**
 * @file
 * ExperimentRunner integration tests. The core guarantee under test is
 * determinism by construction: the same SweepSpec and seed produce
 * bit-identical records (and JSONL lines) at --jobs 1 and --jobs 8;
 * parallelism changes completion order only, and the runner re-orders
 * records by point index before returning.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "support/temp_path.hh"

namespace dbsim::exp {
namespace {

SweepSpec
smallMixSweep()
{
    SystemConfig base;
    base.numCores = 2;
    base.core.warmupInstrs = 20'000;
    base.core.measureInstrs = 15'000;

    SweepSpec spec(base);
    for (Mechanism m : {Mechanism::Baseline, Mechanism::DbiAwbClb}) {
        spec.addMixSim(m, {"lbm", "libquantum"});
        spec.addMixSim(m, {"mcf", "bzip2"});
    }
    return spec;
}

std::vector<std::string>
runToJsonLines(const SweepSpec &spec, std::uint32_t jobs)
{
    RunOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    opts.experiment = "test";
    auto records = ExperimentRunner(opts).run(spec);

    std::vector<std::string> lines;
    lines.reserve(records.size());
    for (const auto &rec : records) {
        lines.push_back(rec.toJsonLine());
    }
    return lines;
}

TEST(ExperimentRunner, RecordsComeBackInSpecOrder)
{
    RunOptions opts;
    opts.jobs = 8;
    opts.progress = false;
    SweepSpec spec;
    for (int i = 0; i < 16; ++i) {
        spec.addCustom([i](PointRecord &rec) {
            rec.mechanism = "custom";
            rec.metrics["i"] = static_cast<double>(i);
        });
    }
    auto records = ExperimentRunner(opts).run(spec);
    ASSERT_EQ(records.size(), 16u);
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].index, i);
        EXPECT_DOUBLE_EQ(records[i].metric("i"),
                         static_cast<double>(i));
    }
}

TEST(ExperimentRunner, ParallelRunIsBitIdenticalToSerial)
{
    auto serial = runToJsonLines(smallMixSweep(), 1);
    auto parallel = runToJsonLines(smallMixSweep(), 8);
    // Records are index-ordered on return, so this is exact equality,
    // not equality modulo ordering.
    EXPECT_EQ(serial, parallel);
}

TEST(ExperimentRunner, MixSimRecordsCarryMulticoreMetrics)
{
    RunOptions opts;
    opts.progress = false;
    auto records = ExperimentRunner(opts).run(smallMixSweep());
    ASSERT_EQ(records.size(), 4u);
    for (const auto &rec : records) {
        EXPECT_GT(rec.metric("weightedSpeedup"), 0.0);
        EXPECT_GT(rec.metric("harmonicSpeedup"), 0.0);
        EXPECT_GT(rec.metric("instructionThroughput"), 0.0);
        EXPECT_GT(rec.metric("maxSlowdown"), 0.0);
        EXPECT_GT(rec.metric("aloneIpc0"), 0.0);
        EXPECT_GT(rec.metric("aloneIpc1"), 0.0);
        EXPECT_FALSE(rec.mechanism.empty());
        EXPECT_FALSE(rec.mix.empty());
    }
    // Same mix, same alone IPCs regardless of mechanism.
    EXPECT_EQ(records[0].metric("aloneIpc0"),
              records[2].metric("aloneIpc0"));
}

TEST(ExperimentRunner, JsonlSinkStreamsEveryRecord)
{
    std::string path = test::tempPath("dbsim_runner_test.jsonl");
    std::remove(path.c_str());

    RunOptions opts;
    opts.jobs = 4;
    opts.progress = false;
    opts.jsonlPath = path;
    opts.experiment = "sink_test";
    auto records = ExperimentRunner(opts).run(smallMixSweep());

    std::vector<std::string> file_lines;
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    while (std::getline(in, line)) {
        file_lines.push_back(line);
    }
    std::remove(path.c_str());

    // The file streams records in completion order; sorted, it must
    // match the returned records exactly.
    std::vector<std::string> expected;
    for (const auto &rec : records) {
        EXPECT_EQ(rec.experiment, "sink_test");
        expected.push_back(rec.toJsonLine());
    }
    std::sort(expected.begin(), expected.end());
    std::sort(file_lines.begin(), file_lines.end());
    EXPECT_EQ(file_lines, expected);
}

TEST(ExperimentRunner, CustomPointTagsSurviveIntoRecords)
{
    RunOptions opts;
    opts.progress = false;
    SweepSpec spec;
    auto &pt = spec.addCustom(
        [](PointRecord &rec) { rec.metrics["x"] = 1.0; });
    pt.tags["axis"] = "value";
    auto records = ExperimentRunner(opts).run(spec);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].tags.at("axis"), "value");
}

} // namespace
} // namespace dbsim::exp
