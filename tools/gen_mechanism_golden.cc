/**
 * @file
 * Regenerates the golden snapshots (see tests/sim/golden_run.hh for
 * the run grids): with no argument, tests/sim/mechanism_golden.inc, the
 * stats every Table 2 preset must reproduce exactly on the monolithic
 * machine; with --sharded, tests/sim/sharded_golden.inc, the stats the
 * epoch engine must reproduce exactly on partitioned machines. Run from
 * the repo root:
 *
 *   cmake --build build --target gen_mechanism_golden
 *   build/tools/gen_mechanism_golden > tests/sim/mechanism_golden.inc
 *   build/tools/gen_mechanism_golden --sharded \
 *       > tests/sim/sharded_golden.inc
 *
 * Only regenerate a snapshot when an intentional behavior change is
 * being made; the point of the files is to freeze simulated behavior
 * across refactors of the mechanism plumbing and the engine.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/golden_run.hh"

using namespace dbsim;

int
main(int argc, char **argv)
{
    const bool sharded = argc > 1 && std::strcmp(argv[1], "--sharded") == 0;
    const std::vector<const std::vector<golden::GoldenRun> *> lists =
        sharded ? std::vector{&golden::shardedRuns(),
                              &golden::shardedVariantRuns()}
                : std::vector{&golden::goldenRuns()};
    std::string body;
    for (const auto *runs : lists) {
        for (const golden::GoldenRun &g : *runs) {
            body += golden::goldenSerialize(g.label, g.mix,
                                            runWorkload(g.cfg, g.mix));
        }
    }
    std::printf("// Generated by tools/gen_mechanism_golden.cc%s — "
                "do not edit by hand.\n"
                "// Frozen %s stats for the %s golden suite.\n"
                "static const char %s[] = R\"GOLDEN(\n%s"
                ")GOLDEN\";\n",
                sharded ? " --sharded" : "",
                sharded ? "partitioned-machine" : "per-preset",
                sharded ? "sharded" : "mechanism-equivalence",
                sharded ? "kShardedGolden" : "kMechanismGolden",
                body.c_str());
    return 0;
}
