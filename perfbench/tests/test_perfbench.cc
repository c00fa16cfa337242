/**
 * @file
 * Tests of the benchmark's own machinery, on shortened versions of its
 * workloads:
 *  - the timing decorators are transparent: the decorated machine, the
 *    undecorated assembled machine and System give identical results
 *    and event counts, and decorated call counts repeat exactly;
 *  - the correctness checks flag a perturbed run.
 *
 * Usage: perfbench_tests [trace-dir]   (exit status 0 when all pass)
 */

#include <unistd.h>

#include <cstdio>
#include <string>

#include "machine.hh"
#include "tracer.hh"
#include "workloads.hh"

using namespace dbsim;
using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) {
        ++failures;
    }
}

/** A workload's inputs, shortened so a test runs in about a second. */
Inputs
shortInputs(const std::string &name, std::uint64_t seed,
            const std::string &trace_path)
{
    Inputs in = makeInputs(name, seed, trace_path);
    in.cfg.core.warmupInstrs = 50'000;
    in.cfg.core.measureInstrs = 100'000;
    if (in.cfg.sampling.enabled()) {
        in.cfg.sampling.ffOps = 100'000;
    }
    return in;
}

void
testDecoratorsAreTransparent(const std::string &name,
                             const std::string &trace_path)
{
    const Inputs in = shortInputs(name, 7, trace_path);
    System sys(in.cfg, in.mix);
    const SimResult ref = sys.run();

    const MachineRun plain = runAssembled(in, nullptr);
    Tracer t1;
    const MachineRun traced = runAssembled(in, &t1);
    Tracer t2;
    const MachineRun again = runAssembled(in, &t2);

    expect(plain.result.stats == ref.stats &&
               plain.result.ipc == ref.ipc &&
               plain.events == sys.eventsDispatched(),
           name + ": assembled machine reproduces System");
    expect(traced.result.stats == plain.result.stats &&
               traced.result.ipc == plain.result.ipc &&
               traced.result.windowCycles == plain.result.windowCycles &&
               traced.events == plain.events,
           name + ": decorated and undecorated machines agree");
    expect(digest(traced.result) == digest(ref),
           name + ": digests agree");

    bool same_counts = true;
    for (std::size_t l = 0; l < kLayers; ++l) {
        same_counts &= t1[static_cast<Layer>(l)].calls ==
                       t2[static_cast<Layer>(l)].calls;
    }
    expect(same_counts, name + ": decorated call counts repeat exactly");
    expect(t1[Layer::LlcRead].calls > 0 && t1[Layer::DirtyStore].calls > 0 &&
               t1[Layer::DramRead].calls > 0 &&
               t1[Layer::EqStep].calls == traced.events + 1,
           name + ": decorators saw the traffic");
}

void
testChecksFlagPerturbedRuns(const std::string &trace_path)
{
    const Inputs in = shortInputs("baseline_mcf_1c", 1, trace_path);
    const SimResult r1 = System(in.cfg, in.mix).run();
    const SimResult r1_again = System(in.cfg, in.mix).run();
    const Inputs other = shortInputs("baseline_mcf_1c", 2, trace_path);
    const SimResult r2 = System(other.cfg, other.mix).run();

    RunChecks checks;
    checks.result(in.cfg, r1, "seed 1");
    checks.result(in.cfg, r1_again, "seed 1 again");
    expect(checks.failed == 0, "identical repeats pass");
    checks.result(other.cfg, r2, "seed 2");
    expect(checks.attempted == 3 && checks.failed == 1,
           "a different seed fails the digest check");

    SimResult bad_ipc = r1;
    bad_ipc.ipc[0] = 0.0;
    expect(!checkResult(in.cfg, bad_ipc).empty(),
           "a zero IPC fails the result check");
    SimResult short_run = r1;
    short_run.totalInstrs -= 1;
    expect(!checkResult(in.cfg, short_run).empty(),
           "a missed instruction budget fails the result check");
    SimResult missing_core = r1;
    missing_core.ipc.push_back(1.0);
    expect(!checkResult(in.cfg, missing_core).empty(),
           "a wrong core count fails the result check");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string dir = argc > 1 ? argv[1] : ".";
    const std::string trace_path =
        dir + "/perfbench_tests_" + std::to_string(getpid()) + ".champsim";
    for (const char *name :
         {"paper_dbi_2c", "baseline_mcf_1c", "trace_ff_sampled"}) {
        testDecoratorsAreTransparent(name, trace_path);
    }
    testChecksFlagPerturbedRuns(trace_path);
    std::remove(trace_path.c_str());
    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}
