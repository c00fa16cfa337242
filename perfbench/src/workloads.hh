/**
 * @file
 * The benchmark's four workloads and the checks every run applies.
 *
 * A workload turns a seed into the simulator's inputs: a SystemConfig
 * and a WorkloadMix, plus (for trace_ff_sampled) a ChampSim trace file
 * generated from the seed. The simulator receives only those inputs.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace perfbench {

/** Everything one simulation needs, built from a seed. */
struct Inputs
{
    dbsim::SystemConfig cfg;
    dbsim::WorkloadMix mix;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** True for a name workloadNames() lists. */
bool isWorkload(const std::string &name);

/**
 * Build `name`'s inputs for `seed`. Workloads that replay a trace
 * write it to `trace_path` (which the caller owns and removes);
 * the others ignore it.
 */
Inputs makeInputs(const std::string &name, std::uint64_t seed,
                  const std::string &trace_path);

/**
 * Trace instructions the machine consumed: the detailed warmup +
 * measure budget of every core, plus each functionally warmed op
 * (counted as one instruction) when sampling is on.
 */
std::uint64_t instructionsConsumed(const dbsim::SystemConfig &cfg,
                                   std::uint64_t ops_warmed);

/**
 * Order-sensitive FNV-1a digest of a result's per-core IPCs (bit
 * patterns), every statistic, and the window length. Two runs of the
 * same simulation give the same digest.
 */
std::uint64_t digest(const dbsim::SimResult &r);

/**
 * The per-run correctness check: one finite, positive IPC per core,
 * and every core retired its measured-instruction budget. Returns an
 * empty string when the result passes, else what failed.
 */
std::string checkResult(const dbsim::SystemConfig &cfg,
                        const dbsim::SimResult &r);

/**
 * Runs attempted and failed in one benchmark run. Every result must
 * pass checkResult() and carry the digest of the first passing result
 * checked: all repeats of one workload and seed simulate the same
 * thing, whichever engine, worker count or decoration ran them.
 */
class RunChecks
{
  public:
    /** checkResult() plus the digest comparison; "" when both pass. */
    std::string check(const dbsim::SystemConfig &cfg,
                      const dbsim::SimResult &r);

    /** Count one attempt, failed when `error` is not empty. */
    void record(const char *what, const std::string &error);

    /** check() and record() in one. */
    void
    result(const dbsim::SystemConfig &cfg, const dbsim::SimResult &r,
           const char *what)
    {
        record(what, check(cfg, r));
    }

    /** True once a result has passed and fixed the digest. */
    bool haveDigest() const { return haveFirst; }

    /** The digest every result must carry (after haveDigest()). */
    std::uint64_t reference() const { return first; }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    std::uint64_t first = 0;
    bool haveFirst = false;
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
