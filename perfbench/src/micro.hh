/**
 * @file
 * Isolated ns/op figures for the structures on the hot path, each built
 * at the workload's own LLC/DBI/DRAM geometry (per slice and channel on
 * sharded machines) and driven through its public interface with
 * addresses drawn from the run's seed.
 */

#ifndef PERFBENCH_MICRO_HH
#define PERFBENCH_MICRO_HH

#include <cstdint>

#include "sim/system.hh"

namespace perfbench {

struct MicroResults
{
    double cacheFindNs = 0;       ///< TagStore::find, ~half hits
    double cacheInsertNs = 0;     ///< TagStore::insert into a full cache
    double dbiSetDirtyNs = 0;     ///< Dbi::setDirty in steady state
    double dbiRowQueryNs = 0;     ///< Dbi::dirtyBlocksInRegion
    double eqScheduleStepNs = 0;  ///< EventQueue::schedule + step
    double dramRequestNs = 0;     ///< DramController request, enqueue
                                  ///< to completion (3 reads : 1 write)
};

MicroResults runMicros(const dbsim::SystemConfig &cfg, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_MICRO_HH
