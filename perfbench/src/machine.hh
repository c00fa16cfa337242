/**
 * @file
 * The traced run's machine: the single-partition System assembled from
 * the simulator's public constructors, wired and seeded the way
 * System's constructor wires and seeds it, and driven one
 * EventQueue::step() at a time. With a Tracer every decorated interface
 * (tracer.hh) is timed; without one it is the plain composition, which
 * the benchmark's tests use as the reference.
 */

#ifndef PERFBENCH_MACHINE_HH
#define PERFBENCH_MACHINE_HH

#include <cstdint>

#include "sim/system.hh"
#include "tracer.hh"
#include "workloads.hh"

namespace perfbench {

struct MachineRun
{
    /** Filled like System::run() fills it: ipc, stats, totalInstrs,
     *  windowCycles (the fields digest() reads). */
    dbsim::SimResult result;
    std::uint64_t events = 0;     ///< EventQueue::dispatched()
    std::uint64_t opsWarmed = 0;  ///< functionally warmed ops, all cores
    double runSeconds = 0.0;      ///< host wall time of the step loop
};

/**
 * Build and run `in`'s machine. Supports the shapes the single-
 * partition workloads use (one LLC slice, one DRAM channel, no DRAM
 * cache, no metadata attachments, no auditor, no telemetry) and fails
 * with fatal() on any other.
 */
MachineRun runAssembled(const Inputs &in, Tracer *tracer);

} // namespace perfbench

#endif // PERFBENCH_MACHINE_HH
