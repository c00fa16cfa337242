/**
 * @file
 * Trace-driven out-of-order core model (Table 1: single issue, 128-entry
 * instruction window, 32 MSHRs). The model tracks per-instruction issue
 * and retire times with a ROB-occupancy ring buffer: instruction i can
 * issue only once instruction i-ROB has retired, loads complete when the
 * memory hierarchy answers, and retirement is in-order at one
 * instruction per cycle. This exposes exactly the stall behaviour the
 * paper's memory-system optimizations act on — the window filling up
 * behind long-latency misses — at event-driven speed.
 *
 * Cores run ahead of global simulated time by at most a slack window and
 * then yield to the event queue, so multi-core contention at the shared
 * LLC and DRAM is observed in near time order.
 */

#ifndef DBSIM_CPU_CORE_HH
#define DBSIM_CPU_CORE_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/event_queue.hh"
#include "common/shard.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/core_memory.hh"
#include "cpu/trace.hh"

namespace dbsim {

/** Core model parameters. */
struct CoreConfig
{
    std::uint32_t robSize = 128;
    std::uint32_t mshrs = 32;
    Cycle slack = 2000;          ///< max run-ahead beyond global time
    std::uint64_t warmupInstrs = 500'000;
    std::uint64_t measureInstrs = 2'000'000;

    /**
     * A core that finishes its measurement window keeps executing (to
     * keep contending for shared resources) until it has retired this
     * multiple of its target, then idles. 0 = run forever (exact
     * methodology, but slow when per-core IPCs differ widely).
     */
    std::uint32_t maxOverrun = 3;
};

/**
 * One simulated core. Drives its trace through the memory hierarchy and
 * reports IPC over the measurement window. A load's completion is named
 * by its instruction index: the core hands that tag to CoreMemory and
 * receives every fill back through its CoreMemory::Client hook.
 */
class Core : private CoreMemory::Client
{
  public:
    /** (core_id, warmed: crossed warmup / done: finished measuring) */
    using MilestoneFn = std::function<void(std::uint32_t)>;

    /**
     * @param context the shard the core executes on (implicitly a bare
     *        EventQueue& for unsharded use); its private hierarchy's
     *        LlcPort decides where accesses actually go.
     */
    Core(std::uint32_t core_id, const CoreConfig &config,
         TraceSource &trace_source, CoreMemory &memory,
         ShardContext context);

    // The memory hierarchy and the event queue hold this core's address.
    Core(const Core &) = delete;
    Core &operator=(const Core &) = delete;

    /** Schedule the core's first work at cycle 0. */
    void start();

    /** Invoked once when the core crosses its warmup boundary. */
    void onWarmed(MilestoneFn fn) { warmedFn = std::move(fn); }

    /** Invoked once when the core finishes its measurement window. */
    void onDone(MilestoneFn fn) { doneFn = std::move(fn); }

    /** Stop issuing new instructions (simulation shutdown). */
    void halt() { halted = true; }

    bool done() const { return doneAt != kCycleMax; }

    /** Measured IPC; valid once done(). */
    double ipc() const;

    /** Retired instructions in the measurement window. */
    std::uint64_t measuredInstrs() const { return cfg.measureInstrs; }

    /** Cycles spent in the measurement window; valid once done(). */
    Cycle measuredCycles() const { return doneAt - warmedAt; }

    std::uint32_t id() const { return coreId; }

  private:
    /** Issue instructions until blocked, out of slack, or halted. */
    void runAhead();

    /** Resolve retire times for instructions whose completion arrived. */
    void advanceResolution();

    /** A pending memory access completed at cycle c. */
    void memoryDone(std::uint64_t instr_idx, Cycle c);

    /** CoreMemory::Client: complete the fill's loads, then resume. */
    void fillDone(std::span<const CoreMemory::Waiter> waiters,
                  Cycle when) override;

    std::uint32_t coreId;
    CoreConfig cfg;
    TraceSource &trace;
    CoreMemory &mem;
    EventQueue &eq;

    // Ring buffers indexed by instruction number % robSize.
    std::vector<Cycle> completion;  ///< kCycleMax while pending
    std::vector<Cycle> retireTime;

    std::uint64_t nextIssue = 0;     ///< next instruction number to issue
    std::uint64_t resolvedUpTo = 0;  ///< all earlier retire times final
    std::uint32_t nextIssueSlot = 0;    ///< nextIssue % robSize
    std::uint32_t resolvedSlot = 0;     ///< resolvedUpTo % robSize
    std::uint64_t doneTarget = 0;       ///< warmupInstrs + measureInstrs
    std::uint64_t haltTarget = 0;       ///< overrun bound; 0 = none
    Cycle lastIssueCycle = 0;
    Cycle lastRetireCycle = 0;

    /** Completion of the most recent memory op (kCycleMax = pending). */
    Cycle lastMemCompletion = 0;
    std::uint64_t lastMemIdx = 0;

    // Current trace record being expanded.
    TraceOp curOp{0, false, false, 0};
    std::uint32_t gapLeft = 0;
    bool opPending = false;  ///< curOp's memory access not yet issued

    bool blocked = false;    ///< waiting on a memory completion
    bool yielded = false;    ///< continuation event is scheduled
    bool halted = false;
    bool started = false;

    Cycle warmedAt = kCycleMax;
    Cycle doneAt = kCycleMax;
    MilestoneFn warmedFn;
    MilestoneFn doneFn;
};

} // namespace dbsim

#endif // DBSIM_CPU_CORE_HH
