/**
 * @file
 * The composable memory-hierarchy seam: everything below a cache level
 * is a BackingPort. A port accepts block reads (completing through a
 * callback with the completion cycle) and fire-and-forget block writes,
 * exposes the machine-wide DRAM address map, and reports write-drain
 * pressure for observers.
 *
 * The read callback is the one closure of a memory read. Levels pass it
 * down by move; the terminal DramController parks it once in a slot
 * array and queues only POD requests that name the slot.
 *
 * Implementations form a chain:
 *
 *   Llc slice --> [DramCache] --> [ShardMemRouter] --> DramController
 *
 * DramController is the terminal level (backing DDR). ShardMemRouter
 * (sim/system.cc) dispatches each block to the channel owning it,
 * crossing shards through the fabric. DramCache (src/dcache) is an
 * interposed die-stacked level that filters traffic before it reaches
 * the router/controller. The LLC neither knows nor cares which chain it
 * sits on: every composition goes through this interface, so interposing
 * a level is pure wiring in System's constructor.
 */

#ifndef DBSIM_MEM_BACKING_PORT_HH
#define DBSIM_MEM_BACKING_PORT_HH

#include <cstddef>
#include <functional>

#include "common/addr_map.hh"
#include "common/types.hh"

namespace dbsim {

class BackingPort
{
  public:
    using ReadCallback = std::function<void(Cycle)>;

    virtual ~BackingPort() = default;

    /** Block read arriving at cycle `when`; cb fires at completion. */
    virtual void read(Addr block_addr, Cycle when, ReadCallback cb) = 0;

    /** Block write (writeback) arriving at cycle `when`. */
    virtual void write(Addr block_addr, Cycle when) = 0;

    /**
     * Zero-time functional access for fast-forward warming. Stateful
     * interposed levels (the DRAM cache) mirror the state change the
     * timed path would make, quietly; stateless levels (controllers,
     * routers — DRAM rows carry no warmable state worth modeling) keep
     * this default no-op.
     */
    virtual void functionalAccess(Addr block_addr, bool is_write)
    {
        (void)block_addr;
        (void)is_write;
    }

    /**
     * The machine's DRAM address map. The map is machine-wide (identical
     * for every channel), so any level of the chain can answer with its
     * terminal controller's copy.
     */
    virtual const DramAddrMap &addrMap() const = 0;

    // -- Drain hooks: write-pressure observability for telemetry and
    //    policies. Interposed levels report their own buffering; pure
    //    routers report nothing (per-channel state stays per-channel).

    /** Buffered (unserviced) writes held at this level. */
    virtual std::size_t pendingWrites() const { return 0; }

    /** True while this level is draining its write buffer. */
    virtual bool draining() const { return false; }
};

} // namespace dbsim

#endif // DBSIM_MEM_BACKING_PORT_HH
