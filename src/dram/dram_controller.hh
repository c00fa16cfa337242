/**
 * @file
 * Event-driven DDR3 memory controller: open-row policy, row-interleaved
 * address mapping, FR-FCFS read scheduling, and a drain-when-full write
 * buffer. This is the substrate whose row-buffer behaviour the DBI's
 * aggressive writeback optimization exploits: writes that drain to the
 * same open row cost one burst each, while scattered writes pay a full
 * precharge+activate per block.
 */

#ifndef DBSIM_DRAM_DRAM_CONTROLLER_HH
#define DBSIM_DRAM_DRAM_CONTROLLER_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/addr_map.hh"
#include "common/addr_table.hh"
#include "common/event_queue.hh"
#include "common/shard.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/dram_config.hh"
#include "mem/backing_port.hh"

namespace dbsim {

/** Aggregate energy figures derived from the controller's counters. */
struct DramEnergy
{
    double activatePj = 0.0;
    double readPj = 0.0;
    double writePj = 0.0;
    double backgroundPj = 0.0;

    double totalPj() const
    {
        return activatePj + readPj + writePj + backgroundPj;
    }
};

/**
 * Observer of the controller's write-drain windows (telemetry seam,
 * mirroring LlcAuditObserver). Notifications are synchronous, must not
 * re-enter the controller, and are strictly passive: an attached
 * observer changes no timing and no stats, so observed and unobserved
 * runs are cycle- and stat-identical.
 */
class DramObserver
{
  public:
    virtual ~DramObserver() = default;

    /** The write buffer filled and a drain window opened at `when`. */
    virtual void onDrainStart(Cycle when) = 0;

    /**
     * The drain window [start, end] closed after servicing `writes`
     * write bursts. end - start is exactly the amount credited to
     * statDrainCycles for this window.
     */
    virtual void onDrainEnd(Cycle start, Cycle end,
                            std::uint64_t writes) = 0;
};

/**
 * The memory controller: the terminal BackingPort of every hierarchy
 * composition. Reads complete through a callback carrying the
 * completion cycle; writes are fire-and-forget into the write buffer.
 *
 * Each read's callback is parked once, on arrival, in a recycled slot
 * array. The read and write queues hold 32-byte POD requests that name
 * the slot, so FR-FCFS picks and erases move no closures, and the
 * completion event carries only {controller, slot, cycle}.
 */
class DramController : public BackingPort
{
  public:
    using ReadCallback = BackingPort::ReadCallback;

    /**
     * @param context the shard this channel lives on. Implicitly
     *        constructible from a bare EventQueue& for unsharded use.
     */
    DramController(const DramConfig &config, ShardContext context);
    ~DramController() override = default;

    /** Enqueue a block read arriving at cycle `when`. */
    void enqueueRead(Addr block_addr, Cycle when, ReadCallback &&cb);

    /** Enqueue a block writeback arriving at cycle `when`. */
    void enqueueWrite(Addr block_addr, Cycle when);

    // -- BackingPort -----------------------------------------------------

    void
    read(Addr block_addr, Cycle when, ReadCallback cb) override
    {
        enqueueRead(block_addr, when, std::move(cb));
    }

    void
    write(Addr block_addr, Cycle when) override
    {
        enqueueWrite(block_addr, when);
    }

    /** Number of buffered (unserviced) writes. */
    std::size_t pendingWrites() const override { return writeQ.size(); }

    /** Number of waiting (unserviced) reads. */
    std::size_t pendingReads() const { return readQ.size(); }

    /**
     * Length of the parked-callback slot array. Slots are recycled, so
     * it never exceeds the peak number of reads in flight at once.
     */
    std::size_t callbackSlots() const { return cbSlots.size(); }

    /** True while a write drain is in progress. */
    bool draining() const override { return drainMode; }

    /** Attach (or detach, with nullptr) a passive drain observer. */
    void attachObserver(DramObserver *observer) { obs = observer; }

    const DramAddrMap &addrMap() const override { return map; }
    const DramConfig &config() const { return cfg; }

    /** Row hit rate over serviced reads since the last stat snapshot. */
    double readRowHitRate() const;

    /** Row hit rate over serviced writes since the last stat snapshot. */
    double writeRowHitRate() const;

    /** Energy consumed since the last stat snapshot, up to cycle now. */
    DramEnergy energySince(Cycle now) const;

    /** Register all counters on `set` for snapshot/collection. */
    void registerStats(StatSet &set);

    Counter statReads;
    Counter statWrites;
    Counter statReadRowHits;
    Counter statWriteRowHits;
    Counter statActivates;
    Counter statDrains;
    Counter statDrainCycles; ///< cycles spent in write-drain mode
    Counter statForwards;     ///< reads served from the write buffer
    Counter statCoalesced;    ///< writes merged into an existing entry

  private:
    /** A queued request, with its bank and row decoded at enqueue. */
    struct Request
    {
        Addr addr;
        Cycle arrive;
        std::uint32_t bank;
        std::uint32_t slot;  ///< a read's parked callback (cbSlots index)
        std::uint64_t row;   ///< global row id (DramAddrMap::rowId)
    };

    /** Bank::openRow of a precharged (closed) bank. */
    static constexpr std::uint64_t kClosedRow = ~std::uint64_t{0};

    struct Bank
    {
        std::uint64_t openRow = kClosedRow;
        Cycle rowReadyAt = 0;       ///< open row usable (post-tRCD)
        Cycle colCmdOkAt = 0;       ///< next column command (tCCD chain)
        Cycle prechargeOkAt = 0;    ///< earliest precharge (tWR/tRAS)
    };

    /** Ensure a service event is pending. */
    void scheduleService(Cycle when);

    /** Dispatch one request (called from the event queue). */
    void serviceNext();

    /** Close the current drain window and credit statDrainCycles. */
    void endDrain(Cycle now);

    /** A request for block-aligned `addr`, arriving at `arrive`. */
    Request decode(Addr addr, Cycle arrive, std::uint32_t slot = 0) const
    {
        return Request{addr, arrive, map.bank(addr), slot,
                       map.rowId(addr)};
    }

    /** Park a read's callback; returns its slot. */
    std::uint32_t park(ReadCallback &&cb);

    /** Schedule the completion of the read parked in `slot` at `done`. */
    void completeAt(std::uint32_t slot, Cycle done);

    /** FR-FCFS pick from a queue; returns index or -1 if empty. */
    int pickFrFcfs(const std::vector<Request> &q) const;

    /**
     * Issue one request to its bank; returns data-end cycle. Bank
     * preparation (precharge/activate) is modeled as starting at
     * req.arrive, while the request waited, so banks overlap bus
     * transfers.
     */
    Cycle issue(const Request &req, bool is_write, Cycle now);

    DramConfig cfg;
    EventQueue &eq;
    DramAddrMap map;

    std::vector<Bank> banks;
    Cycle busFreeAt = 0;
    bool lastWasWrite = false;

    /** Recent activate times (ring) enforcing tRRD and tFAW. */
    std::array<Cycle, 4> recentActivates{};
    std::uint32_t activateIdx = 0;
    std::uint64_t numActivates = 0;

    std::vector<Request> readQ;
    std::vector<Request> writeQ;

    /** Parked read callbacks, indexed by Request::slot. */
    std::vector<ReadCallback> cbSlots;
    /** Slots of cbSlots whose read has completed, free for reuse. */
    std::vector<std::uint32_t> freeSlots;

    /**
     * Addresses currently in writeQ (coalescing keeps them distinct).
     * Pure membership mirror so read-forwarding and write-coalescing
     * checks are O(1) instead of scanning the buffer; never iterated,
     * so it cannot perturb determinism.
     */
    AddrSet writeQAddrs;
    bool drainMode = false;
    Cycle drainStartAt = 0;
    std::uint64_t drainWrites = 0;  ///< writes serviced this window
    bool servicePending = false;
    DramObserver *obs = nullptr;
};

} // namespace dbsim

#endif // DBSIM_DRAM_DRAM_CONTROLLER_HH
