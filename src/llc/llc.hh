/**
 * @file
 * Shared last-level cache. Models the structure the paper's mechanisms
 * all modify: a set-associative tag store with serial tag+data access,
 * a single tag port whose contention is first-class (every lookup —
 * demand, writeback, or sweep — occupies it), TA-DIP/LRU/DRRIP
 * insertion, and a connection to backing memory through a BackingPort.
 *
 * The Llc is one concrete class composed from three policy components
 * (llc/policies.hh): a DirtyStore (where dirty metadata lives), a
 * WritebackPolicy (what a dirty eviction triggers), and a LookupPolicy
 * (whether reads may bypass the tag lookup). Table 2's mechanisms are
 * preset tuples over these axes (sim/mechanism.hh); arbitrary
 * combinations compose the same way. Additional per-block metadata
 * subsystems (hetero-ECC, the coherence directory) observe the block
 * lifecycle through the MetadataIndex seam (llc/metadata_index.hh).
 */

#ifndef DBSIM_LLC_LLC_HH
#define DBSIM_LLC_LLC_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cache/tag_store.hh"
#include "common/addr_table.hh"
#include "common/event_queue.hh"
#include "common/shard.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/backing_port.hh"
#include "llc/metadata_index.hh"
#include "llc/policies.hh"
#include "telemetry/telemetry.hh"

namespace dbsim {

/** Shared LLC parameters (Table 1). */
struct LlcConfig
{
    std::uint64_t sizeBytes = 2ull << 20;
    std::uint32_t assoc = 16;
    ReplPolicy repl = ReplPolicy::TaDip;
    std::uint32_t tagLatency = 10;   ///< serial tag access
    std::uint32_t dataLatency = 24;  ///< data access after tag
    std::uint32_t numCores = 1;
    std::uint64_t seed = 11;
};

/**
 * Observer of the LLC's dirty-state transitions (src/audit). The four
 * events below are the complete set of places a block's dirtiness or
 * residency can change; every policy composition reports through them,
 * which is what lets a shadow model replay ground truth alongside any
 * mechanism. Notifications are synchronous and must not re-enter the
 * LLC. operationEnd() fires when one externally-initiated operation
 * (writeback, fill completion, flush) has fully settled — the only
 * points where cross-structure invariants are required to hold.
 */
class LlcAuditObserver
{
  public:
    virtual ~LlcAuditObserver() = default;

    /** A writeback request carried new data into the LLC. */
    virtual void onWritebackIn(Addr block_addr, Cycle when) = 0;

    /** A block was filled (or found resident) with this dirty state. */
    virtual void onFill(Addr block_addr, bool dirty, Cycle when) = 0;

    /** A block was displaced, after the mechanism handled it. */
    virtual void onEviction(Addr block_addr, Cycle when) = 0;

    /** A block's data was written back to memory (it becomes clean). */
    virtual void onWbToDram(Addr block_addr, Cycle when) = 0;

    /** One LLC operation finished; internal state is consistent. */
    virtual void onOperationEnd() = 0;
};

/**
 * What the private cache levels see of the level below them: a demand
 * read that completes through a callback, and a fire-and-forget
 * writeback. An Llc is an LlcPort; on sliced machines the cores talk
 * to a router implementing the same interface that forwards each
 * access to the owning slice (possibly across shards).
 *
 * The read's callback is the one closure of an LLC access: CoreMemory
 * builds it per MSHR (not per load) and captures only {this, block},
 * so it fits std::function's inline buffer. It stays a closure, not a
 * token, because decorators (routers, perfbench's timers) wrap it.
 */
class LlcPort
{
  public:
    using Callback = std::function<void(Cycle)>;

    virtual ~LlcPort() = default;

    /** Demand read from core `core` arriving at cycle `when`. */
    virtual void read(Addr block_addr, std::uint32_t core, Cycle when,
                      Callback cb) = 0;

    /** Writeback request from a private L2 arriving at cycle `when`. */
    virtual void writeback(Addr block_addr, std::uint32_t core,
                           Cycle when) = 0;

    /**
     * Zero-time functional access for fast-forward warming: update the
     * level's tag/dirty/replacement/predictor state with no events, no
     * port contention, and no registered-counter traffic. Both kinds
     * are demand accesses (allocate-on-miss, train the predictor);
     * `is_write` additionally dirties the block, standing in for the
     * writeback the unwarmed private levels would eventually deliver.
     * Routers forward to the owning slice directly — never through the
     * fabric.
     */
    virtual void functionalAccess(Addr block_addr, std::uint32_t core,
                                  bool is_write) = 0;
};

/**
 * The shared LLC. Reads complete through a callback with the
 * completion cycle; writebacks from the private levels are
 * fire-and-forget. Policy components act on the cache through the
 * public surface below (occupyPort/fillBlock/writebackToDram/...), so
 * every port-arbitration, stat, audit, and telemetry side effect flows
 * through a single point regardless of composition.
 */
class Llc : public LlcPort
{
  public:
    using Callback = std::function<void(Cycle)>;

    /**
     * Compose a cache from policy components. Defaults (nullptr) give
     * the conventional writeback cache: in-tag dirty bits, evict-order
     * writebacks, no bypassing. Policies are bound to this cache here
     * and must be freshly constructed (not shared between caches).
     * `backing_port` is the level below this slice — a DramController
     * on single-channel machines, a ShardMemRouter on multi-channel
     * ones, or a DramCache interposed in front of either. The caller
     * keeps ownership and the port must outlive the cache.
     */
    Llc(const LlcConfig &config, BackingPort &backing_port,
        ShardContext context,
        std::unique_ptr<DirtyStore> dirty_store = nullptr,
        std::unique_ptr<WritebackPolicy> writeback_policy = nullptr,
        std::unique_ptr<LookupPolicy> lookup_policy = nullptr);
    ~Llc() override = default;

    /** Demand read from core `core` arriving at cycle `when`. */
    void read(Addr block_addr, std::uint32_t core, Cycle when,
              Callback cb) override;

    /**
     * Writeback request from a private L2 (Section 2.2.2). Accounts the
     * request and notifies the attached auditor before and after the
     * DirtyStore's writebackIn() so every composition is observable the
     * same way.
     */
    void writeback(Addr block_addr, std::uint32_t core,
                   Cycle when) override;

    /**
     * Functional-warming access (see LlcPort). Final cache/DBI state
     * matches what the timed path would produce for the same request,
     * with documented estimator exceptions: no WritebackPolicy sweeps
     * run (their proactive writebacks are a timing optimization), and
     * metadata indexes are not notified (their counters are registered
     * statistics, which warming must never move). The auditor and the
     * miss predictor ARE kept in the loop — the shadow model must track
     * warmed state, and predictor training is the point of warming.
     */
    void functionalAccess(Addr block_addr, std::uint32_t core,
                          bool is_write) override;

    /**
     * Attach (or detach, with nullptr) a dirty-state observer. The
     * observer is passive: it adds no cycles and changes no stats, so
     * audited and unaudited runs are timing-identical.
     */
    void attachAuditor(LlcAuditObserver *observer) { auditor = observer; }

    /**
     * Attach (or detach, with nullptr) the telemetry sink. Like the
     * auditor, the sink is passive: hooks record latencies and trace
     * events into telemetry-private structures without touching
     * counters, cycles, or replacement state, so instrumented and
     * plain runs are cycle- and stat-identical. Hook sites compile
     * away entirely when DBSIM_TELEMETRY is off.
     */
    void attachTelemetry(telemetry::SimTelemetry *sink) { telem = sink; }

    /**
     * Attach a metadata subsystem (hetero-ECC tracker, coherence
     * directory). Indexes are passive observers of the block lifecycle
     * — they must not perturb the cache's timing or statistics — and
     * are notified in attachment order. The caller keeps ownership.
     */
    void attachMetadata(MetadataIndex *index);

    /** Outcome of a flush or DMA-coherence operation (Section 7). */
    struct RegionOpResult
    {
        std::uint64_t lookups = 0;     ///< tag/DBI accesses spent
        std::uint64_t writebacks = 0;  ///< dirty blocks written back
        bool anyDirty = false;         ///< region had dirty blocks
    };

    /**
     * Flush a byte range: write back (and clean) every dirty block in
     * [base, base+bytes). Conventional organizations must look up every
     * block of the range in the tag store; the DBI organization answers
     * from its compact per-row dirty vectors (Section 7, "Cache
     * Flushing"). Blocks stay resident.
     */
    RegionOpResult flushRegion(Addr base, std::uint64_t bytes, Cycle when);

    /**
     * DMA coherence query (Section 7, "Direct Memory Access"): does the
     * byte range contain any dirty block? Read-only; reports the lookup
     * cost the query incurred.
     */
    RegionOpResult queryRegionDirty(Addr base, std::uint64_t bytes);

    const LlcConfig &config() const { return cfg; }
    TagStore &tags() { return store; }
    const TagStore &tags() const { return store; }

    /** The shard this slice lives on. */
    const ShardContext &context() const { return ctx; }

    /** The level below this slice. */
    BackingPort &backingPort() { return backing; }

    /**
     * Issue a block read to memory through the backing port. Every
     * memory read in every composition goes through here.
     */
    void
    dramRead(Addr block_addr, Cycle when, BackingPort::ReadCallback &&cb)
    {
        backing.read(block_addr, when, std::move(cb));
    }

    /** Issue a block write to memory through the backing port. */
    void
    dramWrite(Addr block_addr, Cycle when)
    {
        backing.write(block_addr, when);
    }

    /**
     * The machine's DRAM address map, as reported by the backing port
     * (the map is machine-wide, identical at every level and channel).
     */
    const DramAddrMap &addrMap() const { return backing.addrMap(); }

    DirtyStore &dirtyStore() { return *dirtyStorePtr; }
    const DirtyStore &dirtyStore() const { return *dirtyStorePtr; }
    WritebackPolicy &writebackPolicy() { return *wbPolicy; }
    LookupPolicy &lookupPolicy() { return *lookupPol; }

    /** The DBI, if the dirty store is DBI-backed (else nullptr). */
    Dbi *dbiIndex() { return dirtyStorePtr->dbiIndex(); }
    const Dbi *dbiIndex() const { return dirtyStorePtr->dbiIndex(); }

    /** Register counters for snapshotting. */
    void registerStats(StatSet &set);

    /** Sanity checks on internal invariants (debug/test aid). */
    void checkInvariants() const { dirtyStorePtr->checkInvariants(); }

    // -- Surface used by policy components ----------------------------

    /**
     * Arbitrate for the tag port at cycle `when` and account one lookup.
     * @return the cycle the lookup begins.
     */
    Cycle occupyPort(Cycle when);

    /**
     * Send one block's data to memory: enqueue the DRAM write, account
     * it, and notify the auditor. Every writeback-to-memory in every
     * composition must go through here — it is the single point where a
     * block's latest data reaches DRAM.
     */
    void writebackToDram(Addr block_addr, Cycle when);

    /**
     * Fill a block from memory: allocateBlock(), and if the block was
     * already resident, promote it and merge `dirty` into it.
     */
    void fillBlock(Addr block_addr, std::uint32_t core, bool dirty,
                   Cycle when);

    /**
     * Insert a block if absent, in one scan of its set, routing any
     * displaced victim through the eviction sequence (DirtyStore,
     * WritebackPolicy, auditor, metadata indexes).
     * @return the slot of an already-resident block, untouched (the
     *         caller decides whether a hit promotes or dirties it), or
     *         TagStore::kNoSlot when the block was inserted.
     */
    TagStore::Slot allocateBlock(Addr block_addr, std::uint32_t core,
                                 bool dirty, Cycle when);

    /** The non-bypassed read path (tag lookup onward). */
    void normalRead(Addr block_addr, std::uint32_t core, Cycle when,
                    Callback &&cb);

    /**
     * Functional allocateBlock(): insert if absent with no port, event,
     * or registered-counter traffic; evictions route through the quiet
     * DirtyStore variants and skip the WritebackPolicy.
     */
    TagStore::Slot functionalAllocate(Addr block_addr, std::uint32_t core,
                                      bool dirty);

    /**
     * Functional writebackToDram(): the auditor sees the block reach
     * memory and the level below warms, but nothing is accounted.
     */
    void functionalWbToDram(Addr block_addr);

    /**
     * Wrap a read-completion callback so the request's latency lands in
     * the class-`cls` histogram when it completes. Call it only when
     * telemetrySink() has histograms enabled: every other read keeps
     * its callback unwrapped.
     */
    Callback wrapReadLatency(telemetry::ReadClass cls, Cycle when,
                             Callback &&cb);

    /**
     * Dirty blocks the tag store currently holds in `block_addr`'s DRAM
     * row (telemetry only; reads tag state without touching stats or
     * replacement order).
     */
    std::uint64_t countStoreDirtyInRow(Addr block_addr) const;

    /** The attached telemetry sink (nullptr when none). */
    telemetry::SimTelemetry *telemetrySink() { return telem; }

    /** Notify metadata indexes that a resident block became clean. */
    void notifyMetaCleaned(Addr block_addr, Cycle when);

    Counter statTagLookups;   ///< all tag-store lookups (demand+wb+sweep)
    Counter statDemandHits;
    Counter statDemandMisses;
    Counter statWritebacksIn; ///< writeback requests received from L2s
    Counter statWbToDram;     ///< writebacks sent to memory
    Counter statSweepLookups; ///< tag lookups made by writeback sweeps
    Counter statBypasses;     ///< reads that skipped the tag lookup
    Counter statDbiChecks;    ///< DBI consultations on the bypass path

  protected:
    /** Notify the auditor that one operation has settled. */
    void
    endAuditOp()
    {
        if (auditor) {
            auditor->onOperationEnd();
        }
    }

    /**
     * A (possibly dirty) block was displaced from the cache at cycle
     * `when`: consult the DirtyStore for the victim's dirtiness, write
     * it back if dirty, then hand the WritebackPolicy its turn.
     */
    void handleEviction(Addr block_addr, bool tag_dirty, Cycle when);

    /** Tell the auditor and the metadata indexes about a fill. */
    void notifyFill(Addr block_addr, std::uint32_t core, bool dirty,
                    Cycle when);

    /** Issue the DRAM read for a demand miss, merging duplicates. */
    void missToDram(Addr block_addr, std::uint32_t core, Cycle when,
                    Callback &&cb);

    LlcConfig cfg;
    BackingPort &backing;
    ShardContext ctx;
    EventQueue &eq;
    TagStore store;
    Cycle portFreeAt = 0;
    LlcAuditObserver *auditor = nullptr;
    telemetry::SimTelemetry *telem = nullptr;

    std::unique_ptr<DirtyStore> dirtyStorePtr;
    std::unique_ptr<WritebackPolicy> wbPolicy;
    std::unique_ptr<LookupPolicy> lookupPol;
    std::vector<MetadataIndex *> metaIndexes;

    /** Outstanding demand reads: block -> waiting callbacks + owner. */
    struct Pending
    {
        std::uint32_t core = 0;
        std::vector<Callback> cbs;
    };
    AddrTable<Pending> pendingReads;

    /** Retired callback lists, kept to reuse their capacity. */
    std::vector<std::vector<Callback>> cbPool;
};

} // namespace dbsim

#endif // DBSIM_LLC_LLC_HH
