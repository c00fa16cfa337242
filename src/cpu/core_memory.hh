/**
 * @file
 * Per-core private cache hierarchy (L1D + L2, Table 1) in front of the
 * shared LLC. The private levels are modeled functionally with fixed hit
 * latencies; their dirty-block traffic is what feeds the LLC's writeback
 * stream (Section 2.2: every dirty block in the LLC results from a
 * writeback generated by the previous cache level).
 */

#ifndef DBSIM_CPU_CORE_MEMORY_HH
#define DBSIM_CPU_CORE_MEMORY_HH

#include <cstdint>
#include <span>
#include <vector>

#include "cache/tag_store.hh"
#include "common/addr_table.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "llc/llc.hh"

namespace dbsim {

/** Private cache level parameters. */
struct PrivateCacheConfig
{
    std::uint64_t sizeBytes;
    std::uint32_t assoc;
    std::uint32_t latency;  ///< hit latency in cycles
};

/** Table 1 defaults: 32KB 2-way L1 (2 cycles), 256KB 8-way L2 (14). */
struct CoreMemoryConfig
{
    PrivateCacheConfig l1{32 * 1024, 2, 2};
    PrivateCacheConfig l2{256 * 1024, 8, 14};
};

/**
 * The private L1+L2 in front of the shared LLC for one core.
 *
 * Accesses carry no closure. A load names itself with a POD tag (the
 * core's instruction index); a miss parks {tag, isWrite} in its MSHR,
 * and the fill hands the whole waiter list to the one Client the owning
 * core installed. The only closure on the way down is the one the
 * LlcPort interface takes per LLC access.
 */
class CoreMemory
{
  public:
    /** Outcome of an access issued to the hierarchy. */
    struct Result
    {
        bool pending;   ///< true: completion arrives via Client::fillDone
        Cycle latency;  ///< valid when !pending
    };

    /** An access waiting on an in-flight fill of its block. */
    struct Waiter
    {
        std::uint64_t tag;  ///< the load's tag (unused for a store)
        bool isWrite;
    };

    /** Receiver of fill completions, installed once by the owning core. */
    class Client
    {
      public:
        virtual ~Client() = default;

        /**
         * A fill completed at cycle `when`: the block is in L1 and its
         * MSHR is free. `waiters` are the accesses it satisfies, in
         * issue order; each load's tag completes at `when`, and stores
         * complete nothing (they only held the MSHR).
         */
        virtual void fillDone(std::span<const Waiter> waiters,
                              Cycle when) = 0;
    };

    /**
     * @param shared_llc the level below L2: the shared LLC itself, or
     *        on sliced machines the router that forwards each access
     *        to the owning slice.
     */
    CoreMemory(const CoreMemoryConfig &config, LlcPort &shared_llc,
               std::uint32_t core_id, std::uint64_t seed);

    /**
     * Issue a load at cycle `when`. If it is satisfied privately the
     * latency is returned; otherwise the fill reports `tag` to the
     * Client with the completion cycle (fills happen then).
     */
    Result load(Addr addr, Cycle when, std::uint64_t tag);

    /**
     * Issue a store at cycle `when` (write-allocate). Stores never stall
     * the pipeline model, but a store miss generates real fill traffic
     * and holds an MSHR until its fill reaches the Client.
     */
    Result store(Addr addr, Cycle when);

    /** Install the receiver of fill completions. */
    void attachClient(Client *receiver) { client = receiver; }

    /**
     * Zero-time functional access for fast-forward warming. SMARTS-
     * style warming granularity: only the long-history structures —
     * the shared LLC, the DBI, and the miss predictor — are warmed,
     * through the LLC's functional port. The private L1/L2 are *not*
     * touched: their history is thousands of accesses deep, so the
     * detailed portion of each measurement window re-warms them
     * almost immediately, and skipping them keeps the fast-forward
     * rate an order of magnitude above detailed simulation.
     */
    void functionalAccess(Addr addr, bool is_write);

    /** Blocks currently being filled from below (MSHR occupancy). */
    std::uint32_t mshrsInUse() const
    {
        return static_cast<std::uint32_t>(inflight.size());
    }

    Counter statLoads;
    Counter statStores;
    Counter statL1Hits;
    Counter statL2Hits;
    Counter statLlcAccesses;  ///< loads+stores that reached the LLC
    Counter statMshrMerges;   ///< secondary misses merged into an MSHR

    /** Register counters for snapshotting. */
    void registerStats(StatSet &set);

  private:
    /** Total private-hierarchy latency up to the LLC access point. */
    Cycle llcAccessTime(Cycle when) const;

    /** Fill a block into L1, spilling dirty victims into L2. */
    void fillL1(Addr block_addr, bool dirty, Cycle when);

    /** Fill a block into L2, writing dirty victims back to the LLC. */
    void fillL2(Addr block_addr, bool dirty, Cycle when);

    /** Common miss path below L2. */
    Result accessBelowL2(Addr block_addr, Waiter waiter, Cycle when);

    /** The LLC answered the MSHR of block_addr at cycle `done`. */
    void completeFill(Addr block_addr, Cycle done);

    CoreMemoryConfig cfg;
    LlcPort &llc;
    std::uint32_t coreId;
    TagStore l1;
    TagStore l2;
    /** MSHRs: block being filled -> the accesses waiting on it. */
    AddrTable<std::vector<Waiter>> inflight;

    /** Retired waiter vectors, kept to reuse their capacity. */
    std::vector<std::vector<Waiter>> waiterPool;

    Client *client = nullptr;
};

} // namespace dbsim

#endif // DBSIM_CPU_CORE_MEMORY_HH
