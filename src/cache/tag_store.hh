/**
 * @file
 * Generic set-associative tag store with pluggable replacement and
 * insertion policies: LRU, TA-DIP (thread-aware dynamic insertion with
 * set dueling and bimodal insertion), DRRIP (SRRIP/BRRIP dueling), and
 * Random. Used for the private L1/L2 caches (LRU) and the shared LLC
 * (TA-DIP or DRRIP per Table 2 / Section 6.5).
 *
 * The tag store carries a per-entry dirty bit for conventional
 * organizations. DBI organizations never set it — the DBI is the
 * authoritative source of dirtiness (asserted by the LLC variants).
 */

#ifndef DBSIM_CACHE_TAG_STORE_HH
#define DBSIM_CACHE_TAG_STORE_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace dbsim {

/** Replacement/insertion policy of a tag store. */
enum class ReplPolicy : std::uint8_t
{
    Lru,     ///< least-recently-used
    TaDip,   ///< thread-aware dynamic insertion policy [18, 42]
    Drrip,   ///< dynamic re-reference interval prediction [19]
    Random,  ///< random victim
};

/** Tag store geometry and policy. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 2ull << 20;
    std::uint32_t assoc = 16;
    ReplPolicy repl = ReplPolicy::Lru;
    std::uint32_t numThreads = 1;  ///< for TA-DIP per-thread selectors
    std::uint64_t seed = 1;        ///< for BIP/BRRIP/Random draws
};

/**
 * Set-associative tag store. Data contents are not stored — dbsim is a
 * timing simulator — but the full state needed for replacement and
 * dirtiness decisions is.
 *
 * The state lives in one copy, as dense per-field arrays indexed by
 * slot (set * assoc + way): 8 B tag, 8 B touch time, 1 B dirty|RRPV
 * — 17 B per entry. A caller locates a block once with find() and then
 * acts on the returned slot, so one access scans its set once.
 */
class TagStore
{
  public:
    /** Index of one entry: set * assoc + way. */
    using Slot = std::uint32_t;

    /** find() result for an absent block. */
    static constexpr Slot kNoSlot = ~Slot{0};

    /** One tag entry, assembled from the arrays (a copy, not a view). */
    struct Entry
    {
        Addr block = kInvalidAddr;  ///< aligned block address
        bool valid = false;
        bool dirty = false;
    };

    /** Result of an insertion: the displaced entry, if any. */
    struct Eviction
    {
        bool valid = false;  ///< an entry was displaced
        Addr block = kInvalidAddr;
        bool dirty = false;
    };

    explicit TagStore(const CacheGeometry &geometry);

    std::uint32_t numSets() const { return nSets; }
    std::uint32_t assoc() const { return geo.assoc; }
    std::uint64_t numBlocks() const
    {
        return static_cast<std::uint64_t>(nSets) * geo.assoc;
    }

    /** Set index of a block address. */
    std::uint32_t setIndex(Addr block_addr) const;

    /** Slot holding block_addr, or kNoSlot. No replacement update. */
    Slot find(Addr block_addr) const;

    /** True if the block is present (no replacement-state update). */
    bool contains(Addr block_addr) const
    {
        return find(block_addr) != kNoSlot;
    }

    /** Promote on hit (updates LRU / RRPV state). @pre s from find(). */
    void touchSlot(Slot s);

    /** Promote a resident block: find() + touchSlot(). */
    void touch(Addr block_addr, std::uint32_t thread);

    /** Dirty bit of a slot. @pre s was returned by find(). */
    bool dirtyAt(Slot s) const { return (meta[s] & kDirtyBit) != 0; }

    /**
     * Set or clear the dirty bit of a slot, keeping countDirty()
     * coherent. @pre s was returned by find() on this store.
     */
    void
    setSlotDirty(Slot s, bool dirty)
    {
        nDirty += static_cast<std::uint64_t>(dirty);
        nDirty -= static_cast<std::uint64_t>(dirtyAt(s));
        meta[s] = static_cast<std::uint8_t>(
            (meta[s] & kRrpvMask) | (dirty ? kDirtyBit : 0));
    }

    /**
     * Insert a block, selecting and displacing a victim if the set is
     * full. Updates set-dueling state on this miss. Panics if the block
     * is already resident.
     * @param dirty initial dirty state of the inserted block.
     * @return the displaced entry (valid=false if a free way was used).
     */
    Eviction insert(Addr block_addr, std::uint32_t thread, bool dirty);

    /** Remove a block if present. */
    void invalidate(Addr block_addr);

    /** Set/clear a resident block's dirty bit. @pre block present. */
    void markDirty(Addr block_addr);
    void markClean(Addr block_addr);

    /** Dirty bit of a resident block. @pre block present. */
    bool isDirty(Addr block_addr) const;

    /**
     * LRU recency rank of the entry holding block_addr within its set:
     * 0 = LRU-most. Used by the VWQ Set State Vector.
     */
    std::uint32_t lruRank(Addr block_addr) const;

    /** True if any entry within the `ways` LRU-most ways is dirty. */
    bool anyDirtyInLruWays(std::uint32_t set, std::uint32_t ways) const;

    /** One way of one set, by value (for sweeps, the auditor, tests). */
    Entry entryAt(std::uint32_t set, std::uint32_t way) const;

    /**
     * Count of valid dirty entries. O(1): maintained incrementally at
     * every dirty-bit transition (the auditor cross-checks it against
     * the per-entry bits every audit interval).
     */
    std::uint64_t countDirty() const { return nDirty; }

    /** Policy actually used for the last insertion (for tests). */
    bool lastInsertUsedBimodal() const { return lastBimodal; }

    Counter statHits;
    Counter statMisses;
    Counter statInsertions;
    Counter statEvictions;

  private:
    /** Slot of one way of one set. */
    Slot
    slotOf(std::uint32_t set, std::uint32_t way) const
    {
        return set * geo.assoc + way;
    }

    /** Valid entries of s's set touched strictly before s. */
    std::uint32_t rankOf(Slot s) const;

    /** Victim way in a full set, per the replacement policy. */
    std::uint32_t victimWay(std::uint32_t set);

    /** DIP/DRRIP set-dueling: kind of leader this set is for `thread`. */
    enum class LeaderKind { None, Primary, Bimodal };
    LeaderKind leaderKind(std::uint32_t set, std::uint32_t thread) const;

    /** Should this thread's insertion use the bimodal variant? */
    bool useBimodal(std::uint32_t set, std::uint32_t thread);

    CacheGeometry geo;
    std::uint32_t nSets;

    /** Block address per slot; kInvalidAddr marks an invalid entry. */
    std::vector<Addr> tags;
    /** Touch time per slot (LRU order; 0 = BIP insert at LRU). */
    std::vector<std::uint64_t> touches;
    /** Per slot: dirty bit (kDirtyBit) | 2-bit DRRIP RRPV. */
    std::vector<std::uint8_t> meta;

    static constexpr std::uint8_t kDirtyBit = 0x80;
    static constexpr std::uint8_t kRrpvMask = 0x7f;

    std::uint64_t touchClock = 1;
    std::uint64_t nDirty = 0;  ///< valid entries with the dirty bit set
    Rng rng;

    /** Per-thread 10-bit policy selectors (TA-DIP / DRRIP dueling). */
    std::vector<std::uint32_t> psel;
    static constexpr std::uint32_t kPselMax = 1023;
    static constexpr std::uint32_t kPselInit = 512;

    /** BIP/BRRIP bimodal probability: 1/64 and 1/32 respectively. */
    static constexpr double kBipEpsilon = 1.0 / 64.0;
    static constexpr double kBrripEpsilon = 1.0 / 32.0;

    static constexpr std::uint8_t kRrpvMax = 3;  ///< 2-bit RRPV

    bool lastBimodal = false;
};

} // namespace dbsim

#endif // DBSIM_CACHE_TAG_STORE_HH
