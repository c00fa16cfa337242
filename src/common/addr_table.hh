/**
 * @file
 * A small open-addressed hash table keyed by block address: the
 * lookup structure of the demand-miss path (MSHRs, pending LLC misses,
 * the DRAM write buffer's address set). A node-based std::unordered_map
 * allocates and frees one node per insert/erase; this table allocates
 * only when it grows, so a warm table costs no heap traffic per miss.
 *
 * Linear probing over a power-of-two slot array, with kInvalidAddr
 * marking an empty slot. The home slot is the Fibonacci (multiplicative)
 * hash of the block number — the top bits of blockNumber * 2^64/phi, so
 * every address bit reaches the index. The table doubles when an insert
 * would take it past half full and never shrinks. Erase shifts the rest
 * of the probe run back (no tombstones), so probe runs stay as short as
 * the load allows however many inserts and erases a long run makes.
 *
 * Nothing iterates over the table: simulation order can never depend on
 * its layout. Pointers returned by find()/insert() are invalidated by
 * the next insert() or erase().
 */

#ifndef DBSIM_COMMON_ADDR_TABLE_HH
#define DBSIM_COMMON_ADDR_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace dbsim {

template <typename V>
class AddrTable
{
  public:
    /** Slots allocated up front (a power of two). */
    static constexpr std::size_t kInitialCapacity = 16;

    AddrTable() { reset(kInitialCapacity); }

    std::size_t size() const { return count; }

    /** Slot array length (always a power of two, at least 2 * size()). */
    std::size_t capacity() const { return keys.size(); }

    /** Home slot of `key` in a table of `cap` slots (a power of two). */
    static std::size_t
    homeSlot(Addr key, std::size_t cap)
    {
        return hash(key, 64 - floorLog2(cap));
    }

    /** The value stored under `key`, or nullptr. */
    V *
    find(Addr key)
    {
        std::size_t i = slotOf(key);
        return i == kNone ? nullptr : &vals[i];
    }

    bool contains(Addr key) const { return slotOf(key) != kNone; }

    /**
     * Add `key`, which must be absent, with a default-constructed value.
     * @return the new value, to fill in before the next insert/erase.
     */
    V &
    insert(Addr key)
    {
        panic_if(key == kInvalidAddr, "AddrTable key is the empty marker");
        if ((count + 1) * 2 > keys.size()) {
            grow();
        }
        std::size_t i = hash(key, shift);
        while (keys[i] != kInvalidAddr) {
            panic_if(keys[i] == key, "AddrTable: key %#llx already present",
                     static_cast<unsigned long long>(key));
            i = (i + 1) & mask;
        }
        keys[i] = key;
        ++count;
        return vals[i];
    }

    /**
     * Remove `key` and reset its slot's value to V{} (releasing what it
     * held). @return whether the key was present.
     */
    bool
    erase(Addr key)
    {
        std::size_t hole = slotOf(key);
        if (hole == kNone) {
            return false;
        }
        // Backward-shift deletion: walk the rest of the probe run and
        // pull back every entry whose home is not between the hole and
        // its current slot, so no lookup ever needs a tombstone.
        for (std::size_t j = (hole + 1) & mask; keys[j] != kInvalidAddr;
             j = (j + 1) & mask) {
            std::size_t home = hash(keys[j], shift);
            if (((j - home) & mask) >= ((j - hole) & mask)) {
                keys[hole] = keys[j];
                vals[hole] = std::move(vals[j]);
                hole = j;
            }
        }
        keys[hole] = kInvalidAddr;
        vals[hole] = V{};
        --count;
        return true;
    }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};

    /** Top (64 - `shift`) bits of the block number times 2^64/phi. */
    static std::size_t
    hash(Addr key, std::uint32_t shift)
    {
        return static_cast<std::size_t>(
            (blockNumber(key) * 0x9e3779b97f4a7c15ULL) >> shift);
    }

    std::size_t
    slotOf(Addr key) const
    {
        for (std::size_t i = hash(key, shift);
             keys[i] != kInvalidAddr; i = (i + 1) & mask) {
            if (keys[i] == key) {
                return i;
            }
        }
        return kNone;
    }

    void
    reset(std::size_t cap)
    {
        keys.assign(cap, kInvalidAddr);
        vals.clear();
        vals.resize(cap);
        mask = cap - 1;
        shift = 64 - floorLog2(cap);
        count = 0;
    }

    /** Double the slot array, re-placing every entry in slot order. */
    void
    grow()
    {
        std::vector<Addr> old_keys = std::move(keys);
        std::vector<V> old_vals = std::move(vals);
        reset(old_keys.size() * 2);
        for (std::size_t j = 0; j < old_keys.size(); ++j) {
            if (old_keys[j] != kInvalidAddr) {
                insert(old_keys[j]) = std::move(old_vals[j]);
            }
        }
    }

    std::vector<Addr> keys;  ///< kInvalidAddr marks an empty slot
    std::vector<V> vals;     ///< vals[i] belongs to keys[i]
    std::size_t mask = 0;
    std::uint32_t shift = 64;  ///< 64 - log2(capacity)
    std::size_t count = 0;
};

/** A set of block addresses: the table with an empty value. */
using AddrSet = AddrTable<std::monostate>;

} // namespace dbsim

#endif // DBSIM_COMMON_ADDR_TABLE_HH
