#include "tag_store.hh"

#include "common/logging.hh"

namespace dbsim {

TagStore::TagStore(const CacheGeometry &geometry)
    : geo(geometry), rng(geometry.seed)
{
    fatal_if(geo.sizeBytes % (static_cast<std::uint64_t>(geo.assoc) *
                              kBlockBytes) != 0,
             "cache size not divisible by assoc * block size");
    std::uint64_t sets =
        geo.sizeBytes / (static_cast<std::uint64_t>(geo.assoc) *
                         kBlockBytes);
    fatal_if(!isPowerOf2(sets), "set count must be a power of two");
    fatal_if(sets * geo.assoc >= kNoSlot,
             "tag store of %llu entries exceeds the slot index range",
             static_cast<unsigned long long>(sets * geo.assoc));
    nSets = static_cast<std::uint32_t>(sets);
    const std::size_t n = static_cast<std::size_t>(nSets) * geo.assoc;
    tags.assign(n, kInvalidAddr);
    touches.assign(n, 0);
    meta.assign(n, 0);
    fatal_if(geo.numThreads == 0, "need at least one thread");
    psel.assign(geo.numThreads, kPselInit);
}

std::uint32_t
TagStore::setIndex(Addr block_addr) const
{
    return static_cast<std::uint32_t>(blockNumber(block_addr) &
                                      (nSets - 1));
}

TagStore::Slot
TagStore::find(Addr block_addr) const
{
    Addr a = blockAlign(block_addr);
    Slot base = slotOf(setIndex(a), 0);
    const Addr *set_tags = tags.data() + base;
    for (std::uint32_t w = 0; w < geo.assoc; ++w) {
        if (set_tags[w] == a) {
            return base + w;
        }
    }
    return kNoSlot;
}

void
TagStore::touchSlot(Slot s)
{
    touches[s] = touchClock++;
    // Near-immediate re-reference on hit (RRIP hit promotion).
    meta[s] &= kDirtyBit;
    ++statHits;
}

void
TagStore::touch(Addr block_addr, std::uint32_t thread)
{
    (void)thread;
    Slot s = find(block_addr);
    panic_if(s == kNoSlot, "touch of absent block");
    touchSlot(s);
}

TagStore::LeaderKind
TagStore::leaderKind(std::uint32_t set, std::uint32_t thread) const
{
    if (geo.repl != ReplPolicy::TaDip && geo.repl != ReplPolicy::Drrip) {
        return LeaderKind::None;
    }
    // Constituency-based leader selection: 32 primary-policy leader sets
    // and 32 bimodal leader sets per thread, spread across the cache.
    std::uint32_t slot = set & 63;  // 64 leader slots per 64-set region
    if (slot == 2 * thread) {
        return LeaderKind::Primary;
    }
    if (slot == 2 * thread + 1) {
        return LeaderKind::Bimodal;
    }
    return LeaderKind::None;
}

bool
TagStore::useBimodal(std::uint32_t set, std::uint32_t thread)
{
    if (thread >= psel.size()) {
        thread = 0;
    }
    switch (leaderKind(set, thread)) {
      case LeaderKind::Primary:
        // A miss in a primary-policy leader set votes against it.
        if (psel[thread] < kPselMax) {
            ++psel[thread];
        }
        return false;
      case LeaderKind::Bimodal:
        if (psel[thread] > 0) {
            --psel[thread];
        }
        return true;
      case LeaderKind::None:
        break;
    }
    return psel[thread] >= kPselInit;
}

std::uint32_t
TagStore::victimWay(std::uint32_t set)
{
    Slot base = slotOf(set, 0);
    switch (geo.repl) {
      case ReplPolicy::Random:
        return static_cast<std::uint32_t>(rng.below(geo.assoc));
      case ReplPolicy::Drrip: {
        // Find an RRPV==max entry, aging the set until one appears. No
        // RRPV passes kRrpvMax, so aging never reaches the dirty bit.
        std::uint8_t *set_meta = meta.data() + base;
        for (;;) {
            for (std::uint32_t w = 0; w < geo.assoc; ++w) {
                if ((set_meta[w] & kRrpvMask) >= kRrpvMax) {
                    return w;
                }
            }
            for (std::uint32_t w = 0; w < geo.assoc; ++w) {
                ++set_meta[w];
            }
        }
      }
      case ReplPolicy::Lru:
      case ReplPolicy::TaDip:
      default: {
        // First minimum in way order (the tie-break matters: BIP
        // inserts park at touch time 0).
        const std::uint64_t *set_touches = touches.data() + base;
        std::uint32_t victim = 0;
        std::uint64_t oldest = kCycleMax;
        for (std::uint32_t w = 0; w < geo.assoc; ++w) {
            if (set_touches[w] < oldest) {
                oldest = set_touches[w];
                victim = w;
            }
        }
        return victim;
      }
    }
}

TagStore::Eviction
TagStore::insert(Addr block_addr, std::uint32_t thread, bool dirty)
{
    Fill f = insertIfAbsent(block_addr, thread, dirty);
    panic_if(f.hit, "insert of resident block %llx",
             static_cast<unsigned long long>(blockAlign(block_addr)));
    return f.ev;
}

TagStore::Fill
TagStore::insertIfAbsent(Addr block_addr, std::uint32_t thread, bool dirty)
{
    Addr a = blockAlign(block_addr);
    std::uint32_t set = setIndex(a);
    Slot base = slotOf(set, 0);

    // One pass over the set: the resident entry, else the first free way.
    const Addr *set_tags = tags.data() + base;
    std::uint32_t way = geo.assoc;
    for (std::uint32_t w = 0; w < geo.assoc; ++w) {
        if (set_tags[w] == a) {
            return Fill{base + w, true, Eviction{}};
        }
        if (way == geo.assoc && set_tags[w] == kInvalidAddr) {
            way = w;
        }
    }
    ++statMisses;
    ++statInsertions;

    Eviction ev;
    if (way == geo.assoc) {
        way = victimWay(set);
        ev.valid = true;
        ev.block = tags[base + way];
        ev.dirty = dirtyAt(base + way);
        ++statEvictions;
    }

    Slot s = base + way;
    nDirty -= static_cast<std::uint64_t>(dirtyAt(s));
    nDirty += static_cast<std::uint64_t>(dirty);
    tags[s] = a;

    bool bimodal = useBimodal(set, thread);
    lastBimodal = false;
    std::uint8_t rrpv = kRrpvMax - 1;
    switch (geo.repl) {
      case ReplPolicy::TaDip:
        if (bimodal && !rng.chance(kBipEpsilon)) {
            // BIP: insert at LRU position (touch time 0 = oldest).
            touches[s] = 0;
            lastBimodal = true;
        } else {
            touches[s] = touchClock++;
        }
        break;
      case ReplPolicy::Drrip:
        if (bimodal && !rng.chance(kBrripEpsilon)) {
            rrpv = kRrpvMax;  // BRRIP: distant re-reference
            lastBimodal = true;
        }  // else SRRIP: long re-reference
        touches[s] = touchClock++;
        break;
      case ReplPolicy::Lru:
      case ReplPolicy::Random:
      default:
        touches[s] = touchClock++;
        break;
    }
    meta[s] = static_cast<std::uint8_t>(rrpv | (dirty ? kDirtyBit : 0));
    return Fill{s, false, ev};
}

void
TagStore::invalidate(Addr block_addr)
{
    Slot s = find(block_addr);
    if (s != kNoSlot) {
        setSlotDirty(s, false);
        tags[s] = kInvalidAddr;
    }
}

void
TagStore::markDirty(Addr block_addr)
{
    Slot s = find(block_addr);
    panic_if(s == kNoSlot, "markDirty of absent block");
    setSlotDirty(s, true);
}

void
TagStore::markClean(Addr block_addr)
{
    Slot s = find(block_addr);
    panic_if(s == kNoSlot, "markClean of absent block");
    setSlotDirty(s, false);
}

bool
TagStore::isDirty(Addr block_addr) const
{
    Slot s = find(block_addr);
    panic_if(s == kNoSlot, "isDirty of absent block");
    return dirtyAt(s);
}

std::uint32_t
TagStore::rankOf(Slot s) const
{
    Slot base = s - s % geo.assoc;
    std::uint32_t rank = 0;
    for (Slot o = base; o < base + geo.assoc; ++o) {
        if (tags[o] != kInvalidAddr && touches[o] < touches[s]) {
            ++rank;
        }
    }
    return rank;
}

std::uint32_t
TagStore::lruRank(Addr block_addr) const
{
    Slot s = find(block_addr);
    panic_if(s == kNoSlot, "lruRank of absent block");
    return rankOf(s);
}

bool
TagStore::anyDirtyInLruWays(std::uint32_t set, std::uint32_t ways) const
{
    // An entry lies within the `ways` LRU-most ways exactly when fewer
    // than `ways` valid entries were touched before it (ties share a
    // rank, so every entry tied at the cutoff counts as inside).
    for (Slot s = slotOf(set, 0); s < slotOf(set, geo.assoc); ++s) {
        if (tags[s] != kInvalidAddr && dirtyAt(s) && rankOf(s) < ways) {
            return true;
        }
    }
    return false;
}

TagStore::Entry
TagStore::entryAt(std::uint32_t set, std::uint32_t way) const
{
    Slot s = slotOf(set, way);
    Entry e;
    e.valid = tags[s] != kInvalidAddr;
    if (e.valid) {
        e.block = tags[s];
        e.dirty = dirtyAt(s);
    }
    return e;
}

} // namespace dbsim
