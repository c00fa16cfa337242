#include "core_memory.hh"

#include "common/logging.hh"

namespace dbsim {

CoreMemory::CoreMemory(const CoreMemoryConfig &config, LlcPort &shared_llc,
                       std::uint32_t core_id, std::uint64_t seed)
    : cfg(config), llc(shared_llc), coreId(core_id),
      l1(CacheGeometry{config.l1.sizeBytes, config.l1.assoc,
                       ReplPolicy::Lru, 1, seed}),
      l2(CacheGeometry{config.l2.sizeBytes, config.l2.assoc,
                       ReplPolicy::Lru, 1, seed + 1})
{
}

void
CoreMemory::registerStats(StatSet &set)
{
    set.add("core.loads", statLoads);
    set.add("core.stores", statStores);
    set.add("core.l1Hits", statL1Hits);
    set.add("core.l2Hits", statL2Hits);
    set.add("core.llcAccesses", statLlcAccesses);
    set.add("core.mshrMerges", statMshrMerges);
}

void
CoreMemory::fillL1(Addr block_addr, bool dirty, Cycle when)
{
    TagStore::Fill f = l1.insertIfAbsent(block_addr, 0, dirty);
    if (f.hit) {
        l1.touchSlot(f.slot);
        if (dirty) {
            l1.setSlotDirty(f.slot, true);
        }
    } else if (f.ev.valid && f.ev.dirty) {
        // L1 dirty victim spills into L2.
        fillL2(f.ev.block, true, when);
    }
}

void
CoreMemory::fillL2(Addr block_addr, bool dirty, Cycle when)
{
    TagStore::Fill f = l2.insertIfAbsent(block_addr, 0, dirty);
    if (f.hit) {
        l2.touchSlot(f.slot);
        if (dirty) {
            l2.setSlotDirty(f.slot, true);
        }
    } else if (f.ev.valid && f.ev.dirty) {
        // L2 dirty victim becomes a writeback request to the LLC
        // (Section 2.2.2).
        llc.writeback(f.ev.block, coreId, when);
    }
}

void
CoreMemory::functionalAccess(Addr addr, bool is_write)
{
    // Long-history structures only: every warmed op reaches the LLC's
    // functional port unfiltered. The L1/L2 filter would thin the
    // stream the LLC sees, but on fast-forward spans (millions of ops)
    // the LLC recency and DBI dirty state it converges to is the same,
    // and skipping two private-tag-store updates per op is most of the
    // fast-forward speedup.
    llc.functionalAccess(blockAlign(addr), coreId, is_write);
}

Cycle
CoreMemory::llcAccessTime(Cycle when) const
{
    return when + cfg.l1.latency + cfg.l2.latency;
}

CoreMemory::Result
CoreMemory::accessBelowL2(Addr block_addr, Waiter waiter, Cycle when)
{
    // MSHR merge: a secondary miss to a block already being filled
    // waits for that fill instead of issuing another LLC access.
    if (std::vector<Waiter> *waiting = inflight.find(block_addr)) {
        ++statMshrMerges;
        waiting->push_back(waiter);
        return Result{true, 0};
    }

    // Recycle retired waiter vectors: their capacity survives the round
    // trip through the pool, so the steady state allocates nothing.
    std::vector<Waiter> &fresh = inflight.insert(block_addr);
    if (!waiterPool.empty()) {
        fresh = std::move(waiterPool.back());
        waiterPool.pop_back();
    }
    fresh.push_back(waiter);

    ++statLlcAccesses;
    Cycle at = llcAccessTime(when);
    llc.read(block_addr, coreId, at, [this, block_addr](Cycle done) {
        completeFill(block_addr, done);
    });
    return Result{true, 0};
}

void
CoreMemory::completeFill(Addr block_addr, Cycle done)
{
    std::vector<Waiter> *node = inflight.find(block_addr);
    panic_if(!node, "fill completion without MSHR entry");
    std::vector<Waiter> waiters = std::move(*node);
    inflight.erase(block_addr);

    bool any_write = false;
    for (const Waiter &w : waiters) {
        any_write |= w.isWrite;
    }
    fillL2(block_addr, false, done);
    fillL1(block_addr, any_write, done);
    // The client may issue new accesses from here; the list is ours.
    if (client) {
        client->fillDone(waiters, done);
    }
    waiters.clear();
    waiterPool.push_back(std::move(waiters));
}

CoreMemory::Result
CoreMemory::load(Addr addr, Cycle when, std::uint64_t tag)
{
    ++statLoads;
    Addr a = blockAlign(addr);

    if (TagStore::Slot s = l1.find(a); s != TagStore::kNoSlot) {
        ++statL1Hits;
        l1.touchSlot(s);
        return Result{false, cfg.l1.latency};
    }
    if (TagStore::Slot s = l2.find(a); s != TagStore::kNoSlot) {
        ++statL2Hits;
        l2.touchSlot(s);
        bool dirty = l2.dirtyAt(s);
        // Move the block up; L2 keeps its copy clean once L1 owns the
        // dirty state (exclusive dirty ownership avoids double
        // writebacks).
        l2.setSlotDirty(s, false);
        fillL1(a, dirty, when);
        return Result{false, cfg.l1.latency + cfg.l2.latency};
    }
    return accessBelowL2(a, Waiter{tag, false}, when);
}

CoreMemory::Result
CoreMemory::store(Addr addr, Cycle when)
{
    ++statStores;
    Addr a = blockAlign(addr);

    if (TagStore::Slot s = l1.find(a); s != TagStore::kNoSlot) {
        ++statL1Hits;
        l1.touchSlot(s);
        l1.setSlotDirty(s, true);
        return Result{false, 1};
    }
    if (TagStore::Slot s = l2.find(a); s != TagStore::kNoSlot) {
        ++statL2Hits;
        l2.touchSlot(s);
        l2.setSlotDirty(s, false);
        fillL1(a, true, when);
        return Result{false, 1};
    }
    // Write-allocate: fetch the block, then dirty it in L1 on arrival.
    return accessBelowL2(a, Waiter{0, true}, when);
}

} // namespace dbsim
