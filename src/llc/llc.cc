#include "llc.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dbsim {

Llc::Llc(const LlcConfig &config, BackingPort &backing_port,
         ShardContext context, std::unique_ptr<DirtyStore> dirty_store,
         std::unique_ptr<WritebackPolicy> writeback_policy,
         std::unique_ptr<LookupPolicy> lookup_policy)
    : cfg(config), backing(backing_port), ctx(context), eq(context.queue()),
      store(CacheGeometry{config.sizeBytes, config.assoc, config.repl,
                          config.numCores, config.seed}),
      dirtyStorePtr(dirty_store ? std::move(dirty_store)
                                : std::make_unique<TagDirtyStore>()),
      wbPolicy(writeback_policy ? std::move(writeback_policy)
                                : std::make_unique<EvictOrderPolicy>()),
      lookupPol(lookup_policy ? std::move(lookup_policy)
                              : std::make_unique<AlwaysLookup>())
{
    // Bind order matters: the DirtyStore first (it may build the DBI the
    // other components look up during their own bind).
    dirtyStorePtr->bind(*this);
    wbPolicy->bind(*this);
    lookupPol->bind(*this);
}

void
Llc::registerStats(StatSet &set)
{
    set.add("llc.tagLookups", statTagLookups);
    set.add("llc.demandHits", statDemandHits);
    set.add("llc.demandMisses", statDemandMisses);
    set.add("llc.writebacksIn", statWritebacksIn);
    set.add("llc.wbToDram", statWbToDram);
    set.add("llc.sweepLookups", statSweepLookups);
    set.add("llc.bypasses", statBypasses);
    set.add("llc.dbiChecks", statDbiChecks);
    dirtyStorePtr->registerStats(set);
    wbPolicy->registerStats(set);
    lookupPol->registerStats(set);
    for (MetadataIndex *m : metaIndexes) {
        m->registerStats(set);
    }
}

void
Llc::attachMetadata(MetadataIndex *index)
{
    fatal_if(!index, "attachMetadata: null metadata index");
    metaIndexes.push_back(index);
}

Cycle
Llc::occupyPort(Cycle when)
{
    Cycle start = std::max(when, portFreeAt);
    portFreeAt = start + 1;  // pipelined: one lookup per cycle
    ++statTagLookups;
    return start;
}

void
Llc::writeback(Addr block_addr, std::uint32_t core, Cycle when)
{
    Addr a = blockAlign(block_addr);
    ++statWritebacksIn;
    if (auditor) {
        auditor->onWritebackIn(a, when);
    }
    dirtyStorePtr->writebackIn(a, core, when);
    if (!metaIndexes.empty() &&
        dirtyStorePtr->kind() != DirtyStoreKind::WriteThrough) {
        // The block is now dirty under the store's bookkeeping (a
        // write-through store never dirties anything, so skip it there).
        for (MetadataIndex *m : metaIndexes) {
            m->onDirty(a, core, when);
        }
    }
    endAuditOp();
}

void
Llc::functionalAccess(Addr block_addr, std::uint32_t core, bool is_write)
{
    Addr a = blockAlign(block_addr);
    Cycle now = eq.now();

    // Demand access: warm-fill or touch in one set scan, and train the
    // predictor with the true outcome (it reads no tag state, so it may
    // learn after the fill). Misses also warm the level below.
    TagStore::Slot slot = functionalAllocate(a, core, false);
    bool hit = slot != TagStore::kNoSlot;
    lookupPol->recordOutcome(a, core, hit, now);
    if (hit) {
        store.touchSlot(slot);
    } else {
        backing.functionalAccess(a, false);
    }

    if (is_write) {
        // A store being warmed dirties the block here directly — the
        // unwarmed L1/L2 would have delivered it as a writeback
        // eventually. functionalWritebackIn() re-allocates if the fill
        // above was itself evicted (single-set pathologies).
        if (auditor) {
            auditor->onWritebackIn(a, now);
        }
        dirtyStorePtr->functionalWritebackIn(a, core);
    }
    endAuditOp();
}

TagStore::Slot
Llc::functionalAllocate(Addr block_addr, std::uint32_t core, bool dirty)
{
    Cycle now = eq.now();
    TagStore::Fill f = store.insertIfAbsent(block_addr, core, dirty);
    if (f.hit) {
        return f.slot;
    }
    if (auditor) {
        auditor->onFill(block_addr, dirty, now);
    }
    if (f.ev.valid) {
        if (dirtyStorePtr->functionalVictimDirty(f.ev.block, f.ev.dirty)) {
            // Dirty functional eviction: the data reaches memory and
            // the metadata is dropped, exactly like the timed path —
            // minus the WritebackPolicy's proactive row sweep, which
            // is a timing optimization warming deliberately skips.
            functionalWbToDram(f.ev.block);
            dirtyStorePtr->functionalVictimWrittenBack(f.ev.block);
        }
        if (auditor) {
            auditor->onEviction(f.ev.block, now);
        }
    }
    return TagStore::kNoSlot;
}

void
Llc::functionalWbToDram(Addr block_addr)
{
    if (auditor) {
        auditor->onWbToDram(block_addr, eq.now());
    }
    backing.functionalAccess(block_addr, true);
}

void
Llc::writebackToDram(Addr block_addr, Cycle when)
{
    dramWrite(block_addr, when);
    ++statWbToDram;
    if (auditor) {
        auditor->onWbToDram(block_addr, when);
    }
}

void
Llc::notifyMetaCleaned(Addr block_addr, Cycle when)
{
    for (MetadataIndex *m : metaIndexes) {
        m->onCleaned(block_addr, when);
    }
}

void
Llc::read(Addr block_addr, std::uint32_t core, Cycle when, Callback cb)
{
    Addr a = blockAlign(block_addr);

    if (lookupPol->tryBypass(a, core, when, cb)) {
        return;
    }
    normalRead(a, core, when, std::move(cb));
}

void
Llc::normalRead(Addr block_addr, std::uint32_t core, Cycle when,
                Callback &&cb)
{
    Addr a = block_addr;
    Cycle start = occupyPort(when);
    Cycle tag_done = start + cfg.tagLatency;

    TagStore::Slot slot = store.find(a);
    bool hit = slot != TagStore::kNoSlot;
    lookupPol->recordOutcome(a, core, hit, when);
    for (MetadataIndex *m : metaIndexes) {
        m->onRead(a, core, hit, when);
    }

    if (hit) {
        ++statDemandHits;
        store.touchSlot(slot);
        Cycle done = tag_done + cfg.dataLatency;
        if constexpr (telemetry::kEnabled) {
            if (telem) {
                telem->readLatency(telemetry::ReadClass::Hit, done - when);
            }
        }
        eq.schedule(done, [cb = std::move(cb), done] { cb(done); },
                    prof::Llc);
        return;
    }

    ++statDemandMisses;
    if constexpr (telemetry::kEnabled) {
        if (telem && telem->histogramsEnabled()) {
            cb = wrapReadLatency(telemetry::ReadClass::Miss, when,
                                 std::move(cb));
        }
    }
    missToDram(a, core, tag_done, std::move(cb));
}

Llc::Callback
Llc::wrapReadLatency(telemetry::ReadClass cls, Cycle when, Callback &&cb)
{
    return [this, cls, when, cb = std::move(cb)](Cycle done) {
        telem->readLatency(cls, done > when ? done - when : 0);
        cb(done);
    };
}

std::uint64_t
Llc::countStoreDirtyInRow(Addr block_addr) const
{
    const DramAddrMap &map = backing.addrMap();
    Addr base = map.rowBase(block_addr);
    std::uint64_t dirty = 0;
    for (std::uint32_t i = 0; i < map.blocksPerRow(); ++i) {
        TagStore::Slot s = store.find(base + Addr{i} * kBlockBytes);
        if (s != TagStore::kNoSlot && store.dirtyAt(s)) {
            ++dirty;
        }
    }
    return dirty;
}

void
Llc::missToDram(Addr block_addr, std::uint32_t core, Cycle when,
                Callback &&cb)
{
    if (Pending *in_flight = pendingReads.find(block_addr)) {
        // Merge with the in-flight request for the same block.
        in_flight->cbs.push_back(std::move(cb));
        return;
    }

    // Recycle retired callback lists, as CoreMemory does its waiters.
    Pending &p = pendingReads.insert(block_addr);
    p.core = core;
    if (!cbPool.empty()) {
        p.cbs = std::move(cbPool.back());
        cbPool.pop_back();
    }
    p.cbs.push_back(std::move(cb));

    dramRead(block_addr, when, [this, block_addr](Cycle done) {
        Pending *pit = pendingReads.find(block_addr);
        panic_if(!pit, "orphan DRAM completion");
        Pending p = std::move(*pit);
        pendingReads.erase(block_addr);
        // Fill, then complete all merged requesters.
        fillBlock(block_addr, p.core, false, done);
        endAuditOp();
        for (auto &waiting : p.cbs) {
            waiting(done);
        }
        p.cbs.clear();
        cbPool.push_back(std::move(p.cbs));
    });
}

Llc::RegionOpResult
Llc::flushRegion(Addr base, std::uint64_t bytes, Cycle when)
{
    RegionOpResult res;
    Cycle cursor = when;
    if (Dbi *index = dbiIndex()) {
        // One DBI query per granularity-sized region; tag lookups only
        // for the blocks that are actually dirty (their data must be
        // read out).
        std::uint64_t region_bytes =
            static_cast<std::uint64_t>(index->granularity()) * kBlockBytes;
        Addr start = base - base % region_bytes;
        for (Addr r = start; r < base + bytes; r += region_bytes) {
            ++res.lookups;  // the DBI access
            std::vector<Addr> dirty = index->dirtyBlocksInRegion(r);
            for (Addr b : dirty) {
                if (b < base || b >= base + bytes) {
                    continue;  // outside the requested range
                }
                Cycle t = occupyPort(cursor);
                cursor = t + 1;
                ++res.lookups;
                res.anyDirty = true;
                ++res.writebacks;
                writebackToDram(b, t + cfg.tagLatency);
                index->clearDirty(b);
                notifyMetaCleaned(b, t + cfg.tagLatency);
            }
        }
        endAuditOp();
        return res;
    }

    // Conventional organization: brute force — one tag lookup per block
    // of the range to find the dirty ones.
    Addr start = blockAlign(base);
    for (Addr a = start; a < base + bytes; a += kBlockBytes) {
        Cycle t = occupyPort(cursor);
        cursor = t + 1;
        ++res.lookups;
        if (store.contains(a) && dirtyStorePtr->probeDirty(a)) {
            res.anyDirty = true;
            ++res.writebacks;
            writebackToDram(a, t + cfg.tagLatency);
            dirtyStorePtr->clean(a);
            notifyMetaCleaned(a, t + cfg.tagLatency);
        }
    }
    endAuditOp();
    return res;
}

Llc::RegionOpResult
Llc::queryRegionDirty(Addr base, std::uint64_t bytes)
{
    RegionOpResult res;
    if (const Dbi *index = dbiIndex()) {
        std::uint64_t region_bytes =
            static_cast<std::uint64_t>(index->granularity()) * kBlockBytes;
        Addr start = base - base % region_bytes;
        for (Addr r = start; r < base + bytes; r += region_bytes) {
            ++res.lookups;  // one DBI access answers the whole region
            for (Addr b : index->dirtyBlocksInRegion(r)) {
                if (b >= base && b < base + bytes) {
                    res.anyDirty = true;
                }
            }
        }
        return res;
    }

    Addr start = blockAlign(base);
    for (Addr a = start; a < base + bytes; a += kBlockBytes) {
        ++res.lookups;
        ++statTagLookups;
        if (store.contains(a) && dirtyStorePtr->probeDirty(a)) {
            res.anyDirty = true;
        }
    }
    return res;
}

void
Llc::handleEviction(Addr block_addr, bool tag_dirty, Cycle when)
{
    if (!dirtyStorePtr->victimDirty(block_addr, tag_dirty)) {
        return;  // clean eviction: nothing to write back
    }
    if constexpr (telemetry::kEnabled) {
        // Fig. 2 sample: dirty blocks co-resident in the victim's DRAM
        // row, including the victim itself (the store accounts for
        // whether its metadata still covers the displaced entry).
        if (telem && telem->histogramsEnabled()) {
            telem->dirtyRowWriteback(
                dirtyStorePtr->dirtyInVictimRow(block_addr));
        }
    }
    // Dirty eviction: write the victim back, drop its dirty metadata,
    // then let the writeback policy piggyback further writebacks.
    writebackToDram(block_addr, when);
    dirtyStorePtr->onVictimWrittenBack(block_addr);
    wbPolicy->afterDirtyEviction(block_addr, when);
}

void
Llc::notifyFill(Addr block_addr, std::uint32_t core, bool dirty, Cycle when)
{
    if (auditor) {
        auditor->onFill(block_addr, dirty, when);
    }
    for (MetadataIndex *m : metaIndexes) {
        m->onFill(block_addr, core, dirty, when);
    }
}

void
Llc::fillBlock(Addr block_addr, std::uint32_t core, bool dirty, Cycle when)
{
    TagStore::Slot s = allocateBlock(block_addr, core, dirty, when);
    if (s == TagStore::kNoSlot) {
        return;
    }
    // Already filled by a racing writeback-allocate: promote, and merge
    // the incoming dirty state. Dropping it here would turn a dirty
    // writeback silently clean and lose a memory update.
    store.touchSlot(s);
    if (dirty) {
        store.setSlotDirty(s, true);
    }
    notifyFill(block_addr, core, dirty, when);
}

TagStore::Slot
Llc::allocateBlock(Addr block_addr, std::uint32_t core, bool dirty,
                   Cycle when)
{
    TagStore::Fill f = store.insertIfAbsent(block_addr, core, dirty);
    if (f.hit) {
        return f.slot;
    }
    notifyFill(block_addr, core, dirty, when);
    if (f.ev.valid) {
        handleEviction(f.ev.block, f.ev.dirty, when);
        if (auditor) {
            auditor->onEviction(f.ev.block, when);
        }
        for (MetadataIndex *m : metaIndexes) {
            m->onEviction(f.ev.block, when);
        }
    }
    return TagStore::kNoSlot;
}

} // namespace dbsim
