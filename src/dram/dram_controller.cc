#include "dram_controller.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dbsim {

DramController::DramController(const DramConfig &config,
                               ShardContext context)
    : cfg(config), eq(context.queue()),
      map(config.rowBytes, config.numBanks,
          config.channels ? config.channels : 1),
      banks(config.numBanks)
{
    fatal_if(cfg.writeBufEntries == 0, "write buffer needs capacity");
    fatal_if(cfg.drainLowWatermark >= cfg.writeBufEntries,
             "drain low watermark must be below capacity");
}

void
DramController::registerStats(StatSet &set)
{
    set.add("dram.reads", statReads);
    set.add("dram.writes", statWrites);
    set.add("dram.readRowHits", statReadRowHits);
    set.add("dram.writeRowHits", statWriteRowHits);
    set.add("dram.activates", statActivates);
    set.add("dram.drains", statDrains);
    set.add("dram.drainCycles", statDrainCycles);
    set.add("dram.forwards", statForwards);
    set.add("dram.coalesced", statCoalesced);
}

double
DramController::readRowHitRate() const
{
    std::uint64_t n = statReads.sinceSnapshot();
    return n ? static_cast<double>(statReadRowHits.sinceSnapshot()) / n
             : 0.0;
}

double
DramController::writeRowHitRate() const
{
    std::uint64_t n = statWrites.sinceSnapshot();
    return n ? static_cast<double>(statWriteRowHits.sinceSnapshot()) / n
             : 0.0;
}

DramEnergy
DramController::energySince(Cycle now) const
{
    DramEnergy e;
    e.activatePj = cfg.eActivatePj *
                   static_cast<double>(statActivates.sinceSnapshot());
    e.readPj = cfg.eReadPj * static_cast<double>(statReads.sinceSnapshot());
    e.writePj =
        cfg.eWritePj * static_cast<double>(statWrites.sinceSnapshot());
    // background: mW * cycles / 2.67GHz -> pJ; 1 mW = 1e-3 J/s.
    double seconds = static_cast<double>(now) / 2.67e9;
    e.backgroundPj = cfg.backgroundMw * 1e-3 * seconds * 1e12;
    return e;
}

std::uint32_t
DramController::park(ReadCallback &&cb)
{
    if (freeSlots.empty()) {
        cbSlots.push_back(std::move(cb));
        return static_cast<std::uint32_t>(cbSlots.size() - 1);
    }
    std::uint32_t slot = freeSlots.back();
    freeSlots.pop_back();
    cbSlots[slot] = std::move(cb);
    return slot;
}

void
DramController::completeAt(std::uint32_t slot, Cycle done)
{
    eq.schedule(done, [this, slot, done] {
        // Take the callback out before running it: it may enqueue a
        // read that reuses the slot or grows the array.
        ReadCallback cb = std::move(cbSlots[slot]);
        freeSlots.push_back(slot);
        cb(done);
    }, prof::Dram);
}

void
DramController::enqueueRead(Addr block_addr, Cycle when, ReadCallback &&cb)
{
    Addr a = blockAlign(block_addr);
    std::uint32_t slot = park(std::move(cb));
    // Read-around-write: forward from the write buffer if present.
    if (writeQAddrs.contains(a)) {
        ++statForwards;
        completeAt(slot, when + cfg.ioLatency);
        return;
    }
    readQ.push_back(decode(a, when, slot));
    scheduleService(when);
}

void
DramController::enqueueWrite(Addr block_addr, Cycle when)
{
    Addr a = blockAlign(block_addr);
    if (writeQAddrs.contains(a)) {
        ++statCoalesced;
        return;
    }
    writeQAddrs.insert(a);
    writeQ.push_back(decode(a, when));
    if (writeQ.size() >= cfg.writeBufEntries && !drainMode) {
        drainMode = true;
        drainStartAt = std::max(when, eq.now());
        drainWrites = 0;
        ++statDrains;
        if (obs) {
            obs->onDrainStart(drainStartAt);
        }
    }
    scheduleService(when);
}

void
DramController::scheduleService(Cycle when)
{
    if (servicePending) {
        return;
    }
    servicePending = true;
    Cycle at = std::max(when, eq.now());
    eq.schedule(at, [this] {
        servicePending = false;
        serviceNext();
    }, prof::Dram);
}

int
DramController::pickFrFcfs(const std::vector<Request> &q) const
{
    // First-Ready (row hit) first; FCFS among equals. The scan stops at
    // the first row hit — it is the oldest one — and falls back to the
    // queue head (the oldest request) when no row hits.
    for (std::size_t i = 0; i < q.size(); ++i) {
        if (banks[q[i].bank].openRow == q[i].row) {
            return static_cast<int>(i);
        }
    }
    return q.empty() ? -1 : 0;
}

Cycle
DramController::issue(const Request &req, bool is_write, Cycle now)
{
    Bank &bank = banks[req.bank];
    const Cycle arrive = req.arrive;
    bool row_hit = bank.openRow == req.row;

    // Bank preparation overlaps other banks' bus transfers: it may have
    // begun as soon as the request arrived and the bank was free, even
    // though the data bus only frees up later (bank-level parallelism).
    if (!row_hit) {
        // Precharge waits for write recovery (tWR) in this bank, then
        // the activate is rate-limited globally by tRRD and tFAW — this
        // is what makes row-scattered drains slower than clustered ones.
        Cycle pre = std::max({arrive, bank.prechargeOkAt,
                              bank.colCmdOkAt});
        Cycle act = pre;
        if (bank.openRow != kClosedRow) {
            act += static_cast<Cycle>(cfg.tRp) * cfg.tCkCpu;
        }
        if (numActivates >= 1) {
            Cycle rrd_ok = recentActivates[(activateIdx + 3) % 4] +
                           static_cast<Cycle>(cfg.tRrd) * cfg.tCkCpu;
            act = std::max(act, rrd_ok);
        }
        if (numActivates >= 4) {
            Cycle faw_ok = recentActivates[activateIdx] +
                           static_cast<Cycle>(cfg.tFaw) * cfg.tCkCpu;
            act = std::max(act, faw_ok);
        }
        recentActivates[activateIdx] = act;
        activateIdx = (activateIdx + 1) % 4;
        ++numActivates;
        ++statActivates;

        bank.rowReadyAt = act + static_cast<Cycle>(cfg.tRcd) * cfg.tCkCpu;
        bank.openRow = req.row;
        // tRAS floor for the next precharge.
        bank.prechargeOkAt =
            act + static_cast<Cycle>(cfg.tRas) * cfg.tCkCpu;
    }

    Cycle turnaround = 0;
    if (is_write != lastWasWrite) {
        turnaround =
            static_cast<Cycle>(is_write ? cfg.tRtw : cfg.tWtr) * cfg.tCkCpu;
    }

    Cycle col_cmd = std::max({arrive, bank.rowReadyAt, bank.colCmdOkAt});
    Cycle data_start =
        std::max({col_cmd + static_cast<Cycle>(cfg.tCas) * cfg.tCkCpu,
                  busFreeAt + turnaround, now});
    Cycle data_end =
        data_start + static_cast<Cycle>(cfg.tBurst) * cfg.tCkCpu;

    // Column commands to the same bank chain at the burst rate (tCCD);
    // the CAS latency itself pipelines behind the previous transfer.
    bank.colCmdOkAt = data_start;
    busFreeAt = data_end;
    if (is_write) {
        bank.prechargeOkAt = std::max(
            bank.prechargeOkAt,
            data_end + static_cast<Cycle>(cfg.tWr) * cfg.tCkCpu);
        ++statWrites;
        if (row_hit) {
            ++statWriteRowHits;
        }
    } else {
        bank.prechargeOkAt = std::max(bank.prechargeOkAt, data_end);
        ++statReads;
        if (row_hit) {
            ++statReadRowHits;
        }
    }
    lastWasWrite = is_write;
    return data_end;
}

void
DramController::endDrain(Cycle now)
{
    drainMode = false;
    Cycle credited = now > drainStartAt ? now - drainStartAt : 0;
    statDrainCycles += credited;
    if (obs) {
        obs->onDrainEnd(drainStartAt, drainStartAt + credited,
                        drainWrites);
    }
}

void
DramController::serviceNext()
{
    Cycle now = eq.now();

    bool do_write;
    if (drainMode) {
        do_write = !writeQ.empty();
        if (!do_write) {
            // Defensive only: the drain now ends at the dequeue that
            // crosses the watermark, so it never runs the queue empty.
            endDrain(now);
        }
    } else if (!readQ.empty()) {
        do_write = false;
    } else if (cfg.writeWhenIdle && !writeQ.empty()) {
        do_write = true;
    } else {
        return;  // nothing to do; next enqueue reschedules us
    }

    if (do_write) {
        int idx = pickFrFcfs(writeQ);
        panic_if(idx < 0, "drain with empty write queue");
        Request req = writeQ[static_cast<std::size_t>(idx)];
        writeQ.erase(writeQ.begin() + idx);
        writeQAddrs.erase(req.addr);
        issue(req, true, now);
        if (drainMode) {
            ++drainWrites;
        }
        // The drain window ends the moment this dequeue reaches the low
        // watermark. Waiting for a later service event to observe the
        // transition (as this used to) under-counts statDrainCycles —
        // a drain that empties the queue with no subsequent traffic was
        // never credited at all — and leaves drainMode latched on.
        if (drainMode && writeQ.size() <= cfg.drainLowWatermark) {
            endDrain(now);
        }
    } else {
        if (readQ.empty()) {
            return;
        }
        int idx = pickFrFcfs(readQ);
        Request req = readQ[static_cast<std::size_t>(idx)];
        readQ.erase(readQ.begin() + idx);
        Cycle data_end = issue(req, false, now);
        completeAt(req.slot, data_end + cfg.ioLatency);
    }

    if (!readQ.empty() || !writeQ.empty()) {
        // Next command can begin once the bus frees; overlap bank prep.
        scheduleService(std::max(now + 1, busFreeAt));
    }
}

} // namespace dbsim
