#include "machine.hh"

#include <chrono>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "workload/champsim_trace.hh"
#include "workload/profiles.hh"

namespace perfbench {

using namespace dbsim;

namespace {

/**
 * makeLlc()'s composition with the writeback and lookup policies
 * wrapped in timing decorators and the dirty store wrapped after
 * binding (TracedLlc).
 */
std::unique_ptr<Llc>
makeTracedLlc(const MechanismSpec &spec, const LlcConfig &llc_cfg,
              const DbiConfig &dbi_cfg, BackingPort &backing,
              ShardContext ctx, std::shared_ptr<MissPredictor> predictor,
              Tracer &tracer)
{
    std::unique_ptr<DirtyStore> store;
    switch (spec.store) {
      case DirtyStoreKind::InTag:
        store = std::make_unique<TagDirtyStore>();
        break;
      case DirtyStoreKind::WriteThrough:
        store = std::make_unique<WriteThroughStore>();
        break;
      case DirtyStoreKind::Dbi:
        store = std::make_unique<DbiDirtyStore>(dbi_cfg);
        break;
    }

    std::unique_ptr<WritebackPolicy> wb;
    switch (spec.writeback) {
      case WritebackKind::EvictOrder:
        wb = std::make_unique<EvictOrderPolicy>();
        break;
      case WritebackKind::DawbSweep:
        wb = std::make_unique<DawbSweepPolicy>();
        break;
      case WritebackKind::VwqSweep:
        wb = std::make_unique<VwqSweepPolicy>();
        break;
      case WritebackKind::DbiAwb:
        wb = std::make_unique<DbiAwbPolicy>();
        break;
    }

    std::unique_ptr<LookupPolicy> lookup;
    switch (spec.lookup) {
      case LookupKind::Always:
        lookup = std::make_unique<AlwaysLookup>();
        break;
      case LookupKind::SkipBypass:
        lookup = std::make_unique<SkipBypassLookup>(predictor);
        break;
      case LookupKind::ClbBypass:
        lookup = std::make_unique<ClbBypassLookup>(predictor);
        break;
    }

    return std::make_unique<TracedLlc>(
        llc_cfg, backing, ctx, std::move(store),
        std::make_unique<TimedWritebackPolicy>(std::move(wb), tracer),
        std::make_unique<TimedLookupPolicy>(std::move(lookup), tracer),
        tracer);
}

} // namespace

MachineRun
runAssembled(const Inputs &in, Tracer *tracer)
{
    const SystemConfig &cfg = in.cfg;
    const ShardTopology topo = cfg.topology();
    fatal_if(topo.partitions != 1 || topo.slices != 1 || topo.channels != 1,
             "the assembled machine has one partition, slice and channel");
    fatal_if(cfg.dcache.enable || cfg.mech.attachEcc ||
                 cfg.mech.attachDirectory || cfg.auditEvery != 0 ||
                 cfg.telemetry.enabled() || cfg.profile,
             "the assembled machine has no DRAM cache, metadata "
             "attachments, auditor, telemetry or profile");
    fatal_if(in.mix.size() != cfg.numCores,
             "workload has %zu entries for %u cores", in.mix.size(),
             cfg.numCores);

    // Construction order and seeds follow System's constructor, so the
    // same events are scheduled in the same order.
    EventQueue eq;
    const ShardContext ctx(0, eq, nullptr);

    DramConfig dram_cfg = cfg.dram;
    dram_cfg.channels = topo.channels;
    DramController dram(dram_cfg, ctx);
    std::unique_ptr<TimedBackingPort> timed_dram;
    if (tracer) {
        timed_dram = std::make_unique<TimedBackingPort>(dram, *tracer);
    }
    BackingPort &backing = tracer ? static_cast<BackingPort &>(*timed_dram)
                                  : static_cast<BackingPort &>(dram);

    LlcConfig llc_cfg = cfg.resolveLlc();
    DbiConfig dbi_cfg = cfg.dbi;
    dbi_cfg.seed = cfg.seed + 1009;
    SkipPredictorConfig pc = cfg.pred;
    pc.numThreads = cfg.numCores;
    std::shared_ptr<MissPredictor> pred;
    if (cfg.mech.needsPredictor()) {
        pred = std::make_shared<SkipPredictor>(pc);
    }
    std::unique_ptr<Llc> llc =
        tracer ? makeTracedLlc(cfg.mech, llc_cfg, dbi_cfg, backing, ctx,
                               pred, *tracer)
               : makeLlc(cfg.mech, llc_cfg, dbi_cfg, backing, ctx, pred);
    std::unique_ptr<TimedLlcPort> timed_llc;
    if (tracer) {
        timed_llc = std::make_unique<TimedLlcPort>(*llc, *tracer);
    }
    LlcPort &llc_port = tracer ? static_cast<LlcPort &>(*timed_llc)
                               : static_cast<LlcPort &>(*llc);

    StatSet stats("system");
    llc->registerStats(stats);
    dram.registerStats(stats);

    std::vector<std::unique_ptr<TraceSource>> traces;
    std::vector<SampledTrace *> samplers;
    std::vector<std::unique_ptr<CoreMemory>> mems;
    std::vector<std::unique_ptr<Core>> cores;
    std::uint32_t warmed = 0;
    std::uint32_t done = 0;
    Cycle warm_time = 0;
    Cycle done_time = 0;
    for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
        std::unique_ptr<TraceSource> src;
        if (!cfg.traceFile.empty()) {
            src = std::make_unique<ChampSimTrace>(cfg.traceFile);
        } else {
            src = std::make_unique<SyntheticTrace>(
                benchmarkByName(in.mix[c]), c, cfg.seed);
        }
        if (tracer) {
            src = std::make_unique<TimedTraceSource>(std::move(src),
                                                     *tracer);
        }
        if (cfg.sampling.enabled()) {
            SampledTrace::WarmFn warm;
            if (tracer) {
                warm = [&mems, c, tracer](Addr a, bool w) {
                    Tracer::Span s(*tracer, Layer::Warm);
                    mems[c]->functionalAccess(a, w);
                };
            } else {
                warm = [&mems, c](Addr a, bool w) {
                    mems[c]->functionalAccess(a, w);
                };
            }
            auto sampled = std::make_unique<SampledTrace>(
                std::move(src), cfg.sampling, std::move(warm));
            samplers.push_back(sampled.get());
            src = std::move(sampled);
        }
        traces.push_back(std::move(src));
        mems.push_back(std::make_unique<CoreMemory>(cfg.mem, llc_port, c,
                                                    cfg.seed + 31 * c));
        mems.back()->registerStats(stats);
        cores.push_back(std::make_unique<Core>(c, cfg.core, *traces[c],
                                               *mems[c], ctx));
        cores.back()->onWarmed([&](std::uint32_t) {
            if (++warmed == cfg.numCores) {
                stats.snapshotAll();
                warm_time = eq.now();
            }
        });
        cores.back()->onDone([&](std::uint32_t) {
            if (++done == cfg.numCores) {
                done_time = eq.now();
                for (auto &core : cores) {
                    core->halt();
                }
            }
        });
    }

    using clock = std::chrono::steady_clock;
    const auto start = clock::now();
    for (auto &core : cores) {
        core->start();
    }
    for (;;) {
        bool more;
        if (tracer) {
            Tracer::Span s(*tracer, Layer::EqStep);
            more = eq.step();
        } else {
            more = eq.step();
        }
        if (!more) {
            break;
        }
        fatal_if(eq.now() > cfg.maxCycles,
                 "simulation exceeded %llu cycles: likely deadlock",
                 static_cast<unsigned long long>(cfg.maxCycles));
    }
    MachineRun run;
    run.runSeconds =
        std::chrono::duration<double>(clock::now() - start).count();
    panic_if(done != cfg.numCores,
             "event queue drained before all cores finished");

    run.result.windowCycles = done_time - warm_time;
    for (auto &core : cores) {
        run.result.ipc.push_back(core->ipc());
        run.result.totalInstrs += core->measuredInstrs();
    }
    run.result.stats = stats.collect();
    run.events = eq.dispatched();
    for (const SampledTrace *s : samplers) {
        run.opsWarmed += s->opsWarmed();
    }
    return run;
}

} // namespace perfbench
