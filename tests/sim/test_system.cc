/**
 * @file
 * Integration tests: whole-system runs across mechanisms, determinism,
 * metric computation, and the qualitative relationships the paper's
 * evaluation rests on (write row-hit-rate ordering, lookup counts,
 * bypass behaviour).
 */

#include <gtest/gtest.h>

#include "exp/alone_cache.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "support/temp_path.hh"

namespace dbsim {
namespace {

SystemConfig
quickConfig(Mechanism m, std::uint32_t cores = 1)
{
    SystemConfig cfg;
    cfg.mech = m;
    cfg.numCores = cores;
    cfg.core.warmupInstrs = 300'000;
    cfg.core.measureInstrs = 200'000;
    return cfg;
}

TEST(SystemIntegration, RunsAllMechanismsSingleCore)
{
    for (Mechanism m : allMechanisms()) {
        SimResult r = runWorkload(quickConfig(m), {"stream"});
        EXPECT_GT(r.ipc[0], 0.01) << mechanismName(m);
        EXPECT_LT(r.ipc[0], 1.0) << mechanismName(m);
        EXPECT_GT(r.windowCycles, 0u) << mechanismName(m);
    }
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    SimResult a = runWorkload(quickConfig(Mechanism::DbiAwbClb), {"lbm"});
    SimResult b = runWorkload(quickConfig(Mechanism::DbiAwbClb), {"lbm"});
    EXPECT_EQ(a.ipc[0], b.ipc[0]);
    EXPECT_EQ(a.windowCycles, b.windowCycles);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(SystemIntegration, SeedChangesResults)
{
    SystemConfig cfg = quickConfig(Mechanism::TaDip);
    SimResult a = runWorkload(cfg, {"lbm"});
    cfg.seed = 999;
    SimResult b = runWorkload(cfg, {"lbm"});
    EXPECT_NE(a.windowCycles, b.windowCycles);
}

TEST(SystemIntegration, AwbRaisesWriteRowHitRate)
{
    // The core qualitative claim of Figure 6b on a write-heavy stream.
    SimResult base = runWorkload(quickConfig(Mechanism::TaDip), {"lbm"});
    SimResult awb = runWorkload(quickConfig(Mechanism::DbiAwb), {"lbm"});
    EXPECT_GT(awb.writeRowHitRate, base.writeRowHitRate + 0.3);
}

TEST(SystemIntegration, DawbDoesManyMoreLookupsThanDbi)
{
    // Figure 6c: DAWB sweeps blow up tag lookups; DBI+AWB does not.
    SimResult dawb = runWorkload(quickConfig(Mechanism::Dawb), {"mcf"});
    SimResult dbi = runWorkload(quickConfig(Mechanism::DbiAwb), {"mcf"});
    SimResult base = runWorkload(quickConfig(Mechanism::TaDip), {"mcf"});
    EXPECT_GT(dawb.tagLookupsPki, 1.5 * base.tagLookupsPki);
    EXPECT_LT(dbi.tagLookupsPki, 1.3 * base.tagLookupsPki);
}

TEST(SystemIntegration, ClbReducesTagLookups)
{
    // Figure 6c: CLB cuts lookups for low-hit-rate applications. The
    // epoch must fit inside this short run for the predictor to train.
    SystemConfig cfg = quickConfig(Mechanism::TaDip);
    cfg.pred.epochCycles = 100'000;
    SimResult base = runWorkload(cfg, {"libquantum"});
    cfg.mech = Mechanism::DbiClb;
    SimResult clb = runWorkload(cfg, {"libquantum"});
    EXPECT_LT(clb.tagLookupsPki, base.tagLookupsPki);
    EXPECT_GT(clb.stats.at("llc.bypasses"), 0u);
}

TEST(SystemIntegration, AuditorActiveByDefaultAndQuiet)
{
    // DBSIM_AUDIT builds (the ctest default) attach the invariant
    // auditor to every System; a full run completing is the statement
    // that zero invariant violations occurred.
    SystemConfig cfg = quickConfig(Mechanism::DbiAwb);
#ifdef DBSIM_AUDIT
    System sys(cfg, {"lbm"});
    ASSERT_NE(sys.auditor(), nullptr);
    sys.run();
    EXPECT_GT(sys.auditor()->eventsObserved(), 0u);
    EXPECT_GT(sys.auditor()->checksRun(), 0u);
#else
    System sys(cfg, {"lbm"});
    EXPECT_EQ(sys.auditor(), nullptr);
#endif
}

TEST(SystemIntegration, AuditingDisabledPerRunWithZeroPeriod)
{
    SystemConfig cfg = quickConfig(Mechanism::Dbi);
    cfg.auditEvery = 0;  // what the bench harness passes by default
    System sys(cfg, {"stream"});
    EXPECT_EQ(sys.auditor(), nullptr);
    SimResult r = sys.run();
    EXPECT_GT(r.ipc[0], 0.01);
}

TEST(SystemIntegration, AuditedAndUnauditedRunsAreTimingIdentical)
{
    // The auditor is passive: stats and cycle counts must be identical
    // with auditing on and off, which is what keeps bench tables
    // byte-stable regardless of the build default.
    SystemConfig on = quickConfig(Mechanism::DbiAwbClb);
    on.auditEvery = 1024;
    SystemConfig off = on;
    off.auditEvery = 0;
    SimResult a = runWorkload(on, {"lbm"});
    SimResult b = runWorkload(off, {"lbm"});
    EXPECT_EQ(a.windowCycles, b.windowCycles);
    EXPECT_EQ(a.ipc[0], b.ipc[0]);
    EXPECT_EQ(a.stats, b.stats);
}

TEST(SystemIntegration, DbiAccessorOnlyForDbiMechanisms)
{
    System with(quickConfig(Mechanism::Dbi), {"stream"});
    EXPECT_NE(with.dbi(), nullptr);
    System without(quickConfig(Mechanism::TaDip), {"stream"});
    EXPECT_EQ(without.dbi(), nullptr);
}

TEST(SystemIntegration, MulticoreRunsAndContends)
{
    SimResult duo =
        runWorkload(quickConfig(Mechanism::TaDip, 2), {"lbm", "mcf"});
    ASSERT_EQ(duo.ipc.size(), 2u);
    SimResult solo = runWorkload(quickConfig(Mechanism::TaDip), {"lbm"});
    // Sharing the system must not speed lbm up.
    EXPECT_LE(duo.ipc[0], solo.ipc[0] * 1.05);
}

TEST(SystemIntegration, LlcConfigFollowsTable1)
{
    SystemConfig cfg = quickConfig(Mechanism::TaDip, 1);
    LlcConfig one = cfg.resolveLlc();
    EXPECT_EQ(one.assoc, 16u);
    EXPECT_EQ(one.tagLatency, 10u);
    EXPECT_EQ(one.sizeBytes, 2ull << 20);

    cfg.numCores = 8;
    LlcConfig eight = cfg.resolveLlc();
    EXPECT_EQ(eight.assoc, 32u);
    EXPECT_EQ(eight.tagLatency, 14u);
    EXPECT_EQ(eight.dataLatency, 33u);
    EXPECT_EQ(eight.sizeBytes, 16ull << 20);
}

TEST(SystemIntegration, BaselineUsesLruOthersUseDip)
{
    SystemConfig cfg = quickConfig(Mechanism::Baseline);
    EXPECT_EQ(cfg.resolveLlc().repl, ReplPolicy::Lru);
    cfg.mech = Mechanism::Dbi;
    EXPECT_EQ(cfg.resolveLlc().repl, ReplPolicy::TaDip);
    cfg.useDrrip = true;
    EXPECT_EQ(cfg.resolveLlc().repl, ReplPolicy::Drrip);
}

TEST(Metrics, WeightedSpeedupBasics)
{
    std::vector<double> alone = {1.0, 2.0};
    std::vector<double> shared = {0.5, 1.0};
    EXPECT_NEAR(weightedSpeedup(shared, alone), 1.0, 1e-12);
    EXPECT_NEAR(instructionThroughput(shared), 1.5, 1e-12);
    EXPECT_NEAR(harmonicSpeedup(shared, alone), 0.5, 1e-12);
    EXPECT_NEAR(maxSlowdown(shared, alone), 2.0, 1e-12);
}

TEST(Metrics, GeomeanMatchesHandComputation)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({3.0}), 3.0, 1e-12);
}

TEST(Metrics, AloneIpcCacheIsConsistent)
{
    SystemConfig cfg = quickConfig(Mechanism::TaDip);
    exp::AloneIpcCache cache(cfg);
    double a = cache.get("bwaves");
    double b = cache.get("bwaves");
    EXPECT_EQ(a, b);
    auto v = cache.forMix({"bwaves", "bwaves"});
    EXPECT_EQ(v[0], a);
    EXPECT_EQ(v[1], a);
}

TEST(SystemIntegration, FileTraceWorkload)
{
    // Write a small streaming trace and run it through the system.
    std::string path = test::tempPath("dbsim_sys_trace.txt");
    {
        std::vector<TraceOp> records;
        for (Addr a = 0; a < 512; ++a) {
            records.push_back({4, a % 3 == 0, false, a * 64});
        }
        FileTrace::write(path, records);
    }
    SystemConfig cfg = quickConfig(Mechanism::DbiAwb);
    cfg.core.warmupInstrs = 50'000;
    cfg.core.measureInstrs = 50'000;
    SimResult r = runWorkload(cfg, {"@" + path});
    EXPECT_GT(r.ipc[0], 0.1);
    std::remove(path.c_str());
}

TEST(Mechanisms, NamesRoundTrip)
{
    for (Mechanism m : allMechanisms()) {
        EXPECT_EQ(mechanismByName(mechanismName(m)), m);
    }
    EXPECT_EQ(allMechanisms().size(), 9u);
}

TEST(Mechanisms, ComposedSpecGrammarAndInference)
{
    // Explicit tokens.
    MechanismSpec s = mechanismByName("dbi+dawb");
    EXPECT_EQ(s.store, DirtyStoreKind::Dbi);
    EXPECT_EQ(s.writeback, WritebackKind::DawbSweep);
    EXPECT_EQ(s.lookup, LookupKind::Always);

    // awb/clb/ecc/dir imply a DBI store; skip implies write-through.
    EXPECT_EQ(mechanismByName("awb").store, DirtyStoreKind::Dbi);
    EXPECT_EQ(mechanismByName("clb").store, DirtyStoreKind::Dbi);
    EXPECT_EQ(mechanismByName("skip").store,
              DirtyStoreKind::WriteThrough);
    EXPECT_TRUE(mechanismByName("dbi+ecc").attachEcc);
    EXPECT_TRUE(mechanismByName("dbi+dir").attachDirectory);

    // A composed spec equal to a preset tuple compares equal to it.
    EXPECT_EQ(mechanismByName("dbi+awb+clb"),
              MechanismSpec(Mechanism::DbiAwbClb));
    EXPECT_EQ(mechanismByName("tag+lru"),
              MechanismSpec(Mechanism::Baseline));

    // Cross-product combos no preset reaches.
    MechanismSpec dc = mechanismByName("dawb+clb");
    EXPECT_EQ(dc.store, DirtyStoreKind::Dbi);  // clb pulled in dbi
    EXPECT_EQ(dc.writeback, WritebackKind::DawbSweep);
    EXPECT_EQ(dc.lookup, LookupKind::ClbBypass);
    for (Mechanism m : allMechanisms()) {
        EXPECT_NE(dc, MechanismSpec(m));
    }
}

TEST(Mechanisms, SpecStringsRoundTrip)
{
    // Preset tuples print as their Table 2 names.
    EXPECT_EQ(mechanismSpecString(MechanismSpec(Mechanism::DbiAwb)),
              "DBI+AWB");
    // Composed tuples print canonically and parse back to themselves.
    for (const char *spec :
         {"dbi+dawb", "dawb+clb", "vwq+clb", "dbi+awb+ecc", "dbi+dir"}) {
        MechanismSpec s = mechanismByName(spec);
        EXPECT_EQ(mechanismByName(mechanismSpecString(s)), s) << spec;
    }
}

TEST(MechanismsDeathTest, BadNamesTeachTheGrammar)
{
    // The fatal() must list the presets and the composed grammar, not
    // just echo the unknown name (satellite requirement).
    EXPECT_DEATH(mechanismByName("bogus"),
                 "presets: Baseline.*DBI\\+AWB\\+CLB.*composed specs");
    EXPECT_DEATH(mechanismByName("dbi+skip"), "composed specs");
    EXPECT_DEATH(mechanismByName("tag+awb"), "composed specs");
    EXPECT_DEATH(mechanismByName("dbi+tag"), "conflicting dirty-store");
}

TEST(SystemIntegration, EccAccountingReportedFromRealRun)
{
    // The hetero-ECC tracker rides the composed LLC's metadata seam:
    // per-run protection and storage/energy accounting must come out of
    // a real System run, not the standalone example.
    SystemConfig cfg = quickConfig(Mechanism::Dbi);
    cfg.mech = mechanismByName("dbi+awb+ecc");
    SimResult r = runWorkload(cfg, {"lbm"});

    EXPECT_GT(r.metadata.at("ecc.protectedReads"), 0.0);
    EXPECT_GT(r.metadata.at("ecc.entriesPeak"), 0.0);
    // Table 4's headline: the DBI organization shrinks metadata.
    EXPECT_GT(r.metadata.at("ecc.storage.tagReductionPct"), 0.0);
    EXPECT_LT(r.metadata.at("ecc.storage.dbiMetaBits"),
              r.metadata.at("ecc.storage.baselineMetaBits"));
    EXPECT_GT(r.metadata.at("ecc.energy.baselineMetaReadPj"),
              r.metadata.at("ecc.energy.dbiMetaReadPj"));
}

TEST(SystemIntegration, DirectoryDrivenOnMulticorePath)
{
    // The split coherence directory observes the shared-LLC block
    // lifecycle on a real multi-core run.
    SystemConfig cfg = quickConfig(Mechanism::Dbi, 2);
    cfg.mech = mechanismByName("dbi+dir");
    SimResult r = runWorkload(cfg, {"mcf", "lbm"});

    EXPECT_GT(r.metadata.at("dir.fetches"), 0.0);
    EXPECT_GT(r.metadata.at("dir.writes"), 0.0);
    EXPECT_GT(r.metadata.at("dir.dbiLookups"), 0.0);
}

TEST(SystemIntegration, MetadataAttachmentDoesNotPerturbTiming)
{
    // Like the auditor and telemetry, metadata indices are passive:
    // a run with ECC + directory attached must produce exactly the
    // timing and stats of the bare mechanism.
    SystemConfig cfg = quickConfig(Mechanism::Dbi);
    SimResult bare = runWorkload(cfg, {"lbm"});

    cfg.mech = mechanismByName("dbi+ecc");
    SimResult ecc = runWorkload(cfg, {"lbm"});

    EXPECT_EQ(bare.windowCycles, ecc.windowCycles);
    EXPECT_EQ(bare.ipc, ecc.ipc);
    for (const auto &[k, v] : bare.stats) {
        if (k.rfind("ecc.", 0) == 0) {
            continue;
        }
        ASSERT_TRUE(ecc.stats.count(k)) << k;
        EXPECT_EQ(ecc.stats.at(k), v) << k;
    }
}

} // namespace
} // namespace dbsim
