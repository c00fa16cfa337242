#include "workloads.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/logging.hh"
#include "common/rng.hh"
#include "workload/champsim_trace.hh"

namespace perfbench {

using namespace dbsim;

namespace {

/** Records in the generated trace; the reader loops over them. */
constexpr int kTraceRecords = 200'000;

/** Records encoded and written at a time (256 KiB). */
constexpr std::size_t kBatchRecords = 4096;

/**
 * A ChampSim trace drawn from `seed`. Of the data accesses, 60% fall at
 * random in a 1 MiB working set (LLC-resident, spilling the private
 * levels, so writebacks reach the LLC and the DBI) and 40% walk a
 * sequential stream that covers about 4 MiB per pass over the trace,
 * twice the one-core LLC, so reads miss to DRAM and dirty rows are
 * evicted together (the DBI aggressive-writeback case). 30% of accesses
 * are stores and one record in five is a branch. Written uncompressed
 * so ingest time is the repository's own decoder, in small batches so
 * the generator's memory stays far below the simulator's.
 */
void
writeTrace(const std::string &path, std::uint64_t seed)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    fatal_if(!f, "cannot write %s", path.c_str());
    std::vector<ChampSimRecord> recs;
    recs.reserve(kBatchRecords);
    auto flush = [&] {
        const std::vector<std::uint8_t> bytes = ChampSimTrace::encode(recs);
        fatal_if(std::fwrite(bytes.data(), 1, bytes.size(), f) !=
                     bytes.size(),
                 "short write to %s", path.c_str());
        recs.clear();
    };
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x51ed270b27cull);
    std::uint64_t ip = 0x400000;
    std::uint64_t stream = 0;
    for (int n = 0; n < kTraceRecords; ++n) {
        const std::uint64_t r = rng.next();
        ip += 4 + (r & 0xc);
        ChampSimRecord cr{};
        cr.ip = ip;
        if ((r >> 8) % 5 == 0) {
            cr.isBranch = 1;
            cr.branchTaken = (r >> 9) & 1;
        } else {
            std::uint64_t addr;
            if ((r >> 40) % 100 < 60) {
                addr = 0x10000000ull + ((r >> 16) * 64 & ((1ull << 20) - 1));
            } else {
                stream = (stream + 64) & ((64ull << 20) - 1);
                addr = 0x80000000ull + stream;
            }
            cr.destRegs[0] = static_cast<std::uint8_t>(r % 32);
            if ((r >> 5) % 100 < 30) {
                cr.destMem[0] = addr;
            } else {
                cr.srcMem[0] = addr;
            }
        }
        recs.push_back(cr);
        if (recs.size() == kBatchRecords) {
            flush();
        }
    }
    flush();
    fatal_if(std::fclose(f) != 0, "cannot close %s", path.c_str());
}

void
fnv(std::uint64_t &h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_dbi_2c", "baseline_mcf_1c", "sharded_64c",
        "trace_ff_sampled"};
    return names;
}

bool
isWorkload(const std::string &name)
{
    for (const auto &n : workloadNames()) {
        if (n == name) {
            return true;
        }
    }
    return false;
}

Inputs
makeInputs(const std::string &name, std::uint64_t seed,
           const std::string &trace_path)
{
    Inputs in;
    SystemConfig &cfg = in.cfg;
    cfg.seed = seed;
    // Explicit: DBSIM_AUDIT builds default to auditing every 4096 LLC
    // events, which would time the auditor instead of the simulator.
    cfg.auditEvery = 0;
    cfg.profile = false;

    if (name == "paper_dbi_2c") {
        // Table 1 two-core machine, diag_run's default point.
        cfg.mech = Mechanism::DbiAwbClb;
        cfg.numCores = 2;
        cfg.core.warmupInstrs = 1'000'000;
        cfg.core.measureInstrs = 1'000'000;
        in.mix = {"lbm", "libquantum"};
    } else if (name == "baseline_mcf_1c") {
        cfg.mech = Mechanism::TaDip;
        cfg.numCores = 1;
        cfg.core.warmupInstrs = 500'000;
        cfg.core.measureInstrs = 1'000'000;
        in.mix = {"mcf"};
    } else if (name == "sharded_64c") {
        cfg.mech = Mechanism::Dbi;
        cfg.numCores = 64;
        cfg.llcSlices = 4;
        cfg.dram.channels = 4;
        cfg.numShards = 4;
        cfg.core.warmupInstrs = 10'000;
        cfg.core.measureInstrs = 10'000;
        const char *rota[] = {"mcf", "lbm", "stream", "libquantum"};
        for (int c = 0; c < 64; ++c) {
            in.mix.push_back(rota[c % 4]);
        }
    } else if (name == "trace_ff_sampled") {
        cfg.mech = Mechanism::DbiAwb;
        cfg.numCores = 1;
        cfg.core.warmupInstrs = 200'000;
        cfg.core.measureInstrs = 400'000;
        cfg.sampling.ffOps = 1'000'000;
        cfg.sampling.sampleOps = 20'000;
        cfg.sampling.periodOps = 100'000;
        fatal_if(trace_path.empty(), "%s needs a trace path", name.c_str());
        writeTrace(trace_path, seed);
        cfg.traceFile = trace_path;
        in.mix = {"mcf"};  // inert: every core replays traceFile
    } else {
        fatal("unknown workload '%s'", name.c_str());
    }
    return in;
}

std::uint64_t
instructionsConsumed(const SystemConfig &cfg, std::uint64_t ops_warmed)
{
    return cfg.numCores *
               (cfg.core.warmupInstrs + cfg.core.measureInstrs) +
           ops_warmed;
}

std::uint64_t
digest(const SimResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (double ipc : r.ipc) {
        fnv(h, &ipc, sizeof(ipc));
    }
    for (const auto &[key, value] : r.stats) {
        fnv(h, key.data(), key.size());
        fnv(h, &value, sizeof(value));
    }
    fnv(h, &r.windowCycles, sizeof(r.windowCycles));
    return h;
}

std::string
checkResult(const SystemConfig &cfg, const SimResult &r)
{
    if (r.ipc.size() != cfg.numCores) {
        return "result has " + std::to_string(r.ipc.size()) +
               " IPCs for " + std::to_string(cfg.numCores) + " cores";
    }
    for (std::size_t c = 0; c < r.ipc.size(); ++c) {
        if (!std::isfinite(r.ipc[c]) || r.ipc[c] <= 0.0) {
            return "core " + std::to_string(c) + " IPC is not finite "
                   "and positive";
        }
    }
    if (r.totalInstrs != cfg.numCores * cfg.core.measureInstrs) {
        return "cores retired " + std::to_string(r.totalInstrs) +
               " measured instructions, budget " +
               std::to_string(cfg.numCores * cfg.core.measureInstrs);
    }
    return "";
}

std::string
RunChecks::check(const SystemConfig &cfg, const SimResult &r)
{
    std::string err = checkResult(cfg, r);
    if (!err.empty()) {
        return err;
    }
    const std::uint64_t d = digest(r);
    if (!haveFirst) {
        first = d;
        haveFirst = true;
    } else if (d != first) {
        char buf[96];
        std::snprintf(buf, sizeof(buf),
                      "digest %016" PRIx64 " differs from %016" PRIx64, d,
                      first);
        err = buf;
    }
    return err;
}

void
RunChecks::record(const char *what, const std::string &error)
{
    ++attempted;
    if (!error.empty()) {
        ++failed;
        std::printf("FAILED %s: %s\n", what, error.c_str());
    }
}

} // namespace perfbench
