/**
 * @file
 * The repository benchmark's measuring program (driven by run.py).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-dir DIR] [--git DESCRIBE]
 *
 * --trace 0 measures the end-to-end metrics: the workload's System is
 * set up and run repeatedly for S seconds with tracing, telemetry,
 * profiling and auditing off, and the medians are reported.
 * --trace 1 measures the per-layer metrics: on single-partition
 * workloads the machine is assembled from public constructors with
 * timing decorators (machine.hh) and must reproduce System's result
 * exactly; on the sharded workload the host profiler is switched on and
 * the 1-worker twin must reproduce the 4-worker result exactly.
 *
 * Every run checks each result (checkResult) and that every repeat of
 * the workload and seed gives the same digest. Output: a provenance
 * line (with that digest), one line per metric, and as the last line
 * one JSON object {"correct", "attempted", "failed", "metrics"}. The
 * exit status is 0 only when every check passed.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "machine.hh"
#include "micro.hh"
#include "tracer.hh"
#include "workloads.hh"

using namespace dbsim;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceDir = ".";
    std::string git = "unknown";
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        fatal_if(i + 1 >= argc, "option %s needs a value", a.c_str());
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = std::stoull(v);
        } else if (a == "--seconds") {
            o.seconds = std::stod(v);
        } else if (a == "--trace") {
            fatal_if(v != "0" && v != "1", "--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--trace-dir") {
            o.traceDir = v;
        } else if (a == "--git") {
            o.git = v;
        } else {
            fatal("unknown option %s", a.c_str());
        }
    }
    fatal_if(!have_workload || !isWorkload(o.workload),
             "--workload must name one of the benchmark's workloads");
    fatal_if(o.seconds <= 0, "--seconds must be positive");
    return o;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

/**
 * Build, host and input fingerprint, plus the result digest every
 * checked simulation carried (compare it across commits: a host-speed
 * change must leave it identical); printed with every result.
 */
void
printProvenance(const Options &o, const RunChecks &checks)
{
#ifdef DBSIM_AUDIT
    const char *audit = "ON";
#else
    const char *audit = "OFF";
#endif
#ifdef DBSIM_TELEMETRY
    const char *telem = "ON";
#else
    const char *telem = "OFF";
#endif
#ifdef DBSIM_PROFILE
    const char *prof = "ON";
#else
    const char *prof = "OFF";
#endif
    char digest_hex[17] = "none";
    if (checks.haveDigest()) {
        std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64,
                      checks.reference());
    }
    std::printf("provenance {\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"seconds\": %g, \"trace\": %d, \"cpu\": \"%s\", "
                "\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": "
                "\"%s\", \"flags\": \"%s\", \"DBSIM_AUDIT\": \"%s\", "
                "\"DBSIM_TELEMETRY\": \"%s\", \"DBSIM_PROFILE\": \"%s\", "
                "\"git\": \"%s\", \"digest\": \"%s\"}\n",
                o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0,
                jsonEscape(cpuModel()).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                jsonEscape(PERFBENCH_CXX_FLAGS).c_str(), audit, telem, prof,
                jsonEscape(o.git).c_str(), digest_hex);
}

std::uint64_t
opsWarmed(System &sys, const SystemConfig &cfg)
{
    std::uint64_t n = 0;
    if (cfg.sampling.enabled()) {
        for (std::uint32_t c = 0; c < cfg.numCores; ++c) {
            n += dynamic_cast<SampledTrace &>(sys.traceSource(c))
                     .opsWarmed();
        }
    }
    return n;
}

/**
 * Peak resident memory of this process image (VmHWM). getrusage()'s
 * ru_maxrss is not used: Linux carries it across exec, so it would
 * report the launching interpreter's size for small workloads.
 */
double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB
        }
    }
    fatal("VmHWM missing from /proc/self/status");
}

/**
 * A per-process, per-copy trace file name, so concurrent runs and
 * copies never share one; the file is removed when this goes away.
 */
class TraceFile
{
  public:
    TraceFile(const Options &o, unsigned copy)
        : path(o.traceDir + "/perfbench_" + std::to_string(getpid()) + "_" +
               o.workload + "_" + std::to_string(copy) + ".champsim")
    {
    }
    ~TraceFile() { std::remove(path.c_str()); }
    TraceFile(const TraceFile &) = delete;
    TraceFile &operator=(const TraceFile &) = delete;

    const std::string path;
};

/** Fewest set-ups whose median setup_s reports. */
constexpr std::size_t kMinSetups = 21;

/**
 * Repeats whose median sim_kips reports: the fastest ones. On a shared
 * host other tenants slow a simulation down, never speed it up, and
 * they leave the host quiet only now and then. Over 30 s runs on
 * different seeds on a shared 4-vCPU Xeon host, the median repeat's
 * speed spread by up to 24% (IQR over median); the median of each
 * run's five fastest repeats spread by 5-8%.
 */
constexpr std::size_t kFastest = 5;

/** One System set-up and run, timed. */
struct SysRun
{
    SystemConfig cfg;
    SimResult result;
    std::uint64_t events = 0;
    std::uint64_t consumed = 0;  ///< instructionsConsumed()
    double setupSeconds = 0;
    double runSeconds = 0;
};

/**
 * Set up and run the workload's System. `workers` (when nonzero)
 * replaces the worker-thread count, which never changes the result;
 * `profile` switches the host profiler on.
 */
SysRun
runSystem(const Options &o, const std::string &trace_path,
          std::uint32_t workers = 0, bool profile = false)
{
    SysRun r;
    const auto t0 = Clock::now();
    Inputs in = makeInputs(o.workload, o.seed, trace_path);
    if (workers) {
        in.cfg.numShards = workers;
    }
    in.cfg.profile = profile;
    System sys(in.cfg, in.mix);
    r.setupSeconds = secondsSince(t0);
    const auto t1 = Clock::now();
    r.result = sys.run();
    r.runSeconds = secondsSince(t1);
    r.cfg = in.cfg;
    r.events = sys.eventsDispatched();
    r.consumed = instructionsConsumed(in.cfg, opsWarmed(sys, in.cfg));
    return r;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

using Metrics = std::vector<Metric>;

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
quartile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/**
 * Print a timed metric's samples: count, quartiles and, from eleven
 * samples on, the slowest percentile that has ten samples beyond it
 * (low values are slow when `higher_better`).
 */
void
printSamples(const char *name, const std::vector<double> &v,
             const char *unit, bool higher_better)
{
    std::printf("samples %s n=%zu p25=%.6g median=%.6g p75=%.6g", name,
                v.size(), quartile(v, 0.25), median(v), quartile(v, 0.75));
    const std::size_t n = v.size();
    if (n > 10) {
        std::vector<double> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        const std::size_t i = higher_better ? 10 : n - 11;
        std::printf(" p%.4g=%.6g", 100.0 * static_cast<double>(i) /
                                       static_cast<double>(n - 1),
                    sorted[i]);
    }
    std::printf(" %s\n", unit);
}

/** Median of the `k` largest values of `v`. */
double
medianOfLargest(std::vector<double> v, std::size_t k)
{
    std::sort(v.begin(), v.end(), std::greater<>());
    v.resize(std::min(k, v.size()));
    return median(v);
}

/**
 * Simulations run at once in the untraced run: one per host core, or a
 * single one when a simulation already spans the cores with its own
 * worker threads. On a shared host the speed of one core varies by
 * tens of percent from second to second; copies on every core give
 * more repeats, and so more chances of a quiet one, per second.
 */
unsigned
concurrentCopies(const SystemConfig &cfg)
{
    const long cores = sysconf(_SC_NPROCESSORS_ONLN);
    const unsigned workers = cfg.topology().workers;
    return std::max(1u, static_cast<unsigned>(std::max(1L, cores)) /
                            std::max(1u, workers));
}

Metrics
measureEndToEnd(const Options &o, RunChecks &checks)
{
    const auto begin = Clock::now();
    // One simulation alone first: its peak memory is the process's
    // peak memory for one simulation, before any copies run.
    const TraceFile first_trace(o, 0);
    const SysRun first = runSystem(o, first_trace.path);
    checks.result(first.cfg, first.result, "first run");
    const double rss = peakRssMiB();

    std::vector<double> kips;
    std::vector<double> setups;
    std::mutex mu;  // guards kips, setups and checks
    auto copy_loop = [&](unsigned copy) {
        const TraceFile trace(o, copy);
        double last_rep = 0.0;
        for (;;) {
            {
                // Start no repeat that would end past the deadline.
                std::lock_guard<std::mutex> lock(mu);
                if (kips.size() >= kFastest &&
                    secondsSince(begin) + last_rep > o.seconds) {
                    return;
                }
            }
            const auto t0 = Clock::now();
            const SysRun r = runSystem(o, trace.path);
            last_rep = secondsSince(t0);
            std::lock_guard<std::mutex> lock(mu);
            checks.result(r.cfg, r.result, "repeat");
            kips.push_back(static_cast<double>(r.consumed) / r.runSeconds /
                           1000.0);
            setups.push_back(r.setupSeconds);
        }
    };
    const unsigned n_copies = concurrentCopies(first.cfg);
    std::vector<std::thread> copies;
    for (unsigned c = 1; c < n_copies; ++c) {
        copies.emplace_back(copy_loop, c);
    }
    copy_loop(0);
    for (std::thread &t : copies) {
        t.join();
    }
    while (setups.size() < kMinSetups) {
        const auto t0 = Clock::now();
        Inputs in = makeInputs(o.workload, o.seed, first_trace.path);
        System sys(in.cfg, in.mix);
        setups.push_back(secondsSince(t0));
    }
    std::printf("copies %u\n", n_copies);
    printSamples("sim_kips", kips, "kinstr/s", true);
    printSamples("setup_s", setups, "s", false);

    double ipc_sum = 0.0;
    for (double v : first.result.ipc) {
        ipc_sum += v;
    }
    return {
        {"sim_kips", medianOfLargest(kips, kFastest), "kinstr/s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", rss, "MiB"},
        {"sim_ipc", ipc_sum, "instr/cycle"},
    };
}

std::uint64_t
stat(const SimResult &r, const char *key)
{
    const auto it = r.stats.find(key);
    return it == r.stats.end() ? 0 : it->second;
}

/** Per-layer counters read from a result; fixed for a seed. */
Metrics
deterministicMetrics(const SysRun &s)
{
    const SimResult &r = s.result;
    const double kinstr = static_cast<double>(s.consumed) / 1000.0;
    auto num = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"sim.events_per_kinstr", ratio(num(s.events), kinstr), "1/kinstr"},
        {"sim.window_cycles", num(r.windowCycles), "cycles"},
        {"llc.tag_lookups_pki", r.tagLookupsPki, "1/kinstr"},
        {"llc.bypasses", num(stat(r, "llc.bypasses")), "count"},
        {"llc.awb_writebacks", num(stat(r, "llc.awbWritebacks")), "count"},
        {"dbi.evictions", num(stat(r, "dbi.evictions")), "count"},
        {"dram.read_row_hit", r.readRowHitRate, "ratio"},
        {"dram.write_row_hit", r.writeRowHitRate, "ratio"},
        {"dram.drain_cycles", num(stat(r, "dram.drainCycles")), "cycles"},
        {"sim.wpki", r.wpki, "1/kinstr"},
        {"sim.mpki", r.mpki, "1/kinstr"},
        {"fabric.messages", num(stat(r, "fabric.messages")), "count"},
    };
}

/** Decorator-timed layer metrics of one traced run. */
Metrics
layerMetrics(const Tracer &t, const MachineRun &m)
{
    auto calls = [&](Layer l) { return static_cast<double>(t[l].calls); };
    auto self_ns = [&](Layer l) {
        return ratio(static_cast<double>(t[l].selfNs), calls(l));
    };
    auto self_ms = [&](Layer l) {
        return static_cast<double>(t[l].selfNs) / 1e6;
    };
    return {
        {"workload.next_calls", calls(Layer::TraceNext), "count"},
        {"workload.next_ns", self_ns(Layer::TraceNext), "ns"},
        {"cpu.functional_calls", calls(Layer::Warm), "count"},
        {"cpu.functional_ms", self_ms(Layer::Warm), "ms"},
        {"cpu.wake_ms", self_ms(Layer::CoreWake), "ms"},
        {"llc.read_calls", calls(Layer::LlcRead), "count"},
        {"llc.read_self_ns", self_ns(Layer::LlcRead), "ns"},
        {"llc.writeback_calls", calls(Layer::LlcWriteback), "count"},
        {"llc.writeback_self_ns", self_ns(Layer::LlcWriteback), "ns"},
        {"llc.bypass_calls", calls(Layer::Bypass), "count"},
        {"llc.bypass_self_ns", self_ns(Layer::Bypass), "ns"},
        {"llc.awb_calls", calls(Layer::AfterEviction), "count"},
        {"llc.awb_self_ns", self_ns(Layer::AfterEviction), "ns"},
        {"dbi.calls", calls(Layer::DirtyStore), "count"},
        {"dbi.self_ns", self_ns(Layer::DirtyStore), "ns"},
        {"dram.read_calls", calls(Layer::DramRead), "count"},
        {"dram.write_calls", calls(Layer::DramWrite), "count"},
        {"dram.enqueue_self_ns",
         ratio(static_cast<double>(t[Layer::DramRead].selfNs +
                                   t[Layer::DramWrite].selfNs),
               calls(Layer::DramRead) + calls(Layer::DramWrite)),
         "ns"},
        {"dram.completion_calls", calls(Layer::DramCompletion), "count"},
        {"dram.completion_ms", self_ms(Layer::DramCompletion), "ms"},
        {"eq.steps", static_cast<double>(m.events), "count"},
        {"eq.self_ms", self_ms(Layer::EqStep), "ms"},
    };
}

/**
 * "" when the profiled run's host profile holds every field
 * shardMetrics() reads, one lane per partition; else the first one
 * missing. A build without the profiler leaves the profile empty.
 */
std::string
missingProfileField(const SysRun &profiled)
{
    const auto &hp = profiled.result.hostProfile;
    const auto shards = hp.find("shards");
    if (shards == hp.end() ||
        shards->second != profiled.cfg.topology().partitions) {
        return "host profile lacks one lane per partition";
    }
    std::vector<std::string> keys = {"runMs", "fabricDrainMs"};
    for (std::uint32_t s = 0; s < profiled.cfg.topology().partitions;
         ++s) {
        const std::string p = "s" + std::to_string(s) + ".";
        keys.insert(keys.end(),
                    {p + "workMs", p + "stallMs", p + "epochs"});
    }
    for (const std::string &k : keys) {
        if (!hp.count(k)) {
            return "host profile lacks " + k;
        }
    }
    return "";
}

Metrics
shardMetrics(const SysRun &untraced, const SysRun &profiled,
             const SysRun &one_worker)
{
    const auto &hp = profiled.result.hostProfile;
    auto get = [&](const std::string &k) {
        const auto it = hp.find(k);
        return it == hp.end() ? 0.0 : it->second;
    };
    double work = 0.0;
    double stall = 0.0;
    const auto shards = static_cast<std::uint32_t>(get("shards"));
    for (std::uint32_t s = 0; s < shards; ++s) {
        work += get("s" + std::to_string(s) + ".workMs");
        stall += get("s" + std::to_string(s) + ".stallMs");
    }
    return {
        {"shard.work_ms", work, "ms"},
        {"shard.stall_ms", stall, "ms"},
        {"shard.stall_share", ratio(stall, work + stall), "ratio"},
        {"shard.epochs", get("s0.epochs"), "count"},
        {"shard.fabric_drain_ms", get("fabricDrainMs"), "ms"},
        {"shard.speedup_4v1",
         ratio(one_worker.runSeconds, untraced.runSeconds), "x"},
    };
}

Metrics
microMetrics(const MicroResults &m)
{
    return {
        {"cache.find_ns", m.cacheFindNs, "ns"},
        {"cache.insert_ns", m.cacheInsertNs, "ns"},
        {"dbi.set_dirty_ns", m.dbiSetDirtyNs, "ns"},
        {"dbi.row_query_ns", m.dbiRowQueryNs, "ns"},
        {"eq.schedule_step_ns", m.eqScheduleStepNs, "ns"},
        {"dram.request_ns", m.dramRequestNs, "ns"},
    };
}

/** Element-wise median of several samples of one metric list. */
Metrics
medianOf(const std::vector<Metrics> &samples)
{
    Metrics out = samples.at(0);
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::vector<double> v;
        for (const Metrics &s : samples) {
            v.push_back(s.at(i).value);
        }
        out[i].value = median(v);
    }
    return out;
}

/** Zero-valued copies: layers this workload does not enter. */
Metrics
zeroed(Metrics m)
{
    for (Metric &x : m) {
        x.value = 0.0;
    }
    return m;
}

Metrics
measureLayers(const Options &o, RunChecks &checks)
{
    const auto begin = Clock::now();
    const TraceFile trace(o, 0);
    const std::string &trace_path = trace.path;
    const bool sharded = makeInputs(o.workload, o.seed, trace_path)
                             .cfg.topology()
                             .sharded();
    std::vector<Metrics> layer_samples;
    std::vector<Metrics> shard_samples;
    std::vector<double> overhead;
    SysRun last;
    double last_iteration = 0.0;
    // Start no iteration that would end past the deadline; the
    // microbenchmarks take about a second after the loop.
    while (overhead.empty() ||
           secondsSince(begin) + last_iteration + 1.0 < o.seconds) {
        const auto t0 = Clock::now();
        last = runSystem(o, trace_path);
        checks.result(last.cfg, last.result, "System run");
        if (!sharded) {
            Tracer tracer;
            const Inputs in = makeInputs(o.workload, o.seed, trace_path);
            const MachineRun m = runAssembled(in, &tracer);
            std::string err = checks.check(in.cfg, m.result);
            if (err.empty() && m.events != last.events) {
                err = "dispatched " + std::to_string(m.events) +
                      " events, System " + std::to_string(last.events);
            }
            checks.record("traced machine", err);
            layer_samples.push_back(layerMetrics(tracer, m));
            overhead.push_back(m.runSeconds / last.runSeconds);
        } else {
            const SysRun profiled = runSystem(o, trace_path, 0, true);
            checks.result(profiled.cfg, profiled.result,
                          "profiled 4-worker run");
            checks.record("host profile", missingProfileField(profiled));
            const SysRun one = runSystem(o, trace_path, 1);
            checks.result(one.cfg, one.result, "1-worker run");
            shard_samples.push_back(shardMetrics(last, profiled, one));
            overhead.push_back(profiled.runSeconds / last.runSeconds);
        }
        last_iteration = secondsSince(t0);
    }
    printSamples("trace.overhead", overhead, "x", false);

    Metrics out;
    const Metrics empty_layers = zeroed(
        layerMetrics(Tracer{}, MachineRun{}));
    const Metrics layers =
        layer_samples.empty() ? empty_layers : medianOf(layer_samples);
    out.insert(out.end(), layers.begin(), layers.end());
    const Metrics shards =
        shard_samples.empty() ? zeroed(shardMetrics({}, {}, {}))
                              : medianOf(shard_samples);
    out.insert(out.end(), shards.begin(), shards.end());
    const Metrics micros = microMetrics(runMicros(last.cfg, o.seed));
    out.insert(out.end(), micros.begin(), micros.end());
    out.push_back({"trace.overhead", median(overhead), "x"});
    const Metrics det = deterministicMetrics(last);
    out.insert(out.end(), det.begin(), det.end());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    RunChecks checks;
    const Metrics metrics =
        o.trace ? measureLayers(o, checks) : measureEndToEnd(o, checks);
    printProvenance(o, checks);

    for (const Metric &m : metrics) {
        std::printf("metric %-24s %.10g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    const bool correct = checks.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", checks.attempted, checks.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
