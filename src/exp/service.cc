#include "service.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>

#include "common/logging.hh"
#include "exp/json.hh"
#include "exp/runner.hh"
#include "sim/mechanism.hh"
#include "workload/profiles.hh"

namespace dbsim::exp {

namespace {

/**
 * Send one response line; false when the peer is gone (EPIPE & co).
 * MSG_NOSIGNAL: a dead client must surface as an error return, not a
 * SIGPIPE that kills the warm server.
 */
bool
sendLine(int fd, const std::string &line)
{
    std::string out = line;
    out += '\n';
    std::size_t sent = 0;
    while (sent < out.size()) {
        ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) {
                continue;
            }
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

bool
sendError(int fd, const std::string &message)
{
    return sendLine(fd, "{\"type\":\"error\",\"message\":" +
                            jsonString(message) + "}");
}

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Optional unsigned field; false (with an error sent) on bad type. */
bool
optU64(const JsonValue &req, const char *key, std::uint64_t &out,
       int fd, bool *sent_error)
{
    const JsonValue *v = req.find(key);
    if (!v) {
        return true;
    }
    if (!v->asU64(out)) {
        *sent_error = true;
        sendError(fd, std::string("field '") + key +
                          "' must be an unsigned integer");
        return false;
    }
    return true;
}

std::string
cacheStatsJson(const CacheStats &cs)
{
    return "{\"hits\":" + jsonNumber(cs.hits) +
           ",\"misses\":" + jsonNumber(cs.misses) +
           ",\"bypasses\":" + jsonNumber(cs.bypasses) + "}";
}

/** One Prometheus sample line: `name{labels} value` (labels optional). */
std::string
promLine(const std::string &name, const std::string &labels,
         const std::string &value)
{
    std::string line = name;
    if (!labels.empty()) {
        line += "{" + labels + "}";
    }
    line += " " + value + "\n";
    return line;
}

} // namespace

FarmService::FarmService(ServiceConfig config) : cfg(std::move(config))
{
    if (!cfg.cacheDir.empty()) {
        store = std::make_unique<ResultCache>(cfg.cacheDir);
    }
}

FarmService::~FarmService()
{
    if (listenFd >= 0) {
        ::close(listenFd);
    }
}

void
FarmService::stop()
{
    stopping.store(true);
    if (listenFd >= 0) {
        // Break the blocking accept().
        ::shutdown(listenFd, SHUT_RDWR);
    }
}

void
FarmService::serve()
{
    fatal_if(cfg.socketPath.empty(), "farm service needs a socket path");
    fatal_if(cfg.socketPath.size() >= sizeof(sockaddr_un{}.sun_path),
             "socket path '%s' is too long", cfg.socketPath.c_str());

    listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    fatal_if(listenFd < 0, "socket: %s", std::strerror(errno));

    ::unlink(cfg.socketPath.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    fatal_if(::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr)) != 0,
             "bind '%s': %s", cfg.socketPath.c_str(),
             std::strerror(errno));
    fatal_if(::listen(listenFd, 8) != 0, "listen: %s",
             std::strerror(errno));
    inform("farm server listening on %s (cache: %s)",
           cfg.socketPath.c_str(),
           store ? store->directory().c_str() : "off");

    std::vector<std::thread> clients;
    while (!stopping.load()) {
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR && !stopping.load()) {
                continue;
            }
            break;
        }
        clients.emplace_back([this, fd] {
            handleConnection(fd);
            ::close(fd);
        });
    }
    for (auto &t : clients) {
        t.join();
    }
    ::close(listenFd);
    listenFd = -1;
    ::unlink(cfg.socketPath.c_str());
}

void
FarmService::handleConnection(int fd)
{
    std::string buf;
    char chunk[4096];
    while (true) {
        std::size_t nl;
        while ((nl = buf.find('\n')) != std::string::npos) {
            std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r') {
                line.pop_back();
            }
            if (line.empty()) {
                continue;
            }
            if (!handleLine(line, fd)) {
                return;
            }
        }
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return;  // EOF or error: client is done
        }
        buf.append(chunk, static_cast<std::size_t>(n));
    }
}

bool
FarmService::err(int fd, const std::string &message)
{
    live.errors.fetch_add(1, std::memory_order_relaxed);
    return sendError(fd, message);
}

std::string
FarmService::statsBody() const
{
    double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      live.start)
            .count();
    std::string body = "{\"type\":\"stats\",\"cache\":";
    if (store) {
        body += cacheStatsJson(store->stats()) + ",\"entries\":" +
                jsonNumber(std::uint64_t(store->entryCount()));
    } else {
        body += "null";
    }
    body += ",\"uptimeSec\":" + jsonNumber(uptime);
    body += ",\"requests\":{\"ping\":" +
            jsonNumber(live.pings.load()) +
            ",\"stats\":" + jsonNumber(live.statsRequests.load()) +
            ",\"metrics\":" + jsonNumber(live.metricsRequests.load()) +
            ",\"sweep\":" + jsonNumber(live.sweepRequests.load()) +
            ",\"shutdown\":" + jsonNumber(live.shutdowns.load()) +
            ",\"errors\":" + jsonNumber(live.errors.load()) + "}";
    std::uint64_t count, p50, p95;
    {
        std::lock_guard<std::mutex> lock(live.histMu);
        count = live.sweepWallMs.count();
        p50 = live.sweepWallMs.percentile(50);
        p95 = live.sweepWallMs.percentile(95);
    }
    body += ",\"sweeps\":{\"inFlight\":" +
            jsonNumber(live.sweepsInFlight.load()) +
            ",\"completed\":" + jsonNumber(live.sweepsCompleted.load()) +
            ",\"count\":" + jsonNumber(count) +
            ",\"wallMsP50\":" + jsonNumber(p50) +
            ",\"wallMsP95\":" + jsonNumber(p95) + "}";
    body += "}";
    return body;
}

std::string
FarmService::prometheusText() const
{
    double uptime =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      live.start)
            .count();
    std::string t;
    t += "# HELP dbsim_farm_uptime_seconds Time since the farm service "
         "started.\n";
    t += "# TYPE dbsim_farm_uptime_seconds gauge\n";
    t += promLine("dbsim_farm_uptime_seconds", "", jsonNumber(uptime));

    t += "# HELP dbsim_farm_requests_total Requests handled, by verb.\n";
    t += "# TYPE dbsim_farm_requests_total counter\n";
    t += promLine("dbsim_farm_requests_total", "op=\"ping\"",
                  jsonNumber(live.pings.load()));
    t += promLine("dbsim_farm_requests_total", "op=\"stats\"",
                  jsonNumber(live.statsRequests.load()));
    t += promLine("dbsim_farm_requests_total", "op=\"metrics\"",
                  jsonNumber(live.metricsRequests.load()));
    t += promLine("dbsim_farm_requests_total", "op=\"sweep\"",
                  jsonNumber(live.sweepRequests.load()));
    t += promLine("dbsim_farm_requests_total", "op=\"shutdown\"",
                  jsonNumber(live.shutdowns.load()));

    t += "# HELP dbsim_farm_errors_total Requests rejected with an "
         "error response.\n";
    t += "# TYPE dbsim_farm_errors_total counter\n";
    t += promLine("dbsim_farm_errors_total", "",
                  jsonNumber(live.errors.load()));

    t += "# HELP dbsim_farm_sweeps_in_flight Sweeps currently "
         "running.\n";
    t += "# TYPE dbsim_farm_sweeps_in_flight gauge\n";
    t += promLine("dbsim_farm_sweeps_in_flight", "",
                  jsonNumber(live.sweepsInFlight.load()));
    t += "# HELP dbsim_farm_sweeps_completed_total Sweeps run to "
         "completion.\n";
    t += "# TYPE dbsim_farm_sweeps_completed_total counter\n";
    t += promLine("dbsim_farm_sweeps_completed_total", "",
                  jsonNumber(live.sweepsCompleted.load()));

    std::uint64_t count, p50, p95, maxv;
    {
        std::lock_guard<std::mutex> lock(live.histMu);
        count = live.sweepWallMs.count();
        p50 = live.sweepWallMs.percentile(50);
        p95 = live.sweepWallMs.percentile(95);
        maxv = live.sweepWallMs.max();
    }
    t += "# HELP dbsim_farm_sweep_wall_ms Wall time per completed "
         "sweep, milliseconds (nearest-rank percentiles).\n";
    t += "# TYPE dbsim_farm_sweep_wall_ms summary\n";
    t += promLine("dbsim_farm_sweep_wall_ms", "quantile=\"0.5\"",
                  jsonNumber(p50));
    t += promLine("dbsim_farm_sweep_wall_ms", "quantile=\"0.95\"",
                  jsonNumber(p95));
    t += promLine("dbsim_farm_sweep_wall_ms", "quantile=\"1\"",
                  jsonNumber(maxv));
    t += promLine("dbsim_farm_sweep_wall_ms_count", "",
                  jsonNumber(count));

    if (store) {
        CacheStats cs = store->stats();
        t += "# HELP dbsim_farm_cache_requests_total Result-cache "
             "traffic, by outcome.\n";
        t += "# TYPE dbsim_farm_cache_requests_total counter\n";
        t += promLine("dbsim_farm_cache_requests_total",
                      "outcome=\"hit\"", jsonNumber(cs.hits));
        t += promLine("dbsim_farm_cache_requests_total",
                      "outcome=\"miss\"", jsonNumber(cs.misses));
        t += promLine("dbsim_farm_cache_requests_total",
                      "outcome=\"bypass\"", jsonNumber(cs.bypasses));
        t += "# HELP dbsim_farm_cache_entries Entries in the result "
             "cache.\n";
        t += "# TYPE dbsim_farm_cache_entries gauge\n";
        t += promLine("dbsim_farm_cache_entries", "",
                      jsonNumber(std::uint64_t(store->entryCount())));
    }
    return t;
}

bool
FarmService::handleLine(const std::string &line, int fd)
{
    JsonValue req;
    std::string parse_error;
    if (!parseJson(line, req, &parse_error) || !req.isObject()) {
        err(fd, "bad request: " + parse_error);
        return true;
    }
    const JsonValue *op = req.find("op");
    if (!op || !op->isString()) {
        err(fd, "request needs a string 'op'");
        return true;
    }

    if (op->text == "ping") {
        live.pings.fetch_add(1, std::memory_order_relaxed);
        return sendLine(fd, "{\"type\":\"pong\",\"version\":" +
                                jsonString(ResultCache::kVersion) + "}");
    }
    if (op->text == "stats") {
        live.statsRequests.fetch_add(1, std::memory_order_relaxed);
        return sendLine(fd, statsBody());
    }
    if (op->text == "metrics") {
        live.metricsRequests.fetch_add(1, std::memory_order_relaxed);
        // The text exposition travels inside the JSON-lines transport;
        // a scraper sidecar unwraps "body" and serves it over HTTP.
        return sendLine(
            fd,
            "{\"type\":\"metrics\",\"contentType\":"
            "\"text/plain; version=0.0.4\",\"body\":" +
                jsonString(prometheusText()) + "}");
    }
    if (op->text == "shutdown") {
        live.shutdowns.fetch_add(1, std::memory_order_relaxed);
        sendLine(fd, "{\"type\":\"bye\"}");
        stop();
        return false;
    }
    if (op->text == "sweep") {
        live.sweepRequests.fetch_add(1, std::memory_order_relaxed);
        return runSweep(req, fd);
    }
    err(fd, "unknown op '" + op->text + "'");
    return true;
}

bool
FarmService::runSweep(const JsonValue &req, int fd)
{
    // -- Validate everything before building anything. ----------------
    const JsonValue *mechs = req.find("mechs");
    const JsonValue *mixes = req.find("mixes");
    if (!mechs || !mechs->isArray() || mechs->elements.empty()) {
        return err(fd, "'mechs' must be a non-empty array of "
                             "mechanism specs");
    }
    if (!mixes || !mixes->isArray() || mixes->elements.empty()) {
        return err(fd, "'mixes' must be a non-empty array of "
                             "benchmark-name arrays");
    }

    std::vector<MechanismSpec> mech_specs;
    for (const JsonValue &m : mechs->elements) {
        if (!m.isString()) {
            return err(fd, "'mechs' entries must be strings");
        }
        std::string why;
        auto spec = tryMechanismByName(m.text, &why);
        if (!spec) {
            return err(fd, why);
        }
        mech_specs.push_back(*spec);
    }

    std::vector<WorkloadMix> mix_list;
    for (const JsonValue &mx : mixes->elements) {
        if (!mx.isArray() || mx.elements.empty() ||
            mx.elements.size() > 64) {
            return err(fd, "each mix must be an array of 1-64 "
                                 "benchmark names");
        }
        WorkloadMix mix;
        for (const JsonValue &b : mx.elements) {
            if (!b.isString()) {
                return err(fd, "mix entries must be strings");
            }
            // File traces ("@path") would let clients read arbitrary
            // host files through the server; only named profiles are
            // accepted.
            if (!findBenchmark(b.text)) {
                return err(fd,
                                 "unknown benchmark '" + b.text + "'");
            }
            mix.push_back(b.text);
        }
        mix_list.push_back(std::move(mix));
    }

    PointKind kind = PointKind::Sim;
    if (const JsonValue *k = req.find("kind")) {
        if (!k->isString() ||
            (k->text != "sim" && k->text != "mix")) {
            return err(fd, "'kind' must be \"sim\" or \"mix\"");
        }
        kind = k->text == "mix" ? PointKind::MixSim : PointKind::Sim;
    }

    bool sent = false;
    std::uint64_t warmup = 0, measure = 0, seed = 0;
    std::uint64_t slices = 0, channels = 0, hop = 0;
    std::uint64_t jobs = cfg.jobs;
    if (!optU64(req, "warmup", warmup, fd, &sent) ||
        !optU64(req, "measure", measure, fd, &sent) ||
        !optU64(req, "seed", seed, fd, &sent) ||
        !optU64(req, "slices", slices, fd, &sent) ||
        !optU64(req, "channels", channels, fd, &sent) ||
        !optU64(req, "hop", hop, fd, &sent) ||
        !optU64(req, "jobs", jobs, fd, &sent)) {
        if (sent) {
            // optU64 sent the error itself; count it here so every
            // error response increments the metric exactly once.
            live.errors.fetch_add(1, std::memory_order_relaxed);
        }
        return sent;  // error already reported; keep the connection
    }

    // The cheap topology rules resolveTopology() enforces with fatal():
    // checked here non-fatally so a bad machine shape is a request
    // error, not a dead server.
    if (slices && (!isPow2(slices) || slices > 64)) {
        return err(fd, "'slices' must be a power of two in "
                             "[1,64]");
    }
    if (channels && (!isPow2(channels) || channels > 64)) {
        return err(fd, "'channels' must be a power of two in "
                             "[1,64]");
    }
    if (hop != 0) {
        // Replicates the slice/channel derivation of resolveTopology()
        // per mix (core count = mix size): hop on a machine that
        // resolves to one slice and one channel is a config error.
        for (const WorkloadMix &mix : mix_list) {
            std::uint64_t derived = 1;
            while (derived * 2 <= std::max<std::uint64_t>(
                                      1, mix.size() / 16)) {
                derived *= 2;
            }
            std::uint64_t s = slices ? slices
                                     : (mix.size() <= 8 ? 1 : derived);
            std::uint64_t c = channels ? channels : s;
            if (s == 1 && c == 1) {
                return err(
                    fd, "'hop' is set but a mix of " +
                            jsonNumber(std::uint64_t(mix.size())) +
                            " cores resolves to one slice and one "
                            "channel");
            }
        }
    }

    std::string experiment = "farm";
    if (const JsonValue *e = req.find("experiment")) {
        if (!e->isString()) {
            return err(fd, "'experiment' must be a string");
        }
        experiment = e->text;
    }

    // -- Build the sweep. ---------------------------------------------
    SweepSpec spec;
    spec.base().seed = seed ? seed : spec.base().seed;
    if (warmup) {
        spec.base().core.warmupInstrs = warmup;
    }
    if (measure) {
        spec.base().core.measureInstrs = measure;
    }
    spec.base().llcSlices = static_cast<std::uint32_t>(slices);
    spec.base().dram.channels = static_cast<std::uint32_t>(channels);
    spec.base().shardHopLatency = hop;
    spec.base().auditEvery = 0;
    spec.setAloneBase(spec.base());

    for (const MechanismSpec &m : mech_specs) {
        for (const WorkloadMix &mix : mix_list) {
            SweepPoint &p = kind == PointKind::MixSim
                                ? spec.addMixSim(m, mix)
                                : spec.addSim(m, mix);
            p.cfg.numCores = static_cast<std::uint32_t>(mix.size());
        }
    }

    RunOptions run_opts;
    run_opts.jobs = static_cast<std::uint32_t>(jobs ? jobs : 1);
    run_opts.progress = false;
    run_opts.experiment = experiment;
    run_opts.cache = store.get();

    std::size_t total = spec.points().size();
    std::size_t streamed = 0;
    std::mutex sendMu;
    bool peer_alive = true;
    run_opts.onRecord = [&](const PointRecord &rec) {
        // Called under the runner's sink lock, but from whichever
        // worker finished the point; the send itself needs no extra
        // lock beyond being serialized, which the sink lock provides.
        std::lock_guard<std::mutex> lock(sendMu);
        if (!peer_alive) {
            return;
        }
        ++streamed;
        if (!sendLine(fd, "{\"type\":\"record\",\"data\":" +
                              rec.toJsonLine() + "}") ||
            !sendLine(fd,
                      "{\"type\":\"progress\",\"completed\":" +
                          jsonNumber(std::uint64_t(streamed)) +
                          ",\"total\":" +
                          jsonNumber(std::uint64_t(total)) + "}")) {
            // Client went away mid-sweep. Finish the sweep anyway:
            // the results land in the shared cache, so the retry the
            // client is about to make will be all hits.
            peer_alive = false;
        }
    };

    live.sweepsInFlight.fetch_add(1, std::memory_order_relaxed);
    auto sweep_begin = std::chrono::steady_clock::now();
    ExperimentRunner runner(run_opts);
    runner.run(spec);
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - sweep_begin)
                         .count();
    live.sweepsInFlight.fetch_sub(1, std::memory_order_relaxed);
    live.sweepsCompleted.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(live.histMu);
        live.sweepWallMs.record(
            static_cast<std::uint64_t>(wall_ms + 0.5));
    }
    const RunStats &rs = runner.lastRun();

    std::string done = "{\"type\":\"done\",\"points\":" +
                       jsonNumber(std::uint64_t(total)) + ",\"cache\":";
    done += store ? cacheStatsJson(rs.cache) : std::string("null");
    done += "}";
    std::lock_guard<std::mutex> lock(sendMu);
    return peer_alive && sendLine(fd, done);
}

} // namespace dbsim::exp
