/**
 * @file
 * The experiment-farm service: one warm process multiplexing sweep
 * requests from many clients over a single shared result cache, so a
 * team's (or a script loop's) repeated sweeps pay simulation cost only
 * for content nobody has computed yet.
 *
 * Transport is a unix-domain stream socket speaking JSON lines, one
 * request per line:
 *
 *   {"op":"ping"}
 *   {"op":"stats"}
 *   {"op":"metrics"}
 *   {"op":"sweep","mechs":["Baseline","dbi+awb"],
 *    "mixes":[["milc","lbm"],["mcf","gcc"]],
 *    "kind":"mix",              // "sim" | "mix" (default "sim")
 *    "warmup":30000,"measure":20000,"seed":1,   // optional
 *    "slices":0,"channels":0,"hop":0,           // optional topology
 *    "jobs":4,"experiment":"farm"}               // optional execution
 *   {"op":"shutdown"}
 *
 * and streams JSON-line responses back: {"type":"progress",...} after
 * every completed point, {"type":"record","data":{...}} per record
 * (data is the exact JSONL record object the bench binaries emit),
 * then one {"type":"done",...} carrying cache traffic counters. Bad
 * requests get {"type":"error","message":...} and the connection —
 * and the server — keep going: request validation goes through the
 * non-fatal seams (tryMechanismByName, findBenchmark, the topology
 * rules) precisely so a typo cannot take down the warm process.
 *
 * Observability: "stats" reports, besides the cache counters it always
 * carried, the service uptime, per-verb request counts (including
 * errors), and sweep traffic (in-flight, completed, wall-time p50/p95
 * over completed sweeps). "metrics" returns the same counters in
 * Prometheus text exposition format (version 0.0.4), wrapped as
 * {"type":"metrics","contentType":...,"body":...} so a scraper
 * sidecar only has to unwrap one JSON field. All counters are updated
 * race-free from the per-connection threads.
 */

#ifndef DBSIM_EXP_SERVICE_HH
#define DBSIM_EXP_SERVICE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exp/result_cache.hh"
#include "telemetry/histogram.hh"

namespace dbsim::exp {

struct JsonValue;

/** Farm-server settings. */
struct ServiceConfig
{
    /** Unix-socket path to listen on (serve() unlinks + binds it). */
    std::string socketPath;

    /** Result-cache directory; "" serves without a persistent cache. */
    std::string cacheDir;

    /** Default worker threads per sweep (requests may override). */
    std::uint32_t jobs = 1;
};

class FarmService
{
  public:
    explicit FarmService(ServiceConfig config);
    ~FarmService();

    /**
     * Bind the socket and serve until a client sends {"op":"shutdown"}
     * or stop() is called from another thread. Each connection is
     * handled on its own thread; sweeps from different clients share
     * the one warm cache.
     */
    void serve();

    /**
     * Handle one already-connected stream socket until EOF (the unit
     * tests drive this directly over a socketpair; serve() calls it
     * per accepted connection).
     */
    void handleConnection(int fd);

    /** Make serve() return; safe from signal-adjacent contexts. */
    void stop();

    /** The warm cache (nullptr when cacheDir was empty). */
    ResultCache *cache() { return store.get(); }

  private:
    /**
     * Live service observability, shared by every connection thread.
     * The counters are atomics, bumped straight from the connection
     * threads; the sweep wall-time histogram sits behind its own mutex
     * because Histogram is not thread-safe (percentile() lazily sorts
     * even through const).
     */
    struct Metrics
    {
        std::chrono::steady_clock::time_point start =
            std::chrono::steady_clock::now();
        std::atomic<std::uint64_t> pings{0};
        std::atomic<std::uint64_t> statsRequests{0};
        std::atomic<std::uint64_t> metricsRequests{0};
        std::atomic<std::uint64_t> sweepRequests{0};
        std::atomic<std::uint64_t> shutdowns{0};
        std::atomic<std::uint64_t> errors{0};
        std::atomic<std::uint64_t> sweepsInFlight{0};
        std::atomic<std::uint64_t> sweepsCompleted{0};
        mutable std::mutex histMu;
        telemetry::Histogram sweepWallMs{"sweepWallMs"};
    };

    bool handleLine(const std::string &line, int fd);
    bool runSweep(const JsonValue &req, int fd);

    /** sendError + the error counter; use for every request error. */
    bool err(int fd, const std::string &message);

    /** Body of the "stats" response (counters + cache). */
    std::string statsBody() const;

    /** Prometheus text exposition of the same counters. */
    std::string prometheusText() const;

    ServiceConfig cfg;
    std::unique_ptr<ResultCache> store;
    Metrics live;
    std::atomic<bool> stopping{false};
    int listenFd = -1;
};

} // namespace dbsim::exp

#endif // DBSIM_EXP_SERVICE_HH
