/**
 * @file
 * Farm-service protocol tests, driven through the handleConnection()
 * seam over a socketpair — no real listening socket needed. The core
 * guarantees: malformed or invalid requests produce {"type":"error"}
 * responses and leave the connection (and the would-be server process)
 * alive, sweeps stream record/progress lines before one done line, and
 * a repeated sweep over the same content is served entirely from the
 * warm cache.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "exp/json.hh"
#include "exp/service.hh"
#include "support/temp_path.hh"

namespace dbsim::exp {
namespace {

/** Client end of a socketpair talking JSON lines to the service. */
class FarmClient
{
  public:
    explicit FarmClient(FarmService &svc)
    {
        int sv[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
        fd = sv[0];
        int server_fd = sv[1];
        server = std::thread([&svc, server_fd] {
            svc.handleConnection(server_fd);
            ::close(server_fd);
        });
    }

    ~FarmClient()
    {
        close();
        server.join();
    }

    void send(const std::string &line)
    {
        std::string out = line + "\n";
        ASSERT_EQ(::write(fd, out.data(), out.size()),
                  static_cast<ssize_t>(out.size()));
    }

    /** Next response line parsed as JSON; fails the test on EOF. */
    JsonValue recv()
    {
        std::string line;
        EXPECT_TRUE(recvRaw(line));
        JsonValue v;
        std::string err;
        EXPECT_TRUE(parseJson(line, v, &err)) << line << ": " << err;
        return v;
    }

    /** Next raw line; false on EOF. */
    bool recvRaw(std::string &line)
    {
        std::size_t nl;
        while ((nl = buf.find('\n')) == std::string::npos) {
            char chunk[4096];
            ssize_t n = ::read(fd, chunk, sizeof(chunk));
            if (n <= 0) {
                return false;
            }
            buf.append(chunk, static_cast<std::size_t>(n));
        }
        line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return true;
    }

    std::string type(const JsonValue &v)
    {
        const JsonValue *t = v.find("type");
        return t && t->isString() ? t->text : "<none>";
    }

    void close()
    {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }

  private:
    int fd = -1;
    std::string buf;
    std::thread server;
};

class FarmServiceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir = test::tempPath("dbsim_farm");
        std::filesystem::remove_all(dir);
        cfg.cacheDir = dir;
        cfg.jobs = 2;
    }

    void TearDown() override { std::filesystem::remove_all(dir); }

    std::string dir;
    ServiceConfig cfg;
};

TEST_F(FarmServiceTest, PingPongAndStats)
{
    FarmService svc(cfg);
    FarmClient client(svc);
    client.send(R"({"op":"ping"})");
    JsonValue pong = client.recv();
    EXPECT_EQ(client.type(pong), "pong");

    client.send(R"({"op":"stats"})");
    JsonValue stats = client.recv();
    EXPECT_EQ(client.type(stats), "stats");
    const JsonValue *cache = stats.find("cache");
    ASSERT_NE(cache, nullptr);
    ASSERT_TRUE(cache->isObject());
    std::uint64_t entries = 99;
    ASSERT_TRUE(stats.find("entries")->asU64(entries));
    EXPECT_EQ(entries, 0u);
}

TEST_F(FarmServiceTest, BadRequestsAreErrorsNotDisconnects)
{
    FarmService svc(cfg);
    FarmClient client(svc);

    const char *bad[] = {
        "this is not json",
        R"({"no_op":1})",
        R"({"op":"frobnicate"})",
        R"({"op":"sweep"})",
        R"({"op":"sweep","mechs":["NoSuchMechanism"],)"
        R"("mixes":[["lbm"]]})",
        R"({"op":"sweep","mechs":["Baseline"],)"
        R"("mixes":[["no_such_benchmark"]]})",
        R"({"op":"sweep","mechs":["Baseline"],)"
        R"("mixes":[["lbm"]],"kind":"bogus"})",
        R"({"op":"sweep","mechs":["Baseline"],)"
        R"("mixes":[["lbm"]],"seed":-1})",
        R"({"op":"sweep","mechs":["Baseline"],)"
        R"("mixes":[["lbm","mcf"]],"slices":3})",
        // hop on a mix that resolves to one slice / one channel.
        R"({"op":"sweep","mechs":["Baseline"],)"
        R"("mixes":[["lbm","mcf"]],"hop":64})",
    };
    for (const char *req : bad) {
        SCOPED_TRACE(req);
        client.send(req);
        JsonValue resp = client.recv();
        EXPECT_EQ(client.type(resp), "error");
        EXPECT_FALSE(resp.find("message")->text.empty());
    }

    // The connection survived all of it.
    client.send(R"({"op":"ping"})");
    EXPECT_EQ(client.type(client.recv()), "pong");
}

TEST_F(FarmServiceTest, FileTraceMixEntriesAreRejected)
{
    FarmService svc(cfg);
    FarmClient client(svc);
    // "@path" names open host files in the bench binaries; the server
    // must refuse them rather than read arbitrary files for clients.
    client.send(R"({"op":"sweep","mechs":["Baseline"],)"
                R"("mixes":[["@/etc/passwd"]]})");
    JsonValue resp = client.recv();
    EXPECT_EQ(client.type(resp), "error");
}

TEST_F(FarmServiceTest, SweepStreamsRecordsProgressThenDone)
{
    FarmService svc(cfg);
    FarmClient client(svc);
    client.send(
        R"({"op":"sweep","mechs":["Baseline","dbi+awb"],)"
        R"("mixes":[["lbm","libquantum"]],)"
        R"("warmup":20000,"measure":15000,"experiment":"farmtest"})");

    std::size_t records = 0, progress = 0;
    std::uint64_t last_completed = 0;
    JsonValue done;
    while (true) {
        JsonValue resp = client.recv();
        std::string t = client.type(resp);
        if (t == "record") {
            ++records;
            const JsonValue *data = resp.find("data");
            ASSERT_NE(data, nullptr);
            EXPECT_EQ(data->find("experiment")->text, "farmtest");
        } else if (t == "progress") {
            ++progress;
            ASSERT_TRUE(
                resp.find("completed")->asU64(last_completed));
        } else {
            done = resp;
            break;
        }
    }
    EXPECT_EQ(client.type(done), "done");
    EXPECT_EQ(records, 2u);
    EXPECT_EQ(progress, 2u);
    EXPECT_EQ(last_completed, 2u);
    std::uint64_t points = 0;
    ASSERT_TRUE(done.find("points")->asU64(points));
    EXPECT_EQ(points, 2u);
}

TEST_F(FarmServiceTest, RepeatSweepIsServedFromTheWarmCache)
{
    FarmService svc(cfg);
    const std::string sweep =
        R"({"op":"sweep","mechs":["Baseline"],)"
        R"("mixes":[["lbm"],["mcf"]],)"
        R"("warmup":20000,"measure":15000})";

    auto runAndCountHits = [&](std::size_t *records) {
        FarmClient client(svc);
        client.send(sweep);
        *records = 0;
        while (true) {
            JsonValue resp = client.recv();
            std::string t = client.type(resp);
            if (t == "record") {
                ++*records;
            } else if (t == "done") {
                std::uint64_t hits = 0;
                resp.find("cache")->find("hits")->asU64(hits);
                return hits;
            } else {
                EXPECT_EQ(t, "progress");
            }
        }
    };

    std::size_t first_records = 0, second_records = 0;
    EXPECT_EQ(runAndCountHits(&first_records), 0u);
    EXPECT_EQ(first_records, 2u);
    // Second client, same content: all hits, identical record count.
    EXPECT_EQ(runAndCountHits(&second_records), 2u);
    EXPECT_EQ(second_records, 2u);
}

TEST_F(FarmServiceTest, MetricsVerbEmitsPrometheusText)
{
    FarmService svc(cfg);
    FarmClient client(svc);
    client.send(R"({"op":"ping"})");
    EXPECT_EQ(client.type(client.recv()), "pong");
    client.send(R"({"op":"ping"})");
    EXPECT_EQ(client.type(client.recv()), "pong");

    client.send(R"({"op":"metrics"})");
    JsonValue resp = client.recv();
    EXPECT_EQ(client.type(resp), "metrics");
    const JsonValue *ct = resp.find("contentType");
    ASSERT_NE(ct, nullptr);
    EXPECT_EQ(ct->text, "text/plain; version=0.0.4");
    const JsonValue *body = resp.find("body");
    ASSERT_NE(body, nullptr);
    ASSERT_TRUE(body->isString());
    const std::string &text = body->text;
    EXPECT_NE(text.find("# TYPE dbsim_farm_uptime_seconds gauge"),
              std::string::npos);
    EXPECT_NE(text.find("dbsim_farm_requests_total{op=\"ping\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE dbsim_farm_requests_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("dbsim_farm_errors_total 0\n"),
              std::string::npos);
    EXPECT_NE(text.find("dbsim_farm_sweeps_in_flight 0\n"),
              std::string::npos);
    // The cache is configured, so its traffic is exported too.
    EXPECT_NE(text.find("dbsim_farm_cache_entries"), std::string::npos);
}

TEST_F(FarmServiceTest, CountersAdvanceAcrossConcurrentClients)
{
    FarmService svc(cfg);
    const std::string sweep =
        R"({"op":"sweep","mechs":["Baseline"],"mixes":[["lbm"]],)"
        R"("warmup":20000,"measure":15000})";

    // Two clients, each on its own connection thread, sweeping at the
    // same time: every counter below is touched from both threads.
    auto drain = [&](FarmClient &c) {
        while (true) {
            JsonValue resp = c.recv();
            std::string t = c.type(resp);
            if (t == "done") {
                return;
            }
            ASSERT_TRUE(t == "record" || t == "progress") << t;
        }
    };
    {
        FarmClient a(svc), b(svc);
        a.send(sweep);
        b.send(sweep);
        drain(a);
        drain(b);
    }

    FarmClient c(svc);
    c.send(R"({"op":"stats"})");
    JsonValue stats = c.recv();
    EXPECT_EQ(c.type(stats), "stats");

    const JsonValue *reqs = stats.find("requests");
    ASSERT_NE(reqs, nullptr);
    std::uint64_t sweeps = 0, errors = 99;
    ASSERT_TRUE(reqs->find("sweep")->asU64(sweeps));
    ASSERT_TRUE(reqs->find("errors")->asU64(errors));
    EXPECT_EQ(sweeps, 2u);
    EXPECT_EQ(errors, 0u);

    const JsonValue *sw = stats.find("sweeps");
    ASSERT_NE(sw, nullptr);
    std::uint64_t in_flight = 99, completed = 0, count = 0, p50 = 0;
    ASSERT_TRUE(sw->find("inFlight")->asU64(in_flight));
    ASSERT_TRUE(sw->find("completed")->asU64(completed));
    ASSERT_TRUE(sw->find("count")->asU64(count));
    ASSERT_TRUE(sw->find("wallMsP50")->asU64(p50));
    EXPECT_EQ(in_flight, 0u);
    EXPECT_EQ(completed, 2u);
    EXPECT_EQ(count, 2u);
    EXPECT_GT(p50, 0u);

    EXPECT_NE(stats.find("uptimeSec"), nullptr);

    // The same totals through the Prometheus surface.
    c.send(R"({"op":"metrics"})");
    JsonValue m = c.recv();
    const std::string &text = m.find("body")->text;
    EXPECT_NE(text.find("dbsim_farm_sweeps_completed_total 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("dbsim_farm_requests_total{op=\"sweep\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("dbsim_farm_sweep_wall_ms_count 2\n"),
              std::string::npos);
}

TEST_F(FarmServiceTest, MalformedMetricsRequestIsNonFatal)
{
    FarmService svc(cfg);
    FarmClient client(svc);

    // Truncated JSON on the metrics verb: an error line, not a dead
    // server, and the error shows up in the error counter.
    client.send(R"({"op":"metrics",)");
    EXPECT_EQ(client.type(client.recv()), "error");
    client.send(R"({"op":5})");
    EXPECT_EQ(client.type(client.recv()), "error");

    client.send(R"({"op":"metrics"})");
    JsonValue resp = client.recv();
    EXPECT_EQ(client.type(resp), "metrics");
    const std::string &text = resp.find("body")->text;
    EXPECT_NE(text.find("dbsim_farm_errors_total 2\n"),
              std::string::npos);

    // And the connection still serves other verbs.
    client.send(R"({"op":"ping"})");
    EXPECT_EQ(client.type(client.recv()), "pong");
}

TEST_F(FarmServiceTest, ShutdownSaysByeAndClosesTheConnection)
{
    FarmService svc(cfg);
    FarmClient client(svc);
    client.send(R"({"op":"shutdown"})");
    JsonValue bye = client.recv();
    EXPECT_EQ(client.type(bye), "bye");
    std::string extra;
    EXPECT_FALSE(client.recvRaw(extra));  // server hung up
}

} // namespace
} // namespace dbsim::exp
