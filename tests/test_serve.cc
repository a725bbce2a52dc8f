/**
 * @file
 * Serving-subsystem tests: JSON request parser, protocol
 * validation, the LRU result cache, and full daemon round-trips
 * over real sockets (Unix-domain and loopback TCP) — including the
 * multi-client stress run that is the TSan target (`ctest -R
 * serve_tsan`). Every suite here is named Serve* so the aggregate
 * sanitizer entry picks it up by filter.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <ftw.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/limits.hh"
#include "serve/admission.hh"
#include "serve/cache.hh"
#include "serve/json_in.hh"
#include "serve/net.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

using namespace olight;
using namespace olight::serve;

// ---------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------

TEST(ServeJson, ParsesScalarsAndNesting)
{
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(
        R"({"a":1,"b":-2.5,"c":"x\nA","d":[true,false,null],)"
        R"("e":{"f":[1,2,3]}})",
        v, err))
        << err;
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.find("a")->number, 1.0);
    EXPECT_DOUBLE_EQ(v.find("b")->number, -2.5);
    EXPECT_EQ(v.find("c")->string, "x\nA");
    ASSERT_TRUE(v.find("d")->isArray());
    EXPECT_EQ(v.find("d")->array.size(), 3u);
    EXPECT_TRUE(v.find("d")->array[2].isNull());
    EXPECT_EQ(v.find("e")->find("f")->array.size(), 3u);
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(ServeJson, RejectsMalformedInput)
{
    JsonValue v;
    std::string err;
    const char *bad[] = {
        "",           "{",         "{\"a\":}",  "[1,2,]",
        "{\"a\":1}x", "nul",       "\"unterminated",
        "01",         "1e999",     "{\"a\" 1}",
    };
    for (const char *text : bad) {
        EXPECT_FALSE(parseJson(text, v, err)) << text;
        EXPECT_NE(err.find("offset"), std::string::npos) << err;
    }
}

TEST(ServeJson, BoundsNestingDepth)
{
    std::string deep(100, '[');
    deep += std::string(100, ']');
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson(deep, v, err));
    EXPECT_NE(err.find("deep"), std::string::npos) << err;
}

TEST(ServeJson, AsU64IsStrict)
{
    JsonValue v;
    std::string err;
    std::uint64_t out = 0;
    ASSERT_TRUE(parseJson("[42, -1, 2.5, 1e3]", v, err)) << err;
    EXPECT_TRUE(v.array[0].asU64(out));
    EXPECT_EQ(out, 42u);
    EXPECT_FALSE(v.array[1].asU64(out)); // negative
    EXPECT_FALSE(v.array[2].asU64(out)); // fractional
    EXPECT_TRUE(v.array[3].asU64(out));  // 1000, integral
    EXPECT_EQ(out, 1000u);
}

// ---------------------------------------------------------------
// Protocol parse + validation
// ---------------------------------------------------------------

TEST(ServeProtocol, ParsesRunRequest)
{
    Request req;
    std::string err;
    ASSERT_TRUE(parseRequest(
        R"({"cmd":"run","id":7,"workload":"Triad","elements":4096,)"
        R"("mode":"fence","ts":512,"bmf":8,"verify":true})",
        req, err))
        << err;
    EXPECT_EQ(req.cmd, Cmd::Run);
    EXPECT_EQ(req.id, "7");
    EXPECT_EQ(req.run.workload, "Triad");
    EXPECT_EQ(req.run.elements, 4096u);
    EXPECT_EQ(req.run.mode, OrderingMode::Fence);
    EXPECT_EQ(req.run.tsBytes, 512u);
    EXPECT_EQ(req.run.bmf, 8u);
    EXPECT_TRUE(req.run.verify);
}

TEST(ServeProtocol, ParsesSweepRequest)
{
    Request req;
    std::string err;
    ASSERT_TRUE(parseRequest(
        R"({"cmd":"sweep","workloads":["Copy","Add"],)"
        R"("modes":["fence","orderlight"],"ts":[128,256],)"
        R"("bmf":[16],"elements":4096,"jobs":2})",
        req, err))
        << err;
    EXPECT_EQ(req.cmd, Cmd::Sweep);
    EXPECT_EQ(req.sweep.workloads.size(), 2u);
    EXPECT_EQ(req.sweep.modes.size(), 2u);
    EXPECT_EQ(req.sweep.tsSizes.size(), 2u);
    EXPECT_EQ(req.sweep.points(), 8u);
    EXPECT_EQ(req.sweep.jobs, 2u);
    EXPECT_FALSE(req.sweep.verify); // wire default: off
}

struct BadCase
{
    const char *line;
    const char *code;
};

TEST(ServeProtocol, RejectsBadRequestsWithStructuredCodes)
{
    const BadCase cases[] = {
        {"not json", "bad_json"},
        {"{\"no_cmd\":1}", "bad_request"},
        {R"({"cmd":"frobnicate"})", "unknown_cmd"},
        {R"({"cmd":"run","workload":"NoSuchWorkload"})",
         "bad_request"},
        {R"({"cmd":"run","mode":"telepathy"})", "bad_request"},
        {R"({"cmd":"run","elements":0})", "limit_exceeded"},
        {R"({"cmd":"run","elements":999999999999})",
         "limit_exceeded"},
        {R"({"cmd":"sweep","jobs":100000})", "limit_exceeded"},
        {R"({"cmd":"sweep","workloads":[]})", "limit_exceeded"},
        {R"({"cmd":"run","surprise_field":1})", "bad_request"},
        {R"({"cmd":"run","elements":"lots"})", "bad_request"},
    };
    for (const BadCase &c : cases) {
        Request req;
        std::string err;
        EXPECT_FALSE(parseRequest(c.line, req, err)) << c.line;
        EXPECT_NE(err.find("\"ok\":false"), std::string::npos)
            << err;
        EXPECT_NE(err.find(c.code), std::string::npos)
            << c.line << " -> " << err;
        // Every error reply must itself be valid JSON.
        JsonValue v;
        std::string jerr;
        EXPECT_TRUE(parseJson(err, v, jerr)) << err;
    }
}

TEST(ServeProtocol, ErrorReplyCarriesRetryAfter)
{
    std::string r = errorReply("\"abc\"", "busy", "full", 250);
    EXPECT_EQ(r, "{\"ok\":false,\"id\":\"abc\",\"error\":"
                 "{\"code\":\"busy\",\"message\":\"full\","
                 "\"retry_after_ms\":250}}");
    EXPECT_EQ(errorReply("", "bad_json", "x"),
              "{\"ok\":false,\"error\":{\"code\":\"bad_json\","
              "\"message\":\"x\"}}");
}

TEST(ServeProtocol, SharedLimitsMatchCliBounds)
{
    std::string why;
    EXPECT_TRUE(limits::checkRequest(1, 1, 1, why));
    EXPECT_FALSE(
        limits::checkRequest(limits::kMaxElements + 1, 1, 1, why));
    EXPECT_NE(why.find("exceeds"), std::string::npos);
    EXPECT_FALSE(
        limits::checkRequest(1, limits::kMaxJobs + 1, 1, why));
    EXPECT_FALSE(limits::checkRequest(
        1, 1, limits::kMaxSweepPoints + 1, why));
    EXPECT_FALSE(limits::checkRequest(0, 1, 1, why));
    EXPECT_FALSE(limits::checkRequest(1, 1, 0, why));
}

TEST(ServeProtocol, ParsesClientIdentityAndCpuHost)
{
    Request req;
    std::string err;
    ASSERT_TRUE(parseRequest(
        R"({"cmd":"run","workload":"Copy","elements":4096,)"
        R"("client":"tenant-a","cpu_host":true})",
        req, err))
        << err;
    EXPECT_EQ(req.client, "tenant-a");
    EXPECT_TRUE(req.cpuHost);

    // The identity never reaches the fingerprint: two tenants
    // asking the same question share one cache entry.
    Request other;
    ASSERT_TRUE(parseRequest(
        R"({"cmd":"run","workload":"Copy","elements":4096,)"
        R"("client":"tenant-b","cpu_host":true})",
        other, err))
        << err;
    EXPECT_EQ(fingerprint(req.run), fingerprint(other.run));
}

// ---------------------------------------------------------------
// Per-client fair admission
// ---------------------------------------------------------------

TEST(ServeAdmission, GlobalBoundStillRejectsBusy)
{
    Admission a(2, 2);
    EXPECT_EQ(a.tryAdmit("x"), Admission::Verdict::Admitted);
    EXPECT_EQ(a.tryAdmit("y"), Admission::Verdict::Admitted);
    EXPECT_EQ(a.tryAdmit("z"), Admission::Verdict::RejectedBusy);
    a.release("x");
    EXPECT_EQ(a.tryAdmit("z"), Admission::Verdict::Admitted);

    Admission::Stats s = a.stats();
    EXPECT_EQ(s.inflight, 2u);
    EXPECT_EQ(s.peakInflight, 2u);
    EXPECT_EQ(s.busyRejected, 1u);
    EXPECT_EQ(s.fairnessRejected, 0u);
    EXPECT_EQ(s.activeClients, 2u);
}

TEST(ServeAdmission, ClientShareCapsAHotTenant)
{
    // 4 slots, 2 per client: a hot tenant stalls at 2 while a
    // second tenant's slots stay reachable.
    Admission a(4, 2);
    EXPECT_EQ(a.tryAdmit("hot"), Admission::Verdict::Admitted);
    EXPECT_EQ(a.tryAdmit("hot"), Admission::Verdict::Admitted);
    EXPECT_EQ(a.tryAdmit("hot"),
              Admission::Verdict::RejectedShare);
    EXPECT_EQ(a.tryAdmit("cold"), Admission::Verdict::Admitted);
    EXPECT_EQ(a.tryAdmit("cold"), Admission::Verdict::Admitted);
    // All 4 slots now held: the global bound outranks the share
    // check (a full house is `busy`, not a fairness complaint).
    EXPECT_EQ(a.tryAdmit("cold"), Admission::Verdict::RejectedBusy);
    EXPECT_EQ(a.stats().fairnessRejected, 1u);
    EXPECT_EQ(a.stats().busyRejected, 1u);

    // Releases reopen the client's share, and a fully released
    // client leaves the active set.
    a.release("hot");
    EXPECT_EQ(a.tryAdmit("hot"), Admission::Verdict::Admitted);
    a.release("cold");
    a.release("cold");
    EXPECT_EQ(a.stats().activeClients, 1u);
}

TEST(ServeAdmission, DefaultShareIsHalfTheLimitRoundedUp)
{
    EXPECT_EQ(Admission(4, 0).clientShare(), 2u);
    EXPECT_EQ(Admission(5, 0).clientShare(), 3u);
    EXPECT_EQ(Admission(1, 0).clientShare(), 1u);
    // An explicit share can never exceed the global limit.
    EXPECT_EQ(Admission(4, 99).clientShare(), 4u);
}

// ---------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------

TEST(ServeCache, HitRefreshesRecencyAndEvictsLru)
{
    ResultCache cache(2);
    std::string body;
    EXPECT_FALSE(cache.get(1, body));
    cache.put(1, "one");
    cache.put(2, "two");
    ASSERT_TRUE(cache.get(1, body)); // 1 now most recent
    EXPECT_EQ(body, "one");
    cache.put(3, "three"); // evicts 2, the LRU entry
    EXPECT_FALSE(cache.get(2, body));
    EXPECT_TRUE(cache.get(1, body));
    EXPECT_TRUE(cache.get(3, body));

    ResultCache::Stats s = cache.stats();
    EXPECT_EQ(s.entries, 2u);
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.hits, 3u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.bytes, std::string("one").size() +
                           std::string("three").size());
}

TEST(ServeCache, OverwriteReplacesBody)
{
    ResultCache cache(4);
    cache.put(9, "old");
    cache.put(9, "new-longer");
    std::string body;
    ASSERT_TRUE(cache.get(9, body));
    EXPECT_EQ(body, "new-longer");
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().bytes, std::string("new-longer").size());
}

TEST(ServeCache, ZeroCapacityDisables)
{
    ResultCache cache(0);
    cache.put(1, "x");
    std::string body;
    EXPECT_FALSE(cache.get(1, body));
    EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------------
// Live daemon round-trips
// ---------------------------------------------------------------

namespace
{

/** A blocking request/reply client over one connection. */
class Client
{
  public:
    static Client overUnix(const std::string &path)
    {
        std::string err;
        Client c;
        c.fd_ = connectUnix(path, err);
        EXPECT_TRUE(c.fd_.valid()) << err;
        return c;
    }

    static Client overTcp(std::uint16_t port)
    {
        std::string err;
        Client c;
        c.fd_ = connectTcp("127.0.0.1", port, err);
        EXPECT_TRUE(c.fd_.valid()) << err;
        return c;
    }

    std::string
    roundTrip(const std::string &request)
    {
        if (!writeAll(fd_.get(), request + "\n"))
            return "";
        std::string reply;
        if (readLine(fd_.get(), reply, carry_) != ReadStatus::Line)
            return "";
        return reply;
    }

  private:
    Fd fd_;
    std::string carry_;
};

/** Starts a daemon on a unique Unix socket; tears down on exit. */
class ServeServerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = "/tmp/olight_test_" + std::to_string(::getpid()) +
                "_" + std::to_string(counter_++) + ".sock";
        ServeOptions opts;
        opts.unixPath = path_;
        opts.jobs = 2;
        server_ = std::make_unique<Server>(opts);
        std::string err;
        ASSERT_TRUE(server_->start(err)) << err;
    }

    void
    TearDown() override
    {
        server_->requestDrain();
        server_->join();
        server_.reset();
        ::unlink(path_.c_str());
    }

    static int counter_;
    std::string path_;
    std::unique_ptr<Server> server_;
};

int ServeServerTest::counter_ = 0;

const char *kRunRequest =
    R"({"cmd":"run","workload":"Copy","elements":4096,)"
    R"("mode":"orderlight"})";

} // namespace

TEST_F(ServeServerTest, PingStatsDrain)
{
    Client c = Client::overUnix(path_);
    EXPECT_EQ(c.roundTrip(R"({"cmd":"ping","id":"x"})"),
              "{\"ok\":true,\"cmd\":\"ping\",\"id\":\"x\"}");

    std::string stats = c.roundTrip(R"({"cmd":"stats"})");
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(stats, v, err)) << stats;
    EXPECT_TRUE(v.find("ok")->boolean);
    EXPECT_EQ(v.find("stats")->find("jobs")->number, 2.0);
    EXPECT_FALSE(v.find("stats")->find("draining")->boolean);

    std::string drain = c.roundTrip(R"({"cmd":"drain"})");
    EXPECT_NE(drain.find("\"draining\":true"), std::string::npos);
    server_->join(); // must return: drain request shuts us down
    EXPECT_TRUE(server_->snapshot().draining);
}

TEST_F(ServeServerTest, CacheHitIsByteIdentical)
{
    Client c = Client::overUnix(path_);
    std::string cold = c.roundTrip(kRunRequest);
    std::string warm = c.roundTrip(kRunRequest);
    ASSERT_NE(cold, "");
    EXPECT_NE(cold.find("\"ok\":true"), std::string::npos) << cold;
    EXPECT_NE(cold.find("\"cached\":false"), std::string::npos);
    EXPECT_NE(warm.find("\"cached\":true"), std::string::npos);

    // The envelopes differ ONLY in the cached token; the result
    // body (and fingerprint) must be byte-identical.
    std::string patched = cold;
    patched.replace(patched.find("\"cached\":false"),
                    std::string("\"cached\":false").size(),
                    "\"cached\":true");
    EXPECT_EQ(patched, warm);

    ServeSnapshot s = server_->snapshot();
    EXPECT_EQ(s.runsExecuted, 1u);
    EXPECT_EQ(s.cache.hits, 1u);
    EXPECT_EQ(s.cache.misses, 1u);

    // A warm cache serves every repeat: four distinct run points
    // (the one above among them), each asked many times by
    // concurrent clients, simulate exactly once.
    const std::string kPoints[] = {
        kRunRequest,
        R"({"cmd":"run","workload":"Add","elements":4096,)"
        R"("mode":"orderlight"})",
        R"({"cmd":"run","workload":"Copy","elements":4096,)"
        R"("mode":"fence"})",
        R"({"cmd":"run","workload":"Add","elements":4096,)"
        R"("mode":"fence"})",
    };
    constexpr int kClients = 4;
    constexpr int kRounds = 5;
    for (const std::string &point : kPoints) {
        std::string reply = c.roundTrip(point);
        EXPECT_NE(reply.find("\"ok\":true"), std::string::npos) << reply;
    }
    std::atomic<int> notOk{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            Client tc = Client::overUnix(path_);
            for (int i = 0; i < 4 * kRounds; ++i) {
                std::string reply = tc.roundTrip(kPoints[(t + i) % 4]);
                if (reply.find("\"ok\":true") == std::string::npos)
                    notOk.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(notOk.load(), 0);
    s = server_->snapshot();
    EXPECT_EQ(s.runsExecuted, 4u);
    EXPECT_EQ(s.cache.misses, 4u);
    EXPECT_EQ(s.cache.hits, std::uint64_t(2 + kClients * 4 * kRounds));
    EXPECT_EQ(s.internalErrors, 0u);
}

TEST_F(ServeServerTest, MalformedRequestsKeepServing)
{
    Client c = Client::overUnix(path_);
    std::string bad = c.roundTrip("this is not json");
    EXPECT_NE(bad.find("\"bad_json\""), std::string::npos) << bad;

    std::string oversized = c.roundTrip(
        R"({"cmd":"run","workload":"Copy","elements":999999999999})");
    EXPECT_NE(oversized.find("\"limit_exceeded\""),
              std::string::npos)
        << oversized;
    EXPECT_NE(oversized.find("exceeds"), std::string::npos);

    std::string unknown = c.roundTrip(
        R"({"cmd":"run","workload":"NoSuchWorkload"})");
    EXPECT_NE(unknown.find("\"bad_request\""), std::string::npos)
        << unknown;

    // The daemon is still alive and serving after all of that.
    EXPECT_NE(c.roundTrip(R"({"cmd":"ping"})")
                  .find("\"ok\":true"),
              std::string::npos);
    EXPECT_EQ(server_->snapshot().parseErrors, 3u);
}

TEST_F(ServeServerTest, SweepRequestReturnsRows)
{
    Client c = Client::overUnix(path_);
    std::string reply = c.roundTrip(
        R"({"cmd":"sweep","workloads":["Copy"],)"
        R"("modes":["fence","orderlight"],"ts":[256],"bmf":[16],)"
        R"("elements":4096})");
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(reply, v, err)) << reply;
    EXPECT_TRUE(v.find("ok")->boolean);
    const JsonValue *result = v.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->find("points")->number, 2.0);
    ASSERT_EQ(result->find("rows")->array.size(), 2u);
    // Sweep rows carry the per-point config fingerprint.
    const JsonValue &row = result->find("rows")->array[0];
    EXPECT_TRUE(row.find("config_fingerprint")->isString());
    EXPECT_EQ(row.find("config_fingerprint")->string.substr(0, 2),
              "0x");
    EXPECT_EQ(server_->snapshot().sweepPointsDone, 2u);
}

TEST_F(ServeServerTest, TcpRoundTrip)
{
    ServeOptions opts;
    opts.tcpPort = 0; // ephemeral
    opts.jobs = 1;
    Server tcp(opts);
    std::string err;
    ASSERT_TRUE(tcp.start(err)) << err;
    ASSERT_NE(tcp.tcpPort(), 0);
    Client c = Client::overTcp(tcp.tcpPort());
    EXPECT_EQ(c.roundTrip(R"({"cmd":"ping"})"),
              "{\"ok\":true,\"cmd\":\"ping\"}");
    tcp.requestDrain();
    tcp.join();
}

TEST_F(ServeServerTest, MultiClientStress)
{
    // N threads x M requests, mixed valid (cache-heavy) and
    // malformed. Every request must get exactly one reply, and
    // every reply must be well-formed JSON. This is the serve_tsan
    // target: accept/session/pool/cache all contended at once.
    constexpr int kClients = 8;
    constexpr int kRequests = 20;
    std::atomic<int> ok{0}, badJson{0}, busy{0}, other{0},
        transport{0};

    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            Client c = Client::overUnix(path_);
            for (int i = 0; i < kRequests; ++i) {
                std::string request;
                switch ((t + i) % 4) {
                  case 0:
                  case 1:
                    request = kRunRequest;
                    break;
                  case 2:
                    request = R"({"cmd":"ping"})";
                    break;
                  default:
                    request = "garbage " + std::to_string(i);
                }
                std::string reply = c.roundTrip(request);
                if (reply.empty()) {
                    transport.fetch_add(1);
                    continue;
                }
                JsonValue v;
                std::string err;
                if (!parseJson(reply, v, err)) {
                    transport.fetch_add(1);
                    continue;
                }
                if (v.find("ok")->boolean) {
                    ok.fetch_add(1);
                    continue;
                }
                const std::string &code =
                    v.find("error")->find("code")->string;
                if (code == "bad_json")
                    badJson.fetch_add(1);
                else if (code == "busy")
                    busy.fetch_add(1); // admission backpressure
                else
                    other.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    // Every request got exactly one well-formed reply...
    EXPECT_EQ(transport.load(), 0);
    EXPECT_EQ(ok.load() + badJson.load() + busy.load() +
                  other.load(),
              kClients * kRequests);
    // ...the malformed quarter ((t+i)%4==3) got bad_json, valid
    // requests succeeded or bounced on the admission bound (which
    // identical concurrent cold misses can hit), nothing else.
    EXPECT_EQ(badJson.load(), kClients * kRequests / 4);
    EXPECT_EQ(other.load(), 0);

    ServeSnapshot s = server_->snapshot();
    EXPECT_EQ(s.requests, std::uint64_t(kClients * kRequests));
    EXPECT_EQ(s.replies, std::uint64_t(kClients * kRequests));
    EXPECT_EQ(s.busyRejected + s.fairnessRejected,
              std::uint64_t(busy.load()));
    EXPECT_GE(s.cache.hits + s.cache.misses, 1u);
    EXPECT_EQ(s.internalErrors, 0u);
}

TEST_F(ServeServerTest, StatsCarryTierAndFairnessCounters)
{
    Client c = Client::overUnix(path_);
    std::string stats = c.roundTrip(R"({"cmd":"stats"})");
    JsonValue v;
    std::string err;
    ASSERT_TRUE(parseJson(stats, v, err)) << stats;
    const JsonValue *s = v.find("stats");
    ASSERT_NE(s, nullptr);
    // Fairness knobs and counters.
    EXPECT_EQ(s->find("client_share")->number, 2.0); // half of 4
    EXPECT_EQ(s->find("fairness_rejected")->number, 0.0);
    EXPECT_EQ(s->find("session_timeouts")->number, 0.0);
    EXPECT_EQ(s->find("active_clients")->number, 0.0);
    // Per-tier cache counters: memory always, disk off here.
    const JsonValue *cache = s->find("cache");
    ASSERT_NE(cache, nullptr);
    ASSERT_NE(cache->find("memory"), nullptr);
    EXPECT_EQ(cache->find("memory")->find("hits")->number, 0.0);
    ASSERT_NE(cache->find("disk"), nullptr);
    EXPECT_FALSE(cache->find("disk")->find("enabled")->boolean);
    EXPECT_EQ(cache->find("disk")->find("quarantined")->number,
              0.0);
}

namespace
{

int
removeCasFile(const char *path, const struct stat *, int,
              struct FTW *)
{
    return ::remove(path);
}

} // namespace

TEST_F(ServeServerTest, DiskTierServesAcrossRestartByteIdentical)
{
    const std::string cas =
        path_ + ".cas"; // unique per test instance
    std::string cold, warm;
    {
        ServeOptions opts;
        opts.unixPath = path_ + ".a";
        opts.jobs = 1;
        opts.casRoot = cas;
        Server first(opts);
        std::string err;
        ASSERT_TRUE(first.start(err)) << err;
        Client c = Client::overUnix(opts.unixPath);
        cold = c.roundTrip(kRunRequest);
        ASSERT_NE(cold.find("\"cached\":false"), std::string::npos)
            << cold;
        EXPECT_EQ(first.snapshot().disk.writes, 1u);
        ::unlink(opts.unixPath.c_str());
    } // daemon gone; memory tier gone with it

    {
        ServeOptions opts;
        opts.unixPath = path_ + ".b";
        opts.jobs = 1;
        opts.casRoot = cas;
        Server second(opts);
        std::string err;
        ASSERT_TRUE(second.start(err)) << err;
        Client c = Client::overUnix(opts.unixPath);
        warm = c.roundTrip(kRunRequest);
        ServeSnapshot s = second.snapshot();
        EXPECT_EQ(s.runsExecuted, 0u); // served, not re-simulated
        EXPECT_EQ(s.disk.hits, 1u);
        // The disk hit was promoted into the memory tier.
        EXPECT_EQ(s.cache.entries, 1u);
        ::unlink(opts.unixPath.c_str());
    }

    // Byte-identical across the restart, modulo the cached token.
    std::string patched = cold;
    patched.replace(patched.find("\"cached\":false"),
                    std::string("\"cached\":false").size(),
                    "\"cached\":true");
    EXPECT_EQ(patched, warm);
    ::nftw(cas.c_str(), removeCasFile, 16, FTW_DEPTH | FTW_PHYS);
}

TEST_F(ServeServerTest, HotTenantCannotStarveASecondTenant)
{
    // One worker, two slots, one-slot share: tenant A occupies its
    // whole share with a slow run, a second A request bounces on
    // fairness, while tenant B's request still admits and runs.
    ServeOptions opts;
    opts.unixPath = path_ + ".fair";
    opts.jobs = 1;
    opts.admitLimit = 2;
    opts.clientShare = 1;
    Server server(opts);
    std::string err;
    ASSERT_TRUE(server.start(err)) << err;

    const std::string slow =
        R"({"cmd":"run","workload":"Hist","elements":262144,)"
        R"("mode":"fence","client":"a"})";
    std::thread holder([&] {
        Client c = Client::overUnix(opts.unixPath);
        std::string reply = c.roundTrip(slow);
        EXPECT_NE(reply.find("\"ok\":true"), std::string::npos)
            << reply;
    });
    // Wait until the slow run holds tenant A's slot.
    for (int i = 0; i < 200; ++i) {
        if (server.snapshot().inflight > 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_GT(server.snapshot().inflight, 0u);

    Client c2 = Client::overUnix(opts.unixPath);
    std::string rejected = c2.roundTrip(
        R"({"cmd":"run","workload":"Copy","elements":8192,)"
        R"("client":"a"})");
    EXPECT_NE(rejected.find("\"busy\""), std::string::npos)
        << rejected;
    EXPECT_NE(rejected.find("share"), std::string::npos)
        << rejected;
    EXPECT_NE(rejected.find("retry_after_ms"), std::string::npos);

    Client c3 = Client::overUnix(opts.unixPath);
    std::string admitted = c3.roundTrip(
        R"({"cmd":"run","workload":"Copy","elements":8192,)"
        R"("client":"b"})");
    EXPECT_NE(admitted.find("\"ok\":true"), std::string::npos)
        << admitted;

    holder.join();
    ServeSnapshot s = server.snapshot();
    EXPECT_GE(s.fairnessRejected, 1u);
    EXPECT_EQ(s.busyRejected, 0u);
    ::unlink(opts.unixPath.c_str());
}
