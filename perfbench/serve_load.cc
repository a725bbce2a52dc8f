#include "serve_load.hh"

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include <sys/prctl.h>

#include "core/runner.hh"
#include "serve/admission.hh"
#include "serve/cache.hh"
#include "serve/cas_store.hh"
#include "serve/net.hh"
#include "serve/protocol.hh"

namespace perfbench
{

using namespace olight;
using namespace olight::serve;

namespace
{

constexpr unsigned kBackends = 2;
constexpr int kRetryAfterMs = 10;
/** Queued plus running simulations a backend admits. */
constexpr std::size_t kAdmitLimit = 2;
/** A reply slower than this is a hung fleet, not a latency sample. */
constexpr int kReplyTimeoutMs = 60000;

bool
roundTrip(int fd, std::string &carry, const std::string &line,
          std::string &reply)
{
    if (!writeAll(fd, line + "\n", kReplyTimeoutMs))
        return false;
    return readLine(fd, reply, carry, nullptr, 100, 1 << 20,
                    kReplyTimeoutMs, kReplyTimeoutMs) ==
           ReadStatus::Line;
}

/** A cold reply and a cache hit differ only in the "cached" token. */
std::string
normalized(std::string reply)
{
    const std::string cold = "\"cached\":false";
    const std::size_t p = reply.find(cold);
    if (p != std::string::npos)
        reply.replace(p, cold.size(), "\"cached\":true");
    return reply;
}

bool
isOk(const std::string &reply)
{
    return reply.rfind("{\"ok\":true", 0) == 0;
}

/** Hot requests ask for verification; their replies must say so. */
bool
okAndCorrect(const std::string &reply)
{
    return isOk(reply) &&
           reply.find("\"correct\":true") != std::string::npos;
}

std::uint64_t
pimCommandsOf(const std::string &reply)
{
    const std::string key = "\"pim_commands\":";
    const std::size_t p = reply.find(key);
    return p == std::string::npos
               ? 0
               : std::strtoull(reply.c_str() + p + key.size(), nullptr,
                               10);
}

/** Number of requests in the hot set. */
constexpr std::size_t kHotPoints = 8;

/** Hot request @p i (0..kHotPoints-1): small verified run points. */
std::string
hotRequest(std::size_t i)
{
    static const char *kWorkloads[] = {"Add", "Daxpy", "KMeans",
                                       "Txn_Xfer"};
    static const char *kModes[] = {"orderlight", "fence"};
    return std::string(R"({"cmd":"run","workload":")") +
           kWorkloads[i % 4] + R"(","elements":16384,"mode":")" +
           kModes[(i / 4) % 2] + R"(","verify":true})";
}

/** Cold request with a never-repeated @p seed. */
std::string
coldRequest(std::uint64_t seed)
{
    return R"({"cmd":"run","workload":"Add","elements":16384,)"
           R"("mode":"orderlight","seed":)" +
           std::to_string(seed) + "}";
}

} // namespace

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

Fleet::Fleet(const std::string &dir) : dir_(dir)
{
    routerPath_ = dir_ + "/router.sock";
}

Fleet::~Fleet()
{
    router_.reset();
    backends_.clear();
}

bool
Fleet::start(std::string &err)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        err = "cannot create " + dir_ + ": " + ec.message();
        return false;
    }
    RouterOptions ropts;
    for (unsigned i = 0; i < kBackends; ++i) {
        ServeOptions opts;
        opts.unixPath = dir_ + "/be" + std::to_string(i) + ".sock";
        opts.casRoot = dir_ + "/cas" + std::to_string(i);
        opts.jobs = 1;
        // The generator is a single client. With the default client
        // share (half the bound) its second cold request on a busy
        // backend would bounce and poll, so its wait would come in
        // steps of the retry hint; here it queues, and only a full
        // house bounces.
        opts.admitLimit = kAdmitLimit;
        opts.clientShare = kAdmitLimit;
        // A bounced cold request is retried by the router after this
        // hint; the 100 ms default would make every bounce a tail
        // outlier of its own.
        opts.retryAfterMs = kRetryAfterMs;
        backends_.push_back(std::make_unique<Server>(opts));
        if (!backends_.back()->start(err))
            return false;
        backendPaths_.push_back(opts.unixPath);
        BackendSpec spec;
        spec.unixPath = opts.unixPath;
        ropts.backends.push_back(spec);
    }
    ropts.unixPath = routerPath_;
    router_ = std::make_unique<Router>(ropts);
    return router_->start(err);
}

bool
Fleet::warm(std::string &err)
{
    Fd fd = connectUnix(routerPath_, err);
    if (!fd.valid())
        return false;
    std::string carry;
    hotReplies_.clear();
    for (std::size_t i = 0; i < kHotPoints; ++i) {
        std::string reply;
        if (!roundTrip(fd.get(), carry, hotRequest(i), reply) ||
            !okAndCorrect(reply)) {
            err = "warm-up request " + std::to_string(i) +
                  " failed: " + reply;
            return false;
        }
        hotReplies_.push_back(normalized(reply));
    }
    return true;
}

Rung
Fleet::offer(double rate, std::size_t count, unsigned connections,
             std::uint64_t seed, std::uint64_t &coldSeq)
{
    // The whole schedule is drawn up front from the seed. Arrivals
    // are evenly spaced and every tenth request is cold, so two seeds
    // offer the same load; the seed picks the hot points and the cold
    // requests' seeds (and through their fingerprints, the backend
    // each cold request lands on).
    std::vector<double> dueS(count);
    std::vector<std::string> lines(count);
    std::vector<int> hotIndex(count, -1);
    std::uint64_t s = seed;
    for (std::size_t i = 0; i < count; ++i) {
        dueS[i] = double(i) / rate;
        s = mix(s);
        if (i % 10 == 9) {
            // JSON numbers are exact only below 2^53.
            lines[i] =
                coldRequest((mix(seed ^ 0xc01dull) >> 12) + coldSeq++);
        } else {
            hotIndex[i] = int(s % kHotPoints);
            lines[i] = hotRequest(std::size_t(hotIndex[i]));
        }
    }

    Rung rung;
    rung.rate = rate;
    rung.samples.resize(count);
    std::atomic<std::size_t> next{0};
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(5);
    auto dueAt = [&](std::size_t i) {
        return start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(dueS[i]));
    };
    auto us = [](Clock::duration d) {
        return std::chrono::duration<double, std::micro>(d).count();
    };

    std::vector<std::thread> threads;
    for (unsigned c = 0; c < connections; ++c) {
        threads.emplace_back([&] {
            // Wake at the due time, not up to the default 50 us timer
            // slack after it: lateness is the system's, not the timer's.
            ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
            std::string err, carry, reply;
            Fd fd = connectUnix(routerPath_, err);
            for (std::size_t i = next.fetch_add(1); i < count;
                 i = next.fetch_add(1)) {
                const Clock::time_point due = dueAt(i);
                std::this_thread::sleep_until(due);
                const Clock::time_point sent = Clock::now();
                const bool answered =
                    fd.valid() &&
                    roundTrip(fd.get(), carry, lines[i], reply);
                Sample &out = rung.samples[i];
                out.latencyUs = us(Clock::now() - due);
                out.latenessUs = us(sent - due);
                out.cold = hotIndex[i] < 0;
                if (!answered)
                    out.ok = false;
                else if (out.cold)
                    out.ok = isOk(reply);
                else
                    out.ok = normalized(reply) ==
                             hotReplies_[std::size_t(hotIndex[i])];
                if (out.ok && out.cold)
                    out.pimCommands = pimCommandsOf(reply);
                if (!answered) {
                    // A broken connection is not reused.
                    carry.clear();
                    fd = connectUnix(routerPath_, err);
                }
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    rung.seconds = secondsSince(start);
    return rung;
}

void
Fleet::addCounts(Counts &into) const
{
    for (const auto &backend : backends_) {
        const ServeSnapshot s = backend->snapshot();
        into["serve.memory_hits"] += double(s.cache.hits);
        into["serve.disk_hits"] += double(s.disk.hits);
        into["serve.simulations"] += double(s.runsExecuted);
        into["serve.busy_rejected"] +=
            double(s.busyRejected + s.fairnessRejected);
        into["serve.internal_errors"] += double(s.internalErrors);
    }
    into["serve.busy_retried"] += double(router_->snapshot().busyRetried);
}

void
Fleet::probeLayers(Tracer &tracer)
{
    constexpr int kReps = 200;
    std::vector<Request> reqs(kHotPoints);
    std::string err;
    for (int rep = 0; rep < kReps; ++rep) {
        for (std::size_t i = 0; i < kHotPoints; ++i) {
            const std::string line = hotRequest(i);
            Tracer::Span s(tracer, "serve.parse");
            parseRequest(line, reqs[i], err);
        }
    }
    std::vector<std::uint64_t> fps(kHotPoints);
    for (int rep = 0; rep < kReps; ++rep) {
        for (std::size_t i = 0; i < kHotPoints; ++i) {
            Tracer::Span s(tracer, "serve.fingerprint");
            fps[i] = fingerprint(reqs[i].run);
        }
    }

    ResultCache cache(1024);
    CasStore cas(CasOptions{dir_ + "/probe_cas", 0});
    std::string body;
    for (int rep = 0; rep < kReps / 4; ++rep) {
        for (std::size_t i = 0; i < kHotPoints; ++i) {
            const std::uint64_t key = fps[i] + std::uint64_t(rep);
            {
                Tracer::Span s(tracer, "serve.cache_put");
                cache.put(key, hotReplies_[i]);
            }
            {
                Tracer::Span s(tracer, "serve.cache_get");
                cache.get(key, body);
            }
            {
                Tracer::Span s(tracer, "serve.cas_put");
                cas.put(key, hotReplies_[i]);
            }
            {
                Tracer::Span s(tracer, "serve.cas_get");
                cas.get(key, body);
            }
        }
    }

    Admission admission(2, 0);
    for (int rep = 0; rep < kReps * 4; ++rep) {
        Tracer::Span s(tracer, "serve.admit");
        if (admission.tryAdmit("probe") == Admission::Verdict::Admitted)
            admission.release("probe");
    }

    const RunResult result = runWorkload(reqs[0].run);
    for (int rep = 0; rep < kReps; ++rep) {
        Tracer::Span s(tracer, "serve.serialize");
        body = okReply("", Cmd::Run, fps[0], true,
                       runBody(reqs[0].run, result));
    }

    // Hot round trips straight to a backend and through the router;
    // both are memory hits once the first direct request has run.
    const std::string hot = hotRequest(0);
    std::string reply;
    for (int routed = 0; routed < 2; ++routed) {
        const char *name =
            routed ? "serve.rtt_routed" : "serve.rtt_direct";
        Fd fd = connectUnix(routed ? routerPath_ : backendPaths_[0], err);
        std::string carry;
        if (!fd.valid() || !roundTrip(fd.get(), carry, hot, reply))
            continue;
        for (int rep = 0; rep < kReps; ++rep) {
            Tracer::Span s(tracer, name);
            roundTrip(fd.get(), carry, hot, reply);
        }
    }
}

} // namespace perfbench
