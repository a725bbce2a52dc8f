/**
 * @file
 * Open-loop load against an in-process serving fleet: two backend
 * Servers (one simulation worker and a private on-disk CAS each)
 * behind the Router, all on Unix sockets under the run's directory.
 *
 * Traffic: an open-loop schedule at a fixed rate, 90% hot requests
 * (eight small run points the fleet simulated while warming, so they
 * hit the memory tier) and 10% cold ones (a never-repeated seed, so
 * the request simulates and writes its CAS). Requests are sent on a
 * fixed number of connections; a free connection takes the next
 * request in due order, and every latency is timed from the due
 * time, so a stalled connection shows up as latency of the requests
 * queued behind it.
 */

#ifndef PERFBENCH_SERVE_LOAD_HH
#define PERFBENCH_SERVE_LOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "phases.hh"
#include "serve/router.hh"
#include "serve/server.hh"

namespace perfbench
{

/** One request as measured by the generator. */
struct Sample
{
    double latencyUs = 0.0;  ///< reply time minus due time
    double latenessUs = 0.0; ///< send time minus due time
    bool ok = false; ///< ok reply; a hot one byte-equal to its first
    bool cold = false;
    std::uint64_t pimCommands = 0; ///< cold replies' simulated commands
};

/** One offered rate. */
struct Rung
{
    double rate = 0.0; ///< offered requests per second
    double seconds = 0.0;
    std::vector<Sample> samples;
};

class Fleet
{
  public:
    /** @param dir directory for sockets and CAS roots, created if
     *  absent; relative, so socket paths stay under sun_path's limit. */
    explicit Fleet(const std::string &dir);
    /** Drains the router, then the backends. */
    ~Fleet();
    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /** Start every backend and the router; false + @p err on failure. */
    bool start(std::string &err);

    /** Send each hot request once through the router (they simulate
     *  and fill the caches) and remember the replies. False when a
     *  reply is not ok or not verified correct. */
    bool warm(std::string &err);

    /** Offer @p count requests at @p rate on @p connections. */
    Rung offer(double rate, std::size_t count, unsigned connections,
               std::uint64_t seed, std::uint64_t &coldSeq);

    /** Serving-layer counters since start (tier hits, admission). */
    void addCounts(Counts &into) const;

    /** Time each serving layer's public call on its own (spans). */
    void probeLayers(Tracer &tracer);

  private:
    std::string dir_;
    std::string routerPath_;
    std::vector<std::string> backendPaths_;
    std::vector<std::unique_ptr<olight::serve::Server>> backends_;
    std::unique_ptr<olight::serve::Router> router_;
    /** Normalised first reply of each hot request. */
    std::vector<std::string> hotReplies_;
};

/** Remove @p path and everything under it. */
void removeTree(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_SERVE_LOAD_HH
