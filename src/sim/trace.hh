/**
 * @file
 * Packet tracing for debugging ordering behavior.
 *
 * TraceWriter writes a Chrome trace_event JSON file (open it in
 * Perfetto or chrome://tracing). span() emits a balanced "B"/"E"
 * duration pair whose track ("tid") is the packet id, so a packet's
 * SM-issue -> interconnect -> L2 sub-partition -> MC queue ->
 * scheduled -> PIM-execute lifetime reads as a timeline row, and an
 * OrderLight stall is visible as a gap between spans. record() marks
 * point events (MC arrivals and scheduler picks).
 *
 * The writer is the first link of the system's PipeObserver chain
 * and draws every event from the hooks the oracle and the commit log
 * already use: collector injection and queue-stage egress give the
 * spans, MC admit/OrderLight-arrive give `mcN.arrive`, and MC commit
 * gives `mcN.schedule` plus the `mcN.queue` and `mcN.sched` spans.
 * It runs on the host thread under every driver (the windowed driver
 * relays channel-side hooks through the mailboxes), so point events
 * take their tick from the host queue's clock.
 */

#ifndef OLIGHT_SIM_TRACE_HH
#define OLIGHT_SIM_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>

#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "verify/observer.hh"

namespace olight
{

/** Streaming Chrome-trace sink and packet-tracing pipe observer. */
class TraceWriter final : public PipeObserver
{
  public:
    /** @param clock stamps point events: the host queue, whose now()
     *  is the global clock sequentially and the apply tick of a
     *  relayed hook under the windowed driver. */
    TraceWriter(std::ostream &os, const EventQueue &clock);
    ~TraceWriter() override;
    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one point event. */
    void record(Tick tick, const std::string &component,
                const std::string &event,
                const std::string &detail);

    /**
     * Append one duration span of packet @p pktId covering
     * [begin, end], labelled @p stage. Spans of one packet must be
     * emitted in chronological order (every component emits a span
     * when the packet leaves it, so this holds by construction).
     */
    void span(Tick begin, Tick end, const std::string &stage,
              std::uint64_t pktId, const std::string &detail);

    /** Finish the output (writes the JSON footer); idempotent. */
    void close();

    // PipeObserver: each override writes its events, then forwards.
    void onCollectorInject(const Packet &pkt, Tick begin,
                           Tick end) override;
    void onStageEgress(const std::string &stage, const Packet &pkt,
                       Tick begin, Tick end) override;
    void onMcAdmit(std::uint16_t channel, const Packet &pkt) override;
    void onMcOrderLight(std::uint16_t channel,
                        const Packet &pkt) override;
    void onMcCommit(std::uint16_t channel, const Packet &pkt,
                    Tick colTick) override;

  private:
    void chromeEventHead(const char *ph, Tick ts,
                         const std::string &name,
                         std::uint64_t tid);

    std::ostream &os_;
    const EventQueue &clock_;
    /** MC admit tick per queued packet: the `.queue` span's begin. */
    std::unordered_map<std::uint64_t, Tick> admitted_;
    bool firstEvent_ = true;
    bool closed_ = false;
};

} // namespace olight

#endif // OLIGHT_SIM_TRACE_HH
