/**
 * @file
 * Streaming multiprocessor executing PIM kernels.
 *
 * Each SM round-robins over its PIM warps, issuing one instruction
 * per core cycle. Memory instructions go through the operand
 * collector into the LDST/interconnect queue. OrderPoint markers are
 * lowered per the configured OrderingMode:
 *
 *  - Fence: the warp stalls until every preceding request has left
 *    the collector AND been acknowledged as issued to memory by the
 *    memory controller (the full core<->memory round trip the paper
 *    measures at 165-245 cycles per fence).
 *  - OrderLight: the warp waits only until the collector count for
 *    its (channel, memory-group) reads zero, then injects an
 *    OrderLight packet and continues.
 *  - None: the marker is dropped (fast, functionally incorrect).
 */

#ifndef OLIGHT_GPU_SM_HH
#define OLIGHT_GPU_SM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hh"
#include "gpu/operand_collector.hh"
#include "gpu/warp.hh"
#include "noc/forwarder.hh"
#include "noc/port.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace olight
{

class PipeObserver;

/** One SM driving PIM warps. */
class Sm
{
  public:
    Sm(const SystemConfig &cfg, std::uint32_t id, EventQueue &eq,
       AcceptPort &injectPort, StatSet &stats);

    /** Bind a warp to a channel's instruction stream. */
    void addWarp(std::uint16_t channel,
                 const std::vector<PimInstr> *stream);

    /** Begin issuing (call once after all warps are added). */
    void start();

    /** MC acknowledgement for a request of one of our warps. */
    void onAck(const Packet &pkt);

    /** Attach a pipe observer: issue, order-point, collector-inject
     *  and ack hooks fire on this SM (nullptr disables). */
    void setObserver(PipeObserver *obs) { observer_ = obs; }

    bool done() const;

    std::uint32_t id() const { return id_; }
    std::uint64_t stallCycles() const;

  private:
    void scheduleTick();
    void tick();
    bool tryIssue(Warp &warp);
    bool issueOrderPoint(Warp &warp);
    void markBlocked(Warp &warp);
    void releaseBlocked(Warp &warp, bool isFence);
    std::uint64_t nextPacketId(const Warp &warp);

    const SystemConfig &cfg_;
    std::uint32_t id_;
    EventQueue &eq_;
    AcceptPort &injectPort_;
    Forwarder<> injectFwd_; ///< OrderLight marker injection
    StatSet &stats_;
    PipeObserver *observer_ = nullptr;

    std::vector<std::unique_ptr<Warp>> warps_;
    std::unique_ptr<OperandCollector> collector_;
    std::size_t rrIndex_ = 0;
    std::uint64_t packetSeq_ = 0;
    bool tickScheduled_ = false;
    Tick lastIssueTick_ = 0;
    bool started_ = false;

    Scalar &statIssued_;
    Scalar &statFences_;
    Scalar &statOlIssued_;
    Scalar &statStallCycles_;
    Distribution &statFenceWait_;
    Distribution &statOlWait_;
    Distribution &statCreditWait_;
};

} // namespace olight

#endif // OLIGHT_GPU_SM_HH
