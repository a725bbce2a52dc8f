/**
 * @file
 * Hook interface threaded through the memory pipe.
 *
 * Every stage a packet visits on its way to memory exposes a
 * lightweight observation point: operand-collector issue, the
 * interconnect injection queues, L2 sub-partition egress, the
 * copy-and-merge FSMs, and the memory controller's admit and
 * schedule/commit events. A component holds a nullable
 * `PipeObserver *`; when none is attached the hooks cost one
 * pointer test, so the timing model is unaffected unless a run
 * explicitly enables an observer.
 *
 * Observers form a chain: every hook an observer does not override
 * forwards to `next`, and an override passes the hook on by calling
 * the base. System builds one chain per run — packet tracer
 * (sim/trace.hh), then commit-log recorder (verify/log_events.hh),
 * then the OrderingOracle (verify/oracle.hh), which stays last and
 * forwards nothing. Tests may install their own observer to probe a
 * single stage.
 */

#ifndef OLIGHT_VERIFY_OBSERVER_HH
#define OLIGHT_VERIFY_OBSERVER_HH

#include <cstdint>
#include <string>

#include "core/pim_isa.hh"
#include "sim/types.hh"

namespace olight
{

/** Observation points along the memory pipe; each default hook
 *  forwards to the next link of the chain. */
class PipeObserver
{
  public:
    virtual ~PipeObserver() = default;

    /** The next link of the chain (nullptr ends it). */
    PipeObserver *next = nullptr;

    // --- SM-side program order ------------------------------------
    /** A warp issued @p pkt; calls arrive in per-channel program
     *  order (each channel is bound to exactly one warp). */
    virtual void
    onWarpIssue(const Packet &pkt)
    {
        if (next)
            next->onWarpIssue(pkt);
    }

    /** A warp retired an OrderPoint marker for (@p channel,
     *  @p group); @p group2 is the second group of a dual marker or
     *  -1. Fired in every ordering mode, including None, where the
     *  marker is dropped — the oracle needs the program-order
     *  position of the constraint even when nothing enforces it. */
    virtual void
    onOrderPoint(std::uint16_t channel, std::uint8_t group, int group2)
    {
        if (next)
            next->onOrderPoint(channel, group, group2);
    }

    /** An OrderLight packet entered the pipe (OrderLight mode). */
    virtual void
    onOlInject(const Packet &pkt)
    {
        if (next)
            next->onOlInject(pkt);
    }

    /** A request left the operand collector into the LDST queue;
     *  [begin, end] is its collector residency. */
    virtual void
    onCollectorInject(const Packet &pkt, Tick begin, Tick end)
    {
        if (next)
            next->onCollectorInject(pkt, begin, end);
    }

    // --- Generic queue stages -------------------------------------
    /** @p pkt was serviced out of queue stage @p stage (interconnect
     *  ingress, L2 input, sub-partition, L2-to-DRAM); [begin, end]
     *  is its time in the queue. */
    virtual void
    onStageEgress(const std::string &stage, const Packet &pkt,
                  Tick begin, Tick end)
    {
        if (next)
            next->onStageEgress(stage, pkt, begin, end);
    }

    // --- Copy-and-merge FSMs --------------------------------------
    /** The divergence FSM @p point replicated @p pkt onto
     *  @p copies sub-paths. */
    virtual void
    onOlReplicate(const std::string &point, const Packet &pkt,
                  std::uint32_t copies)
    {
        if (next)
            next->onOlReplicate(point, pkt, copies);
    }

    /** One OrderLight copy reached sub-path @p path of the
     *  convergence FSM @p point. */
    virtual void
    onOlMergeIn(const std::string &point, std::uint32_t path,
                const Packet &pkt)
    {
        if (next)
            next->onOlMergeIn(point, path, pkt);
    }

    /** The convergence FSM @p point emitted the merged packet after
     *  absorbing @p copies copies. */
    virtual void
    onOlMergeOut(const std::string &point, const Packet &pkt,
                 std::uint32_t copies)
    {
        if (next)
            next->onOlMergeOut(point, pkt, copies);
    }

    // --- Memory controller ----------------------------------------
    /** A request entered the MC transaction queues. */
    virtual void
    onMcAdmit(std::uint16_t channel, const Packet &pkt)
    {
        if (next)
            next->onMcAdmit(channel, pkt);
    }

    /** An OrderLight packet reached the MC scheduler. */
    virtual void
    onMcOrderLight(std::uint16_t channel, const Packet &pkt)
    {
        if (next)
            next->onMcOrderLight(channel, pkt);
    }

    /** The scheduler committed @p pkt to the command bus; its DRAM
     *  column slot is @p colTick. Commit order is execution order at
     *  the PIM unit (the command bus is in-order). */
    virtual void
    onMcCommit(std::uint16_t channel, const Packet &pkt, Tick colTick)
    {
        if (next)
            next->onMcCommit(channel, pkt, colTick);
    }

    // --- Response path --------------------------------------------
    /** The SM received the MC acknowledgement for @p pkt. */
    virtual void
    onAck(const Packet &pkt)
    {
        if (next)
            next->onAck(pkt);
    }
};

} // namespace olight

#endif // OLIGHT_VERIFY_OBSERVER_HH
