/**
 * @file
 * SM-to-L2 interconnection network.
 *
 * Each SM has an injection queue (its LDST output) that forwards one
 * packet per core cycle into the crossbar; the crossbar adds the
 * interconnect-to-L2 latency (120 cycles, Table 1) and routes by the
 * packet's memory channel to the corresponding L2 slice.
 *
 * The router resolves each slice's concrete input stage at
 * construction, so routing a packet is an array index plus direct
 * calls — no per-hop virtual dispatch.
 */

#ifndef OLIGHT_NOC_INTERCONNECT_HH
#define OLIGHT_NOC_INTERCONNECT_HH

#include <memory>
#include <vector>

#include "core/config.hh"
#include "noc/l2_slice.hh"
#include "noc/pipe_stage.hh"

namespace olight
{

/** Routes packets to the L2 slice of their memory channel. */
class ChannelRouter final
{
  public:
    explicit ChannelRouter(const std::vector<L2Slice *> &slices)
    {
        inputs_.reserve(slices.size());
        for (L2Slice *slice : slices)
            inputs_.push_back(&slice->input());
    }

    bool
    tryReserve(const Packet &pkt)
    {
        return input(pkt).tryReserve(pkt);
    }

    void
    deliver(Packet pkt, Tick when)
    {
        input(pkt).deliver(std::move(pkt), when);
    }

    void
    enqueueWaiter(const Packet &pkt, PortWaiter &w)
    {
        input(pkt).enqueueWaiter(pkt, w);
    }

  private:
    L2Slice::InputStage &
    input(const Packet &pkt)
    {
        return *inputs_.at(pkt.channel);
    }

    std::vector<L2Slice::InputStage *> inputs_;
};

/** Per-SM injection queues plus the shared router. */
class Interconnect
{
  public:
    using SmStage = PipeStage<ChannelRouter>;

    Interconnect(const SystemConfig &cfg, EventQueue &eq,
                 std::vector<L2Slice *> slices, StatSet &stats);

    /** Injection port of SM @p sm (the SM's LDST queue). */
    AcceptPort &smPort(std::uint32_t sm) { return *smQueues_.at(sm); }

    /** Attach a pipe observer to every SM injection queue. */
    void
    setObserver(PipeObserver *obs)
    {
        for (auto &q : smQueues_)
            q->setObserver(obs);
    }

    bool idle() const;

  private:
    std::unique_ptr<ChannelRouter> router_;
    std::vector<std::unique_ptr<SmStage>> smQueues_;
};

} // namespace olight

#endif // OLIGHT_NOC_INTERCONNECT_HH
