/**
 * @file
 * One L2 slice of the memory pipe (Figure 6).
 *
 * Each memory channel has one L2 slice. PIM requests bypass the
 * cache arrays (they behave like non-temporal accesses), but they
 * still traverse the slice's queues: an input queue fed by the
 * interconnect, a divergence into per-sub-partition queues (whose
 * independent, jittered service is the pipe's main reordering
 * source), a convergence point, and the L2-to-DRAM queue that feeds
 * the memory controller after the 100-cycle scheduler latency.
 * OrderLight packets are handled by the copy-and-merge FSMs at the
 * divergence/convergence points.
 *
 * The slice interior is wired statically: each stage's downstream is
 * a concrete final type fixed by the chain aliases below, so every
 * intra-slice hop is a direct call. Only the two boundaries stay
 * polymorphic — the input stage is fed through its AcceptPort base,
 * and the L2-to-DRAM stage exits into an AcceptPort (the memory
 * controller in production, a test double in unit tests).
 */

#ifndef OLIGHT_NOC_L2_SLICE_HH
#define OLIGHT_NOC_L2_SLICE_HH

#include <memory>
#include <vector>

#include "core/config.hh"
#include "noc/copy_merge.hh"
#include "noc/pipe_stage.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace olight
{

/** The per-channel slice: input -> sub-partitions -> L2-to-DRAM. */
class L2Slice
{
  public:
    // The concrete stage chain, innermost first: the L2-to-DRAM
    // queue exits through the polymorphic MC boundary; everything
    // upstream of it is statically typed.
    using DramStage = PipeStage<AcceptPort>;
    using MergePoint = ConvergencePoint<DramStage>;
    using SubPathStage = PipeStage<MergePoint::Input>;
    using SplitPoint = DivergencePoint<SubPathStage>;
    using InputStage = PipeStage<SplitPoint>;

    L2Slice(const SystemConfig &cfg, std::uint16_t channel,
            EventQueue &eq, StatSet &stats);

    /** Connect the L2-to-DRAM queue to the memory controller. */
    void setDownstream(AcceptPort *mc);

    /** Attach a pipe observer to every stage and both FSMs. */
    void setObserver(PipeObserver *obs);

    /** Entry stage for the interconnect (and the host-stream
     *  engine); concrete so the router forwards with direct calls. */
    InputStage &input() { return *input_; }

    bool idle() const;

  private:
    std::unique_ptr<InputStage> input_;
    std::vector<std::unique_ptr<SubPathStage>> subParts_;
    std::unique_ptr<SplitPoint> diverge_;
    std::unique_ptr<MergePoint> converge_;
    std::unique_ptr<DramStage> toDram_;
};

} // namespace olight

#endif // OLIGHT_NOC_L2_SLICE_HH
