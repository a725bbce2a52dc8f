#include "noc/l2_slice.hh"

#include "sim/random.hh"
#include "verify/observer.hh"

namespace olight
{

L2Slice::L2Slice(const SystemConfig &cfg, std::uint16_t channel,
                 EventQueue &eq, StatSet &stats)
{
    std::string base = "l2s" + std::to_string(channel);

    PipeParams in_params;
    in_params.capacity = cfg.l2QueueSize;
    input_ = std::make_unique<InputStage>(eq, base + ".in",
                                          in_params, stats);

    std::vector<SubPathStage *> path_ptrs;
    for (std::uint32_t i = 0; i < cfg.l2SubPartitions; ++i) {
        PipeParams sp;
        sp.capacity = cfg.l2QueueSize;
        sp.jitterCycles = cfg.subPartJitter;
        // Mixing in cfg.seed perturbs the sub-partition service
        // schedule without touching the timing model itself; the
        // litmus harness sweeps it to explore reorderings.
        sp.jitterSalt =
            hashMix(cfg.seed, (std::uint64_t(channel) << 8) | i);
        subParts_.push_back(std::make_unique<SubPathStage>(
            eq, base + ".sp" + std::to_string(i), sp, stats));
        path_ptrs.push_back(subParts_.back().get());
    }

    std::uint32_t num_paths = cfg.l2SubPartitions;
    std::uint32_t block = cfg.busWidthBytes;
    diverge_ = std::make_unique<SplitPoint>(
        base + ".div", path_ptrs,
        [num_paths, block](const Packet &pkt) {
            return std::uint32_t((pkt.instr.addr / block) % num_paths);
        },
        stats);

    converge_ = std::make_unique<MergePoint>(eq, base + ".conv",
                                             num_paths, stats);

    PipeParams out_params;
    out_params.capacity = cfg.l2QueueSize;
    out_params.wireLatency = Tick(cfg.l2ToDramLatency) * corePeriod;
    toDram_ = std::make_unique<DramStage>(eq, base + ".toDram",
                                          out_params, stats);

    input_->setDownstream(diverge_.get());
    for (std::uint32_t i = 0; i < num_paths; ++i)
        subParts_[i]->setDownstream(&converge_->input(i));
    converge_->setDownstream(toDram_.get());
}

void
L2Slice::setDownstream(AcceptPort *mc)
{
    toDram_->setDownstream(mc);
}

void
L2Slice::setObserver(PipeObserver *obs)
{
    input_->setObserver(obs);
    for (auto &sp : subParts_)
        sp->setObserver(obs);
    toDram_->setObserver(obs);
    diverge_->setObserver(obs);
    converge_->setObserver(obs);
}

bool
L2Slice::idle() const
{
    if (!input_->idle() || !toDram_->idle() || !converge_->idle())
        return false;
    for (const auto &sp : subParts_)
        if (!sp->idle())
            return false;
    return true;
}

} // namespace olight
