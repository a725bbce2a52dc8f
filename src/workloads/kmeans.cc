/**
 * @file
 * KMeans distance kernel (10:1 in Table 2).
 *
 * Each lane-block is one 8-dimensional point; the kernel streams the
 * point set and computes, per point, the summed squared distance to
 * all cluster centers (the clustering objective/cost). Centers live
 * in a tiny resident array fetched per point with perfect row
 * locality, so — like FC — only one data structure is effectively
 * streamed and performance varies little with TS size.
 */

#include <sstream>

#include "workloads/apps.hh"

namespace olight
{

namespace
{

constexpr std::uint32_t numCenters = 8;

float
centerValue(std::uint32_t center, std::uint32_t dim)
{
    return float(int((center * 3 + dim * 5) % 9) - 4);
}

class Kmeans : public Workload
{
  public:
    WorkloadInfo
    info() const override
    {
        return {"KMeans", "kmeans clustering distance step", "10:1",
                false};
    }

    void
    initMemory(SparseMemory &mem) const override
    {
        fillIntFloats(mem, arrays_[0], -8, 8, 707); // points
        // Every lane sees the same centers: identical per block.
        const PimArray &centers = arrays_[2];
        for (std::uint32_t c = 0; c < numCenters; ++c) {
            float pattern[8];
            for (std::uint32_t d = 0; d < 8; ++d)
                pattern[d] = centerValue(c, d);
            // One block index per center, replicated to all
            // channels and lanes.
            for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
                KernelBuilder kbc(*map_, ch);
                std::uint64_t addr = kbc.blockAddr(centers, c);
                for (std::uint32_t lane = 0; lane < cfg_.bmf;
                     ++lane) {
                    mem.write(addr + lane * map_->laneStride(),
                              pattern, 32);
                }
            }
        }
    }

    std::vector<HostArraySpec>
    hostTraffic() const override
    {
        return {hostSpec(arrays_[0], false, 0)};
    }

    double
    hostFlops() const override
    {
        return 3.0 * double(numCenters) * double(elements_);
    }

    bool
    check(const SparseMemory &mem, std::string &why) const override
    {
        SparseMemory init;
        initMemory(init);
        const PimArray &p = arrays_[0];
        const PimArray &out = arrays_[1];
        std::uint64_t lane_stride = map_->laneStride();

        for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
            KernelBuilder kb(*map_, ch);
            std::uint64_t blocks = kb.blocksPerChannel(p);
            for (std::uint64_t j = 0; j < blocks; ++j) {
                for (std::uint32_t lane = 0; lane < cfg_.bmf;
                     ++lane) {
                    std::uint64_t paddr = kb.blockAddr(p, j) +
                                          lane * lane_stride;
                    float point[8];
                    init.read(paddr, point, sizeof(point));
                    float want = 0.0f;
                    for (std::uint32_t c = 0; c < numCenters; ++c) {
                        for (std::uint32_t d = 0; d < 8; ++d) {
                            float diff = point[d] -
                                         centerValue(c, d);
                            want += diff * diff;
                        }
                    }
                    std::uint64_t oaddr = kb.blockAddr(out, j) +
                                          lane * lane_stride;
                    float got = mem.readFloat(oaddr);
                    if (got != want) {
                        std::ostringstream os;
                        os << "KMeans[ch" << ch << " blk " << j
                           << " lane " << lane << "]: got " << got
                           << ", want " << want;
                        why = os.str();
                        return false;
                    }
                }
            }
        }
        return true;
    }

  protected:
    void
    buildImpl() override
    {
        addArray("p", elements_, 0);
        addArray("out_d", elements_, 0);
        addArray("centers",
                 numCenters * map_->channelSweepBytes() /
                     sizeof(float),
                 0);
        const PimArray &p = arrays_[0];
        const PimArray &out = arrays_[1];
        const PimArray &centers = arrays_[2];

        constexpr std::uint8_t slotP = 0, slotD = 1;
        forEachChannel(
            *map_, cfg_.numChannels, streams_,
            [&](KernelBuilder &kb) {
                kb.forEachTile(
                    p, 1, [&](std::uint64_t j, std::uint64_t) {
                        kb.loadPhase(p, j, 1, slotP)
                            // First center resets the accumulator...
                            .phase(p.memGroup,
                                   [&](KernelBuilder &ph) {
                                       ph.fetchOp(AluOp::SqDist,
                                                  slotD, slotP,
                                                  centers, 0);
                                   })
                            // ...the rest accumulate (commutative,
                            // safe to reorder within the phase).
                            .phase(p.memGroup,
                                   [&](KernelBuilder &ph) {
                                       for (std::uint32_t c = 1;
                                            c < numCenters; ++c)
                                           ph.fetchOp(
                                               AluOp::SqDiffAcc,
                                               slotD, slotP, centers,
                                               c);
                                   })
                            .storePhase(out, j, 1, slotD);
                    });
            });
    }
};

} // namespace

std::unique_ptr<Workload>
makeKmeans()
{
    return std::make_unique<Kmeans>();
}

} // namespace olight
