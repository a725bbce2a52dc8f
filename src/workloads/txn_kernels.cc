/**
 * @file
 * Transactional kernels (the PIM-STM-inspired `txn` family).
 *
 * Each kernel executes a deterministic sequence of transactions; a
 * transaction is a read-set/write-set conflict window bracketed by
 * OrderPoints (read phase -> compute phase -> publish phase). Unlike
 * the streaming kernels, consecutive transactions touch overlapping
 * blocks, so a read slipping past an earlier transaction's publish
 * is a lost update — exactly the ordering hazard software
 * transactional memory on PIM must close. All values are
 * integer-valued floats and every checker is an independent
 * closed-form computation, so results are checked bit-exactly.
 */

#include <sstream>

#include "workloads/apps.hh"

namespace olight
{

namespace
{

/**
 * Txn_Xfer: balance transfers over a single account array. Each
 * transaction t reads accounts i and j, moves delta_t from i to j,
 * and publishes both. Deltas are value-independent increments, so
 * the serial final state is init + net-delta per block no matter how
 * transactions are ordered — but a lost update (a read overtaking an
 * earlier publish) drops a delta and is detected bit-exactly.
 */
class TxnXfer : public Workload
{
  public:
    WorkloadInfo
    info() const override
    {
        return {"Txn_Xfer", "transactional balance transfers",
                "2:2", false};
    }

    void
    initMemory(SparseMemory &mem) const override
    {
        fillIntFloats(mem, arrays_[0], -8, 8, 1313);
    }

    std::vector<HostArraySpec>
    hostTraffic() const override
    {
        return {hostSpec(arrays_[0], true, 0)};
    }

    double
    hostFlops() const override
    {
        return 2.0 * double(elements_);
    }

    bool
    check(const SparseMemory &mem, std::string &why) const override
    {
        SparseMemory init;
        initMemory(init);
        const PimArray &accts = arrays_[0];
        std::uint64_t lane_stride = map_->laneStride();

        for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
            KernelBuilder kb(*map_, ch);
            std::uint64_t blocks = kb.blocksPerChannel(accts);
            std::vector<float> net(blocks, 0.0f);
            for (std::uint64_t t = 0; t < blocks; ++t) {
                std::uint64_t src = 0, dst = 0;
                float delta = txnDelta(t);
                txnBlocks(t, blocks, src, dst);
                net[src] -= delta;
                net[dst] += delta;
            }
            for (std::uint64_t b = 0; b < blocks; ++b) {
                for (std::uint32_t lane = 0; lane < cfg_.bmf;
                     ++lane) {
                    std::uint64_t addr = kb.blockAddr(accts, b) +
                                         lane * lane_stride;
                    float before[8], after[8];
                    init.read(addr, before, sizeof(before));
                    mem.read(addr, after, sizeof(after));
                    for (std::uint32_t e = 0; e < 8; ++e) {
                        float want = before[e] + net[b];
                        float got = after[e];
                        if (got != want) {
                            std::ostringstream os;
                            os << "Txn_Xfer[ch" << ch << " blk "
                               << b << " lane " << lane << " elem "
                               << e << "]: got " << got << ", want "
                               << want;
                            why = os.str();
                            return false;
                        }
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
        addArray("accts", elements_, 0);
        const PimArray &accts = arrays_[0];

        constexpr std::uint8_t s0 = 0, s1 = 1;
        forEachChannel(
            *map_, cfg_.numChannels, streams_,
            [&](KernelBuilder &kb) {
                std::uint64_t blocks = kb.blocksPerChannel(accts);
                for (std::uint64_t t = 0; t < blocks; ++t) {
                    std::uint64_t src = 0, dst = 0;
                    float delta = txnDelta(t);
                    txnBlocks(t, blocks, src, dst);
                    // Read set -> conflict window -> write set.
                    kb.phase(accts.memGroup,
                             [&](KernelBuilder &p) {
                                 p.load(s0, accts, src)
                                     .load(s1, accts, dst);
                             })
                        .phase(accts.memGroup,
                               [&](KernelBuilder &p) {
                                   p.compute(AluOp::Affine, s0, s0,
                                             accts.memGroup, 1.0f,
                                             -delta);
                                   p.compute(AluOp::Affine, s1, s1,
                                             accts.memGroup, 1.0f,
                                             delta);
                               })
                        .phase(accts.memGroup,
                               [&](KernelBuilder &p) {
                                   p.store(s0, accts, src)
                                       .store(s1, accts, dst);
                               });
                }
            });
    }

  private:
    static float
    txnDelta(std::uint64_t t)
    {
        return float(int(t % 7) - 3);
    }

    /** Deterministic overlapping read/write sets: transaction t
     *  moves value between blocks t and (7t+3) mod blocks. */
    static void
    txnBlocks(std::uint64_t t, std::uint64_t blocks,
              std::uint64_t &src, std::uint64_t &dst)
    {
        src = t;
        dst = (t * 7 + 3) % blocks;
        if (dst == src)
            dst = (src + 1) % blocks;
    }
};

/**
 * Txn_Log: append-only commit log across two memory groups. Each
 * transaction reads two blocks of a group-0 value array, sums them,
 * and publishes the result to a group-1 log via a dual-group
 * OrderPoint — the cross-group commit idiom where the log entry
 * must not become visible before the read set is stable.
 */
class TxnLog : public Workload
{
  public:
    WorkloadInfo
    info() const override
    {
        return {"Txn_Log", "transactional cross-group commit log",
                "1:3", true};
    }

    void
    initMemory(SparseMemory &mem) const override
    {
        fillIntFloats(mem, arrays_[0], -8, 8, 1414);
    }

    double
    hostFlops() const override
    {
        return double(elements_);
    }

    bool
    check(const SparseMemory &mem, std::string &why) const override
    {
        SparseMemory init;
        initMemory(init);
        const PimArray &vals = arrays_[0];
        const PimArray &log = arrays_[1];
        std::uint64_t lane_stride = map_->laneStride();

        for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
            KernelBuilder kb(*map_, ch);
            std::uint64_t blocks = kb.blocksPerChannel(vals);
            for (std::uint64_t t = 0; t < blocks; ++t) {
                std::uint64_t r1 = 0, r2 = 0;
                readSet(t, blocks, r1, r2);
                for (std::uint32_t lane = 0; lane < cfg_.bmf;
                     ++lane) {
                    std::uint64_t a1 = kb.blockAddr(vals, r1) +
                                       lane * lane_stride;
                    std::uint64_t a2 = kb.blockAddr(vals, r2) +
                                       lane * lane_stride;
                    std::uint64_t al = kb.blockAddr(log, t) +
                                       lane * lane_stride;
                    float v1[8], v2[8], logged[8];
                    init.read(a1, v1, sizeof(v1));
                    init.read(a2, v2, sizeof(v2));
                    mem.read(al, logged, sizeof(logged));
                    for (std::uint32_t e = 0; e < 8; ++e) {
                        float want = v1[e] + v2[e];
                        float got = logged[e];
                        if (got != want) {
                            std::ostringstream os;
                            os << "Txn_Log[ch" << ch << " txn " << t
                               << " lane " << lane << " elem " << e
                               << "]: got " << got << ", want "
                               << want;
                            why = os.str();
                            return false;
                        }
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
        addArray("vals", elements_, 0);
        addArray("out_log", elements_, 1);
        const PimArray &vals = arrays_[0];
        const PimArray &log = arrays_[1];

        constexpr std::uint8_t s0 = 0;
        forEachChannel(
            *map_, cfg_.numChannels, streams_,
            [&](KernelBuilder &kb) {
                std::uint64_t blocks = kb.blocksPerChannel(vals);
                for (std::uint64_t t = 0; t < blocks; ++t) {
                    std::uint64_t r1 = 0, r2 = 0;
                    readSet(t, blocks, r1, r2);
                    kb.loadPhase(vals, r1, 1, s0);
                    kb.fetchOp(AluOp::Add, s0, s0, vals, r2);
                    // Cross-group commit: the log store must not
                    // become visible before the read set is stable.
                    kb.orderPointDual(vals.memGroup, log.memGroup);
                    kb.store(s0, log, t);
                    // Close the window across both groups: the next
                    // transaction's group-0 read reuses this TS slot
                    // and must not overtake the group-1 publish.
                    kb.orderPointDual(log.memGroup, vals.memGroup);
                }
            });
    }

  private:
    static void
    readSet(std::uint64_t t, std::uint64_t blocks,
            std::uint64_t &r1, std::uint64_t &r2)
    {
        r1 = (t * 5 + 1) % blocks;
        r2 = (t * 3 + 2) % blocks;
    }
};

} // namespace

std::unique_ptr<Workload>
makeTxnXfer()
{
    return std::make_unique<TxnXfer>();
}

std::unique_ptr<Workload>
makeTxnLog()
{
    return std::make_unique<TxnLog>();
}

} // namespace olight
