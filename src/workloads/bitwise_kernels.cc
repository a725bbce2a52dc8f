/**
 * @file
 * Bulk-bitwise kernels (the `bitwise` family, after the in-DRAM
 * bulk-bitwise processing literature).
 *
 * Bit_Xnor streams two bit-vector arrays through the word-lane
 * And/Or/Xor/Not ALU ops and materializes the XNOR similarity mask
 * — the element-wise shape, one command per 32 B column. Bit_RowFold
 * exercises the row-granular flavor: a single command folds an
 * entire (bank,row) DRAM row into the TS, so one instruction's
 * operand set spans the whole row and ordering must hold at row
 * granularity, not column granularity. Both kernels operate on raw
 * bit patterns and are checked bit-exactly.
 */

#include <cstdint>
#include <sstream>

#include "workloads/apps.hh"

namespace olight
{

namespace
{

/** Bit_Xnor: out = ~(a ^ b), computed as ~((a & b) ^ (a | b)). */
class BitXnor : public Workload
{
  public:
    WorkloadInfo
    info() const override
    {
        return {"Bit_Xnor", "bulk-bitwise XNOR similarity mask",
                "4:3", true};
    }

    void
    initMemory(SparseMemory &mem) const override
    {
        fillBytes(mem, arrays_[0], 3131);
        fillBytes(mem, arrays_[1], 3232);
    }

    double
    hostFlops() const override
    {
        return 4.0 * double(elements_);
    }

    bool
    check(const SparseMemory &mem, std::string &why) const override
    {
        SparseMemory init;
        initMemory(init);
        // Columns: a, b, and the output mask.
        return scanDense<std::uint32_t>(
            {{&init, &arrays_[0]}, {&init, &arrays_[1]},
             {&mem, &arrays_[2]}},
            [&](std::uint64_t i, const std::uint32_t *v) {
                std::uint32_t want = ~(v[0] ^ v[1]);
                if (v[2] == want)
                    return true;
                std::ostringstream os;
                os << "Bit_Xnor[" << i << "]: got 0x" << std::hex
                   << v[2] << ", want 0x" << want;
                why = os.str();
                return false;
            });
    }

  protected:
    void
    buildImpl() override
    {
        addArray("a", elements_, 0);
        addArray("b", elements_, 0);
        addArray("out_c", elements_, 0);
        const PimArray &a = arrays_[0];
        const PimArray &b = arrays_[1];
        const PimArray &out = arrays_[2];

        // Two slots per streamed block: s holds a (then a|b, then
        // the result), t holds a&b.
        std::uint32_t n = cfg_.tsSlots() / 2;
        auto slotS = [](std::uint64_t k) {
            return std::uint8_t(2 * k);
        };
        auto slotT = [](std::uint64_t k) {
            return std::uint8_t(2 * k + 1);
        };
        forEachChannel(
            *map_, cfg_.numChannels, streams_,
            [&](KernelBuilder &kb) {
                kb.forEachTile(
                    a, n, [&](std::uint64_t j0, std::uint64_t m) {
                        kb.phase(a.memGroup,
                                 [&](KernelBuilder &p) {
                                     for (std::uint64_t k = 0;
                                          k < m; ++k)
                                         p.load(slotS(k), a,
                                                j0 + k);
                                 })
                            .phase(a.memGroup,
                                   [&](KernelBuilder &p) {
                                       for (std::uint64_t k = 0;
                                            k < m; ++k)
                                           p.fetchOp(AluOp::And,
                                                     slotT(k),
                                                     slotS(k), b,
                                                     j0 + k);
                                   })
                            .phase(a.memGroup,
                                   [&](KernelBuilder &p) {
                                       for (std::uint64_t k = 0;
                                            k < m; ++k)
                                           p.fetchOp(AluOp::Or,
                                                     slotS(k),
                                                     slotS(k), b,
                                                     j0 + k);
                                   })
                            .phase(a.memGroup,
                                   [&](KernelBuilder &p) {
                                       for (std::uint64_t k = 0;
                                            k < m; ++k)
                                           p.compute(AluOp::Xor,
                                                     slotS(k),
                                                     slotT(k),
                                                     a.memGroup);
                                   })
                            .phase(a.memGroup,
                                   [&](KernelBuilder &p) {
                                       for (std::uint64_t k = 0;
                                            k < m; ++k)
                                           p.compute(AluOp::Not,
                                                     slotS(k),
                                                     slotS(k),
                                                     a.memGroup);
                                   })
                            .phase(a.memGroup,
                                   [&](KernelBuilder &p) {
                                       for (std::uint64_t k = 0;
                                            k < m; ++k)
                                           p.store(slotS(k), out,
                                                   j0 + k);
                                   });
                    });
            });
    }
};

/**
 * Bit_RowFold: per (bank,row) row group, a single row-granular
 * command AND-folds and another XOR-folds every column of the row
 * into the TS; the two 32 B digests are then published per row.
 */
class BitRowFold : public Workload
{
  public:
    WorkloadInfo
    info() const override
    {
        return {"Bit_RowFold", "row-granular bulk-bitwise fold",
                "2:1", false};
    }

    void
    initMemory(SparseMemory &mem) const override
    {
        fillBytes(mem, arrays_[0], 4141);
    }

    std::vector<HostArraySpec>
    hostTraffic() const override
    {
        return {hostSpec(arrays_[0], false, 0)};
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
        const PimArray &g = arrays_[0];
        const PimArray &out = arrays_[1];
        std::uint64_t lane_stride = map_->laneStride();
        std::uint32_t cols = map_->colsPerRow();

        for (std::uint16_t ch = 0; ch < cfg_.numChannels; ++ch) {
            KernelBuilder kb(*map_, ch);
            std::uint64_t rows = kb.blocksPerChannel(g) / cols;
            for (std::uint64_t r = 0; r < rows; ++r) {
                for (std::uint32_t lane = 0; lane < cfg_.bmf;
                     ++lane) {
                    std::uint8_t wantAnd[32], wantXor[32];
                    for (std::uint32_t i = 0; i < 32; ++i) {
                        wantAnd[i] = 0xff;
                        wantXor[i] = 0;
                    }
                    for (std::uint32_t k = 0; k < cols; ++k) {
                        const auto &blk = init.blockOrZero(
                            kb.blockAddr(g, r * cols + k) +
                            lane * lane_stride);
                        for (std::uint32_t i = 0; i < 32; ++i) {
                            wantAnd[i] &= blk[i];
                            wantXor[i] ^= blk[i];
                        }
                    }
                    const auto &gotAnd = mem.blockOrZero(
                        kb.blockAddr(out, 2 * r) +
                        lane * lane_stride);
                    const auto &gotXor = mem.blockOrZero(
                        kb.blockAddr(out, 2 * r + 1) +
                        lane * lane_stride);
                    for (std::uint32_t i = 0; i < 32; ++i) {
                        if (gotAnd[i] != wantAnd[i] ||
                            gotXor[i] != wantXor[i]) {
                            std::ostringstream os;
                            os << "Bit_RowFold[ch" << ch << " row "
                               << r << " lane " << lane << " byte "
                               << i << "]: and got "
                               << unsigned(gotAnd[i]) << "/want "
                               << unsigned(wantAnd[i])
                               << ", xor got "
                               << unsigned(gotXor[i]) << "/want "
                               << unsigned(wantXor[i]);
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
        addArray("g", elements_, 0);
        std::uint64_t sweep = map_->channelSweepBytes();
        std::uint64_t blocks = arrays_[0].bytes / sweep;
        std::uint64_t rows = blocks / map_->colsPerRow();
        addArray("out_fold", rows * 2 * sweep / sizeof(float), 0);
        const PimArray &g = arrays_[0];
        const PimArray &out = arrays_[1];

        constexpr std::uint8_t s0 = 0, s1 = 1;
        std::uint32_t cols = map_->colsPerRow();
        forEachChannel(
            *map_, cfg_.numChannels, streams_,
            [&](KernelBuilder &kb) {
                for (std::uint64_t r = 0; r < rows; ++r) {
                    std::uint64_t j = r * cols;
                    kb.phase(g.memGroup,
                             [&](KernelBuilder &p) {
                                 p.compute(AluOp::Zero, s0, s0,
                                           g.memGroup);
                                 p.compute(AluOp::Zero, s1, s1,
                                           g.memGroup);
                             })
                        // s0 = ~0: the AND-fold identity.
                        .phase(g.memGroup,
                               [&](KernelBuilder &p) {
                                   p.compute(AluOp::Not, s0, s0,
                                             g.memGroup);
                               })
                        // One command per fold, spanning the row.
                        .phase(g.memGroup,
                               [&](KernelBuilder &p) {
                                   p.rowFetchOp(AluOp::And, s0, s0,
                                                g, j);
                                   p.rowFetchOp(AluOp::Xor, s1, s1,
                                                g, j);
                               })
                        .phase(g.memGroup,
                               [&](KernelBuilder &p) {
                                   p.store(s0, out, 2 * r)
                                       .store(s1, out, 2 * r + 1);
                               });
                }
            });
    }
};

} // namespace

std::unique_ptr<Workload>
makeBitXnor()
{
    return std::make_unique<BitXnor>();
}

std::unique_ptr<Workload>
makeBitRowFold()
{
    return std::make_unique<BitRowFold>();
}

} // namespace olight
