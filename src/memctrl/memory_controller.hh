/**
 * @file
 * Per-channel memory controller.
 *
 * Implements the controller of Figure 6: separate read/write
 * transaction queues, an FR-FCFS scheduler (row hits first, oldest
 * first, writes drained above a watermark), and the OrderLight
 * additions of Section 5.3.2 — the per-memory-group flag/counter
 * mechanism (OrderingTracker) that prevents the scheduler from
 * reordering PIM requests across OrderLight packets while leaving
 * other memory-groups unconstrained.
 *
 * Scheduling a transaction reserves its DRAM command slots in the
 * ChannelTiming engine, which issues commands on a single in-order
 * command bus, so the schedule order *is* the execution order at
 * the PIM unit — the property that makes MC-side enforcement
 * sufficient (the paper's "memory-centric ordering").
 *
 * The scheduler is paced: it only commits transactions whose
 * command-bus slots fall within a small lookahead window, so queue
 * occupancy (and hence backpressure and fence drain time) evolves
 * like real hardware instead of draining instantaneously.
 */

#ifndef OLIGHT_MEMCTRL_MEMORY_CONTROLLER_HH
#define OLIGHT_MEMCTRL_MEMORY_CONTROLLER_HH

#include <cstdint>
#include <functional>
#include <string>

#include "core/config.hh"
#include "dram/address_map.hh"
#include "dram/channel_timing.hh"
#include "memctrl/ordering_tracker.hh"
#include "memctrl/transaction_queue.hh"
#include "memctrl/version_tracker.hh"
#include "noc/port.hh"
#include "pim/pim_unit.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace olight
{

class PipeObserver;

/** The memory controller of one HBM channel. */
class MemoryController final : public AcceptPort
{
  public:
    /** Invoked (after the response-network latency) when a PIM
     *  request has been issued to memory — the fence ack. */
    using AckFn = std::function<void(const Packet &)>;
    /** Invoked when a host request completes (loads: data return). */
    using HostDoneFn = std::function<void(const Packet &)>;

    MemoryController(const SystemConfig &cfg, const AddressMap &map,
                     std::uint16_t channel, EventQueue &eq,
                     ChannelTiming &timing, PimUnit &pim,
                     const std::string &name, StatSet &stats);

    void setAckFn(AckFn fn) { ackFn_ = std::move(fn); }
    void setHostDoneFn(HostDoneFn fn) { hostDoneFn_ = std::move(fn); }

    /** Attach a pipe observer: admit, OrderLight-arrive and commit
     *  hooks fire on this channel (nullptr disables). */
    void setObserver(PipeObserver *obs) { observer_ = obs; }

    /** CGA arbitration: block host requests during PIM phases. */
    void setHostBlocked(bool blocked);

    // AcceptPort (input from the L2-to-DRAM queue)
    bool tryReserve(const Packet &pkt) override;
    void deliver(Packet pkt, Tick when) override;
    void enqueueWaiter(const Packet &pkt, PortWaiter &w) override;

    /** True when no queued or reserved transactions remain. */
    bool idle() const;

    /** Current read-queue depth (interval sampling probe). */
    std::size_t readQueueDepth() const { return readQ_.size(); }

    /** Current write-queue depth (interval sampling probe). */
    std::size_t writeQueueDepth() const { return writeQ_.size(); }

    const OrderingTracker &tracker() const { return tracker_; }

    /** Louvre version state (only advanced in mode=louvre). */
    const VersionTracker &versions() const { return versions_; }

  private:
    void arrive(Packet pkt);
    void wake();
    void scheduleWake(Tick when);
    bool
    isWriteQueueKind(const Packet &pkt) const
    {
        return pkt.instr.isWrite();
    }
    void issue(Transaction txn);
    void notifySpace();

    const SystemConfig &cfg_;
    const AddressMap &map_;
    std::uint16_t channel_;
    EventQueue &eq_;
    ChannelTiming &timing_;
    PimUnit &pim_;
    std::string name_;

    TransactionQueue readQ_;
    TransactionQueue writeQ_;
    bool drainingWrites_ = false; ///< write-mode hysteresis
    std::uint32_t nextExpectedSeq_ = 0; ///< SeqNum in-order issue
    OrderingTracker tracker_;
    VersionTracker versions_; ///< Louvre release/acquire state
    bool hostBlocked_ = false;

    AckFn ackFn_;
    HostDoneFn hostDoneFn_;
    PipeObserver *observer_ = nullptr;

    bool wakeScheduled_ = false;
    Tick wakeAt_ = 0;
    WaiterList spaceWaiters_;

    /** Expected next OrderLight pktNumber per group (sanity check,
     *  the paper's stated use of the packet-number field). */
    std::vector<std::int64_t> expectedOlNumber_;

    Scalar &statOlPackets_;
    Scalar &statPimScheduled_;
    Scalar &statHostScheduled_;
    Scalar &statOlBlockedPicks_;
    Distribution &statQueueLatency_;
    Distribution &statReadOcc_;
};

} // namespace olight

#endif // OLIGHT_MEMCTRL_MEMORY_CONTROLLER_HH
