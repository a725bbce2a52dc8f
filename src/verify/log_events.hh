/**
 * @file
 * Bridge between the PipeObserver hook stream and the commit log.
 *
 * RecordingObserver tees every hook into a CommitLogWriter record and
 * passes it down the observer chain to the OrderingOracle — a
 * recorded run keeps its live verdict. replayRecord() is the inverse:
 * it rebuilds the hook call from a LogRecord and drives any
 * PipeObserver with it, so `olight_replay` re-runs the oracle from a
 * log with no timing model in the loop.
 *
 * Determinism argument (INTERNALS section 13 has the long form): the
 * oracle is a pure function of its hook sequence — it reads nothing
 * but the hook arguments, and its end-of-run iteration orders are
 * fixed by the insertion sequence. The log captures all twelve hooks
 * with their full argument payloads in stream order, so replaying a
 * log through a fresh oracle reproduces checksPerformed(),
 * violationCount() and the report text byte-identically.
 */

#ifndef OLIGHT_VERIFY_LOG_EVENTS_HH
#define OLIGHT_VERIFY_LOG_EVENTS_HH

#include <ostream>

#include "sim/commit_log.hh"
#include "verify/observer.hh"

namespace olight
{

class OrderingOracle;

/** Records every hook, then forwards it to the next link. */
class RecordingObserver : public PipeObserver
{
  public:
    explicit RecordingObserver(CommitLogWriter &writer)
        : writer_(writer)
    {
    }

    void onWarpIssue(const Packet &pkt) override;
    void onOrderPoint(std::uint16_t channel, std::uint8_t group,
                      int group2) override;
    void onOlInject(const Packet &pkt) override;
    void onCollectorInject(const Packet &pkt, Tick begin,
                           Tick end) override;
    void onStageEgress(const std::string &stage, const Packet &pkt,
                       Tick begin, Tick end) override;
    void onOlReplicate(const std::string &point, const Packet &pkt,
                       std::uint32_t copies) override;
    void onOlMergeIn(const std::string &point, std::uint32_t path,
                     const Packet &pkt) override;
    void onOlMergeOut(const std::string &point, const Packet &pkt,
                      std::uint32_t copies) override;
    void onMcAdmit(std::uint16_t channel, const Packet &pkt) override;
    void onMcOrderLight(std::uint16_t channel,
                        const Packet &pkt) override;
    void onMcCommit(std::uint16_t channel, const Packet &pkt,
                    Tick colTick) override;
    void onAck(const Packet &pkt) override;

  private:
    CommitLogWriter &writer_;
};

/** Serialize a Packet into the payload fields of @p rec. */
void packRecord(LogRecord &rec, const Packet &pkt);

/** Rebuild the Packet a record captured. */
Packet unpackRecord(const LogRecord &rec);

/** Re-issue the hook call one record captured on @p obs, resolving
 *  interned names through @p log. */
void replayRecord(const LogRecord &rec, const LogData &log,
                  PipeObserver &obs);

/** Verdict of a replayed (or perturbed) hook stream. */
struct ReplayVerdict
{
    std::uint64_t violations = 0;
    std::uint64_t checks = 0;
    std::uint64_t reportHash = 0; ///< FNV-1a of the report text
    bool clean = true;
    std::string report;

    /** Byte-identical to the live verdict the footer recorded? */
    bool
    matchesFooter(const LogFooter &f) const
    {
        return violations == f.violations && checks == f.checks &&
               reportHash == f.reportHash &&
               clean == (f.clean != 0);
    }
};

/** Drive a fresh OrderingOracle with every record of @p log (in
 *  stream order), finalize it and collect the verdict. */
ReplayVerdict replayLog(const LogData &log);

/** Collect verdict + report text from a finalized oracle. */
ReplayVerdict harvestVerdict(const OrderingOracle &oracle);

} // namespace olight

#endif // OLIGHT_VERIFY_LOG_EVENTS_HH
