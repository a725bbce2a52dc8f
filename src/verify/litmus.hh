/**
 * @file
 * Declarative litmus tests for the PIM memory pipe.
 *
 * Classic memory-model litmus patterns mapped onto the pipe's actual
 * reordering sources (operand-collector jitter, L2 sub-partition
 * divergence, FR-FCFS + write buffering at the MC), each run under a
 * chosen OrderingMode with the OrderingOracle attached. A seed
 * perturbs the deterministic schedule (jitter salts plus a handful of
 * structural knobs), so sweeping seeds explores distinct
 * interleavings of the same program — the litmus harness asserts
 * that `None` violates the ordering invariants on some seed
 * (sensitivity) while `Fence`/`OrderLight` never do (soundness).
 *
 * One deliberate mapping: "message passing" is expressed across two
 * *memory groups* of one channel (via a dual ordering point), not
 * across two channels — channels are fully independent pipes and no
 * mode, Fence included, orders them against each other.
 */

#ifndef OLIGHT_VERIFY_LITMUS_HH
#define OLIGHT_VERIFY_LITMUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"

namespace olight
{

/** One entry of the litmus table. */
struct LitmusSpec
{
    const char *name;        ///< CLI / test identifier
    const char *description; ///< what the pattern stresses
};

/** The full litmus table (fixed, declarative). */
const std::vector<LitmusSpec> &litmusTable();

/** Look up a table entry by name (nullptr when unknown). */
const LitmusSpec *findLitmus(const std::string &name);

/** Outcome of one litmus run. */
struct LitmusResult
{
    std::uint64_t violations = 0; ///< oracle violation count
    std::uint64_t checks = 0;     ///< oracle checks performed
    std::string report;           ///< oracle report (violations only)
};

/**
 * The simulated system a litmus pattern runs on: two channels, one
 * SM, with collector/sub-partition schedule knobs derived from
 * @p seed. Exposed so tests can reuse the exact perturbation.
 */
SystemConfig litmusConfig(OrderingMode mode, std::uint64_t seed);

/**
 * Run litmus pattern @p name under @p mode with schedule seed
 * @p seed. Fatals on an unknown pattern name. @p simJobs selects
 * the execution policy (1 = sequential driver, >1 = channel
 * partitioning) — the verdict must not depend on it. A non-empty
 * @p recordPath records the run's hook stream into a commit log
 * (the way to capture a *violating* log: mode None on a sensitive
 * seed), with the seed stamped into the log header.
 */
LitmusResult runLitmus(const std::string &name, OrderingMode mode,
                       std::uint64_t seed, unsigned simJobs = 1,
                       const std::string &recordPath = {});

} // namespace olight

#endif // OLIGHT_VERIFY_LITMUS_HH
