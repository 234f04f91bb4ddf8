/**
 * @file
 * SMARTS-style sampled simulation (ROADMAP item 2b).
 *
 * A full detailed run walks every instruction through the timing
 * model (~5.4M instr/s end to end); the instruction *stream* itself
 * costs only ~32M instr/s to produce.  Sampling closes that gap by
 * timing only a small fraction of the stream: the run alternates
 *
 *   [warm-up W detailed] [measure M detailed] [fast-forward U func.]
 *
 * periods over each VCore's InstSource.  Fast-forward consumes the
 * stream through VCoreSim::fastForward(), which updates architectural
 * warm state only (L1/L2 tags, branch predictor, memory-dependence
 * history) and lets no cycles pass; warm-up re-runs the detailed walk
 * unmeasured to absorb the stale timing state (rename positions,
 * occupancy rings) left from the previous period; the measure window
 * is both timed and recorded.
 *
 * Whole-run CPI is estimated by a control-variate regression: each
 * window's CPI is regressed on its architectural miss/mispredict
 * rates and evaluated at the *exact* whole-stream rates (known from
 * functional counting), which removes most of the variance a plain
 * window-mean would carry.  Timing-independent counters (cache
 * accesses/misses, branches, invalidations) are reported exactly,
 * not extrapolated; residual-based 95% confidence intervals land in
 * SimStats::sampling.
 *
 * Determinism: the fast-forward length is jittered (+/- U/8) from a
 * generator seeded only by the run's seed, so a sampled run is a pure
 * function of (profile, seed, schedule) -- bit-identical across
 * repeat runs and sweep thread counts.  The schedule
 * starts with warm-up + measure, so short streams still measure at
 * least one window.
 */

#ifndef SHARCH_CORE_SAMPLING_HH
#define SHARCH_CORE_SAMPLING_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "config/sim_config.hh"
#include "core/vm_sim.hh"
#include "trace/inst_source.hh"

namespace sharch {

/** How PerfModel and the CLIs obtain SimStats for a run. */
enum class SampleMode
{
    Full,    //!< detailed-time every instruction (historical path)
    Sampled, //!< SMARTS windows + functional fast-forward
};

/**
 * Drives one VM through a sampled run.  The controller owns no
 * simulation state: it rotates the VM's VCores round-robin exactly
 * like VmSim::run -- the turn budget counts *detailed* instructions
 * only, so during warm-up/measure phases the cross-VCore interleaving
 * (bank ports, directory contention) reproduces the full run's,
 * while fast-forward rides free inside a turn (it advances no
 * cycles).  Each VCore runs its own warm-up / measure / fast-forward
 * phase machine; schedules whose W and M are multiples of the chunk
 * keep windows aligned to whole turns, which is what makes measured
 * windows match the full run's contention pattern bit-for-bit.
 */
class SamplingController
{
  public:
    /**
     * @param schedule window lengths (U:W:M), measure >= 1
     * @param seed     seeds the fast-forward jitter stream; use the
     *                 run's SimConfig::seed so results stay a pure
     *                 function of the point identity
     */
    SamplingController(const SampleSchedule &schedule,
                       std::uint64_t seed);

    /**
     * Run @p sources (one per VCore) to exhaustion under the sampled
     * schedule and return extrapolated whole-run statistics.
     *
     * Each per-VCore SimStats estimates the full run:
     * instructionsCommitted is the exact stream length; every other
     * counter is scaled by (stream length / measured instructions);
     * cycles is the measured-CPI extrapolation.  SimStats::sampling
     * carries the window counts and CI95 half-widths.  The aggregate
     * CI is computed from cross-VCore window sums (tighter than the
     * per-VCore maximum merge() would take).
     *
     * @param chunk round-robin quantum in instructions (as VmSim::run)
     */
    VmResult run(VmSim &vm,
                 const std::vector<std::unique_ptr<InstSource>> &sources,
                 std::size_t chunk = 2000);

    const SampleSchedule &schedule() const { return schedule_; }

  private:
    SampleSchedule schedule_;
    std::uint64_t seed_;
};

} // namespace sharch

#endif // SHARCH_CORE_SAMPLING_HH
