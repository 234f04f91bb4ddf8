/**
 * @file
 * The study engine: runs registered studies against a shared
 * performance surface and produces structured Reports.
 *
 * runStudy() is the one code path from a Study to its Report -- the
 * sharch-bench driver, the CI smoke stage, and the tests all go
 * through it, so a report rendered anywhere is bit-identical to the
 * same study rendered elsewhere with the same options.  Deterministic
 * run parameters (instructions, seed) go into Report::meta; volatile
 * facts (threads, elapsed) into Report::runInfo, which the JSON/CSV
 * renderers omit (see report.hh's determinism contract).
 */

#ifndef SHARCH_STUDY_ENGINE_HH
#define SHARCH_STUDY_ENGINE_HH

#include <cstdint>
#include <vector>

#include "config/sim_config.hh"
#include "study/study.hh"

namespace sharch {

class PerfModel;

namespace study {

/** Run parameters shared by every study of one engine invocation. */
struct EngineOptions
{
    std::size_t instructions = 40000; //!< trace length per thread
    std::uint64_t seed = 1;           //!< base generation seed
    unsigned threads = 0;             //!< 0: exec::resolveThreadCount()
    /** --sample U:W:M: run every study point through the SMARTS
     *  sampling estimator.  Sampled numbers are estimates, so the
     *  schedule is stamped into Report::meta. */
    SampleSchedule sample;
    bool sampleSet = false;
};

/**
 * Concatenation of the selected studies' grids, in selection order.
 * Feed it to one PerfModel::performanceBatch() (which deduplicates)
 * so the sweep pool is saturated once for the whole run.
 */
std::vector<exec::SweepPoint>
unionGrid(const std::vector<Study *> &studies);

/**
 * Run @p s against @p pm: prefill the study's grid (a no-op when the
 * driver already batched the union), execute it, and stamp the
 * standard metadata.  @p pm must have been constructed with
 * (opts.instructions, opts.seed) -- the engine asserts that, since a
 * mismatched surface would silently report the wrong experiment.
 */
Report runStudy(Study &s, PerfModel &pm, const EngineOptions &opts);

} // namespace study
} // namespace sharch

#endif // SHARCH_STUDY_ENGINE_HH
