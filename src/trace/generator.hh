/**
 * @file
 * Synthetic trace generation from a BenchmarkProfile.
 *
 * The generator first builds a static program skeleton -- basic blocks
 * with fixed PCs, per-site branch biases and fixed taken targets -- and
 * then random-walks it, drawing register dependencies and memory
 * addresses from the profile's distributions.  The static skeleton
 * makes the front end honest: the same PC always maps to the same
 * Slice, the same predictor entry, and the same BTB target, exactly
 * the property the Sharing Architecture's interleaved fetch relies on
 * (section 3.1).
 *
 * Generation is deterministic in (profile, seed, thread id).  The walk
 * itself is exposed two ways:
 *
 *  - generate()/generateThreads() materialize a bounded prefix into a
 *    Trace vector: the reference the streaming tests compare against,
 *    and the materializing row of the sim_speed study;
 *  - Cursor is an O(1)-state incremental view of the *same* walk:
 *    emit() produces the next n instructions on demand.  Because the
 *    length bound in generate() only ever cuts the walk *between*
 *    instructions (no RNG draw happens for an instruction that is not
 *    emitted), Cursor's output is bit-identical to the corresponding
 *    prefix of generate() by construction.  The streaming trace
 *    pipeline (trace/inst_source.hh) is built on this.
 */

#ifndef SHARCH_TRACE_GENERATOR_HH
#define SHARCH_TRACE_GENERATOR_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "trace/instruction.hh"
#include "trace/profile.hh"

namespace sharch {

/** Generates deterministic synthetic traces for one benchmark. */
class TraceGenerator
{
  public:
    TraceGenerator(const BenchmarkProfile &profile,
                   std::uint64_t seed = 1);

    /** Generate one thread's trace of @p num_instructions. */
    Trace generate(std::size_t num_instructions,
                   unsigned thread_id = 0) const;

    /**
     * Generate profile.numThreads traces for a multithreaded workload
     * (or a single trace when the profile is single-threaded).
     */
    std::vector<Trace> generateThreads(
        std::size_t instructions_per_thread) const;

    /** Number of basic blocks in the static skeleton. */
    std::size_t numBlocks() const { return blocks_.size(); }

    const BenchmarkProfile &profile() const { return profile_; }
    std::uint64_t seed() const { return seed_; }

    /**
     * An incremental cursor over the random walk of one thread.
     *
     * State is O(1): the RNG, the position in the skeleton, and the
     * small recent-stores ring -- independent of how many instructions
     * have been emitted.  The cursor must not outlive its generator
     * (it borrows the skeleton).
     *
     * Determinism contract: for any n, the first n instructions
     * emitted by a fresh Cursor equal generate(n, thread_id)
     * byte-for-byte, and draw-for-draw on the underlying RNG.
     */
    class Cursor
    {
      public:
        Cursor(const TraceGenerator &gen, unsigned thread_id);

        /** Emit the next @p n instructions of the walk into @p out. */
        void emit(TraceInst *out, std::size_t n);

        /** Instructions emitted so far. */
        std::uint64_t emitted() const { return emitted_; }

      private:
        const TraceGenerator *gen_;
        Rng rng_;

        // Derived constants of the walk (profile-dependent).
        Addr hotBase_;
        Addr heapBase_;
        Addr streamBase_;
        std::uint64_t hotLines_;
        std::uint64_t streamLines_;
        double pLoad_;
        double pStore_;
        double pMul_;
        unsigned numChains_;
        ZipfDist wsZipf_;     //!< working-set lines, profile alpha
        ZipfDist sharedZipf_; //!< shared-region lines, profile alpha

        // Walk state (the only part that evolves per instruction).
        std::array<Addr, 16> recentStores_{};
        unsigned recentStoreCount_ = 0;
        std::uint64_t streamPtr_ = 0;
        unsigned tempRr_ = 0;
        std::uint64_t sinceBaseUpdate_ = 0;
        std::size_t blockIdx_ = 0;
        unsigned posInBlock_ = 0; //!< body index; len-1 == terminator
        std::uint64_t emitted_ = 0;

        RegIndex pickChain();
        RegIndex pickAddrSrc();
        RegIndex pickTemp();
        RegIndex pickTempSrc();
        RegIndex pickCheapSrc();
        Addr genAddr(bool is_load);
    };

  private:
    /** One basic block of the static program skeleton. */
    struct Block
    {
        Addr startPc = 0;
        unsigned len = 1;        //!< instructions incl. the terminator
        double takenBias = 0.5;  //!< P(taken) at this site
        unsigned takenTarget = 0;
        unsigned fallthrough = 0;
    };

    BenchmarkProfile profile_;
    std::uint64_t seed_;
    std::vector<Block> blocks_;

    void buildSkeleton();
};

} // namespace sharch

#endif // SHARCH_TRACE_GENERATOR_HH
