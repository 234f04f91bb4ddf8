/**
 * @file
 * The serve_session request script: a seeded client that writes the
 * next newline-JSON request, reads the reply, and keeps its own tally
 * of the live fixed-shape leases to check the server's `stats` against.
 *
 * The same client drives a sharch-serve child (the workload) and a
 * ServeSession in-process (the per-layer probes), so both see the
 * same requests for the same seed.
 */

#ifndef PERFBENCH_SERVE_SCRIPT_HH
#define PERFBENCH_SERVE_SCRIPT_HH

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

/** Benchmarks the budgeted bids draw from (all warmed in set-up). */
const std::vector<std::string> &bidBenchmarks();

/** The server flags every serve_session process runs with. */
inline constexpr const char *kServeFabric = "16x16";

class ScriptClient
{
  public:
    enum class Op { Allocate, Release, Bid, Unbid, Price, Stats, Reshape,
                    Snapshot };

    /**
     * @param snapshotDir where the periodic snapshot requests write
     * @param freeSlices  / @p freeBanks: the empty fabric's capacity
     */
    ScriptClient(std::uint64_t seed, std::string snapshotDir,
                 unsigned freeSlices, unsigned freeBanks);

    /** The next request line (no newline); remembers its op. */
    std::string next();

    /** Feed the reply to the last request. */
    void observe(const std::string &reply);

    Op lastOp() const { return op_; }
    static const char *opName(Op op);

    std::uint64_t requests() const { return requests_; }
    std::uint64_t okFalse() const { return okFalse_; }
    std::uint64_t unparsed() const { return unparsed_; }

    /** Path of the newest snapshot the script asked for ("" if none). */
    const std::string &lastSnapshot() const { return lastSnapshot_; }

    /** One stats reply against the client's own tally. */
    struct TallyPoint
    {
        std::uint64_t request = 0;
        std::uint64_t clientLeases = 0, serverLeases = 0;
        std::uint64_t clientFreeSlices = 0, serverFreeSlices = 0;
        std::uint64_t clientFreeBanks = 0, serverFreeBanks = 0;

        bool matches() const
        {
            return clientLeases == serverLeases &&
                   clientFreeSlices == serverFreeSlices &&
                   clientFreeBanks == serverFreeBanks;
        }
    };
    const std::vector<TallyPoint> &tally() const { return tally_; }

  private:
    struct Lease
    {
        std::uint64_t id = 0;
        unsigned slices = 0;
        unsigned banks = 0;
    };

    std::mt19937_64 rng_;
    std::string snapshotDir_;
    unsigned capacitySlices_;
    unsigned capacityBanks_;
    std::map<std::string, Lease> live_;    //!< tenant -> fixed lease
    std::vector<std::string> bidders_;     //!< live budgeted tenants
    std::uint64_t nextTenant_ = 0;
    std::uint64_t bids_ = 0;
    std::uint64_t requests_ = 0;
    std::uint64_t okFalse_ = 0;
    std::uint64_t unparsed_ = 0;
    Op op_ = Op::Stats;
    std::string pendingTenant_;
    unsigned pendingSlices_ = 0, pendingBanks_ = 0;
    std::string lastSnapshot_;
    std::vector<TallyPoint> tally_;

    unsigned usedSlices() const;
    unsigned usedBanks() const;
    std::uint64_t draw(std::uint64_t n) { return rng_() % n; }
};

} // namespace perfbench

#endif // PERFBENCH_SERVE_SCRIPT_HH
