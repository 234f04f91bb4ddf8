#include "serve_script.hh"

#include <iterator>

#include "common/json.hh"

namespace json = sharch::json;

namespace perfbench {

namespace {

/** Fixed-shape leases the client keeps alive (it releases above). */
constexpr std::size_t kMaxLive = 40;
constexpr std::size_t kMinLive = 8;
constexpr std::size_t kMaxBidders = 24;
/** Every this many requests the script snapshots to a file. */
constexpr std::uint64_t kSnapshotEvery = 500;
/** Simulated cycles between consecutive requests. */
constexpr std::uint64_t kCyclesPerRequest = 1000;

const char *const kUtilities[] = {"throughput", "balanced",
                                  "single-stream"};

} // namespace

const std::vector<std::string> &
bidBenchmarks()
{
    static const std::vector<std::string> b = {
        "gcc", "mcf", "hmmer", "omnetpp", "astar", "gobmk"};
    return b;
}

ScriptClient::ScriptClient(std::uint64_t seed, std::string snapshotDir,
                           unsigned freeSlices, unsigned freeBanks)
    : rng_(seed * 0x9e3779b97f4a7c15ULL + 7),
      snapshotDir_(std::move(snapshotDir)), capacitySlices_(freeSlices),
      capacityBanks_(freeBanks)
{
}

const char *
ScriptClient::opName(Op op)
{
    switch (op) {
      case Op::Allocate: return "allocate";
      case Op::Release: return "release";
      case Op::Bid: return "bid";
      case Op::Unbid: return "unbid";
      case Op::Price: return "price";
      case Op::Stats: return "stats";
      case Op::Reshape: return "reshape";
      case Op::Snapshot: return "snapshot";
    }
    return "?";
}

unsigned
ScriptClient::usedSlices() const
{
    unsigned n = 0;
    for (const auto &[t, l] : live_)
        n += l.slices;
    return n;
}

unsigned
ScriptClient::usedBanks() const
{
    unsigned n = 0;
    for (const auto &[t, l] : live_)
        n += l.banks;
    return n;
}

std::string
ScriptClient::next()
{
    ++requests_;
    const std::string at =
        ",\"at\":" + std::to_string(requests_ * kCyclesPerRequest);
    pendingTenant_.clear();
    if (requests_ % kSnapshotEvery == 0) {
        op_ = Op::Snapshot;
        lastSnapshot_ = snapshotDir_ + "/snap-" +
                        std::to_string(requests_ / kSnapshotEvery % 2) +
                        ".state";
        return "{\"op\":\"snapshot\",\"path\":\"" + lastSnapshot_ + "\"}";
    }
    const std::uint64_t u = draw(100);
    if (live_.size() < kMinLive || (u < 38 && live_.size() < kMaxLive)) {
        op_ = Op::Allocate;
        pendingTenant_ = "f" + std::to_string(nextTenant_++);
        pendingSlices_ = 1 + static_cast<unsigned>(draw(3));
        pendingBanks_ = 1 + static_cast<unsigned>(draw(3));
        return "{\"op\":\"allocate\",\"tenant\":\"" + pendingTenant_ +
               "\",\"slices\":" + std::to_string(pendingSlices_) +
               ",\"banks\":" + std::to_string(pendingBanks_) + at + "}";
    }
    if (u < 74) {
        op_ = Op::Release;
        auto it = std::next(live_.begin(),
                            static_cast<long>(draw(live_.size())));
        pendingTenant_ = it->first;
        return "{\"op\":\"release\",\"tenant\":\"" + pendingTenant_ +
               "\"" + at + "}";
    }
    if (u < 82 && bidders_.size() < kMaxBidders) {
        op_ = Op::Bid;
        pendingTenant_ = "b" + std::to_string(nextTenant_++);
        // Bid k's terms cycle through a fixed table, not the seed: the
        // auction's cost depends strongly on the bid mix, and a seeded
        // mix made one seed's price requests 3x another's.
        const std::uint64_t k = bids_++;
        const std::string &bench = bidBenchmarks()[k % bidBenchmarks().size()];
        const double budget = 4.0 + static_cast<double>(k * 7 % 21);
        return "{\"op\":\"allocate\",\"tenant\":\"" + pendingTenant_ +
               "\",\"budget\":" + json::canonicalReal(budget) +
               ",\"benchmark\":\"" + bench + "\",\"utility\":\"" +
               kUtilities[k / bidBenchmarks().size() % 3] + "\"" + at + "}";
    }
    if (u < 86 && !bidders_.empty()) {
        op_ = Op::Unbid;
        pendingTenant_ = bidders_.front();
        return "{\"op\":\"release\",\"tenant\":\"" + pendingTenant_ +
               "\"" + at + "}";
    }
    if (u < 91) {
        op_ = Op::Price;
        return "{\"op\":\"price\"" + at + "}";
    }
    if (u < 96) {
        op_ = Op::Stats;
        return "{\"op\":\"stats\"}";
    }
    op_ = Op::Reshape;
    auto it = std::next(live_.begin(), static_cast<long>(draw(live_.size())));
    pendingTenant_ = it->first;
    pendingSlices_ = 1 + static_cast<unsigned>(draw(3));
    pendingBanks_ = 1 + static_cast<unsigned>(draw(3));
    return "{\"op\":\"reshape\",\"lease\":" + std::to_string(it->second.id) +
           ",\"slices\":" + std::to_string(pendingSlices_) +
           ",\"banks\":" + std::to_string(pendingBanks_) + "}";
}

void
ScriptClient::observe(const std::string &reply)
{
    json::Value v;
    std::string err;
    if (!json::parse(reply, &v, &err) || !v.isObject()) {
        ++unparsed_;
        ++okFalse_;
        return;
    }
    const json::Value *ok = v.get("ok");
    if (!ok || !ok->isBool() || !ok->boolean) {
        ++okFalse_;
        return;
    }
    const json::Value *applied = v.get("applied");
    const bool done = applied && applied->isBool() && applied->boolean;
    switch (op_) {
      case Op::Allocate:
        if (done) {
            std::uint64_t id = 0;
            if (const json::Value *l = v.get("lease"))
                l->asU64(&id);
            live_[pendingTenant_] = {id, pendingSlices_, pendingBanks_};
        }
        break;
      case Op::Release:
        live_.erase(pendingTenant_);
        break;
      case Op::Bid:
        if (done)
            bidders_.push_back(pendingTenant_);
        break;
      case Op::Unbid:
        bidders_.erase(bidders_.begin());
        break;
      case Op::Reshape:
        if (done) {
            Lease &l = live_[pendingTenant_];
            l.slices = pendingSlices_;
            l.banks = pendingBanks_;
        }
        break;
      case Op::Stats: {
        TallyPoint t;
        t.request = requests_;
        t.clientLeases = live_.size();
        t.clientFreeSlices = capacitySlices_ - usedSlices();
        t.clientFreeBanks = capacityBanks_ - usedBanks();
        if (const json::Value *x = v.get("leases"))
            x->asU64(&t.serverLeases);
        if (const json::Value *x = v.get("free_slices"))
            x->asU64(&t.serverFreeSlices);
        if (const json::Value *x = v.get("free_banks"))
            x->asU64(&t.serverFreeBanks);
        tally_.push_back(t);
        break;
      }
      case Op::Price:
      case Op::Snapshot:
        break;
    }
}

} // namespace perfbench
