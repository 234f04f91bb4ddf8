/**
 * @file
 * sharch-serve -- the allocation engine as a daemon.
 *
 * Reads one JSON request per stdin line, answers one JSON response
 * per stdout line (see engine/serve_session.hh for the protocol and
 * DESIGN.md section 8 for a worked transcript).  All diagnostics go
 * to stderr so stdout stays a pure response stream a driver can
 * parse line by line:
 *
 *   printf '%s\n' '{"op":"allocate","tenant":"a","slices":4}' \
 *     '{"op":"snapshot","path":"s.json"}' | sharch-serve
 *
 * Durability has two tiers.  Snapshot/restore round-trips
 * byte-exactly, so a process killed after any *response* resumes
 * via --restore FILE.  With --journal DIR every event is also
 * written ahead to a CRC32-framed log (DESIGN.md section 9), so a
 * process killed after any *instruction* recovers: the next start
 * loads the newest snapshot, truncates a torn tail with a
 * positioned warning, replays the suffix, and refuses to serve
 * unless AllocationEngine::checkInvariants() passes.
 *
 * SIGTERM/SIGINT shut down gracefully: the in-flight request is
 * answered, the journal is flushed and anchored with a final
 * snapshot, and the process exits 0 with a one-line summary on
 * stderr.  Input lines are read through a bounded buffer -- a line
 * that exceeds the protocol's request limit is answered with a
 * positioned error, never buffered without limit.
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include <unistd.h>

#include "area/area_model.hh"
#include "core/perf_model.hh"
#include "econ/optimizer.hh"
#include "engine/allocation_engine.hh"
#include "engine/journal.hh"
#include "engine/serve_session.hh"
#include "exec/run_options.hh"
#include "fleet/fleet_engine.hh"

using namespace sharch;

namespace {

volatile std::sig_atomic_t gStop = 0;

void
onSignal(int)
{
    gStop = 1;
}

/** SIGTERM/SIGINT break the blocking read (no SA_RESTART). */
void
installSignalHandlers()
{
    struct sigaction sa{};
    sa.sa_handler = onSignal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
}

void
answer(engine::ServeSession &session, const std::string &line)
{
    std::fputs(session.handle(line).c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

/**
 * The serve loop: bounded line reader over fd 0.  A line longer
 * than the protocol limit is discarded as it streams past (only
 * its length is tracked) and answered with the positioned refusal
 * once its newline finally arrives.
 */
void
serveLoop(engine::ServeSession &session)
{
    std::string buf;
    std::size_t dropped = 0; //!< bytes discarded of an oversized line
    char chunk[1 << 16];
    while (!gStop) {
        const ssize_t n =
            ::read(STDIN_FILENO, chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue; // recheck gStop
            break;
        }
        if (n == 0)
            break; // EOF
        std::size_t start = 0;
        for (std::size_t i = 0; i < static_cast<std::size_t>(n);
             ++i) {
            if (chunk[i] != '\n')
                continue;
            if (dropped > 0) {
                // The tail of a line we refused to buffer.
                std::fputs(engine::oversizedLineReply(
                               dropped + (i - start))
                               .c_str(),
                           stdout);
                std::fputc('\n', stdout);
                std::fflush(stdout);
                dropped = 0;
            } else {
                buf.append(chunk + start, i - start);
                if (!buf.empty())
                    answer(session, buf);
                buf.clear();
            }
            start = i + 1;
        }
        if (dropped > 0) {
            dropped += static_cast<std::size_t>(n) - start;
        } else {
            buf.append(chunk + start,
                       static_cast<std::size_t>(n) - start);
            if (buf.size() > engine::kMaxRequestBytes) {
                // Stop buffering; remember only how much streamed.
                dropped = buf.size();
                buf.clear();
            }
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const exec::ServeOptions opts =
        exec::parseServeOptions(argc, argv);
    if (!opts.ok()) {
        std::fprintf(stderr, "%s: %s\n%s", argv[0],
                     opts.error.c_str(),
                     exec::serveUsage(argv[0]).c_str());
        return 1;
    }

    PerfModel pm(opts.instructions, opts.seed);
    if (opts.sampleSet)
        pm.setSampleMode(SampleMode::Sampled, opts.sample);
    AreaModel am;
    UtilityOptimizer opt(pm, am);

    // --fleet N serves a FleetEngine (N chips of --fabric geometry)
    // through the same session/journal stack; everything below only
    // speaks EngineBase.
    std::unique_ptr<engine::EngineBase> engineStorage;
    if (opts.fleetChips > 0) {
        fleet::FleetEngineConfig fcfg;
        fcfg.fleet.chips =
            static_cast<fleet::ChipId>(opts.fleetChips);
        fcfg.fleet.chipWidth = opts.fabricWidth;
        fcfg.fleet.chipHeight = opts.fabricHeight;
        engineStorage =
            std::make_unique<fleet::FleetEngine>(opt, fcfg);
    } else {
        engine::EngineConfig cfg;
        cfg.fabricWidth = opts.fabricWidth;
        cfg.fabricHeight = opts.fabricHeight;
        engineStorage =
            std::make_unique<engine::AllocationEngine>(opt, cfg);
    }
    engine::EngineBase &engine = *engineStorage;

    if (!opts.restorePath.empty()) {
        std::ifstream in(opts.restorePath, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "%s: cannot read '%s'\n", argv[0],
                         opts.restorePath.c_str());
            return 1;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        std::string text = buf.str();
        while (!text.empty() &&
               (text.back() == '\n' || text.back() == '\r')) {
            text.pop_back();
        }
        std::string err;
        if (!engine.restoreState(text, &err)) {
            std::fprintf(stderr, "%s: --restore rejected: %s\n",
                         argv[0], err.c_str());
            return 1;
        }
    }

    engine::Journal *journal = nullptr;
    engine::Journal journalStorage{[&] {
        engine::JournalConfig jcfg;
        jcfg.dir = opts.journalDir;
        jcfg.fsyncEvery = opts.journalFsync;
        jcfg.rotateEvery = opts.journalRotate;
        return jcfg;
    }()};
    if (!opts.journalDir.empty()) {
        engine::JournalRecovery rec;
        std::string err;
        if (!journalStorage.open(engine, &rec, &err)) {
            std::fprintf(stderr, "%s: journal: %s\n", argv[0],
                         err.c_str());
            return 1;
        }
        for (const std::string &w : rec.warnings)
            std::fprintf(stderr, "%s: journal: warning: %s\n",
                         argv[0], w.c_str());
        if (!rec.fresh && !opts.restorePath.empty()) {
            // Two competing state sources: the journal already
            // defines this engine's history.
            std::fprintf(stderr,
                         "%s: refusing --restore into an existing "
                         "journal '%s' (the journal is "
                         "authoritative; restore via the protocol's "
                         "restore op instead)\n",
                         argv[0], opts.journalDir.c_str());
            return 1;
        }
        std::string inv;
        if (!engine.checkInvariants(&inv)) {
            std::fprintf(stderr,
                         "%s: journal: recovered state fails "
                         "invariants, refusing to serve: %s\n",
                         argv[0], inv.c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "%s: journal: %s '%s' at generation %llu "
                     "(replayed %llu event%s%s)\n",
                     argv[0], rec.fresh ? "started" : "recovered",
                     opts.journalDir.c_str(),
                     static_cast<unsigned long long>(
                         rec.generation),
                     static_cast<unsigned long long>(rec.replayed),
                     rec.replayed == 1 ? "" : "s",
                     rec.truncatedTail ? ", truncated torn tail"
                                       : "");
        journal = &journalStorage;
    }

    engine::ServeSession session(engine);
    session.setJournal(journal);
    installSignalHandlers();
    serveLoop(session);

    // Graceful shutdown (signal or EOF): make everything durable
    // and anchor a final snapshot so the next start replays nothing.
    if (journal) {
        journal->flush();
        std::string err;
        if (!journal->rotate(&err)) {
            std::fprintf(stderr,
                         "%s: journal: final snapshot failed: %s\n",
                         argv[0], err.c_str());
            return 1;
        }
        journal->close();
    }
    std::fprintf(stderr,
                 "%s: %s: %llu request%s answered, %llu event%s "
                 "journaled, clock %llu\n",
                 argv[0], gStop ? "shutdown on signal" : "shutdown",
                 static_cast<unsigned long long>(
                     session.requestsHandled()),
                 session.requestsHandled() == 1 ? "" : "s",
                 static_cast<unsigned long long>(
                     journal ? journal->appended() : 0),
                 (journal ? journal->appended() : 0) == 1 ? "" : "s",
                 static_cast<unsigned long long>(engine.now()));
    return 0;
}
