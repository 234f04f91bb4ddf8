/**
 * @file
 * A sharch-serve child process on a pair of pipes: one request line
 * out, one reply line back.  The destructor SIGKILLs and reaps it, so
 * no server outlives the benchmark.
 */

#ifndef PERFBENCH_SERVE_CHILD_HH
#define PERFBENCH_SERVE_CHILD_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

class ServeChild
{
  public:
    /** Spawn @p bin with @p args; its stderr appends to @p logPath. */
    ServeChild(const std::string &bin, const std::vector<std::string> &args,
               const std::string &logPath);
    ~ServeChild();
    ServeChild(const ServeChild &) = delete;
    ServeChild &operator=(const ServeChild &) = delete;

    /** Send @p line, read one reply line.  False when the pipe broke. */
    bool request(const std::string &line, std::string *reply);

    /** SIGKILL and reap (the crash the journal must survive). */
    void kill9();

    /** Close stdin and wait for a graceful exit; @return exit code. */
    int finish();

    int pid() const { return pid_; }

  private:
    int pid_ = -1;
    int toChild_ = -1;
    int fromChild_ = -1;
    std::string buf_;

    void closeFds();
};

/**
 * sharch-serve flags for one serve_session process; with a journal
 * when @p journalDir is not empty.  The server's own simulation seed
 * is fixed: it is the service's configuration, not an input, and the
 * auctions' cost depends strongly on the surface it simulates.
 */
std::vector<std::string> serveArgs(const std::string &journalDir);

/** The empty fabric after warm-up. */
struct WarmCapacity
{
    unsigned slices = 0;
    unsigned banks = 0;
};

/** Warm every bid benchmark's surface through @p send (one request
 *  line in, its reply out) and read the empty fabric's capacity. */
WarmCapacity warmUp(
    const std::function<std::string(const std::string &)> &send);

} // namespace perfbench

#endif // PERFBENCH_SERVE_CHILD_HH
