#include "serve_child.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hh"
#include "serve_script.hh"

extern char **environ;

namespace json = sharch::json;

namespace perfbench {

ServeChild::ServeChild(const std::string &bin,
                       const std::vector<std::string> &args,
                       const std::string &logPath)
{
    std::signal(SIGPIPE, SIG_IGN);
    int in[2], out[2];
    if (pipe(in) != 0 || pipe(out) != 0)
        throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, in[0], 0);
    posix_spawn_file_actions_adddup2(&fa, out[1], 1);
    posix_spawn_file_actions_addopen(&fa, 2, logPath.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_addclose(&fa, in[1]);
    posix_spawn_file_actions_addclose(&fa, out[0]);
    std::vector<std::string> argv = {bin};
    argv.insert(argv.end(), args.begin(), args.end());
    std::vector<char *> cargv;
    for (std::string &a : argv)
        cargv.push_back(a.data());
    cargv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr,
                               cargv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(in[0]);
    close(out[1]);
    toChild_ = in[1];
    fromChild_ = out[0];
    fcntl(toChild_, F_SETFD, FD_CLOEXEC);
    fcntl(fromChild_, F_SETFD, FD_CLOEXEC);
    if (rc != 0) {
        pid_ = -1;
        throw std::runtime_error("cannot start " + bin + ": " +
                                 std::strerror(rc));
    }
}

ServeChild::~ServeChild()
{
    kill9();
}

bool
ServeChild::request(const std::string &line, std::string *reply)
{
    std::string msg = line;
    msg.push_back('\n');
    std::size_t off = 0;
    while (off < msg.size()) {
        const ssize_t n = write(toChild_, msg.data() + off, msg.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        off += static_cast<std::size_t>(n);
    }
    for (;;) {
        const std::size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            reply->assign(buf_, 0, nl);
            buf_.erase(0, nl + 1);
            return true;
        }
        char chunk[65536];
        const ssize_t n = read(fromChild_, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return false;
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

void
ServeChild::kill9()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
        pid_ = -1;
    }
    closeFds();
}

int
ServeChild::finish()
{
    closeFds(); // EOF on stdin: the server shuts down gracefully
    int status = 0;
    if (pid_ > 0 && waitpid(pid_, &status, 0) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    return -1;
}

void
ServeChild::closeFds()
{
    if (toChild_ >= 0)
        close(toChild_);
    if (fromChild_ >= 0)
        close(fromChild_);
    toChild_ = fromChild_ = -1;
}

std::vector<std::string>
serveArgs(const std::string &journalDir)
{
    std::vector<std::string> a = {"--fabric", kServeFabric, "--seed", "1"};
    if (!journalDir.empty())
        a.insert(a.end(), {"--journal", journalDir, "--journal-fsync", "0"});
    return a;
}

WarmCapacity
warmUp(const std::function<std::string(const std::string &)> &send)
{
    // One bid per benchmark, an auction (simulates their surfaces),
    // then the bidders leave again; the empty fabric's capacity is
    // what the client's tally counts down from.
    for (std::size_t i = 0; i < bidBenchmarks().size(); ++i)
        send("{\"op\":\"allocate\",\"tenant\":\"warm" + std::to_string(i) +
             "\",\"budget\":10,\"benchmark\":\"" + bidBenchmarks()[i] + "\"}");
    send("{\"op\":\"price\"}");
    for (std::size_t i = 0; i < bidBenchmarks().size(); ++i)
        send("{\"op\":\"release\",\"tenant\":\"warm" + std::to_string(i) +
             "\"}");
    json::Value v;
    std::string err;
    WarmCapacity c;
    if (json::parse(send("{\"op\":\"stats\"}"), &v, &err)) {
        std::uint64_t x = 0;
        if (const json::Value *s = v.get("free_slices"); s && s->asU64(&x))
            c.slices = static_cast<unsigned>(x);
        if (const json::Value *b = v.get("free_banks"); b && b->asU64(&x))
            c.banks = static_cast<unsigned>(x);
    }
    return c;
}

} // namespace perfbench
