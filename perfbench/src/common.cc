#include "common.hh"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <thread>

#include "util/logging.hh"
#include "util/strings.hh"

extern char **environ;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest value with at least q of the sample
    // at or below it.
    std::size_t rank = std::size_t(std::ceil(q * double(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

Summary
summarize(const std::vector<double> &v)
{
    Summary s;
    s.n = v.size();
    for (double x : v)
        s.sum += x;
    s.p50 = percentile(v, 0.50);
    s.p99 = percentile(v, 0.99);
    return s;
}

double
median(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    const std::size_t m = s.size() / 2;
    return s.size() % 2 ? s[m] : 0.5 * (s[m - 1] + s[m]);
}

void
RunResult::add(const std::string &name, double value,
               const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

void
RunResult::fail(const std::string &why)
{
    correct = false;
    if (problems.size() < 8)
        problems.push_back(why);
}

const Metric *
RunResult::find(const std::string &name) const
{
    for (const Metric &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

namespace {

/** VmHWM of /proc/<pid>/status in MB (0 when unreadable). */
double
vmHwmMb(const std::string &statusPath)
{
    std::ifstream is(statusPath);
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream ls(line.substr(6));
            double kb = 0.0;
            ls >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

} // namespace

Daemon::Daemon(const std::string &binary, std::vector<std::string> args,
               const std::string &announceFile,
               const std::string &logFile)
{
    std::filesystem::remove(announceFile);
    args.insert(args.begin(), binary);
    args.push_back("--announce");
    args.push_back(announceFile);
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 1, logFile.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, binary.c_str(), &fa, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
        pid_ = -1;
        ganacc::util::fatal("cannot start ", binary, ": ",
                            std::strerror(rc));
    }

    // Wait for the announce file: the daemon writes it once it is
    // listening, so a connect after this never races the bind.
    const auto t0 = Clock::now();
    while (true) {
        std::ifstream is(announceFile);
        std::string addr;
        if (is && std::getline(is, addr) && !addr.empty()) {
            address_ = addr;
            return;
        }
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            ganacc::util::fatal("ganacc-served exited during start-up; "
                                "see ", logFile);
        }
        if (secondsSince(t0) > 20.0) {
            stop();
            ganacc::util::fatal("ganacc-served did not announce within "
                                "20 s; see ", logFile);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

Daemon::~Daemon()
{
    stop();
}

double
Daemon::peakRssMb() const
{
    return pid_ > 0 ? vmHwmMb("/proc/" + std::to_string(pid_) + "/status")
                    : 0.0;
}

void
Daemon::stop()
{
    if (pid_ <= 0)
        return;
    // SIGTERM drains: the daemon finishes its open connections first.
    // One that has not exited after 10 s is killed, so a client left
    // connected cannot hang the benchmark.
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto t0 = Clock::now();
    while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (secondsSince(t0) > 10.0) {
            ::kill(pid_, SIGKILL);
            while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
            }
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
}

double
selfPeakRssMb()
{
    return vmHwmMb("/proc/self/status");
}

int
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
hostJson(int nproc)
{
    char host[256] = {};
    gethostname(host, sizeof host - 1);
    const char *commit = std::getenv("PERFBENCH_COMMIT");
    std::ostringstream os;
    os << "{\"host\":\"" << ganacc::util::escapeJson(host)
       << "\",\"nproc\":" << nproc << ",\"build_type\":\""
       << PERFBENCH_BUILD_TYPE << "\",\"commit\":\""
       << ganacc::util::escapeJson(commit ? commit : "unknown")
       << "\"}";
    return os.str();
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << v;
    return os.str();
}

void
removeTree(const std::string &path)
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace perfbench
