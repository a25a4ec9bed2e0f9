/**
 * @file
 * Shared plumbing of the measuring program: clocks, order statistics,
 * the metric list a run reports, per-phase request accounting, child
 * daemon processes and host metadata.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
double secondsSince(Clock::time_point t0);

/** Microseconds between two time points. */
double usBetween(Clock::time_point a, Clock::time_point b);

/** Order statistics of one sample set. */
struct Summary
{
    std::size_t n = 0;
    double sum = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
};

/** Nearest-rank percentile `q` in [0, 1] of `v` (0 when empty). */
double percentile(std::vector<double> v, double q);

Summary summarize(const std::vector<double> &v);

/** Median of a sample set (0 when empty). */
double median(const std::vector<double> &v);

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Requests of one phase: sent, answered ok, answered ok:false,
 *  and (of the failures) shed with the overload error. */
struct PhaseCount
{
    std::string phase;
    std::uint64_t sent = 0;
    std::uint64_t succeeded = 0;
    std::uint64_t failed = 0;
    std::uint64_t shed = 0;
};

/** Everything one workload run hands back to main(). */
struct RunResult
{
    bool correct = true;
    std::vector<std::string> problems; ///< why `correct` is false
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<PhaseCount> phases;
    std::string layerTable; ///< traced runs: per-layer table, JSON

    void add(const std::string &name, double value,
             const std::string &unit);
    /** Record a failed output check (keeps the first few messages). */
    void fail(const std::string &why);
    const Metric *find(const std::string &name) const;
};

/** Command-line options every workload sees. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string served; ///< path of the ganacc-served binary
    std::string outDir; ///< where traces and result files go
    int nproc = 1;
};

/**
 * A ganacc-served child process. The constructor spawns it with
 * `--announce FILE` appended and blocks until the daemon wrote its
 * bound address there; the destructor stops it (SIGTERM, then wait).
 */
class Daemon
{
  public:
    Daemon(const std::string &binary, std::vector<std::string> args,
           const std::string &announceFile, const std::string &logFile);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &address() const { return address_; }

    /** High-water resident set of the child, in MB. */
    double peakRssMb() const;

    /** SIGTERM (SIGKILL after 10 s) and reap; idempotent. */
    void stop();

  private:
    pid_t pid_ = -1;
    std::string address_;
};

/** High-water resident set of this process, in MB. */
double selfPeakRssMb();

/** Logical CPUs available to this process. */
int cpuCount();

/** A "host" JSON object: host name, nproc, build type, commit. */
std::string hostJson(int nproc);

/** Format a double with every significant digit. */
std::string num(double v);

/** Remove a directory tree (best effort). */
void removeTree(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
