/**
 * @file
 * Shared helpers for the reproduction benches: each bench binary
 * regenerates one table or figure of the paper and prints it in a
 * diffable plain-text format, leading with a header that names the
 * experiment (see DESIGN.md section 3 for the index).
 */

#ifndef GANACC_BENCH_BENCH_COMMON_HH
#define GANACC_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <iostream>
#include <string>

#include "core/cycle_cache.hh"
#include "obs/telemetry.hh"
#include "util/args.hh"
#include "util/table.hh"

namespace ganacc {
namespace bench {

/** Print the experiment banner. */
inline void
banner(const std::string &experiment, const std::string &paper_claim)
{
    std::cout << "==================================================="
                 "=====================\n";
    std::cout << "Reproduction: " << experiment << "\n";
    std::cout << "Paper claim:  " << paper_claim << "\n";
    std::cout << "==================================================="
                 "=====================\n";
}

/**
 * Standard scope of a figure bench: the telemetry arming point
 * (--trace / GANACC_TRACE / GANACC_EVENTS / GANACC_METRICS turn the
 * process-wide sinks on for the scope's lifetime), and on exit the
 * process-wide CycleCache summary, so every figure report ends with
 * its memo hit/miss accounting. All telemetry status goes through
 * util::inform (stderr), so the figure text on stdout stays
 * byte-identical whether or not tracing is enabled.
 */
class CacheScope
{
  public:
    explicit CacheScope(util::ArgParser &args)
    {
        obs::TelemetryConfig cfg = obs::configFromEnv();
        const std::string trace = args.getTracePath();
        if (!trace.empty())
            cfg.tracePath = trace;
        if (cfg.any())
            obs::enableTelemetry(cfg);
    }

    ~CacheScope()
    {
        obs::shutdownTelemetry();
        std::cout << "\n[" << core::CycleCache::instance().summary()
                  << "]\n";
    }

    CacheScope(const CacheScope &) = delete;
    CacheScope &operator=(const CacheScope &) = delete;
};

} // namespace bench
} // namespace ganacc

#endif // GANACC_BENCH_BENCH_COMMON_HH
