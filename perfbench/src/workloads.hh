/**
 * @file
 * The four workloads and the pieces the two served ones share.
 *
 * Every workload reports every end-to-end metric (see README.md for
 * what each means on each workload), measured with tracing off. With
 * `--trace 1` a workload first repeats its untraced measurement, then
 * runs again with tracing armed and reports the per-layer metrics.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hh"
#include "core/dse.hh"
#include "gen.hh"
#include "serve/client.hh"
#include "trace.hh"

namespace perfbench {

/** Set-up repetitions per run; setup_s is their median. */
inline constexpr int kSetupRepeats = 9;

/**
 * Head-sampling rate of traced daemons and of the router's root
 * spans: enough requests for stable per-stage percentiles, few enough
 * that one trace-drain response stays a few megabytes.
 */
inline constexpr const char *kTraceSample = "0.05";

RunResult runDaemonUnique(const Options &o);
RunResult runFleetRepeat(const Options &o);
RunResult runFaultCampaign(const Options &o);
RunResult runDseSweep(const Options &o);

/** The "counters" of a stats-probe telemetry snapshot ({} if empty). */
std::map<std::string, std::uint64_t>
telemetryCounters(const std::string &telemetry);

/** Serve-layer counters of a daemon, from one {"stats":true} probe. */
std::map<std::string, std::uint64_t> probeCounters(
    ganacc::serve::Client &client);

/**
 * Check one response line against the expected canonical stats text
 * without the protocol decoder: ok:true, the request id, and the
 * "stats" object byte-equal to sim::toJson of the direct run. On a
 * mismatch returns false and explains it in `why`.
 */
bool checkResponse(const std::string &line, std::uint64_t id,
                   const std::string &expectedStats, std::string *why);

/** How tallyResponse treats an ok:false overload (shed) response. */
enum class Shed
{
    Fails,   ///< the daemon does not shed: any ok:false is a defect
    Counted, ///< shed after the router's retries: counted, not a defect
};

/**
 * Count one served response in `c` and check it. An ok:true response
 * must pass checkResponse. An ok:false response counts as failed and
 * fails the run, except an overload error under Shed::Counted, which
 * counts as shed. Returns true when the response is ok and correct.
 */
bool tallyResponse(const std::string &line, std::uint64_t id,
                   const std::string &expectedStats, Shed shed,
                   PhaseCount &c, RunResult &r);

/** Integer field `key` of a response line (0 when absent). */
std::uint64_t lineField(const std::string &line, const std::string &key);

/** Expected canonical stats text of each job (direct runs). */
std::vector<std::string> expectedStats(const std::vector<SpecJob> &jobs,
                                       int threads);

/**
 * The serve-side micro-measures both served workloads report:
 * decodeRequest / encodeResponse on the workload's own lines, and a
 * warm core::cachedRun against the closed form it guards.
 */
void measureCodecAndCache(const std::vector<std::string> &requestLines,
                          const std::vector<std::string> &responseLines,
                          const std::vector<SpecJob> &jobs,
                          Layers &layers);

/**
 * The design-space layers on the points of one constraint set, every
 * paper model, cold cycle cache: core::evaluatePoint,
 * verify::checkDesignPoint and verify::staticScheduleRelation (both
 * banks, every phase job, widest and narrowest point). Adds
 * core.dse_point_us, verify.legality_us and verify.schedule_us.
 */
void measureDseLayers(const ganacc::core::DseConstraints &cons,
                      Layers &layers, RunResult &r);

/** Closed-form Architecture::run(spec) samples on `jobs`. */
void measureClosedForm(const std::vector<SpecJob> &jobs, Layers &layers);

/** Add "<name>.p50" and "<name>.p99" of a layer's samples. */
void addP50P99(RunResult &r, const Layers &layers, const std::string &layer,
               const std::string &name);

/**
 * obs.trace_overhead_frac.<metric> = (traced - untraced) / untraced
 * for the timing metrics lat_p50_us, req_per_s and wall_s.
 */
void addTraceOverhead(RunResult &traced, const RunResult &untraced);

/**
 * Close a traced run: the per-layer table (spans of every process
 * plus the micro-measure rows) is printed to stderr, kept in `r`, and
 * the spans are written as a Perfetto-loadable trace to
 * <outDir>/<workload>-seed<seed>.trace.json. The capture must be
 * finished.
 */
void finishTrace(const Options &o, const TraceCapture &capture,
                 const Layers &layers, RunResult &r);

/** One result from the untraced and the traced measurement. */
RunResult combineTraced(RunResult untraced, RunResult traced);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
