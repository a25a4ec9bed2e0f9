/**
 * @file
 * The traced run's recording side.
 *
 * The benchmark records its own spans (through the process trace
 * sink, category "bench") around each call it makes into a layer, and
 * keeps a precise steady-clock sample of every such call for the
 * per-layer metrics. Spans the daemons buffered (`--trace-live`) are
 * collected with the existing trace-drain probe. Everything ends up
 * in one Perfetto-loadable Chrome trace and one per-layer table.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common.hh"
#include "obs/trace.hh"

namespace perfbench {

/** One row of the per-layer table. */
struct LayerRow
{
    std::string process; ///< "perfbench" or the daemon's label
    std::string name;
    std::size_t n = 0;
    double sumUs = 0.0;
    double p50Us = 0.0;
    double p99Us = 0.0;
    double selfUs = 0.0; ///< sum of durations minus nested children
};

/**
 * Precise per-layer call samples, in microseconds. The micro-measures
 * run after the trace is closed, so they carry no span overhead.
 */
class Layers
{
  public:
    void add(const std::string &layer, double us)
    {
        samples_[layer].push_back(us);
    }

    /** Time one call of `f` and keep the sample. */
    template <class F>
    auto time(const char *layer, F &&f)
    {
        const auto t0 = Clock::now();
        if constexpr (std::is_void_v<decltype(f())>) {
            f();
            add(layer, usBetween(t0, Clock::now()));
        } else {
            auto r = f();
            add(layer, usBetween(t0, Clock::now()));
            return r;
        }
    }

    Summary summary(const std::string &layer) const;

    /** One table row per layer (leaf calls: self time = sum). */
    std::vector<LayerRow> rows() const;

  private:
    std::map<std::string, std::vector<double>> samples_;
};

/** The spans of one traced run, from every process. */
class TraceCapture
{
  public:
    /** Arm the process trace sink (live mode: no file). */
    void arm();

    /** Record a span the benchmark timed itself, e.g. one request's
     *  round trip whose send and receive ran on different threads. */
    void span(const char *name, Clock::time_point t0,
              Clock::time_point t1, std::string args = std::string());

    /** Add one drained daemon span batch (serve::encodeSpanBatch). */
    void addDaemon(const std::string &label, const std::string &batch);

    /** Drain the local spans and disarm the sink. */
    void finish();

    /** Summarize by (process, span name), self time by nesting. */
    std::vector<LayerRow> table() const;

    /** Write everything as one Chrome/Perfetto trace. */
    void write(const std::string &path) const;

    /** Durations (us) of the spans named `name` of process `label`. */
    std::vector<double> durations(const std::string &label,
                                  const std::string &name) const;

    /** The spans named `name` of process `label`. */
    std::vector<const ganacc::obs::TraceEvent *>
    events(const std::string &label, const std::string &name) const;

  private:
    Clock::time_point base_{}; ///< the sink's time zero
    std::vector<std::string> processes_{"perfbench"};
    std::vector<ganacc::obs::TraceEvent> events_;
};

/** The table as aligned text. */
std::string formatTable(const std::vector<LayerRow> &rows);

/** The table as a JSON array. */
std::string tableJson(const std::vector<LayerRow> &rows);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
