/**
 * @file
 * The closed-form fast-path simulator engine.
 *
 * Every dataflow walk in this repository advances one cycle at a
 * time, even through long idle, drain and zero-skip stretches. But a
 * timing-only run is a pure function of (schedule, job geometry), and
 * each walk's counters are expressible as sums over *schedule
 * segments* — pass blocks, parity classes, kernel positions, resident
 * chunks — whose per-axis structure factorizes. The functions here
 * evaluate those sums directly: cost O(z * (kh*oh + kw*ow)) per job,
 * z the zero-insertion stride, instead of O(simulated cycles), which
 * is what makes LSUN-scale layers and 100x-larger DSE sweeps
 * tractable.
 *
 * The cycle walks remain the golden reference. Each closed form is
 * required to match its walk *bit for bit* on every RunStats counter;
 * tests/test_differential_fuzz.cc enforces the parity on a fuzzed
 * corpus across all five dataflows (plus the NLR-vanilla and
 * ZFOST-raster ablation configurations), and verify/static_bounds
 * re-exposes the same formulas as the GA-BOUNDS-DIVERGE checker.
 *
 * All five dataflows interpret the output-class description of
 * sim/segments instead of re-deriving the per-axis counts: NLR, WST
 * and OST read the one Dense class, ZFOST and ZFWST the parity
 * classes, and OST is the one-class case of the ZFOST form.
 *
 * Engine selection: Architecture::run() consults simEngine() and uses
 * the fast path for timing-only, fault-free runs when the concrete
 * architecture provides one (Architecture::fastStats). Functional
 * runs always walk — they produce real output data, which no closed
 * form can. Force the walk with GANACC_ENGINE=walk (or
 * programmatically with setSimEngine()); GANACC_ENGINE=auto or unset
 * is the default.
 */

#ifndef GANACC_SIM_CLOSED_FORM_HH
#define GANACC_SIM_CLOSED_FORM_HH

#include <optional>
#include <string>
#include <vector>

#include "sim/arch.hh"
#include "sim/conv_spec.hh"
#include "sim/segments.hh"
#include "sim/stats.hh"

namespace ganacc {
namespace sim {

/** Which engine times a timing-only run. */
enum class SimEngine
{
    Auto, ///< fast path when the architecture has one (the default)
    Walk, ///< always the per-cycle walk (the golden reference)
};

/** The process-wide engine. First use reads GANACC_ENGINE
 *  (walk|auto); setSimEngine() overrides. Thread-safe. */
SimEngine simEngine();

/** Override the process-wide engine (tests, benches, tools). */
void setSimEngine(SimEngine engine);

std::string simEngineName(SimEngine engine);

/** Inverse of simEngineName (case-insensitive); nullopt if unknown. */
std::optional<SimEngine> simEngineFromName(const std::string &name);

/** True when run() would take the fast path for a timing-only run of
 *  this engine setting. */
bool fastPathEnabled();

/** RAII engine override for tests, benches and checkers: forces the
 *  given engine for its scope and restores the previous one. */
class ScopedSimEngine
{
  public:
    explicit ScopedSimEngine(SimEngine engine) : prev_(simEngine())
    {
        setSimEngine(engine);
    }
    ~ScopedSimEngine() { setSimEngine(prev_); }
    ScopedSimEngine(const ScopedSimEngine &) = delete;
    ScopedSimEngine &operator=(const ScopedSimEngine &) = delete;

  private:
    SimEngine prev_;
};

/**
 * Closed forms, one per dataflow, parameterized by the design knobs
 * that change the schedule. Each returns exactly the RunStats the
 * corresponding cycle walk counts for a timing-only run of `spec` —
 * the parity suite keeps "exactly" honest. All panic on the same
 * malformed-spec preconditions the walks assert.
 */

/** NLR over the job's one Dense class
 *  (classSegments(s, ClassSplit::Dense).front()); `zero_skip` selects
 *  the paper's improved dataflow (true) or the vanilla DianNao-style
 *  ablation that executes structural zeros as wasted cycles (false). */
RunStats nlrClosedForm(const Unroll &u, const ConvSpec &s,
                       const ClassSegment &dense, bool zero_skip);

/** WST over the job's one Dense class: resident kernel tile, one
 *  streamed input position per cycle. */
RunStats wstClosedForm(const Unroll &u, const ConvSpec &s,
                       const ClassSegment &dense);

/** ZFOST over the job's output classes; OST is the one-class case,
 *  classSegments(s, ClassSplit::Dense) with the raster feed.
 *  `reordered_feed` selects the Fig. 12(a) parity-grouped weight feed
 *  (true) or raster order (false), which reloads the input tile every
 *  cycle on strided jobs. */
RunStats zfostClosedForm(const Unroll &u, const ConvSpec &s,
                         const std::vector<ClassSegment> &classes,
                         bool reordered_feed);

/** ZFWST over the job's parity classes
 *  (classSegments(s, ClassSplit::ZeroFree)): resident chunks of
 *  effective kernel elements, one output neuron per cycle through the
 *  adder tree. */
RunStats zfwstClosedForm(const Unroll &u, const ConvSpec &s,
                         const std::vector<ClassSegment> &classes);

} // namespace sim
} // namespace ganacc

#endif // GANACC_SIM_CLOSED_FORM_HH
