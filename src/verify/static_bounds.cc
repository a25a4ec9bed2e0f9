/**
 * @file
 * Closed-form performance bounds — the checker face of the fast-path
 * engine.
 *
 * The per-dataflow derivations live in sim/closed_form, where
 * Architecture::run() uses them as its timing-only fast path. This
 * translation unit holds the verify-level API: the one ArchKind
 * switch (closed form, segment split and the default design knobs
 * makeArch() configures — ZFOST reordered weight feed, NLR zero
 * skipping) that the schedule relation and the legality checks share,
 * and the GA-BOUNDS-DIVERGE counter-by-counter cross-check.
 */

#include "verify/static_bounds.hh"

#include <sstream>

#include "sim/closed_form.hh"
#include "util/logging.hh"

namespace ganacc {
namespace verify {

using core::ArchKind;
using sim::ConvSpec;
using sim::RunStats;
using sim::Unroll;

StaticModel
staticModel(ArchKind kind, const Unroll &unroll, const ConvSpec &spec,
            const DataflowKnobs &knobs)
{
    spec.validate();
    StaticModel m;
    m.kind = kind;
    const bool zero_free =
        kind == ArchKind::ZFOST || kind == ArchKind::ZFWST;
    m.classes = sim::classSegments(
        spec, zero_free ? sim::ClassSplit::ZeroFree : sim::ClassSplit::Dense);
    switch (kind) {
      case ArchKind::NLR:
        m.stats = sim::nlrClosedForm(unroll, spec, m.classes.front(),
                                     knobs.zeroSkip);
        return m;
      case ArchKind::WST:
        m.stats = sim::wstClosedForm(unroll, spec, m.classes.front());
        return m;
      case ArchKind::OST: // the raster feed
      case ArchKind::ZFOST:
        m.stats = sim::zfostClosedForm(unroll, spec, m.classes,
                                       zero_free && knobs.reorderedFeed);
        return m;
      case ArchKind::ZFWST:
        m.stats = sim::zfwstClosedForm(unroll, spec, m.classes);
        return m;
    }
    util::panic("unknown arch kind");
}

RunStats
staticRunStats(ArchKind kind, const Unroll &unroll, const ConvSpec &spec)
{
    return staticModel(kind, unroll, spec).stats;
}

bool
checkBoundsAgainstSim(ArchKind kind, const Unroll &unroll,
                      const ConvSpec &spec, const RunStats &simulated,
                      Report &report)
{
    RunStats expect = staticRunStats(kind, unroll, spec);
    const std::string where =
        core::archKindName(kind) + " " + spec.label;
    bool agree = true;
    auto check = [&](const char *name, std::uint64_t stat,
                     std::uint64_t simv) {
        if (stat == simv)
            return;
        agree = false;
        std::ostringstream os;
        os << name << ": closed form says " << stat
           << " but the cycle walk counted " << simv
           << " (one of the two derivations is buggy)";
        report.error(codes::kBoundsDiverge, where, os.str());
    };
    check("cycles", expect.cycles, simulated.cycles);
    check("nPes", expect.nPes, simulated.nPes);
    check("effectiveMacs", expect.effectiveMacs, simulated.effectiveMacs);
    check("ineffectualMacs", expect.ineffectualMacs,
          simulated.ineffectualMacs);
    check("idlePeSlots", expect.idlePeSlots, simulated.idlePeSlots);
    check("weightLoads", expect.weightLoads, simulated.weightLoads);
    check("inputLoads", expect.inputLoads, simulated.inputLoads);
    check("outputReads", expect.outputReads, simulated.outputReads);
    check("outputWrites", expect.outputWrites, simulated.outputWrites);
    return agree;
}

} // namespace verify
} // namespace ganacc
