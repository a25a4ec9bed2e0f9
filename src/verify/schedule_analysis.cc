/**
 * @file
 * Static schedule-hazard analysis + dynamic shadow checker.
 *
 * Layout: the ShadowRecorder (a sim::ScheduleRecorder reconstructing
 * the concrete ScheduleRelation from a recorder-armed walk, with port
 * totals routed through mem::OnChipBuffer + mem::AccessTap), then the
 * per-dataflow symbolic relations, then the public checks.
 *
 * The symbolic derivations interpret the same static model as the
 * closed forms (verify::staticModel): totals are taken from the proven
 * closed forms, while the per-cycle *peaks* and the accumulation-window
 * population are derived here from the loop-nest structure — over the
 * same output-class description (sim/segments) the closed forms sum
 * over, and for WST and ZFWST through one resident-tile pass helper
 * (firstTwoPassLoads). Peak arguments rely on
 * two facts about every paper schedule: (1) maximal tiles exist — the
 * first tile of each loop axis has the full min(factor, bound) extent,
 * and the loop nests are full cross products, so maximal extents
 * co-occur in some cycle; (2) pass-boundary traffic (resident
 * weight-tile loads, register drains) attaches to a cycle that carries
 * no other traffic on the same port, because passes are at least one
 * cycle long and the per-cycle port sets are disjoint from the
 * boundary port sets.
 */

#include "verify/schedule_analysis.hh"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "mem/access_tap.hh"
#include "mem/onchip_buffer.hh"
#include "obs/metrics.hh"
#include "sim/cnv.hh"
#include "sim/rst.hh"
#include "sim/schedule_recorder.hh"
#include "sim/segments.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "verify/static_bounds.hh"

namespace ganacc {
namespace verify {

using core::ArchKind;
using sim::ConvSpec;
using sim::RunStats;
using sim::Unroll;

namespace {

using u64 = std::uint64_t;

using sim::ceilDiv;

u64
umin(int factor, u64 bound)
{
    return std::min(u64(factor), bound);
}

/** Location string for diagnostics. */
std::string
jobWhere(const std::string &arch, const ConvSpec &spec)
{
    return arch + " " + (spec.label.empty() ? spec.describe() : spec.label);
}

// ---------------------------------------------------------------------
// The shadow recorder.
// ---------------------------------------------------------------------

/** Counts the words an OnChipBuffer moved, through the tap path. */
class CountingTap final : public mem::AccessTap
{
  public:
    void
    onAccess(std::uint64_t bytes, bool is_write) override
    {
        (is_write ? written_ : read_) += bytes;
    }

    u64 readWords() const { return read_; }
    u64 writtenWords() const { return written_; }

  private:
    u64 read_ = 0;
    u64 written_ = 0;
};

/**
 * Reconstructs the concrete ScheduleRelation from recorder callbacks.
 * Port totals are deliberately not summed here: every onPort event is
 * replayed through an OnChipBuffer with an AccessTap armed, and the
 * relation reads the totals back from the taps — if any buffer access
 * path stopped firing its tap, the shadow totals would collapse and
 * the differential against the static model would catch it.
 */
class ShadowRecorder final : public sim::ScheduleRecorder
{
  public:
    ShadowRecorder()
        : weight_buf_("sched.weight",
                      std::numeric_limits<std::uint64_t>::max()),
          input_buf_("sched.input",
                     std::numeric_limits<std::uint64_t>::max()),
          output_buf_("sched.output",
                      std::numeric_limits<std::uint64_t>::max())
    {
        weight_buf_.setAccessTap(&weight_tap_);
        input_buf_.setAccessTap(&input_tap_);
        output_buf_.setAccessTap(&output_tap_);
    }

    void
    onJobBegin(int n_pes, const ConvSpec &) override
    {
        rel_ = ScheduleRelation{};
        n_pes_ = n_pes < 0 ? 0 : u64(n_pes);
        lane_stamp_.assign(std::size_t(n_pes_), 0);
        cycle_id_ = 0;
        cycle_open_ = false;
        cur_slots_ = 0;
        std::fill(std::begin(cur_port_), std::end(cur_port_), u64(0));
        cycle_writes_.clear();
        window_open_ = false;
    }

    void
    onCycle() override
    {
        finalizeCycle();
        cycle_open_ = true;
        ++cycle_id_;
        rel_.cycles += 1;
    }

    void
    onLanes(int base, int count) override
    {
        for (int lane = base; lane < base + count; ++lane) {
            if (lane < 0 || u64(lane) >= n_pes_) {
                rel_.slotConflicts += 1; // booked a nonexistent PE
                continue;
            }
            u64 &stamp = lane_stamp_[std::size_t(lane)];
            if (stamp == cycle_id_ && cycle_id_ != 0) {
                rel_.slotConflicts += 1; // double-booked this cycle
                continue;
            }
            stamp = cycle_id_;
            cur_slots_ += 1;
            rel_.scheduledSlots += 1;
        }
    }

    void
    onPort(sim::SchedPort port, u64 words) override
    {
        cur_port_[portIdx(port)] += words;
        // Route the traffic through the mem layer so the totals come
        // back via the AccessTap path.
        switch (port) {
          case sim::SchedPort::Weight:
            weight_buf_.read(words);
            break;
          case sim::SchedPort::Input:
            input_buf_.read(words);
            break;
          case sim::SchedPort::OutputRead:
            output_buf_.read(words);
            break;
          case sim::SchedPort::OutputWrite:
            output_buf_.write(words);
            break;
        }
    }

    void
    onWindowBegin(u64 cells, sim::WindowKind kind) override
    {
        GANACC_ASSERT(!window_open_,
                      "schedule windows must not nest within a job");
        window_open_ = true;
        window_kind_ = kind;
        window_cells_ = cells;
        if (kind != sim::WindowKind::WriteThrough)
            window_flags_.assign(std::size_t(cells), 0);
        cycle_writes_.clear();
        rel_.windows += 1;
    }

    void
    onCellWrite(u64 base, u64 count) override
    {
        const auto [b, c] = clampToWindow(base, count);
        // Same-cycle overlap with an earlier write is a WAW hazard.
        for (const auto &[eb, ec] : cycle_writes_) {
            const u64 lo = std::max(b, eb);
            const u64 hi = std::min(b + c, eb + ec);
            if (hi > lo)
                rel_.wawHazards += hi - lo;
        }
        if (c > 0)
            cycle_writes_.emplace_back(b, c);
        if (window_open_ && window_kind_ != sim::WindowKind::WriteThrough)
            for (u64 i = b; i < b + c; ++i)
                window_flags_[std::size_t(i)] |= kWritten;
    }

    void
    onCellRead(u64 base, u64 count) override
    {
        const auto [b, c] = clampToWindow(base, count);
        // Only non-zero-initialized buffers can read stale state.
        if (window_open_ && window_kind_ == sim::WindowKind::AccumBuffer)
            for (u64 i = b; i < b + c; ++i)
                if (!(window_flags_[std::size_t(i)] & kWritten))
                    rel_.rawHazards += 1;
    }

    void
    onDrain(u64 base, u64 count) override
    {
        const auto [b, c] = clampToWindow(base, count);
        rel_.cellsDrained += count;
        if (window_open_ && window_kind_ != sim::WindowKind::WriteThrough)
            for (u64 i = b; i < b + c; ++i)
                window_flags_[std::size_t(i)] |= kDrained;
    }

    void
    onWindowEnd() override
    {
        GANACC_ASSERT(window_open_, "window end without a begin");
        if (window_kind_ != sim::WindowKind::WriteThrough)
            for (std::uint8_t f : window_flags_)
                if ((f & kWritten) && !(f & kDrained))
                    rel_.undrainedWrites += 1;
        window_open_ = false;
        window_flags_.clear();
    }

    void
    onJobEnd() override
    {
        finalizeCycle();
    }

    /** The reconstructed relation (valid after onJobEnd). */
    ScheduleRelation
    relation() const
    {
        ScheduleRelation r = rel_;
        r.totalWeightLoads = weight_tap_.readWords();
        r.totalInputLoads = input_tap_.readWords();
        r.totalOutputReads = output_tap_.readWords();
        r.totalOutputWrites = output_tap_.writtenWords();
        return r;
    }

  private:
    static constexpr std::uint8_t kWritten = 1;
    static constexpr std::uint8_t kDrained = 2;

    static std::size_t
    portIdx(sim::SchedPort p)
    {
        return std::size_t(p);
    }

    /** Clamp a cell range to the open window, counting the cells that
     *  fall outside (or arrive with no window open) as OOB. */
    std::pair<u64, u64>
    clampToWindow(u64 base, u64 count)
    {
        if (!window_open_) {
            rel_.oobAccesses += count;
            return {0, 0};
        }
        if (base >= window_cells_) {
            rel_.oobAccesses += count;
            return {0, 0};
        }
        if (base + count > window_cells_) {
            rel_.oobAccesses += base + count - window_cells_;
            count = window_cells_ - base;
        }
        return {base, count};
    }

    void
    finalizeCycle()
    {
        if (!cycle_open_)
            return;
        rel_.peakSlots = std::max(rel_.peakSlots, cur_slots_);
        rel_.peakWeightLoads =
            std::max(rel_.peakWeightLoads,
                     cur_port_[portIdx(sim::SchedPort::Weight)]);
        rel_.peakInputLoads =
            std::max(rel_.peakInputLoads,
                     cur_port_[portIdx(sim::SchedPort::Input)]);
        rel_.peakOutputReads =
            std::max(rel_.peakOutputReads,
                     cur_port_[portIdx(sim::SchedPort::OutputRead)]);
        rel_.peakOutputWrites =
            std::max(rel_.peakOutputWrites,
                     cur_port_[portIdx(sim::SchedPort::OutputWrite)]);
        cycle_open_ = false;
        cur_slots_ = 0;
        std::fill(std::begin(cur_port_), std::end(cur_port_), u64(0));
        cycle_writes_.clear();
    }

    ScheduleRelation rel_;
    u64 n_pes_ = 0;
    std::vector<u64> lane_stamp_; ///< cycle id of each lane's booking
    u64 cycle_id_ = 0;
    bool cycle_open_ = false;
    u64 cur_slots_ = 0;
    u64 cur_port_[4] = {0, 0, 0, 0};
    std::vector<std::pair<u64, u64>> cycle_writes_;

    bool window_open_ = false;
    sim::WindowKind window_kind_ = sim::WindowKind::WriteThrough;
    u64 window_cells_ = 0;
    std::vector<std::uint8_t> window_flags_;

    mem::OnChipBuffer weight_buf_;
    mem::OnChipBuffer input_buf_;
    mem::OnChipBuffer output_buf_;
    CountingTap weight_tap_;
    CountingTap input_tap_;
    CountingTap output_tap_;
};

// ---------------------------------------------------------------------
// Symbolic relations.
// ---------------------------------------------------------------------

/** Copy the proven closed-form totals into a relation. */
ScheduleRelation
fromClosedForm(const RunStats &st)
{
    ScheduleRelation r;
    r.cycles = st.cycles;
    r.scheduledSlots = st.effectiveMacs + st.ineffectualMacs;
    r.totalWeightLoads = st.weightLoads;
    r.totalInputLoads = st.inputLoads;
    r.totalOutputReads = st.outputReads;
    r.totalOutputWrites = st.outputWrites;
    return r;
}

ScheduleRelation
nlrSchedule(const StaticModel &m, const Unroll &u, const ConvSpec &s)
{
    ScheduleRelation r = fromClosedForm(m.stats);
    r.windows = 1; // one job-wide write-through window
    if (r.cycles == 0)
        return r; // every position skipped: nothing ever scheduled
    const u64 of_max = umin(u.pOf, s.nof);
    if (!s.fourDimOutput) {
        const u64 if_max = umin(u.pIf, s.nif);
        r.peakSlots = if_max * of_max;
        r.peakWeightLoads = if_max * of_max;
        r.peakInputLoads = if_max;
    } else {
        // Input maps stream sequentially; the adder tree carries one.
        r.peakSlots = of_max;
        r.peakWeightLoads = of_max;
        r.peakInputLoads = 1;
    }
    r.peakOutputReads = of_max;
    r.peakOutputWrites = of_max;
    return r;
}

/** Max over (kernel tile, streamed position) of valid in-tile kernel
 *  coordinates on one WST axis — the peak row (or column) fan-out of a
 *  broadcast cycle. */
u64
wstMaxAxisFanout(const ConvSpec &s, int k_extent, int pk, int in_extent,
                 int out_extent)
{
    u64 best = 0;
    for (int k0 = 0; k0 < k_extent; k0 += pk) {
        const int k_cnt = std::min(pk, k_extent - k0);
        for (int i = 0; i < in_extent; ++i) {
            u64 cnt = 0;
            for (int k = k0; k < k0 + k_cnt; ++k) {
                const int n = i - k + s.pad;
                if (n < 0 || n % s.stride != 0 ||
                    n / s.stride >= out_extent)
                    continue;
                ++cnt;
            }
            best = std::max(best, cnt);
        }
    }
    return best;
}

/** A class's resident-tile loop nest, axes outer to inner, each as
 *  (extent, factor). */
using TileNest = std::vector<std::pair<u64, u64>>;

/**
 * The words of the first two resident passes when each class, in walk
 * order, runs its tile nest: the first pass loads the first tile of
 * every axis; the second the second tile of the innermost axis that
 * has more than one tile, else the next class's first pass. When the
 * first pass is a single cycle, both loads land on the job's first
 * cycle.
 */
std::pair<u64, u64>
firstTwoPassLoads(const std::vector<TileNest> &classes)
{
    auto load = [](const TileNest &nest, std::size_t second) {
        u64 words = 1;
        for (std::size_t a = 0; a < nest.size(); ++a) {
            const auto [extent, factor] = nest[a];
            words *= std::min(factor, a == second ? extent - factor : extent);
        }
        return words;
    };
    const std::size_t none = classes.front().size(); // no second tile
    const u64 first = load(classes.front(), none);
    for (std::size_t a = none; a-- > 0;)
        if (classes.front()[a].first > classes.front()[a].second)
            return {first, load(classes.front(), a)};
    return {first, classes.size() > 1 ? load(classes[1], none) : 0};
}

ScheduleRelation
wstSchedule(const StaticModel &m, const Unroll &u, const ConvSpec &s)
{
    ScheduleRelation r = fromClosedForm(m.stats);
    r.windows = 1;
    // WST always cycles: every pass streams the full input plane.
    const u64 of_max = umin(u.pOf, s.nof);
    r.peakInputLoads = 1;
    // A resident tile load lands alone on a cycle's weight port —
    // except when every pass is a single cycle (nif = ih = iw = 1).
    const auto [first, second] = firstTwoPassLoads(
        {{{s.nof, u.pOf}, {s.kh, u.pKy}, {s.kw, u.pKx}}});
    r.peakWeightLoads =
        first + (s.nif == 1 && s.ih == 1 && s.iw == 1 ? second : 0);
    const u64 rows = wstMaxAxisFanout(s, s.kh, u.pKy, s.ih, s.oh);
    const u64 cols = wstMaxAxisFanout(s, s.kw, u.pKx, s.iw, s.ow);
    r.peakSlots = rows * cols * of_max;
    // Every contribution read-modify-writes a distinct partial sum.
    r.peakOutputReads = r.peakSlots;
    r.peakOutputWrites = r.peakSlots;
    return r;
}

/** OST and ZFOST: per output class, one register-tile window per
 *  (of-tile, tile[, input map]). */
ScheduleRelation
zfostSchedule(const StaticModel &m, const Unroll &u, const ConvSpec &s)
{
    ScheduleRelation r = fromClosedForm(m.stats);
    const u64 of_max = umin(u.pOf, s.nof);
    for (const sim::ClassSegment &c : m.classes) {
        if (c.empty())
            continue; // class streams nothing: no cycles, no tiles
        const u64 tile_max = umin(u.pOy, c.nY) * umin(u.pOx, c.nX);
        r.windows += ceilDiv(u64(s.nof), u64(u.pOf)) *
                     ceilDiv(c.nY, u64(u.pOy)) *
                     ceilDiv(c.nX, u64(u.pOx)) *
                     (s.fourDimOutput ? u64(s.nif) : 1);
        r.peakSlots = std::max(r.peakSlots, tile_max * of_max);
        r.peakWeightLoads = of_max;
        r.peakInputLoads = std::max(r.peakInputLoads, tile_max);
        r.peakOutputWrites =
            std::max(r.peakOutputWrites, tile_max * of_max);
    }
    // Registers accumulate, so nothing reads back; each window's single
    // drain covers its whole tile exactly once.
    r.cellsDrained = r.totalOutputWrites;
    return r;
}

ScheduleRelation
zfwstSchedule(const StaticModel &m, const Unroll &u, const ConvSpec &s)
{
    ScheduleRelation r = fromClosedForm(m.stats);
    const u64 cap = u64(u.pKx) * u64(u.pKy);
    const u64 of_max = umin(u.pOf, s.nof);
    bool any_accum = false;
    // Each class streams its effective kernel elements in resident
    // chunks inside the of-tile loop.
    std::vector<TileNest> nests;
    u64 first_positions = 0;
    for (const sim::ClassSegment &c : m.classes) {
        const u64 n_eff = c.kRows * c.kCols;
        if (n_eff == 0)
            continue;
        const u64 e_max = std::min(cap, n_eff);
        const u64 n_chunks = ceilDiv(n_eff, cap);
        if (nests.empty())
            first_positions = c.nY * c.nX;
        nests.push_back({{s.nof, u.pOf}, {n_eff, cap}});
        if (n_chunks > 1 || (!s.fourDimOutput && s.nif > 1))
            any_accum = true;
        r.windows += ceilDiv(u64(s.nof), u64(u.pOf));
        // The final pass's writes drain every window cell once.
        r.cellsDrained += c.nY * c.nX * u64(s.nof) *
                          (s.fourDimOutput ? u64(s.nif) : 1);
        r.peakSlots = std::max(r.peakSlots, e_max * of_max);
        r.peakWeightLoads = std::max(r.peakWeightLoads, e_max * of_max);
        r.peakInputLoads = std::max(r.peakInputLoads, e_max);
    }
    if (nests.empty())
        return r;
    // A single-cycle first pass (one channel, one output position)
    // carries the second pass's boundary load too.
    if (s.nif == 1 && first_positions == 1) {
        const auto [first, second] = firstTwoPassLoads(nests);
        r.peakWeightLoads = std::max(r.peakWeightLoads, first + second);
    }
    r.peakOutputWrites = of_max;
    if (any_accum)
        r.peakOutputReads = of_max;
    return r;
}

/** The symbolic relation of one job's static model. */
ScheduleRelation
relationOf(const StaticModel &m, const Unroll &u, const ConvSpec &s)
{
    switch (m.kind) {
      case ArchKind::NLR:
        return nlrSchedule(m, u, s);
      case ArchKind::WST:
        return wstSchedule(m, u, s);
      case ArchKind::OST:
      case ArchKind::ZFOST:
        return zfostSchedule(m, u, s);
      case ArchKind::ZFWST:
        return zfwstSchedule(m, u, s);
    }
    util::panic("unknown arch kind");
}

/** The largest accumulation window (cells) the schedule opens — the
 *  working set the register array / partial-sum buffer must hold. */
u64
staticMaxWindowCells(const StaticModel &m, const Unroll &u,
                     const ConvSpec &s)
{
    const u64 per_map = s.fourDimOutput ? u64(s.nif) : 1;
    if (m.kind == ArchKind::NLR || m.kind == ArchKind::WST)
        return u64(s.nof) * u64(s.oh) * u64(s.ow) * per_map;
    const u64 of_max = umin(u.pOf, s.nof);
    u64 best = 0;
    for (const sim::ClassSegment &c : m.classes) {
        if (c.empty())
            continue;
        // ZFWST buffers a whole class's partial sums; OST and ZFOST
        // hold one tile in the register array.
        const u64 cells = m.kind == ArchKind::ZFWST
                              ? c.nY * c.nX * per_map
                              : umin(u.pOy, c.nY) * umin(u.pOx, c.nX);
        best = std::max(best, cells * of_max);
    }
    return best;
}

/** The register-array / buffer capacity (cells) available to hold the
 *  largest window of this dataflow. */
u64
windowCapacityCells(ArchKind kind, const Unroll &u, const ConvSpec &s)
{
    const u64 job_cells = u64(s.nof) * u64(s.oh) * u64(s.ow) *
                          (s.fourDimOutput ? u64(s.nif) : 1);
    switch (kind) {
      case ArchKind::NLR:
      case ArchKind::WST:
      case ArchKind::ZFWST:
        // Partial sums live in the planned output working set.
        return job_cells;
      case ArchKind::OST:
      case ArchKind::ZFOST:
        // The output-stationary register array itself.
        return u64(u.pOy) * u64(u.pOx) * u64(u.pOf);
    }
    util::panic("unknown arch kind");
}

/** Append hazard findings for any non-zero hazard counter. Returns
 *  true when the relation is hazard-free. */
bool
reportHazards(const ScheduleRelation &r, const std::string &where,
              Report &report)
{
    if (r.slotConflicts > 0)
        report.error(codes::kSchedSlot, where,
                     std::to_string(r.slotConflicts) +
                         " PE-slot double-bookings in the schedule");
    if (r.wawHazards > 0)
        report.error(codes::kSchedWaw, where,
                     std::to_string(r.wawHazards) +
                         " same-cycle WAW cell writes in an "
                         "accumulation window");
    if (r.rawHazards > 0)
        report.error(codes::kSchedRaw, where,
                     std::to_string(r.rawHazards) +
                         " reads of partial-sum cells before the "
                         "producing pass wrote them");
    if (r.oobAccesses > 0)
        report.error(codes::kSchedOob, where,
                     std::to_string(r.oobAccesses) +
                         " register/buffer accesses outside the "
                         "planned working set");
    if (r.undrainedWrites > 0)
        report.error(codes::kSchedDrain, where,
                     std::to_string(r.undrainedWrites) +
                         " window cells written but never drained");
    return r.hazardFree();
}

} // namespace

// ---------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------

bool
ScheduleRelation::hazardFree() const
{
    return slotConflicts == 0 && wawHazards == 0 && rawHazards == 0 &&
           oobAccesses == 0 && undrainedWrites == 0;
}

std::string
ScheduleRelation::str() const
{
    std::ostringstream os;
    os << "cycles=" << cycles << " slots=" << scheduledSlots
       << " peakSlots=" << peakSlots << " peakW=" << peakWeightLoads
       << " peakI=" << peakInputLoads << " peakOr=" << peakOutputReads
       << " peakOw=" << peakOutputWrites << " totW=" << totalWeightLoads
       << " totI=" << totalInputLoads << " totOr=" << totalOutputReads
       << " totOw=" << totalOutputWrites << " windows=" << windows
       << " drained=" << cellsDrained << " conflicts=" << slotConflicts
       << " waw=" << wawHazards << " raw=" << rawHazards
       << " oob=" << oobAccesses << " undrained=" << undrainedWrites;
    return os.str();
}

ScheduleRelation
staticNlrSchedule(const Unroll &unroll, const ConvSpec &spec,
                  bool zero_skip)
{
    return relationOf(staticModel(ArchKind::NLR, unroll, spec,
                                  {.zeroSkip = zero_skip}),
                      unroll, spec);
}

ScheduleRelation
staticZfostSchedule(const Unroll &unroll, const ConvSpec &spec,
                    bool reordered_feed)
{
    return relationOf(staticModel(ArchKind::ZFOST, unroll, spec,
                                  {.reorderedFeed = reordered_feed}),
                      unroll, spec);
}

ScheduleRelation
staticScheduleRelation(ArchKind kind, const Unroll &unroll,
                       const ConvSpec &spec)
{
    return relationOf(staticModel(kind, unroll, spec), unroll, spec);
}

ScheduleRelation
recordedScheduleRelation(sim::Architecture &arch, const ConvSpec &spec,
                         bool functional, sim::RunStats *stats_out)
{
    ShadowRecorder rec;
    arch.setScheduleRecorder(&rec);
    RunStats st;
    if (functional) {
        util::Rng rng(0x5c4ed41ULL);
        tensor::Tensor in = sim::makeStreamedInput(spec, rng);
        tensor::Tensor w = sim::makeStreamedKernel(spec, rng);
        tensor::Tensor out = sim::makeOutputTensor(spec);
        st = arch.run(spec, &in, &w, &out);
    } else {
        st = arch.run(spec);
    }
    arch.setScheduleRecorder(nullptr);
    if (stats_out != nullptr)
        *stats_out = st;
    obs::Registry::instance()
        .counter("ganacc_sched_shadow_runs_total",
                 "recorder-armed shadow walks")
        .add(1);
    return rec.relation();
}

void
checkSchedule(ArchKind kind, const Unroll &unroll, const ConvSpec &spec,
              const PortBudget &budget, Report &report)
{
    const std::unique_ptr<sim::Architecture> arch =
        core::makeArch(kind, unroll);
    const u64 n_pes = u64(arch->numPes());
    const std::string where = jobWhere(arch->name(), spec);
    const StaticModel m = staticModel(kind, unroll, spec);
    const ScheduleRelation r = relationOf(m, unroll, spec);

    // (a) PE-slot conflict-freedom: the peak booking fits the array
    // and the total booking fits the cycle budget.
    if (r.peakSlots > n_pes)
        report.error(codes::kSchedSlot, where,
                     "peak per-cycle PE booking " +
                         std::to_string(r.peakSlots) + " exceeds the " +
                         std::to_string(n_pes) + "-PE array");
    else if (r.cycles > 0 && r.scheduledSlots > r.cycles * n_pes)
        report.error(codes::kSchedSlot, where,
                     "scheduled slots " +
                         std::to_string(r.scheduledSlots) +
                         " exceed cycles*PEs " +
                         std::to_string(r.cycles * n_pes));

    // (b) register-array hazards: zero by derivation for the modeled
    // loop nests; any non-zero count is a broken schedule model.
    reportHazards(r, where, report);

    // (c) accesses in-bounds within the planned working set.
    const u64 want = staticMaxWindowCells(m, unroll, spec);
    const u64 have = windowCapacityCells(kind, unroll, spec);
    if (want > have)
        report.error(codes::kSchedOob, where,
                     "largest accumulation window (" +
                         std::to_string(want) +
                         " cells) exceeds the planned working set (" +
                         std::to_string(have) + " cells)");

    // (d) per-cycle port pressure within the budget (default: the
    // array width — one word per lane per port). The weight port is
    // double-buffered: resident-weight dataflows (WST/ZFWST) prefetch
    // the next pass's tile while the current pass computes, so on a
    // single-cycle pass both tiles cross the port in one cycle and
    // the default headroom is twice the array.
    struct PortCheck
    {
        const char *name;
        u64 peak;
        u64 cap;
    };
    const PortCheck ports[] = {
        {"weight", r.peakWeightLoads,
         budget.weight != 0 ? budget.weight : 2 * n_pes},
        {"input", r.peakInputLoads,
         budget.input != 0 ? budget.input : n_pes},
        {"output-read", r.peakOutputReads,
         budget.output != 0 ? budget.output : n_pes},
        {"output-write", r.peakOutputWrites,
         budget.output != 0 ? budget.output : n_pes},
    };
    for (const PortCheck &p : ports)
        if (p.peak > p.cap)
            report.error(codes::kSchedPort, where,
                         std::string(p.name) + " port needs " +
                             std::to_string(p.peak) +
                             " words/cycle at its peak, budget is " +
                             std::to_string(p.cap));
}

void
checkSchedule(ArchKind kind, const Unroll &unroll,
              const std::vector<ConvSpec> &jobs,
              const PortBudget &budget, Report &report)
{
    for (const ConvSpec &job : jobs)
        checkSchedule(kind, unroll, job, budget, report);
}

bool
checkScheduleAgainstShadow(ArchKind kind, const Unroll &unroll,
                           const ConvSpec &spec, Report &report)
{
    const ScheduleRelation predicted =
        staticScheduleRelation(kind, unroll, spec);
    const std::unique_ptr<sim::Architecture> arch =
        core::makeArch(kind, unroll);
    const std::string where = jobWhere(arch->name(), spec);
    const ScheduleRelation recorded =
        recordedScheduleRelation(*arch, spec);
    bool ok = reportHazards(recorded, where, report);
    if (!(predicted == recorded)) {
        report.error(codes::kSchedDiverge, where,
                     "static schedule relation diverges from the "
                     "recorded walk: predicted {" +
                         predicted.str() + "} recorded {" +
                         recorded.str() + "}");
        ok = false;
    }
    return ok;
}

bool
checkBaselineSchedule(BaselineKind kind, const Unroll &unroll,
                      const ConvSpec &spec, Report &report)
{
    std::unique_ptr<sim::Architecture> arch;
    if (kind == BaselineKind::CNV)
        arch = std::make_unique<sim::Cnv>(unroll);
    else
        arch = std::make_unique<sim::Rst>(unroll);
    const std::string where = jobWhere(arch->name(), spec);
    report.note(codes::kSchedUnmodeled, where,
                baselineName(kind) +
                    " has no closed-form schedule model (" +
                    (kind == BaselineKind::CNV
                         ? "the schedule is value-dependent"
                         : "the walk is the only model") +
                    "); checked dynamically against the occupancy "
                    "envelope");
    RunStats st;
    const ScheduleRelation r = recordedScheduleRelation(
        *arch, spec, /*functional=*/kind == BaselineKind::CNV, &st);
    bool ok = reportHazards(r, where, report);
    const u64 n_pes = u64(arch->numPes());
    if (r.peakSlots > n_pes) {
        report.error(codes::kSchedSlot, where,
                     "recorded peak per-cycle booking " +
                         std::to_string(r.peakSlots) +
                         " exceeds the " + std::to_string(n_pes) +
                         "-PE array");
        ok = false;
    }
    if (r.cycles != st.cycles ||
        r.scheduledSlots != st.effectiveMacs + st.ineffectualMacs ||
        r.totalWeightLoads != st.weightLoads ||
        r.totalInputLoads != st.inputLoads ||
        r.totalOutputReads != st.outputReads ||
        r.totalOutputWrites != st.outputWrites) {
        report.error(codes::kSchedDiverge, where,
                     "recorded schedule relation disagrees with the "
                     "walk's RunStats: recorded {" +
                         r.str() + "} stats {" + st.str() + "}");
        ok = false;
    }
    return ok;
}

SchedulePrefilter::SchedulePrefilter(const gan::GanModel &model)
{
    for (sim::PhaseFamily f :
         {sim::PhaseFamily::D, sim::PhaseFamily::G, sim::PhaseFamily::Dw,
          sim::PhaseFamily::Gw})
        families_.push_back({f, sim::familyJobs(model, f)});
}

void
SchedulePrefilter::check(int w_pes, int st_pes, Report &report) const
{
    const PortBudget budget; // defaults: the array width
    for (const FamilyJobs &fam : families_) {
        checkSchedule(ArchKind::ZFOST,
                      core::paperUnroll(ArchKind::ZFOST,
                                        core::BankRole::ST, fam.family,
                                        st_pes),
                      fam.jobs, budget, report);
        checkSchedule(ArchKind::ZFWST,
                      core::paperUnroll(ArchKind::ZFWST,
                                        core::BankRole::W, fam.family,
                                        w_pes),
                      fam.jobs, budget, report);
    }
}

} // namespace verify
} // namespace ganacc
