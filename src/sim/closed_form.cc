/**
 * @file
 * Closed-form fast-path derivations, one per dataflow.
 *
 * Shared notation: u64 arithmetic throughout; ceil(a/b) via ceilDiv;
 * per-axis occupancy counts reuse countNonzeroCoords, whose sum over a
 * partition of the output range equals the count over the whole range
 * (the cycle walks tile that range, the closed forms do not). All five
 * functions interpret the output classes of sim/segments — the one
 * Dense class for NLR, WST and OST, the parity classes for ZFOST and
 * ZFWST — plus ZFWST's resident chunks: every contribution inside a
 * class is a product of its per-axis sums, so idle, drain and
 * zero-skip stretches are jumped, never walked.
 */

#include "sim/closed_form.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>

#include "util/logging.hh"

namespace ganacc {
namespace sim {

namespace {

using u64 = std::uint64_t;

SimEngine
engineFromEnv()
{
    const char *env = std::getenv("GANACC_ENGINE");
    if (env == nullptr || *env == '\0')
        return SimEngine::Auto;
    if (auto e = simEngineFromName(env))
        return *e;
    util::warn("GANACC_ENGINE='", env,
               "' is not walk|auto; using auto");
    return SimEngine::Auto;
}

std::atomic<SimEngine> &
engineCell()
{
    static std::atomic<SimEngine> cell{engineFromEnv()};
    return cell;
}

} // namespace

SimEngine
simEngine()
{
    return engineCell().load(std::memory_order_relaxed);
}

void
setSimEngine(SimEngine engine)
{
    engineCell().store(engine, std::memory_order_relaxed);
}

std::string
simEngineName(SimEngine engine)
{
    switch (engine) {
      case SimEngine::Auto: return "auto";
      case SimEngine::Walk: return "walk";
    }
    util::panic("unknown sim engine");
}

std::optional<SimEngine>
simEngineFromName(const std::string &name)
{
    std::string low;
    low.reserve(name.size());
    for (char c : name)
        low += char(std::tolower(static_cast<unsigned char>(c)));
    for (SimEngine e : {SimEngine::Auto, SimEngine::Walk})
        if (simEngineName(e) == low)
            return e;
    return std::nullopt;
}

bool
fastPathEnabled()
{
    return simEngine() != SimEngine::Walk;
}

/**
 * NLR: scheduled output/kernel combinations classify per axis into
 * in-bounds non-zero, in-bounds zero, and padding. Under the improved
 * (zero-skipping) policy, structural-zero kernel positions and
 * combinations whose operand is an in-bounds structural zero are never
 * scheduled; the vanilla policy executes the full dense schedule and
 * burns them as ineffectual cycles. Over the non-zero kernel rows R
 * and columns C, the skipped combinations are InR*InC - rowSum*colSum.
 */
RunStats
nlrClosedForm(const Unroll &u, const ConvSpec &s, const ClassSegment &c,
              bool zero_skip)
{
    RunStats st;
    st.nPes = u64(u.pIf) * u.pOf;

    const u64 n_ofb = ceilDiv(u64(s.nof), u64(u.pOf));
    const u64 n_ifb = ceilDiv(u64(s.nif), u64(u.pIf));

    const u64 plane = c.nY * c.nX;
    const u64 eff_pos = c.rowSum * c.colSum;
    const u64 sched_pos =
        zero_skip ? c.kRowsNz * c.kColsNz * plane -
                        c.rowInNz * c.colInNz + eff_pos
                  : c.kRows * c.kCols * plane;
    const u64 pad_pos = sched_pos - eff_pos;

    if (!s.fourDimOutput) {
        st.cycles = sched_pos * n_ofb * n_ifb;
        st.inputLoads = sched_pos * n_ofb * s.nif;
    } else {
        // Four-dimension outputs accumulate nothing across input maps:
        // the adder tree idles and input maps stream sequentially.
        st.cycles = sched_pos * n_ofb * s.nif;
        st.inputLoads = sched_pos * n_ofb * s.nif;
    }
    st.weightLoads = sched_pos * u64(s.nof) * s.nif;
    st.outputReads = s.fourDimOutput
                         ? sched_pos * u64(s.nof) * s.nif
                         : sched_pos * u64(s.nof) * n_ifb;
    st.outputWrites = st.outputReads;
    st.effectiveMacs = eff_pos * u64(s.nof) * s.nif;
    st.ineffectualMacs = pad_pos * u64(s.nof) * s.nif;
    st.idlePeSlots =
        st.nPes * st.cycles - sched_pos * u64(s.nof) * s.nif;
    return st;
}

/**
 * WST: a kernel tile is resident; every streamed input position is a
 * cycle, and its contributions factorize per axis.
 */
RunStats
wstClosedForm(const Unroll &u, const ConvSpec &s, const ClassSegment &c)
{
    RunStats st;
    st.nPes = u64(u.pKx) * u.pKy * u.pOf;

    const u64 n_ofb = ceilDiv(u64(s.nof), u64(u.pOf));
    const u64 kt_y = ceilDiv(u64(s.kh), u64(u.pKy));
    const u64 kt_x = ceilDiv(u64(s.kw), u64(u.pKx));

    st.cycles = n_ofb * kt_y * kt_x * s.nif * u64(s.ih) * s.iw;
    st.inputLoads = st.cycles;
    st.weightLoads = u64(s.nof) * s.kh * s.kw;

    // Streamed positions that reach some output, summed per axis over
    // every resident kernel coordinate; the effective subset skips the
    // structural zeros of both operands.
    const u64 contrib = c.rowIn * c.colIn;
    const u64 eff = c.rowSum * c.colSum;

    st.effectiveMacs = u64(s.nof) * s.nif * eff;
    st.ineffectualMacs = u64(s.nof) * s.nif * (contrib - eff);
    st.idlePeSlots =
        st.nPes * st.cycles - u64(s.nof) * s.nif * contrib;
    st.outputReads = u64(s.nof) * s.nif * contrib;
    st.outputWrites = st.outputReads;
    return st;
}

/**
 * ZFOST: per output class, a pinned tile per pass and one cycle per
 * scheduled kernel position. OST is the one-class case with the raster
 * feed. The reordered weight feed keeps the register array shifting
 * even on strided jobs; the raster feed loses the shift alignment
 * there and reloads the tile every cycle.
 */
RunStats
zfostClosedForm(const Unroll &u, const ConvSpec &s,
                const std::vector<ClassSegment> &classes,
                bool reordered_feed)
{
    RunStats st;
    st.nPes = u64(u.pOx) * u.pOy * u.pOf;

    const bool shifts = reordered_feed || s.stride == 1;
    const u64 n_ofb = ceilDiv(u64(s.nof), u64(u.pOf));
    const u64 maps = u64(s.nof) * s.nif;

    for (const ClassSegment &c : classes) {
        if (c.empty())
            continue;
        const u64 kpos = c.kRows * c.kCols;
        const u64 n_tyb = ceilDiv(c.nY, u64(u.pOy));
        const u64 n_txb = ceilDiv(c.nX, u64(u.pOx));
        const u64 cycles = n_ofb * n_tyb * n_txb * s.nif * kpos;

        st.cycles += cycles;
        st.weightLoads += u64(s.nof) * n_tyb * n_txb * s.nif * kpos;

        // Shifting feed, per (ofb, tile, c): the tile at the first
        // kernel position, a row (tx_cnt) at each later kernel-row
        // step, a column (ty_cnt) otherwise. Summed over the tile
        // grid: sum(tile) = nY*nX, sum(tx_cnt) = n_tyb*nX,
        // sum(ty_cnt) = n_txb*nY. Without the shift, every cycle
        // reloads the tile.
        if (shifts)
            st.inputLoads += n_ofb * s.nif *
                             (c.nY * c.nX + (c.kRows - 1) * n_tyb * c.nX +
                              c.kRows * (c.kCols - 1) * n_txb * c.nY);
        else
            st.inputLoads += n_ofb * s.nif * kpos * c.nY * c.nX;

        // Occupancy: scheduled slots cover the whole tile; effective
        // ones factorize per axis.
        const u64 scheduled = maps * kpos * c.nY * c.nX;
        const u64 effective = maps * c.rowSum * c.colSum;
        st.effectiveMacs += effective;
        st.ineffectualMacs += scheduled - effective;
        st.idlePeSlots += st.nPes * cycles - scheduled;

        st.outputWrites +=
            (s.fourDimOutput ? maps : u64(s.nof)) * c.nY * c.nX;
    }
    return st;
}

/**
 * ZFWST: per parity class, the effective kernel elements stream in
 * resident chunks of P_ky*P_kx; one output neuron per cycle through
 * the adder tree.
 */
RunStats
zfwstClosedForm(const Unroll &u, const ConvSpec &s,
                const std::vector<ClassSegment> &classes)
{
    RunStats st;
    st.nPes = u64(u.pKx) * u.pKy * u.pOf;

    const u64 cap = u64(u.pKx) * u.pKy;
    const u64 n_ofb = ceilDiv(u64(s.nof), u64(u.pOf));
    const u64 maps = u64(s.nof) * s.nif;

    for (const ClassSegment &c : classes) {
        const u64 n_eff = c.kRows * c.kCols;
        if (n_eff == 0)
            continue;
        const u64 n_chunks = ceilDiv(n_eff, cap);
        const u64 positions = c.nY * c.nX;
        const u64 cycles = n_ofb * n_chunks * s.nif * positions;

        st.cycles += cycles;
        st.weightLoads += u64(s.nof) * n_eff;

        // Register traffic per (ofb, chunk, c): the chunk's footprint
        // once, then a column shift per later output.
        u64 chunk_loads = 0;
        for (u64 chunk = 0; chunk < n_chunks; ++chunk) {
            u64 e_cnt = std::min(cap, n_eff - chunk * cap);
            chunk_loads +=
                e_cnt + (positions - 1) * std::min(e_cnt, u64(u.pKy));
        }
        st.inputLoads += n_ofb * s.nif * chunk_loads;

        // Effective slots factorize exactly as in ZFOST; the chunking
        // only partitions the same kernel-element set.
        const u64 scheduled = maps * positions * n_eff;
        const u64 effective = maps * c.rowSum * c.colSum;
        st.effectiveMacs += effective;
        st.ineffectualMacs += scheduled - effective;
        st.idlePeSlots += st.nPes * cycles - scheduled;

        st.outputWrites += u64(s.nof) * n_chunks * s.nif * positions;
        // Accumulating passes read the partial back: every pass but
        // the first per output for accumulating jobs, every chunk but
        // the first per (c, output) for four-dim jobs.
        st.outputReads +=
            s.fourDimOutput
                ? u64(s.nof) * (n_chunks - 1) * s.nif * positions
                : u64(s.nof) * (n_chunks * s.nif - 1) * positions;
    }
    return st;
}

} // namespace sim
} // namespace ganacc
