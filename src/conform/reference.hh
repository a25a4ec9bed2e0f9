/**
 * @file
 * The single-threaded in-process reference model of the simulation
 * service.
 *
 * The model consumes the same operation sequence as the live daemon
 * and predicts every observable the harness can read back: the
 * semantic content of each wire response (id, ok/error, provenance,
 * exact RunStats, admissible cache tier), the obs-counter values a
 * telemetry probe must report, and the on-disk state of every result
 * store entry. Stats come from *direct* simulation
 * (core::makeArch(kind, u)->run(spec), memoized process-wide) — the
 * model never touches the CycleCache or a ResultStore, so agreement
 * is evidence, not tautology.
 *
 * Determinism contract: the harness applies operations in lockstep
 * (all responses of op N are read before op N+1 is sent), so every
 * engine, cache and store counter is exactly predictable — with one
 * deliberate exception: inside a DupBurst the split between memory
 * hits and single-flight followers depends on scheduling, so those
 * two counters are tracked as intervals whose *sum* stays exact.
 */

#ifndef GANACC_CONFORM_REFERENCE_HH
#define GANACC_CONFORM_REFERENCE_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "conform/ops.hh"
#include "serve/protocol.hh"
#include "sim/stats.hh"

namespace ganacc {
namespace conform {

/** What the model predicts for one wire response line. */
struct ExpectedResponse
{
    std::uint64_t id = 0;
    bool ok = false;
    bool checkError = false; ///< compare `error` text exactly
    std::string error;
    bool isProbe = false; ///< telemetry response (counters checked)
    bool isMetricsProbe = false; ///< Prometheus-text response
    bool isTraceDrain = false;   ///< span-batch response
    std::string arch;     ///< ok simulation responses only:
    std::string unrollJson;
    sim::RunStats stats;
    /// Admissible "cache" field values ("mem"/"disk"/"sim"/"dup").
    std::vector<std::string> allowedTiers;
};

/** A closed [lo, hi] expectation for one counter. */
struct Interval
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    void
    bump(std::uint64_t n = 1)
    {
        lo += n;
        hi += n;
    }

    void
    widen(std::uint64_t extra)
    {
        hi += extra;
    }

    bool
    admits(std::uint64_t v) const
    {
        return lo <= v && v <= hi;
    }

    std::string str() const;
};

/** Every counter a telemetry probe is checked against. Serve-layer
 *  counters are deltas against the harness's baseline snapshot (the
 *  obs registry is process-global and cumulative); cache counters are
 *  absolute since the last memory eviction (CycleCache::clear resets
 *  them); store counters are absolute for the current store session
 *  (a restart opens a fresh store). */
struct CounterExpectations
{
    Interval requests, errors, probes;
    /// The live-collection probe forms: metrics (Prometheus text)
    /// and trace-drain (span batch), each with its own counter.
    Interval metricsProbes, traceDrains;
    Interval memHits, diskHits, simulated, deduped;
    Interval memPlusDup; ///< memHits + deduped: exact even in bursts
    /// Replication writes acknowledged / requests shed at admission.
    /// Both pin to zero on a single daemon in lockstep; puts count in
    /// fleet runs, overloaded stays zero even there (lockstep never
    /// fills a 256-deep queue).
    Interval puts, overloaded;
    Interval cacheHits, cacheMisses;
    std::uint64_t cacheEntries = 0;
    Interval storeHits, storeMisses, storeStale, storeCorrupt,
        storeWrites;
};

/** Expected on-disk state of one store entry. */
enum class DiskState
{
    Absent,       ///< no file at the live address
    Good,         ///< current-version entry with the reference stats
    PlantedStale, ///< parseable entry with a foreign version stamp
    Corrupt,      ///< damaged bytes at the live address
};

class ReferenceModel
{
  public:
    /** Model a daemon whose store lives at `storeDir`. */
    explicit ReferenceModel(std::string storeDir);

    /**
     * Feed one operation; returns the expected wire responses (empty
     * for out-of-band ops). Mutates the modelled cache/store/counter
     * state exactly as the correct daemon would.
     */
    std::vector<ExpectedResponse> apply(const Op &op);

    const CounterExpectations &counters() const { return c_; }

    /**
     * Compare the actual store directory against the modelled
     * per-entry states (presence, version, stats, quarantine files,
     * leaked tmp files). Returns "" when consistent, else a
     * "; "-joined list of violations.
     */
    std::string diffStore() const;

    /** Reference stats of a triple: direct simulation, memoized
     *  process-wide (pure function, safe to share across runs). */
    static const sim::RunStats &directStats(core::ArchKind kind,
                                            const sim::Unroll &u,
                                            const sim::ConvSpec &spec);

    /** The live store address of a triple under `storeDir`. */
    std::string entryPath(core::ArchKind kind, const sim::Unroll &u,
                          const sim::ConvSpec &spec) const;

    /** The exact bytes ResultStore would write for this triple with
     *  the given stats and version stamp (used by PlantStale and by
     *  the Truncate corruption of a not-yet-written entry). */
    static std::string entryBody(core::ArchKind kind,
                                 const sim::Unroll &u,
                                 const sim::ConvSpec &spec,
                                 const sim::RunStats &stats,
                                 const std::string &version);

    /** Record the out-of-band mutations the harness performs on the
     *  filesystem / process state, keeping the model in sync. */
    void noteEvictMemory();
    void noteEvictEntry(const Op &t);
    void noteCorruptEntry(const Op &t);
    void notePlantStale(const Op &t);
    void noteFsFaults(const fault::FsFaultPlan &plan);
    void noteRestart();

    /** Model a replication write landing on this daemon: the triple
     *  enters the memory tier and writes through to the store (same
     *  fault seams as a simulate-and-store), requests and puts count.
     *  The fleet model calls this on each replica of a fresh result;
     *  the entry is modelled Good, i.e. carrying the reference stats —
     *  which is what a genuine peer-simulated result holds. */
    void notePut(core::ArchKind kind, const sim::Unroll &u,
                 const sim::ConvSpec &spec);

    /** Refresh the modelled cache-entries gauge (mem-tier size).
     *  Probe handling does this for the probed model; the fleet
     *  model must refresh every shard before summing. */
    void syncCacheEntries() { c_.cacheEntries = mem_.size(); }

  private:
    struct Entry
    {
        DiskState state = DiskState::Absent;
        bool quarantineFile = false; ///< <key>.json.quarantined exists
        core::ArchKind kind = core::ArchKind::NLR;
        sim::Unroll unroll;
        sim::ConvSpec spec;
    };

    /** The entry slot of a triple, creating it on first touch. */
    Entry &entryOf(core::ArchKind kind, const sim::Unroll &u,
                   const sim::ConvSpec &spec);

    /** Store write-through of a fresh result, mirroring
     *  ResultStore::store's fault-seam order. */
    void writeThrough(Entry &e);

    /** One job lookup: mirrors the engine's memo -> store ->
     *  simulate chain over the modelled tiers, mutating counters,
     *  fault budgets and disk state. Returns "mem" / "disk" / "sim". */
    std::string lookupJob(core::ArchKind kind, const sim::Unroll &u,
                          const sim::ConvSpec &spec);

    /** Expected handling of one successfully decoded request. */
    ExpectedResponse handleDecoded(const serve::Request &req);

    std::string storeDir_;
    CounterExpectations c_;
    std::set<std::string> mem_; ///< memory-tier-resident content keys
    std::map<std::string, Entry> disk_; ///< key -> expected state
    /// Mirrors of the process-wide fault budgets, consumed in the
    /// same order the store's seams consume them.
    std::uint64_t readFaults_ = 0;
    std::uint64_t writeFaults_ = 0;
    std::uint64_t tornWrites_ = 0;
};

} // namespace conform
} // namespace ganacc

#endif // GANACC_CONFORM_REFERENCE_HH
