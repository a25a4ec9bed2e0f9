/**
 * @file
 * Memoized per-job cycle/stats cache for the sweep engine.
 *
 * A timing-only Architecture::run() is a pure function of the
 * (architecture kind, unrolling, conv shape) triple, and the DSE
 * sweeps evaluate the same layer shapes hundreds of times: every
 * (W_Pof, ST_Pof) point re-times the same networks, and the four
 * phase families share layers. This cache keys RunStats on the full
 * triple (the job label is deliberately excluded — it names, it does
 * not shape) so each distinct layer geometry is simulated exactly
 * once per unrolling, no matter how many design points or threads ask
 * for it. All methods are thread-safe; concurrent misses on the same
 * key may both simulate, but they compute identical values so the
 * second insert is a harmless no-op.
 *
 * The in-memory memo dies with the process, which used to make every
 * figure regeneration start cold. An optional *disk tier* (the
 * serving subsystem's content-addressed serve::ResultStore implements
 * the StatsDiskTier interface) survives across processes: memory
 * misses consult the tier before simulating, and simulated results
 * are written through, so a repeated sweep becomes a stream of disk
 * hits instead of a re-simulation.
 */

#ifndef GANACC_CORE_CYCLE_CACHE_HH
#define GANACC_CORE_CYCLE_CACHE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "core/unrolling.hh"
#include "sim/conv_spec.hh"
#include "sim/stats.hh"

namespace ganacc {
namespace core {

/** Where a cached lookup was satisfied. */
enum class CacheOutcome
{
    MemoryHit, ///< found in the in-process memo
    DiskHit,   ///< found in the attached persistent tier
    Simulated, ///< missed everywhere; the cycle walk ran
};

std::string cacheOutcomeName(CacheOutcome o);

/** Point-in-time accounting snapshot of the CycleCache. */
struct CacheStats
{
    std::size_t entries = 0;    ///< keys resident in the memo
    std::uint64_t hits = 0;     ///< lookups served from memory
    std::uint64_t misses = 0;   ///< lookups that left the memo
    std::uint64_t diskHits = 0; ///< misses the disk tier absorbed
                                ///  (subset of misses)

    /** Misses that actually ran a cycle walk. */
    std::uint64_t
    simulated() const
    {
        return misses - diskHits;
    }
};

/**
 * Interface of a persistent second cache tier keyed on the same
 * (kind, unrolling, spec) triple as the in-memory memo. Implementors
 * must be safe for concurrent calls from sweep worker threads.
 */
class StatsDiskTier
{
  public:
    virtual ~StatsDiskTier() = default;

    /** The stored stats for the triple, or nullopt on a miss (absent,
     *  stale simulator version, or corrupt entry). */
    virtual std::optional<sim::RunStats>
    load(ArchKind kind, const sim::Unroll &u,
         const sim::ConvSpec &spec) = 0;

    /** Persist the stats for the triple (write-through on simulate). */
    virtual void store(ArchKind kind, const sim::Unroll &u,
                       const sim::ConvSpec &spec,
                       const sim::RunStats &stats) = 0;
};

/**
 * Memo of timing-only runs. Historically a process singleton
 * (instance()); fleet shards hosted in one process (serve::Engine
 * with ownCache, the conformance harness, unit tests) construct
 * private instances instead so each shard has its own memory tier
 * and disk-tier attachment.
 */
class CycleCache
{
  public:
    static CycleCache &instance();

    /**
     * A private cache. When `publishMetrics` is set, the instance
     * registers a telemetry collector publishing the same
     * ganacc_cache_* series as the singleton (the registry snapshot
     * accumulates repeated names, so multi-shard totals come out as
     * sums) and unregisters it on destruction.
     */
    explicit CycleCache(bool publishMetrics = false);
    ~CycleCache();

    CycleCache(const CycleCache &) = delete;
    CycleCache &operator=(const CycleCache &) = delete;

    /**
     * The RunStats of a timing-only run of `spec` on `kind` with
     * unrolling `u`, simulating on a miss. When `outcome` is non-null
     * it reports which tier satisfied the lookup.
     */
    sim::RunStats stats(ArchKind kind, const sim::Unroll &u,
                        const sim::ConvSpec &spec,
                        CacheOutcome *outcome = nullptr);

    /**
     * Insert an externally computed result for the triple: memory
     * entry plus write-through to the attached disk tier. This is the
     * replication path — a fleet peer simulated the triple and pushed
     * the finished stats here, so the local shard can serve future
     * lookups without its own cycle walk. Touches no hit/miss
     * counters (nothing was looked up). Idempotent: re-inserting a
     * resident key overwrites with identical bytes.
     */
    void insert(ArchKind kind, const sim::Unroll &u,
                const sim::ConvSpec &spec, const sim::RunStats &stats);

    /**
     * Attach (or with nullptr detach) the persistent tier. Non-owning;
     * the tier must outlive every subsequent stats() call. Not
     * thread-safe against concurrent stats() — attach before a sweep
     * starts, detach after it drains.
     */
    void attachDiskTier(StatsDiskTier *tier);

    StatsDiskTier *diskTier() const { return disk_; }

    /** Whether the memory tier holds the triple. A pure query: it
     *  touches no hit/miss counter and never consults the disk tier. */
    bool contains(ArchKind kind, const sim::Unroll &u,
                  const sim::ConvSpec &spec) const;

    /** Drop every memory entry (for cold-cache timing comparisons);
     *  the attached disk tier, being persistent, is untouched. */
    void clear();

    std::size_t size() const;
    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    /** Memory misses satisfied by the disk tier (subset of misses). */
    std::uint64_t diskHits() const { return diskHits_.load(); }

    /** One consistent accounting snapshot (the struct the unit tests
     *  and the telemetry collector read; summary() formats it). */
    CacheStats cacheStats() const;

    /** One-line "cycle cache: N entries, H hits, ..." summary for
     *  sweep and bench reports. */
    std::string summary() const;

  private:
    mutable std::shared_mutex m_;
    std::unordered_map<std::string, sim::RunStats> map_;
    StatsDiskTier *disk_ = nullptr;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> diskHits_{0};
    int collector_ = -1; ///< registry token of a publishing instance
};

/** Convenience: CycleCache::instance().stats(...). */
sim::RunStats cachedRun(ArchKind kind, const sim::Unroll &u,
                        const sim::ConvSpec &spec);

} // namespace core
} // namespace ganacc

#endif // GANACC_CORE_CYCLE_CACHE_HH
