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
 * second insert rewrites identical bytes.
 *
 * The memo dies with the process. A persistent tier belongs to the
 * serving daemon alone: serve::Engine looks a job up here, then in
 * its own serve::ResultStore, and only then simulates; nothing in
 * this layer reads or writes files.
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

/** Point-in-time accounting snapshot of the CycleCache. */
struct CacheStats
{
    std::size_t entries = 0;  ///< keys resident in the memo
    std::uint64_t hits = 0;   ///< lookups served from memory
    std::uint64_t misses = 0; ///< lookups that left the memo
};

/** One timing-only run of `spec` on `kind` with unrolling `u`: the
 *  work a memo miss costs. Opens one "simulate" trace span, so each
 *  real simulation is marked exactly once. */
sim::RunStats simulate(ArchKind kind, const sim::Unroll &u,
                       const sim::ConvSpec &spec);

/**
 * Memo of timing-only runs. Historically a process singleton
 * (instance()); fleet shards hosted in one process (serve::Engine
 * with ownCache, the conformance harness, unit tests) construct
 * private instances instead so each shard has its own memory tier.
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
     * The memo's entry for the triple, counting one hit or one miss.
     * On a miss, `fill()` produces the value with no lock held; it is
     * inserted and returned. The key is built once for both steps.
     */
    template <class Fill>
    sim::RunStats
    stats(ArchKind kind, const sim::Unroll &u, const sim::ConvSpec &spec,
          Fill &&fill)
    {
        std::string key = keyOf(kind, u, spec);
        if (std::optional<sim::RunStats> hit = find(key))
            return *hit;
        sim::RunStats st = fill();
        insert(std::move(key), st);
        return st;
    }

    /** The RunStats of a timing-only run of `spec` on `kind` with
     *  unrolling `u`, simulating on a miss. */
    sim::RunStats
    stats(ArchKind kind, const sim::Unroll &u, const sim::ConvSpec &spec)
    {
        return stats(kind, u, spec, [&] { return simulate(kind, u, spec); });
    }

    /**
     * Insert an externally computed result for the triple: the
     * replication path, where a fleet peer simulated the triple and
     * pushed the finished stats here. Touches no hit/miss counter.
     * Idempotent: re-inserting a resident key overwrites with
     * identical bytes.
     */
    void insert(ArchKind kind, const sim::Unroll &u,
                const sim::ConvSpec &spec, const sim::RunStats &stats);

    /** Whether the memo holds the triple. A pure query: it touches
     *  no hit/miss counter. */
    bool contains(ArchKind kind, const sim::Unroll &u,
                  const sim::ConvSpec &spec) const;

    /** Drop every entry and zero the counters (for cold-cache timing
     *  comparisons). */
    void clear();

    std::size_t size() const;
    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }

    /** One consistent accounting snapshot (the struct the unit tests
     *  and the telemetry collector read; summary() formats it). */
    CacheStats cacheStats() const;

    /** One-line "cycle cache: N entries, H hits, ..." summary for
     *  sweep and bench reports. */
    std::string summary() const;

  private:
    /** Every field that shapes a timing-only run, label excluded. */
    static std::string keyOf(ArchKind kind, const sim::Unroll &u,
                             const sim::ConvSpec &spec);
    std::optional<sim::RunStats> find(const std::string &key);
    void insert(std::string key, const sim::RunStats &stats);

    mutable std::shared_mutex m_;
    std::unordered_map<std::string, sim::RunStats> map_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    int collector_ = -1; ///< registry token of a publishing instance
};

/** Convenience: CycleCache::instance().stats(...). */
sim::RunStats cachedRun(ArchKind kind, const sim::Unroll &u,
                        const sim::ConvSpec &spec);

} // namespace core
} // namespace ganacc

#endif // GANACC_CORE_CYCLE_CACHE_HH
