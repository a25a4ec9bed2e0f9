/**
 * @file
 * Persistent content-addressed store of simulation results.
 *
 * Layout: <dir>/<k0k1>/<key>.json, where <key> is the 16-hex-digit
 * content address of (simulator version, kind, unrolling, spec shape)
 * — see serve::contentKey — and <k0k1> its first two digits (fan-out
 * so a million entries never share one directory). Each entry is a
 * single canonical JSON object:
 *
 *   {"version":"ganacc-…","arch":"ZFOST","unroll":{…},
 *    "spec":{…},"stats":{…}}
 *
 * Guarantees:
 *  - *Atomicity*: writers dump to a private `<key>.json.tmp.<pid>.<n>`
 *    in the same directory and rename(2) it into place, so readers —
 *    in this process or any other — only ever observe complete
 *    entries. Concurrent writers of the same key race benignly: the
 *    values are identical (the simulation is pure) and rename is
 *    atomic, so the last one wins with the same bytes.
 *  - *Self-invalidation*: the embedded version stamp is checked on
 *    load; an entry written by a different simulator version reads as
 *    a miss (counted in staleMisses) and is overwritten by the next
 *    write-through.
 *  - *Quarantine*: an entry that fails to parse, or whose embedded
 *    spec does not match the probe (a hash collision or torn file
 *    from a pre-atomic writer), is renamed to `<key>.quarantined` for
 *    post-mortem and read as a miss.
 *
 * Only the serving daemon holds a store: serve::Engine opens one for
 * EngineOptions::cacheDir and consults it between its memory tier
 * and a simulation, writing fresh results through. Sweeps, benches
 * and fault campaigns keep to the in-process core::CycleCache.
 */

#ifndef GANACC_SERVE_RESULT_STORE_HH
#define GANACC_SERVE_RESULT_STORE_HH

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "core/unrolling.hh"
#include "serve/protocol.hh"

namespace ganacc {
namespace serve {

/**
 * Deliberately breakable store behaviours, for the conformance
 * harness's self-test only (tools/ganacc-conform --inject-bug): CI
 * proves the harness *catches* a store that skips stale-version
 * invalidation or forgets to quarantine corrupt entries, by switching
 * the bug on and requiring a divergence. Never set outside tests.
 */
enum class StoreBug
{
    None,           ///< correct behaviour (the default)
    SkipStaleCheck, ///< serve entries whose version stamp mismatches
    SkipQuarantine, ///< leave corrupt entries in place un-renamed
};

/** Arm (or with StoreBug::None disarm) a deliberate store bug. */
void setStoreBugForTesting(StoreBug bug);
StoreBug storeBugForTesting();

/** Counters of one store's session (all monotonically increasing). */
struct StoreCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;       ///< absent entries
    std::uint64_t staleMisses = 0;  ///< version-stamp mismatches
    std::uint64_t corruptMisses = 0;///< quarantined entries
    std::uint64_t writes = 0;
};

/** A directory of content-addressed RunStats entries. */
class ResultStore
{
  public:
    /**
     * Open (creating directories as needed) a store rooted at `dir`.
     * `version` stamps every write and gates every read; it defaults
     * to the live simulator's stamp and is parameterized only so the
     * versioning tests can impersonate an older simulator.
     */
    explicit ResultStore(std::string dir,
                         std::string version = simulatorVersion());

    /** The stored stats for the triple, or nullopt on a miss
     *  (absent, stale simulator version, or corrupt entry). */
    std::optional<sim::RunStats> load(core::ArchKind kind,
                                      const sim::Unroll &u,
                                      const sim::ConvSpec &spec);

    /** Persist the stats for the triple (atomic write-through). */
    void store(core::ArchKind kind, const sim::Unroll &u,
               const sim::ConvSpec &spec, const sim::RunStats &stats);

    const std::string &dir() const { return dir_; }
    const std::string &version() const { return version_; }

    /** Snapshot of the session counters. */
    StoreCounters counters() const;

    /** Alias of counters() named for the observability layer (the
     *  cacheStats()/storeStats() snapshot pair). */
    StoreCounters storeStats() const { return counters(); }

    /** Entries currently on disk (walks the directory). */
    std::size_t entryCount() const;

    /** One-line summary for sweep/bench reports. */
    std::string summary() const;

    /** Absolute path an entry would live at (exposed for tests). */
    std::string entryPath(core::ArchKind kind, const sim::Unroll &u,
                          const sim::ConvSpec &spec) const;

    ~ResultStore();

  private:
    std::string dir_;
    std::string version_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> stale_{0};
    std::atomic<std::uint64_t> corrupt_{0};
    std::atomic<std::uint64_t> writes_{0};
    int collector_ = -1; ///< telemetry-registry collector token
};

} // namespace serve
} // namespace ganacc

#endif // GANACC_SERVE_RESULT_STORE_HH
