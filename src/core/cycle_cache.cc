/**
 * @file
 * Cycle-cache implementation.
 */

#include "core/cycle_cache.hh"

#include <mutex>
#include <sstream>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/strings.hh"

namespace ganacc {
namespace core {

namespace {

/** The ganacc_cache_* series of one cache. */
void
publish(obs::Snapshot &snap, const CacheStats &s)
{
    snap.counter("ganacc_cache_mem_hits_total", s.hits);
    snap.counter("ganacc_cache_misses_total", s.misses);
    snap.gauge("ganacc_cache_entries", std::int64_t(s.entries));
}

} // namespace

sim::RunStats
simulate(ArchKind kind, const sim::Unroll &u, const sim::ConvSpec &spec)
{
    // A no-op span unless --trace / GANACC_TRACE armed the sink.
    obs::Span span("simulate", "sim",
                   obs::TraceSink::instance().enabled()
                       ? "{\"arch\":\"" + archKindName(kind) + "\"}"
                       : std::string());
    return makeArch(kind, u)->run(spec);
}

CycleCache::CycleCache(bool publishMetrics)
{
    if (publishMetrics)
        collector_ = obs::Registry::instance().addCollector(
            [this](obs::Snapshot &snap) { publish(snap, cacheStats()); });
}

CycleCache::~CycleCache()
{
    if (collector_ >= 0)
        obs::Registry::instance().removeCollector(collector_);
}

CycleCache &
CycleCache::instance()
{
    static CycleCache cache;
    // Publish the cache's own atomics into the telemetry registry; a
    // collector copies them at snapshot time, so lookups stay free of
    // registry traffic. Registered once, on first use.
    static const int collector = obs::Registry::instance().addCollector(
        [](obs::Snapshot &snap) { publish(snap, cache.cacheStats()); });
    (void)collector;
    return cache;
}

std::string
CycleCache::keyOf(ArchKind kind, const sim::Unroll &u,
                  const sim::ConvSpec &s)
{
    util::FixedText<384> os; // 24 ints of at most 11 characters
    os << int(kind) << '|' << u.pIf << ',' << u.pOf << ',' << u.pKx
       << ',' << u.pKy << ',' << u.pOx << ',' << u.pOy << '|' << s.nif
       << ',' << s.nof << ',' << s.ih << ',' << s.iw << ',' << s.kh
       << ',' << s.kw << ',' << s.oh << ',' << s.ow << ',' << s.stride
       << ',' << s.pad << ',' << s.inZeroStride << ',' << s.inOrigH
       << ',' << s.inOrigW << ',' << s.kZeroStride << ',' << s.kOrigH
       << ',' << s.kOrigW << ',' << int(s.fourDimOutput);
    return os.str();
}

std::optional<sim::RunStats>
CycleCache::find(const std::string &key)
{
    {
        std::shared_lock<std::shared_mutex> lk(m_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            return it->second;
        }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
}

void
CycleCache::insert(std::string key, const sim::RunStats &stats)
{
    std::unique_lock<std::shared_mutex> lk(m_);
    map_.insert_or_assign(std::move(key), stats);
}

void
CycleCache::insert(ArchKind kind, const sim::Unroll &u,
                   const sim::ConvSpec &spec,
                   const sim::RunStats &stats)
{
    insert(keyOf(kind, u, spec), stats);
}

bool
CycleCache::contains(ArchKind kind, const sim::Unroll &u,
                     const sim::ConvSpec &spec) const
{
    const std::string key = keyOf(kind, u, spec);
    std::shared_lock<std::shared_mutex> lk(m_);
    return map_.count(key) != 0;
}

void
CycleCache::clear()
{
    std::unique_lock<std::shared_mutex> lk(m_);
    map_.clear();
    hits_.store(0);
    misses_.store(0);
}

std::size_t
CycleCache::size() const
{
    std::shared_lock<std::shared_mutex> lk(m_);
    return map_.size();
}

CacheStats
CycleCache::cacheStats() const
{
    CacheStats s;
    s.entries = size();
    s.hits = hits();
    s.misses = misses();
    return s;
}

std::string
CycleCache::summary() const
{
    std::ostringstream os;
    os << "cycle cache: " << size() << " entries, " << hits()
       << " memory hits, " << misses() << " misses";
    return os.str();
}

sim::RunStats
cachedRun(ArchKind kind, const sim::Unroll &u,
          const sim::ConvSpec &spec)
{
    return CycleCache::instance().stats(kind, u, spec);
}

} // namespace core
} // namespace ganacc
