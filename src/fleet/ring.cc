/**
 * @file
 * Consistent-hash ring implementation.
 */

#include "fleet/ring.hh"

#include <algorithm>

#include "serve/protocol.hh"
#include "util/logging.hh"

namespace ganacc {
namespace fleet {

namespace {

/** FNV-1a-64 through splitmix64's finalizer: raw FNV-1a of strings
 *  that differ only in their last bytes lands close together. */
std::uint64_t
ringHash(const std::string &bytes)
{
    std::uint64_t x = serve::fnv1a64(bytes);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

Ring::Ring(const std::vector<std::string> &shards, int vnodes)
    : shardCount_(int(shards.size()))
{
    if (shards.empty())
        util::fatal("ring needs at least one shard");
    if (vnodes < 1)
        util::fatal("ring: vnodes must be positive");
    points_.reserve(shards.size() * std::size_t(vnodes));
    for (std::size_t s = 0; s < shards.size(); ++s)
        for (int v = 0; v < vnodes; ++v)
            points_.emplace_back(
                ringHash(shards[s] + "#" + std::to_string(v)),
                int(s));
    // Sort by hash; break the (astronomically unlikely) hash tie by
    // shard index so placement stays deterministic regardless of the
    // construction order above.
    std::sort(points_.begin(), points_.end());
}

int
Ring::primary(const std::string &key) const
{
    return replicas(key, 1).front();
}

std::vector<int>
Ring::replicas(const std::string &key, int rf) const
{
    if (rf > shardCount_)
        rf = shardCount_;
    if (rf < 1)
        rf = 1;
    const std::uint64_t h = ringHash(key);
    auto it = std::lower_bound(
        points_.begin(), points_.end(),
        std::make_pair(h, 0),
        [](const std::pair<std::uint64_t, int> &a,
           const std::pair<std::uint64_t, int> &b) {
            return a.first < b.first;
        });
    std::vector<int> out;
    out.reserve(std::size_t(rf));
    for (std::size_t step = 0;
         step < points_.size() && int(out.size()) < rf; ++step) {
        if (it == points_.end())
            it = points_.begin();
        const int shard = it->second;
        if (std::find(out.begin(), out.end(), shard) == out.end())
            out.push_back(shard);
        ++it;
    }
    return out;
}

} // namespace fleet
} // namespace ganacc
