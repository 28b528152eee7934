#include "attack/oracle_service.hpp"

#include "common/hash.hpp"

namespace gshe::attack {

namespace {

std::uint64_t fnv1a_words(std::uint64_t epoch,
                          std::span<const std::uint64_t> words) {
    std::uint64_t h = fnv1a_u64(kFnv1aOffset, epoch);
    for (const std::uint64_t w : words) h = fnv1a_u64(h, w);
    return h;
}

/// Approximate heap footprint of one memo entry (key words + value words +
/// container overhead); used for the byte cap and the accounting columns.
std::size_t entry_bytes(std::size_t key_words, std::size_t value_words) {
    return (key_words + value_words) * sizeof(std::uint64_t) + 64;
}

}  // namespace

std::size_t OracleService::CacheKeyHash::operator()(const CacheKey& k) const {
    return static_cast<std::size_t>(fnv1a_words(k.epoch, k.words));
}

OracleService::OracleService(Oracle& underlying, Options options)
    : underlying_(&underlying), options_(options) {}

std::unique_ptr<OracleService::Client> OracleService::make_client() {
    return std::unique_ptr<Client>(new Client(*this));
}

bool OracleService::cache_active() const {
    return options_.enable_cache &&
           underlying_->contract() != OracleContract::NonCacheable;
}

OracleServiceStats OracleService::stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::vector<std::uint64_t> OracleService::query_through(
    Client& client, std::span<const std::uint64_t> pi_words) {
    // One lock per query: the underlying Simulator keeps mutable scratch,
    // so shared access must be serialized anyway; the memo rides the same
    // critical section. Singleton groups pay an uncontended lock.
    const std::lock_guard<std::mutex> lock(mutex_);

    const OracleContract contract = underlying_->contract();
    if (contract == OracleContract::NonCacheable) {
        ++client.cache_.bypassed;
        ++stats_.bypassed;
        return underlying_->query(pi_words);
    }

    // The memo key: the packed PI words, plus the epoch for EpochKeyed
    // oracles. cache_epoch() runs the boundary advance the next query would
    // trigger, so a stale epoch's entry can never match a current query.
    CacheKey key;
    key.epoch = contract == OracleContract::EpochKeyed
                    ? underlying_->cache_epoch()
                    : 0;
    key.words.assign(pi_words.begin(), pi_words.end());

    // unique_patterns is tracked whether or not the memo is enabled: it is
    // a deterministic per-job CSV column and must not depend on the flag.
    // (Deterministic 64-bit key hashes keep the set small; a collision
    // would undercount identically on every run.)
    if (client.seen_.insert(fnv1a_words(key.epoch, key.words)).second)
        ++client.cache_.unique_patterns;

    if (!options_.enable_cache) {
        ++client.cache_.bypassed;
        ++stats_.bypassed;
        return underlying_->query(pi_words);
    }

    if (const auto it = memo_.find(key); it != memo_.end()) {
        ++client.cache_.hits;
        ++stats_.hits;
        // Keep query-counted clocks (the re-keying interval) ticking even
        // though no evaluation happens — the schedule must be identical
        // with the memo on or off.
        underlying_->on_cache_hit();
        return it->second;
    }

    std::vector<std::uint64_t> out = underlying_->query(pi_words);
    ++client.cache_.misses;
    ++stats_.misses;
    const std::size_t bytes = entry_bytes(key.words.size(), out.size());
    if (stats_.bytes + bytes <= options_.max_bytes) {
        stats_.bytes += bytes;
        ++stats_.entries;
        client.cache_.inserted_bytes += bytes;
        memo_.emplace(std::move(key), out);
    } else {
        ++stats_.capacity_stops;
    }
    return out;
}

}  // namespace gshe::attack
