#include "stringpool.hpp"

#include "../obs/metrics.hpp"

#include <cstring>

namespace calib {

namespace {
/// intern() calls that found the pool locked by another thread: the
/// measure of whether one global lock is enough (docs/OBSERVABILITY.md).
obs::Counter lock_contended("stringpool.lock_contended");
} // namespace

StringPool::StringPool()  = default;
StringPool::~StringPool() = default;

const char* StringPool::intern(std::string_view sv) {
    const std::uint64_t h = fnv1a(sv);

    std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
    if (!lock.owns_lock()) {
        lock_contended.add();
        lock.lock();
    }

    auto it = index_.find(h);
    if (it != index_.end()) {
        for (const char* candidate : it->second) {
            if (length(candidate) == sv.size() &&
                std::memcmp(candidate, sv.data(), sv.size()) == 0)
                return candidate;
        }
    }
    return insert_locked(sv, h);
}

const char* StringPool::insert_locked(std::string_view sv, std::uint64_t h) {
    const std::size_t need = sizeof(Header) + sv.size() + 1;

    if (blocks_.empty() || block_fill_ + need > block_size) {
        const std::size_t sz = need > block_size ? need : block_size;
        blocks_.push_back(std::make_unique<char[]>(sz));
        block_fill_ = 0;
    }

    char* base = blocks_.back().get() + block_fill_;
    Header hdr{h, static_cast<std::uint32_t>(sv.size()), 0};
    std::memcpy(base, &hdr, sizeof(Header));
    char* payload = base + sizeof(Header);
    if (!sv.empty())
        std::memcpy(payload, sv.data(), sv.size());
    payload[sv.size()] = '\0';

    // Keep allocations 8-byte aligned for the next header.
    block_fill_ += (need + 7u) & ~std::size_t{7};
    payload_ += sv.size();

    index_[h].push_back(payload);
    return payload;
}

std::uint64_t StringPool::hash(const char* interned) noexcept {
    Header hdr;
    std::memcpy(&hdr, interned - sizeof(Header), sizeof(Header));
    return hdr.hash;
}

std::uint32_t StringPool::length(const char* interned) noexcept {
    Header hdr;
    std::memcpy(&hdr, interned - sizeof(Header), sizeof(Header));
    return hdr.len;
}

bool StringPool::contains(const char* ptr) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& block : blocks_) {
        const char* lo = block.get();
        const char* hi = lo + block_size;
        if (ptr >= lo && ptr < hi)
            return true;
    }
    return false;
}

std::size_t StringPool::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto& [h, chain] : index_)
        n += chain.size();
    return n;
}

std::size_t StringPool::payload_bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return payload_;
}

StringPool& StringPool::global() {
    static StringPool pool;
    return pool;
}

} // namespace calib
