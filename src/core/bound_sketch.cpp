#include "core/bound_sketch.hpp"

#include <algorithm>
#include <stdexcept>

namespace gsp {

void BoundSketch::reset(std::size_t n, std::size_t ways) {
    if (ways == 0 || (ways & (ways - 1)) != 0) {
        throw std::invalid_argument("BoundSketch: ways must be a power of two >= 1");
    }
    ways_ = ways;
    const std::size_t slots = n * ways_;
    src_.assign(slots, kNoVertex);
    ub_.assign(slots, kInfiniteWeight);
    lo_.assign(slots, 0.0);
    lo_epoch_.assign(slots, 0);
}

std::size_t BoundSketch::slot_for_write(VertexId src, VertexId x) {
    const std::size_t s = slot(x, src);
    if (src_[s] != src) {
        // Deterministic eviction: the newest source owning this way wins.
        src_[s] = src;
        ub_[s] = kInfiniteWeight;
        lo_[s] = 0.0;
        lo_epoch_[s] = 0;
    }
    return s;
}

GSP_SERIAL_ONLY void BoundSketch::record_exact(VertexId src, VertexId x, Weight d,
                                               std::uint64_t epoch) {
    const std::size_t s = slot_for_write(src, x);
    ub_[s] = std::min(ub_[s], d);
    if (epoch > lo_epoch_[s]) {
        lo_epoch_[s] = epoch;
        lo_[s] = d;
    } else if (epoch == lo_epoch_[s]) {
        lo_[s] = std::max(lo_[s], d);
    }
}

GSP_SERIAL_ONLY void BoundSketch::record_far(VertexId src, VertexId x, Weight lo,
                                             std::uint64_t epoch) {
    const std::size_t s = slot_for_write(src, x);
    if (epoch > lo_epoch_[s]) {
        lo_epoch_[s] = epoch;
        lo_[s] = lo;
    } else if (epoch == lo_epoch_[s]) {
        lo_[s] = std::max(lo_[s], lo);
    }
}

GSP_SERIAL_ONLY void BoundSketch::record_upper(VertexId src, VertexId x, Weight ub) {
    const std::size_t s = slot_for_write(src, x);
    ub_[s] = std::min(ub_[s], ub);
}

GSP_DECISION_PURE GSP_HOT_PATH Weight BoundSketch::upper_bound(VertexId u,
                                                               VertexId v) const {
    Weight best = kInfiniteWeight;
    const std::size_t a = slot(v, u);
    if (src_[a] == u) best = ub_[a];
    const std::size_t b = slot(u, v);
    if (src_[b] == v) best = std::min(best, ub_[b]);
    return best;
}

GSP_DECISION_PURE GSP_HOT_PATH Weight BoundSketch::via_upper_bound(
    VertexId u, VertexId v) const {
    Weight best = kInfiniteWeight;
    // u's ways each name one landmark src with ub(src, u); the matching
    // way of v (same low bits of src) holds v's record of the same
    // landmark iff the sources agree.
    const std::size_t ubase = static_cast<std::size_t>(u) * ways_;
    const std::size_t vbase = static_cast<std::size_t>(v) * ways_;
    for (std::size_t w = 0; w < ways_; ++w) {
        const VertexId src = src_[ubase + w];
        if (src == kNoVertex || src != src_[vbase + w]) continue;
        const Weight au = ub_[ubase + w];
        const Weight av = ub_[vbase + w];
        if (au == kInfiniteWeight || av == kInfiniteWeight) continue;
        best = std::min(best, au + av);
    }
    return best;
}

GSP_DECISION_PURE GSP_HOT_PATH Weight BoundSketch::lower_bound_at(
    VertexId u, VertexId v, std::uint64_t epoch) const {
    Weight best = 0.0;
    const std::size_t a = slot(v, u);
    if (src_[a] == u && lo_epoch_[a] == epoch) best = lo_[a];
    const std::size_t b = slot(u, v);
    if (src_[b] == v && lo_epoch_[b] == epoch) best = std::max(best, lo_[b]);
    return best;
}

void CertificateStore::reset(std::size_t n, std::size_t cap) {
    cap_ = cap;
    if (certs_.size() != n) {
        certs_.assign(n, Cert{});
        lookup_stamp_.assign(n, 0);
        lookup_dist_.assign(n, kInfiniteWeight);
        lookup_current_ = 0;
    } else {
        // Keep the per-source settled buffers warm; a zero scope can never
        // match (the engine's batch sequence starts at 1).
        for (Cert& c : certs_) c.scope = 0;
    }
    loaded_ = kNoVertex;
    loaded_scope_ = 0;
}

bool CertificateStore::publish(VertexId source, std::uint64_t scope, std::uint64_t epoch,
                               Weight radius,
                               std::span<const std::pair<VertexId, Weight>> settled) {
    Cert& c = certs_[source];
    if (c.scope == scope && c.epoch == epoch && c.radius >= radius) {
        // Keep-larger: an already-stored same-scope certificate with at
        // least this radius answers every query this one could. Also what
        // makes the serial flush of worker-buffered frontier publishes
        // independent of flush order.
        return false;
    }
    if (settled.size() > cap_) {
        // Too big to be worth keeping (reject-heavy regime): leave the
        // slot invalid so phase B falls back to the exact query -- unless
        // it already holds a live same-scope certificate, which an
        // oversized publish must not clobber.
        if (c.scope != scope || c.epoch != epoch) c.scope = 0;
        return false;
    }
    c.scope = scope;
    c.epoch = epoch;
    c.radius = radius;
    c.settled.assign(settled.begin(), settled.end());
    return true;
}

GSP_SERIAL_ONLY bool CertificateStore::load(VertexId source, std::uint64_t scope,
                                            std::uint64_t epoch,
                                            Weight radius_needed) {
    const Cert& c = certs_[source];
    if (c.scope != scope || c.epoch != epoch || c.radius < radius_needed) return false;
    if (loaded_ == source && loaded_scope_ == scope) return true;  // already active
    ++lookup_current_;
    for (const auto& [x, d] : c.settled) {
        lookup_stamp_[x] = lookup_current_;
        lookup_dist_[x] = d;
    }
    loaded_ = source;
    loaded_scope_ = scope;
    return true;
}

std::size_t CertificateStore::bytes() const {
    // Logical bytes, and only scope-live settled sets: reset() keeps the
    // per-source buffers warm across runs (scope = 0 marks them stale),
    // so counting capacities or stale frontiers would make the handoff
    // stats depend on what a previous run in the same session published.
    std::size_t total = certs_.size() * sizeof(Cert) +
                        (lookup_stamp_.size() * sizeof(std::uint64_t)) +
                        (lookup_dist_.size() * sizeof(Weight));
    for (const Cert& c : certs_) {
        if (c.scope != 0) {
            total += c.settled.size() * sizeof(std::pair<VertexId, Weight>);
        }
    }
    return total;
}

}  // namespace gsp
