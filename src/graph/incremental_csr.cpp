#include "graph/incremental_csr.hpp"

#include <algorithm>

namespace gsp {

bool IncrementalCsrView::refresh(const Graph& g) {
    if (built_ && g.num_vertices() == start_.size() &&
        g.num_edges() == mirrored_edges_ &&
        (mirrored_edges_ == 0 ||
         g.edge(static_cast<EdgeId>(mirrored_edges_ - 1)) == last_edge_)) {
        // The mirror already reflects every insertion (the engine feeds
        // each accepted edge through add_edge): the explicit no-op fast
        // path that makes per-batch "snapshots" free. The last-edge
        // fingerprint catches the stale-mirror trap of refreshing against
        // a *different* graph whose counts coincide.
        return false;
    }
    const std::size_t n = g.num_vertices();
    start_.assign(n, 0);
    len_.assign(n, 0);
    cap_.assign(n, 0);
    // Run capacities: live degree plus slack, laid out contiguously.
    std::size_t total = 0;
    for (VertexId v = 0; v < n; ++v) {
        const auto deg = static_cast<std::uint32_t>(g.neighbors(v).size());
        cap_[v] = deg + slack(deg);
        start_[v] = static_cast<std::uint32_t>(total);
        total += cap_[v];
    }
    arena_.assign(total, HalfEdge{});
    for (VertexId v = 0; v < n; ++v) {
        HalfEdge* out = arena_.data() + start_[v];
        for (const HalfEdge& h : g.neighbors(v)) out[len_[v]++] = h;
    }
    dead_ = 0;
    live_half_edges_ = 2 * g.num_edges();
    mirrored_edges_ = g.num_edges();
    last_edge_ = g.num_edges() > 0
                     ? g.edge(static_cast<EdgeId>(g.num_edges() - 1))
                     : Edge{};
    built_ = true;
    ++rebuilds_;
    return true;
}

void IncrementalCsrView::add_edge(VertexId u, VertexId v, Weight w, EdgeId id) {
    append_half(u, HalfEdge{v, w, id});
    append_half(v, HalfEdge{u, w, id});
    live_half_edges_ += 2;
    ++mirrored_edges_;
    last_edge_ = Edge{u, v, w};
    // Merge-on-threshold: relocations abandon their old run; once dead
    // slots occupy a third of the arena, fold everything back into one
    // contiguous layout with fresh slack. Amortized against the
    // relocations that created the dead space. (A half-arena threshold
    // would never fire under steady doubling: the dead slots of a run's
    // relocation history sum to just under its live capacity.)
    if (dead_ > 64 && dead_ * 3 > arena_.size()) compact();
}

void IncrementalCsrView::append_half(VertexId v, const HalfEdge& h) {
    if (len_[v] == cap_[v]) relocate(v, len_[v] + 1);
    arena_[start_[v] + len_[v]] = h;
    ++len_[v];
}

void IncrementalCsrView::relocate(VertexId v, std::uint32_t min_cap) {
    const std::uint32_t new_cap = std::max(min_cap, 2 * std::max(cap_[v], 1u));
    const std::size_t new_start = arena_.size();
    arena_.resize(new_start + new_cap);
    // Self-copy within the arena; the ranges cannot overlap (the new run
    // begins past every existing slot). Pointers taken after the resize.
    std::copy_n(arena_.data() + start_[v], len_[v], arena_.data() + new_start);
    dead_ += cap_[v];
    start_[v] = static_cast<std::uint32_t>(new_start);
    cap_[v] = new_cap;
    ++relocations_;
}

void IncrementalCsrView::compact() {
    const std::size_t n = start_.size();
    std::size_t total = 0;
    std::vector<std::uint32_t> new_start(n);
    for (VertexId v = 0; v < n; ++v) {
        new_start[v] = static_cast<std::uint32_t>(total);
        total += len_[v] + slack(len_[v]);
    }
    std::vector<HalfEdge> fresh(total);
    for (VertexId v = 0; v < n; ++v) {
        std::copy_n(arena_.data() + start_[v], len_[v], fresh.data() + new_start[v]);
        cap_[v] = len_[v] + slack(len_[v]);
        start_[v] = new_start[v];
    }
    arena_ = std::move(fresh);
    dead_ = 0;
    ++compactions_;
}

}  // namespace gsp
