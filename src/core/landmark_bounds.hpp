// Landmark witness trees: O(k) upper bounds on spanner distances.
//
// The bound sketch (core/bound_sketch) remembers what earlier probes
// learned about a few sources per vertex, so its via-landmark reject fires
// only when both endpoints of a candidate happen to remember the same
// source. Long candidates whose endpoints lie far apart -- the tour links
// of a connected random geometric graph, say -- never share one, and each
// of them costs a wide bounded probe that ends in a reject.
//
// LandmarkTable closes that gap with k full shortest-path trees: for each
// of k landmarks x_i it stores d_H(x_i, v) for every vertex v of the
// spanner H as it stood at the last refresh, and answers
//
//     upper_bound(u, v) = min_i D[u][i] + D[v][i]
//
// -- two realizable paths concatenated through x_i, sound by the triangle
// inequality. H only grows, so distances only shrink and every bound the
// table returns stays sound for the rest of the run, exactly like the
// sketch's witness upper bounds. The table never rejects a candidate the
// exact test would keep; it only spares the probe of one it would reject.
//
// Landmarks are picked by deterministic farthest-point order: the next
// landmark is the vertex farthest (in H) from every landmark chosen so
// far, unreachable vertices first, ties to the smallest id. The SSSP that
// scores the next pick is the one that fills the current landmark's
// column, so selection costs nothing beyond the k trees themselves. Layout
// is vertex-major -- k doubles per vertex, one aligned row -- so a consult
// reads two contiguous rows.
//
// Memory is k * n * 8 bytes (1 MiB for k = 16 at n = 8192): linear in n,
// as the linear-space greedy construction demands.
//
// Concurrency: refresh() is the only writer and runs on the serial thread
// at a bucket boundary; upper_bound() is const and reads only immutable
// state, so stage-2 workers may consult the table concurrently during a
// fan-out.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/types.hpp"
#include "util/aligned.hpp"
#include "util/annotations.hpp"

namespace gsp {

class LandmarkTable {
public:
    /// Set n vertices and k landmarks and drop every tree (once per engine
    /// run). The table is empty -- every bound +infinity -- until the
    /// first refresh, which sizes it; capacity is kept across refreshes
    /// and runs, so a warm session allocates nothing.
    void reset(std::size_t n, std::size_t k);

    /// Re-select the landmarks on `view` and recompute their trees: k
    /// full single-source Dijkstra runs, O(k (n + m) log n). `view` is any
    /// adjacency view with num_vertices() and neighbors(v) (the live Graph
    /// or the engine's IncrementalCsrView) and must have the vertex count
    /// given to reset().
    template <class View>
    GSP_SERIAL_ONLY void refresh(const View& view);

    /// Whether a refresh has filled the table this run.
    [[nodiscard]] bool ready() const { return ready_; }

    /// The landmarks of the last refresh, in selection order.
    [[nodiscard]] std::span<const VertexId> landmarks() const { return landmarks_; }

    /// Work proxy of one refresh, in the units of DijkstraWorkspace's
    /// push counters: k * (n + half_edges) -- every vertex and every
    /// adjacency entry touched once per tree.
    [[nodiscard]] std::size_t refresh_cost(std::size_t half_edges) const {
        return k_ * (n_ + half_edges);
    }

    /// Smallest landmark-concatenated upper bound on d_H(u, v), over the
    /// last refresh's trees; +infinity before the first refresh or when u
    /// and v share no landmark component.
    [[nodiscard]] GSP_DECISION_PURE GSP_HOT_PATH Weight upper_bound(VertexId u,
                                                                   VertexId v) const {
        if (!ready_) return kInfiniteWeight;
        const Weight* du = dist_.data() + static_cast<std::size_t>(u) * k_;
        const Weight* dv = dist_.data() + static_cast<std::size_t>(v) * k_;
        Weight best = kInfiniteWeight;
        for (std::size_t i = 0; i < k_; ++i) {
            const Weight via = du[i] + dv[i];
            best = via < best ? via : best;
        }
        return best;
    }

    /// Logical bytes of the distance table (0 until the first refresh).
    [[nodiscard]] std::size_t bytes() const {
        return ready_ ? n_ * k_ * sizeof(Weight) : 0;
    }

private:
    std::size_t n_ = 0;
    std::size_t k_ = 0;
    bool ready_ = false;
    /// n * k distances, row v = the k landmark distances of vertex v.
    AlignedVector<Weight> dist_;
    std::vector<VertexId> landmarks_;
    // Refresh scratch, kept warm across refreshes and runs. The workspace
    // is the table's own, so refresh pushes stay out of the engine's
    // probe-work meter.
    DijkstraWorkspace sssp_;
    std::vector<Weight> nearest_;  ///< distance to the nearest chosen landmark
};

}  // namespace gsp
