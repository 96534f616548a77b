#include "api/grid_source.hpp"

#include <stdexcept>

namespace gsp {

double GridCandidateSource::resolve_separation(double separation, double epsilon) {
    if (separation <= 0.0) {
        if (!(epsilon > 0.0)) {
            throw std::invalid_argument(
                "GridCandidateSource: epsilon must be > 0 to derive a separation");
        }
        return 4.0 + 8.0 / epsilon;
    }
    return separation;  // UniformGrid2D enforces > 4
}

GridCandidateSource::GridCandidateSource(const EuclideanMetric& m, double separation,
                                         double epsilon)
    : m_(m), grid_(m, resolve_separation(separation, epsilon)) {}

void GridCandidateSource::materialize(std::vector<GreedyCandidate>& out) {
    GridChunkSource source(grid_);
    while (source.next_chunk(static_cast<std::size_t>(-1), out)) {
    }
}

std::unique_ptr<CandidateChunkSource> GridCandidateSource::chunks() {
    return std::make_unique<GridChunkSource>(grid_);
}

void GridCandidateSource::configure_engine(GreedyEngineOptions& options, SpannerSession&) {
    options.cell_batching = true;
    // Cell balls amortize across a whole weight class, but the engine's
    // serial batches are clipped to the resident chunk: the default cap
    // slices a level into many pieces and every slice re-drains each
    // anchor's ball from scratch. Widen the chunks (still a fixed-size
    // buffer -- 16 MiB of candidates -- far below the materialized list
    // the linear-space budget guards against) so a level's cell groups
    // arrive whole. Only the untouched default is widened: an explicit
    // user cap wins.
    if (options.chunk_soft_cap == EngineTuning{}.chunk_soft_cap) {
        options.chunk_soft_cap = std::size_t{1} << 21;
    }
    // The via-landmark coarse reject needs both endpoints of a pair to
    // remember a common nearby anchor, and every level's anchors compete
    // for the same few source-keyed slots: at the default associativity
    // most facts a cell ball harvests are evicted before the neighbor
    // cells' candidates consult them. Once the spanner stops growing --
    // long before the candidates run out -- those witness bounds decide
    // the all-reject tail without a probe. 32 ways keep them alive for
    // 384 bytes per vertex and an O(ways) branch-free consult. An explicit
    // associativity wins: 0 is the only "unset" value.
    if (options.sketch_ways == 0) {
        options.sketch_ways = 32;
    }
    // Spanner edge weights are exactly the metric distances of their
    // endpoints, so the metric lower-bounds every graph distance: hand it
    // to the engine as the A* goal oracle and the residual point queries
    // (small groups, members a reject-radius ball left unsettled) explore
    // the pair's ellipse instead of a disc around one endpoint. The
    // source borrows the metric from the caller, who must keep it alive
    // through the build anyway -- the grid holds the same reference.
    if (options.goal_bound == nullptr) {
        options.goal_bound = &m_;
    }
}

}  // namespace gsp
