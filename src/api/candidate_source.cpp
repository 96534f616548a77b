#include "api/candidate_source.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "api/session.hpp"
#include "core/candidate_order.hpp"
#include "spanners/net_spanner.hpp"
#include "spanners/theta_graph.hpp"
#include "util/timer.hpp"
#include "wspd/quadtree.hpp"
#include "wspd/wspd.hpp"

namespace gsp {

void CandidateSource::seed(Graph&) {}

void CandidateSource::configure_engine(GreedyEngineOptions&, SpannerSession&) {}

double CandidateSource::stretch_target(double engine_stretch) const {
    return engine_stretch;
}

namespace {

/// The universal chunk adapter: materialize the full sorted list once,
/// serve soft_cap-sized slices. Makes every source chunk-capable (the
/// ordering contract holds trivially) at the cost of the same peak memory
/// as the materializing path -- hence ChunkSupport::kFallback.
class MaterializedChunkSource final : public CandidateChunkSource {
public:
    explicit MaterializedChunkSource(CandidateSource& source) { source.materialize(all_); }

    bool next_chunk(std::size_t soft_cap, std::vector<GreedyCandidate>& out) override {
        if (cursor_ >= all_.size()) return false;
        const std::size_t take =
            std::min(std::max<std::size_t>(soft_cap, 1), all_.size() - cursor_);
        const std::size_t end = cursor_ + take;
        out.insert(out.end(),
                   all_.begin() + static_cast<std::ptrdiff_t>(cursor_),
                   all_.begin() + static_cast<std::ptrdiff_t>(end));
        cursor_ = end;
        return true;
    }

private:
    std::vector<GreedyCandidate> all_;
    std::size_t cursor_ = 0;
};

}  // namespace

std::unique_ptr<CandidateChunkSource> CandidateSource::chunks() {
    if (chunk_support() == ChunkSupport::kNone) {
        throw std::logic_error(std::string("CandidateSource: source '") + kind() +
                               "' does not support chunked generation");
    }
    return std::make_unique<MaterializedChunkSource>(*this);
}

void GraphCandidateSource::materialize(std::vector<GreedyCandidate>& out) {
    append_sorted_graph_candidates(g_, out);
}

void MetricCandidateSource::materialize(std::vector<GreedyCandidate>& out) {
    const std::size_t n = m_.size();
    if (n < 2) return;
    const auto* e2 = dynamic_cast<const EuclideanMetric*>(&m_);
    const bool rows = e2 != nullptr && e2->dim() == 2;
    std::vector<VertexId> ids(rows ? n : 0);
    for (VertexId j = 0; j < ids.size(); ++j) ids[j] = j;
    std::vector<Weight> row(ids.size());
    // The metric kernel's deterministic tie order: (weight, u, v).
    WeightBuckets().append_ordered(
        out,
        [&](auto&& place) {
            if (rows) {
                // 2D Euclidean all-pairs: row i's weights d(i, i+1..n-1) in
                // one non-virtual loop instead of n - i - 1 virtual calls.
                // The loop is bit-exact against distance(), so the
                // candidate list (weights and tie order) is unchanged.
                for (VertexId i = 0; i + 1 < n; ++i) {
                    const std::span<const VertexId> tail(ids.data() + i + 1, n - i - 1);
                    e2->distances_from(i, tail, row.data());
                    for (std::size_t j = 0; j < tail.size(); ++j) {
                        place(GreedyCandidate{i, tail[j], row[j]});
                    }
                }
                return;
            }
            for (VertexId i = 0; i < n; ++i) {
                for (VertexId j = i + 1; j < n; ++j) {
                    place(GreedyCandidate{i, j, m_.distance(i, j)});
                }
            }
        },
        ByWeightUV{});
}

WspdCandidateSource::WspdCandidateSource(const EuclideanMetric& m, double separation,
                                         double epsilon)
    : m_(m), separation_(separation) {
    if (separation_ <= 0.0) {
        if (!(epsilon > 0.0)) {
            throw std::invalid_argument(
                "WspdCandidateSource: epsilon must be > 0 to derive a separation");
        }
        separation_ = 4.0 + 8.0 / epsilon;  // always > 4
    }
    if (!(separation_ > 4.0)) {
        // At s <= 4 the dumbbell bound is infinite: greedy over the pairs
        // would build *something*, but with no stretch guarantee at all
        // (and a stretch_target of infinity downstream). Refuse up front.
        throw std::invalid_argument(
            "WspdCandidateSource: separation must be > 4 for a finite stretch bound");
    }
}

void WspdCandidateSource::materialize(std::vector<GreedyCandidate>& out) {
    if (m_.size() < 2) return;
    const QuadTree tree(m_);
    const auto pairs = well_separated_pairs(tree, separation_);
    WeightBuckets().append_ordered(
        out,
        [&](auto&& place) {
            for (const WspdPair& p : pairs) {
                const VertexId a = tree.node(p.a).representative;
                const VertexId b = tree.node(p.b).representative;
                const VertexId u = std::min(a, b);
                const VertexId v = std::max(a, b);
                place(GreedyCandidate{u, v, m_.distance(u, v)});
            }
        },
        ByWeightUV{});
}

namespace {

/// The linear-space WSPD generator. Construction keeps only the dumbbell
/// representative pairs as two u32 arrays plus a u32 class-order
/// permutation (12 bytes per pair, against 16 for a GreedyCandidate). A
/// pair's weight class is the binary exponent of its weight (weight_key's
/// top 12 bits), so classes are octaves and need no range pass. Serving
/// orders one class at a time into a scratch vector by the source's
/// (weight, u, v) tie rule and hands out soft_cap-sized slices. Because
/// the class of a candidate is a monotone function of its weight and
/// equal weights always share a class, the concatenation of per-class
/// orderings is exactly the global order -- bit-identical to
/// materialize().
class WspdChunkSource final : public CandidateChunkSource {
public:
    WspdChunkSource(const EuclideanMetric& m, double separation) : m_(m) {
        if (m_.size() < 2) return;
        {
            const QuadTree tree(m_);
            const auto pairs = well_separated_pairs(tree, separation);
            us_.reserve(pairs.size());
            vs_.reserve(pairs.size());
            for (const WspdPair& p : pairs) {
                const VertexId a = tree.node(p.a).representative;
                const VertexId b = tree.node(p.b).representative;
                us_.push_back(std::min(a, b));
                vs_.push_back(std::max(a, b));
            }
        }  // tree + raw pair list released before any candidate memory exists
        std::vector<std::uint16_t> cls(us_.size());
        for (std::size_t i = 0; i < us_.size(); ++i) {
            cls[i] = static_cast<std::uint16_t>(weight_key(m_.distance(us_[i], vs_[i])) >> 52);
        }
        // Order within a class is irrelevant: serving sorts each class.
        order_.resize(us_.size());
        std::iota(order_.begin(), order_.end(), 0U);
        std::sort(order_.begin(), order_.end(),
                  [&](std::uint32_t a, std::uint32_t b) { return cls[a] < cls[b]; });
        for (std::uint32_t k = 0; k < order_.size(); ++k) {
            if (k == 0 || cls[order_[k]] != cls[order_[k - 1]]) class_start_.push_back(k);
        }
        class_start_.push_back(static_cast<std::uint32_t>(order_.size()));
    }

    bool next_chunk(std::size_t soft_cap, std::vector<GreedyCandidate>& out) override {
        while (served_ >= scratch_.size()) {
            if (class_start_.empty() || next_class_ + 1 >= class_start_.size()) return false;
            scratch_.clear();
            served_ = 0;
            const std::uint32_t begin = class_start_[next_class_];
            const std::uint32_t end = class_start_[next_class_ + 1];
            ++next_class_;
            buckets_.append_ordered(
                scratch_,
                [&](auto&& place) {
                    for (std::uint32_t k = begin; k < end; ++k) {
                        const VertexId u = us_[order_[k]];
                        const VertexId v = vs_[order_[k]];
                        place(GreedyCandidate{u, v, m_.distance(u, v)});
                    }
                },
                ByWeightUV{});
        }
        const std::size_t take =
            std::min(std::max<std::size_t>(soft_cap, 1), scratch_.size() - served_);
        const std::size_t end = served_ + take;
        out.insert(out.end(),
                   scratch_.begin() + static_cast<std::ptrdiff_t>(served_),
                   scratch_.begin() + static_cast<std::ptrdiff_t>(end));
        served_ = end;
        return true;
    }

private:
    const EuclideanMetric& m_;
    std::vector<VertexId> us_, vs_;        ///< representative pairs (u < v)
    std::vector<std::uint32_t> order_;     ///< pair indices in class order
    std::vector<std::uint32_t> class_start_;  ///< class offsets into order_, then size
    std::size_t next_class_ = 0;
    std::vector<GreedyCandidate> scratch_;  ///< the one resident class
    std::size_t served_ = 0;
    WeightBuckets buckets_;
};

}  // namespace

std::unique_ptr<CandidateChunkSource> WspdCandidateSource::chunks() {
    return std::make_unique<WspdChunkSource>(m_, separation_);
}

double wspd_greedy_stretch_bound(double engine_stretch, double separation) {
    // Dumbbell induction: for a pair (p, q) covered by the s-separated
    // dumbbell (A, B) with representatives (u, v), enclosing radius r per
    // side, d(p, q) >= s * r:
    //   d_H(p, q) <= t' * d(p,u) + t * d(u,v) + t' * d(v,q)
    //             <= 4 t' r + t (d + 4r)
    // and solving 4 t'/s + t + 4t/s <= t' gives t' = t (s + 4) / (s - 4).
    if (!(separation > 4.0)) return std::numeric_limits<double>::infinity();
    return engine_stretch * (separation + 4.0) / (separation - 4.0);
}

namespace {

/// Smallest cone count whose guaranteed theta-graph stretch is <= budget.
std::size_t cones_for_budget(double budget) {
    for (std::size_t k = 8; k <= 4096; ++k) {
        if (theta_graph_stretch_bound(k) <= budget) return k;
    }
    throw std::invalid_argument("approx_greedy: stretch budget too tight for theta base");
}

Graph build_base(const MetricSpace& m, const ApproxParams& params, double t_base) {
    const auto* e = dynamic_cast<const EuclideanMetric*>(&m);
    if (e != nullptr && e->dim() == 2) {
        const std::size_t k = params.theta_cones_override != 0
                                  ? params.theta_cones_override
                                  : cones_for_budget(t_base);
        return theta_graph_sweep(*e, k);
    }
    // Generic doubling metric: net-tree spanner with budget eps' = t_base - 1.
    return net_spanner(m, NetSpannerOptions{.epsilon = t_base - 1.0,
                                            .degree_cap = params.net_degree_cap});
}

}  // namespace

BaseSpannerCandidateSource::BaseSpannerCandidateSource(const MetricSpace& m,
                                                       const BuildOptions& options)
    : m_(m), params_(options.approx), base_(m.size()) {
    const double eps = params_.epsilon;
    if (!(eps > 0.0) || eps > 1.0) {
        throw std::invalid_argument(
            "BaseSpannerCandidateSource: epsilon must be in (0, 1]");
    }
    // Split the stretch budget: (1 + eps/3) for the base, the rest for the
    // simulation; (1 + eps/3) * t_sim = 1 + eps exactly.
    t_base_ = 1.0 + eps / 3.0;
    t_sim_ = (1.0 + eps) / t_base_;
    const std::size_t n = m.size();
    if (n <= 1) return;

    {
        const Timer base_timer;
        base_ = build_base(m, params_, t_base_);
        seconds_base_ = base_timer.seconds();
    }

    // E0: edges of weight <= D/n go straight to the output, lightest
    // first (their spanner edge ids must form the prefix -- the Lemma-11
    // suite relies on it). The heavier rest of G' is streamed by
    // materialize() straight into the session's candidate buffer, so the
    // source never holds a second copy of the candidate list.
    Weight max_w = 0.0;
    for (const Edge& e : base_.edges()) max_w = std::max(max_w, e.weight);
    light_threshold_ = max_w / static_cast<double>(n);
    WeightBuckets().append_ordered(
        light_,
        [&](auto&& place) {
            for (const Edge& e : base_.edges()) {
                if (e.weight <= light_threshold_) place(e);
            }
        },
        ByWeightUV{});
}

void BaseSpannerCandidateSource::materialize(std::vector<GreedyCandidate>& out) {
    if (m_.size() <= 1) return;
    // The simulated candidates: G' minus E0, in the simulation's
    // historical tie order (weight, u, v) over raw endpoints.
    WeightBuckets().append_ordered(
        out,
        [&](auto&& place) {
            for (const Edge& e : base_.edges()) {
                if (e.weight > light_threshold_) place(GreedyCandidate{e.u, e.v, e.weight});
            }
        },
        ByWeightUV{});
}

void BaseSpannerCandidateSource::seed(Graph& h) {
    for (const Edge& e : light_) h.add_edge(e.u, e.v, e.weight);
}

void BaseSpannerCandidateSource::configure_engine(GreedyEngineOptions& options,
                                                  SpannerSession&) {
    // The simulation runs at its own stretch budget, whatever the caller
    // put in BuildOptions::stretch.
    options.stretch = t_sim_;
}

ApproxGreedyResult approx_greedy_build(SpannerSession& session, const MetricSpace& m,
                                       const BuildOptions& options, BuildReport* report) {
    // Reset-before-work: a throw below (bad options, bad epsilon) must not
    // leave a previous build's numbers in the caller's report.
    if (report != nullptr) *report = BuildReport{};
    const Timer total_timer;
    options.validate();
    const std::size_t n = m.size();

    BaseSpannerCandidateSource source(m, options);
    ApproxGreedyResult result{.spanner = Graph(n), .base = Graph(n)};
    result.t_base = source.t_base();
    result.t_sim = source.t_sim();
    if (n <= 1) {
        if (report != nullptr) *report = BuildReport{};
        result.seconds_total = total_timer.seconds();
        return result;
    }
    result.base = source.base();
    result.seconds_base = source.seconds_base();
    result.light_edges = source.light_edges();

    BuildReport local_report;
    result.spanner = session.build(source, options, &local_report);
    local_report.algorithm = "greedy-approx";
    result.buckets = local_report.stats.buckets;
    // Every streamed candidate is decided by the exact kernel (cached
    // exact bounds included).
    result.exact_queries = local_report.stats.edges_examined;
    result.seconds_total = total_timer.seconds();
    if (report != nullptr) *report = local_report;
    return result;
}

}  // namespace gsp
