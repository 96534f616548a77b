#include "geom/uniform_grid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

namespace gsp {

namespace {

constexpr double kHalfSqrt2 = 0.7071067811865476;  // sqrt(2) / 2

/// Enumerate every unordered pair of occupied cells of `lv` whose
/// min_boxdist falls in [mb_lo, mb_hi), each exactly once (row-major:
/// dy >= 0, and dx > 0 when dy == 0), invoking fn(a, b) with the two cell
/// indices. The row [x_lo, x_hi] of candidate neighbors is contiguous in
/// the sorted key array (y-major packing), so each row costs two binary
/// searches plus a scan of the hits.
template <class Fn>
void scan_cell_pairs(const UniformGrid2D::Level& lv, double mb_lo, double mb_hi, Fn&& fn) {
    if (!(mb_lo < mb_hi)) return;
    const double h = lv.cell_size;
    const auto R = static_cast<std::int64_t>(mb_hi / h) + 1;
    const std::size_t cells = lv.keys.size();
    // min_boxdist depends only on the offset (dy, |dx|) of a scanned
    // pair: tabulate it once per call with the per-pair expression, so the
    // emitted stream is unchanged. Both offsets are at most R and at most
    // the level's largest cell coordinate (about sqrt(n) at level 0), so
    // the table holds O(min(R^2, n)) entries whatever the separation.
    std::int64_t extent = 0;
    for (const std::uint64_t key : lv.keys) {
        extent = std::max({extent, static_cast<std::int64_t>(key & 0xffffffffULL),
                           static_cast<std::int64_t>(key >> 32)});
    }
    const auto side = static_cast<std::size_t>(std::min(R, extent)) + 1;
    const auto gap = [h](std::size_t k) {
        return k > 0 ? static_cast<double>(k - 1) * h : 0.0;
    };
    std::vector<double> boxdist(side * side);
    for (std::size_t dy = 0; dy < side; ++dy) {
        for (std::size_t adx = 0; adx < side; ++adx) {
            boxdist[dy * side + adx] = std::hypot(gap(adx), gap(dy));
        }
    }
    for (std::size_t a = 0; a < cells; ++a) {
        const std::uint64_t key = lv.keys[a];
        const auto ax = static_cast<std::int64_t>(key & 0xffffffffULL);
        const auto ay = static_cast<std::int64_t>(key >> 32);
        for (std::int64_t dy = 0; dy <= R; ++dy) {
            if (dy > 0 && static_cast<double>(dy - 1) * h >= mb_hi) break;
            const std::int64_t row = ay + dy;
            const std::int64_t x_lo = dy == 0 ? ax + 1 : std::max<std::int64_t>(0, ax - R);
            const std::int64_t x_hi = ax + R;
            if (x_lo > x_hi) continue;
            const std::uint64_t k_lo =
                (static_cast<std::uint64_t>(row) << 32) | static_cast<std::uint64_t>(x_lo);
            const std::uint64_t k_hi =
                (static_cast<std::uint64_t>(row) << 32) | static_cast<std::uint64_t>(x_hi);
            auto it = std::lower_bound(lv.keys.begin(), lv.keys.end(), k_lo);
            const auto end = std::upper_bound(it, lv.keys.end(), k_hi);
            for (; it != end; ++it) {
                const auto bx = static_cast<std::int64_t>(*it & 0xffffffffULL);
                const std::int64_t adx = bx >= ax ? bx - ax : ax - bx;
                const double mb = boxdist[static_cast<std::size_t>(dy) * side +
                                          static_cast<std::size_t>(adx)];
                if (mb >= mb_lo && mb < mb_hi) {
                    fn(a, static_cast<std::size_t>(it - lv.keys.begin()));
                }
            }
        }
    }
}

}  // namespace

std::uint64_t UniformGrid2D::cell_key(double x, double y, double h) const {
    const auto ix = static_cast<std::uint64_t>(std::max(0.0, std::floor((x - minx_) / h)));
    const auto iy = static_cast<std::uint64_t>(std::max(0.0, std::floor((y - miny_) / h)));
    return (iy << 32) | (ix & 0xffffffffULL);
}

std::size_t UniformGrid2D::find_cell(const Level& level, std::uint64_t key) const {
    const auto it = std::lower_bound(level.keys.begin(), level.keys.end(), key);
    if (it == level.keys.end() || *it != key) {
        throw std::logic_error("UniformGrid2D: point mapped to an unoccupied cell");
    }
    return static_cast<std::size_t>(it - level.keys.begin());
}

UniformGrid2D::UniformGrid2D(const EuclideanMetric& m, double separation)
    : m_(m), separation_(separation) {
    if (m_.dim() != 2) {
        throw std::invalid_argument("UniformGrid2D: metric must be 2-dimensional");
    }
    if (!(separation_ > 4.0)) {
        throw std::invalid_argument(
            "UniformGrid2D: separation must be > 4 for a finite stretch bound");
    }
    const std::size_t n = m_.size();
    if (n == 0) return;

    minx_ = m_.point(0)[0];
    miny_ = m_.point(0)[1];
    double maxx = minx_, maxy = miny_;
    for (std::size_t i = 1; i < n; ++i) {
        const auto p = m_.point(i);
        minx_ = std::min(minx_, p[0]);
        maxx = std::max(maxx, p[0]);
        miny_ = std::min(miny_, p[1]);
        maxy = std::max(maxy, p[1]);
    }
    const double span = std::max(maxx - minx_, maxy - miny_);
    dmax_ = std::hypot(maxx - minx_, maxy - miny_);

    // Level-0 granularity: ~1-2 points per occupied cell on uniform data
    // (power-of-two cells per axis nearest sqrt(n)).
    double axis = std::exp2(std::round(std::log2(std::sqrt(static_cast<double>(n)))));
    if (axis < 1.0) axis = 1.0;
    double h0 = span > 0.0 ? span / axis : 1.0;
    if (!(h0 > 0.0)) h0 = 1.0;
    near_cutoff_ = separation_ * h0 * kHalfSqrt2;

    const auto build_level = [&](double h) {
        Level lv;
        lv.cell_size = h;
        lv.radius = h * kHalfSqrt2;
        std::vector<std::pair<std::uint64_t, VertexId>> order(n);
        for (std::size_t i = 0; i < n; ++i) {
            const auto p = m_.point(i);
            order[i] = {cell_key(p[0], p[1], h), static_cast<VertexId>(i)};
        }
        std::sort(order.begin(), order.end());  // (key, id): ids ascending per cell
        lv.ids.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
            if (i == 0 || order[i].first != order[i - 1].first) {
                lv.keys.push_back(order[i].first);
                lv.cell_start.push_back(static_cast<std::uint32_t>(i));
                lv.rep.push_back(order[i].second);
            }
            lv.ids[i] = order[i].second;
        }
        lv.cell_start.push_back(static_cast<std::uint32_t>(n));
        return lv;
    };

    levels_.push_back(build_level(h0));
    double h = h0;
    while (levels_.back().keys.size() > 1) {
        h *= 2.0;
        // Level l only serves pairs with d >= s * r_l; none exist past
        // the diagonal. And once a level holds a single occupied cell,
        // every pair it could see is within 2 r < s r of itself -- no
        // assignment there or coarser.
        if (separation_ * h * kHalfSqrt2 > dmax_) break;
        levels_.push_back(build_level(h));
    }
}

std::size_t UniformGrid2D::collect_window(double lo, double hi,
                                          std::vector<GreedyCandidate>& out,
                                          std::size_t limit) const {
    std::size_t count = 0;
    if (levels_.empty() || !(lo < hi)) return count;
    const auto emit = [&](VertexId u, VertexId v, double w) {
        ++count;
        if (out.size() < limit) out.push_back(GreedyCandidate{u, v, w});
    };

    // Each pair's weight is m_.distance's own sqrt(dx*dx + dy*dy) on the
    // same coordinates (the build forbids FMA contraction), so emitted
    // weights are bitwise the metric's.
    const auto push_pair = [&](VertexId a, VertexId b, auto&& consume) {
        const VertexId u = std::min(a, b);
        const VertexId v = std::max(a, b);
        const auto pu = m_.point(u);
        const auto pv = m_.point(v);
        const double dx = pu[0] - pv[0];
        const double dy = pu[1] - pv[1];
        consume(u, v, std::sqrt(dx * dx + dy * dy));
    };

    // Near pairs: exact point-pair enumeration at level 0. A pair at
    // distance d lies in cells with min_boxdist <= d <= min_boxdist +
    // 4 r_0, so only cell pairs with min_boxdist in the clamped band can
    // contribute to this window.
    {
        const Level& l0 = levels_.front();
        const double band_lo = std::max(0.0, lo - 4.0 * l0.radius);
        const double band_hi = std::min(near_cutoff_, hi);
        if (band_lo < band_hi) {
            const auto consume_near = [&](VertexId u, VertexId v, double d) {
                if (d < near_cutoff_ && d >= lo && d < hi) emit(u, v, d);
            };
            const auto emit_near = [&](VertexId a, VertexId b) {
                push_pair(a, b, consume_near);
            };
            if (band_lo == 0.0) {  // same-cell pairs have min_boxdist 0
                for (std::size_t c = 0; c + 1 < l0.cell_start.size(); ++c) {
                    for (std::uint32_t p = l0.cell_start[c]; p < l0.cell_start[c + 1]; ++p) {
                        for (std::uint32_t q = p + 1; q < l0.cell_start[c + 1]; ++q) {
                            emit_near(l0.ids[p], l0.ids[q]);
                        }
                    }
                }
            }
            scan_cell_pairs(l0, band_lo, band_hi, [&](std::size_t a, std::size_t b) {
                for (std::uint32_t p = l0.cell_start[a]; p < l0.cell_start[a + 1]; ++p) {
                    for (std::uint32_t q = l0.cell_start[b]; q < l0.cell_start[b + 1]; ++q) {
                        emit_near(l0.ids[p], l0.ids[q]);
                    }
                }
            });
        }
    }

    // Far pairs: one representative candidate per ring cell pair, every
    // level. The ring [(s - 4) r, 2 s r) is where a level's assigned
    // pairs can live; the window narrows it further through the same
    // weight-vs-boxdist slack (w <= mb + 4 r).
    const auto consume_far = [&](VertexId u, VertexId v, double w) {
        if (w >= lo && w < hi) emit(u, v, w);
    };
    for (const Level& lv : levels_) {
        const double rl = lv.radius;
        const double band_lo = std::max((separation_ - 4.0) * rl, lo - 4.0 * rl);
        const double band_hi = std::min(2.0 * separation_ * rl, hi);
        if (!(band_lo < band_hi)) continue;
        scan_cell_pairs(lv, band_lo, band_hi, [&](std::size_t a, std::size_t b) {
            push_pair(lv.rep[a], lv.rep[b], consume_far);
        });
    }
    return count;
}

GreedyCandidate UniformGrid2D::covering_candidate(VertexId i, VertexId j) const {
    const VertexId u = std::min(i, j);
    const VertexId v = std::max(i, j);
    const double d = m_.distance(u, v);
    if (d < near_cutoff_) return GreedyCandidate{u, v, d};
    const auto level = static_cast<std::size_t>(std::floor(std::log2(d / near_cutoff_)));
    const Level& lv = levels_.at(level);  // construction guarantees existence
    const auto pu = m_.point(u);
    const auto pv = m_.point(v);
    const std::size_t cu = find_cell(lv, cell_key(pu[0], pu[1], lv.cell_size));
    const std::size_t cv = find_cell(lv, cell_key(pv[0], pv[1], lv.cell_size));
    if (cu == cv) {
        throw std::logic_error("UniformGrid2D: assigned pair landed in one cell");
    }
    const VertexId ru = std::min(lv.rep[cu], lv.rep[cv]);
    const VertexId rv = std::max(lv.rep[cu], lv.rep[cv]);
    return GreedyCandidate{ru, rv, m_.distance(ru, rv)};
}

GridChunkSource::GridChunkSource(const UniformGrid2D& grid, std::size_t soft_cap_hint)
    : grid_(&grid),
      cap_(std::max<std::size_t>(4 * soft_cap_hint, std::size_t{1} << 18)) {
    // Boundaries are near_cutoff * 2^k from near_cutoff / 8 up. Finer
    // windows would each rescan every level-0 near cell pair (their band
    // reaches down to 0) for few or no candidates, so they merge into the
    // first window [0, near_cutoff / 8), which splits like any other.
    sliver_floor_ = grid.near_cutoff() * 0x1p-20;
    boundary_ = grid.near_cutoff() * 0x1p-3;
    done_ = grid.levels().empty();
}

bool GridChunkSource::advance_window() {
    while (!done_) {
        if (lo_ > 0.0 && lo_ > grid_->max_distance_bound()) {
            done_ = true;
            break;
        }
        // Collect the geometric window up to the memory cap; while its
        // full count overflows the cap, halve it and collect again
        // (arithmetic midpoint: deterministic, and the sweep stays an
        // exact partition of the weight axis). A sliver that cannot shrink
        // further is an equal-weight mass; collect it whole.
        double hi = boundary_;
        for (;;) {
            collected_.clear();
            if (grid_->collect_window(lo_, hi, collected_, cap_) <= cap_) break;
            if (hi - lo_ <= std::max(lo_, sliver_floor_) * 1e-12) {
                collected_.clear();
                (void)grid_->collect_window(lo_, hi, collected_);
                break;
            }
            hi = lo_ + (hi - lo_) * 0.5;
        }
        served_ = 0;
        // Chunk finalization: the shared weight-key bucketing
        // (core/candidate_order.hpp) orders the window by (weight, u, v).
        scratch_.clear();
        buckets_.append_ordered(
            scratch_,
            [&](auto&& place) {
                for (const GreedyCandidate& c : collected_) place(c);
            },
            ByWeightUV{});
        // Duplicates (a pair covered by several rings, or a near pair
        // doubling as a representative pair) share their weight, hence
        // their window: adjacent after the sort, removed completely here.
        scratch_.erase(std::unique(scratch_.begin(), scratch_.end(),
                                   [](const GreedyCandidate& a, const GreedyCandidate& b) {
                                       return a.weight == b.weight && a.u == b.u &&
                                              a.v == b.v;
                                   }),
                       scratch_.end());
        lo_ = hi;
        if (lo_ >= boundary_) boundary_ *= 2.0;
        if (!scratch_.empty()) return true;
    }
    return false;
}

bool GridChunkSource::next_chunk(std::size_t soft_cap, std::vector<GreedyCandidate>& out) {
    while (served_ >= scratch_.size()) {
        if (!advance_window()) return false;
    }
    const std::size_t take =
        std::min(std::max<std::size_t>(soft_cap, 1), scratch_.size() - served_);
    const std::size_t end = served_ + take;
    out.insert(out.end(), scratch_.begin() + static_cast<std::ptrdiff_t>(served_),
               scratch_.begin() + static_cast<std::ptrdiff_t>(end));
    served_ = end;
    return true;
}

}  // namespace gsp
