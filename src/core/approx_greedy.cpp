#include "core/approx_greedy.hpp"

#include "api/candidate_source.hpp"
#include "api/session.hpp"

namespace gsp {

ApproxGreedyResult approx_greedy_spanner(const MetricSpace& m, double epsilon) {
    SpannerSession session;
    BuildOptions options;
    options.approx.epsilon = epsilon;
    return approx_greedy_build(session, m, options);
}

}  // namespace gsp
