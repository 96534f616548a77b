// Degenerate point inputs, table-driven over every point-input registry
// entry: n in {0, 1, 2}, duplicate points, collinear points, NaN and
// +Inf coordinates, and coordinates spanning 1e-150 .. 1e150. Each build
// must either meet its own stretch_target (checked with the exact
// all-pairs audit) or refuse the input with std::invalid_argument --
// never hang, never return a spanner that misses its guarantee, and never
// fail with any other exception type.
#include "api/registry.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/audit.hpp"
#include "api/build_options.hpp"
#include "api/session.hpp"
#include "metric/euclidean.hpp"

namespace gsp {
namespace {

struct PointCase {
    const char* name;
    std::vector<double> coords;  ///< flat 2D coordinates
};

std::vector<PointCase> point_cases() {
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<PointCase> cases = {
        {"n=0", {}},
        {"n=1", {0.5, -2.0}},
        {"n=2", {0.0, 0.0, 3.0, 4.0}},
        {"duplicates", {0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 2.0, 3.0, 1.0, 0.0, 5.0, 1.0}},
        {"nan", {0.0, 0.0, 1.0, 0.0, kNaN, 1.0, 2.0, 2.0}},
        {"inf", {0.0, 0.0, 1.0, 0.0, kInf, 1.0, 2.0, 2.0}},
    };
    PointCase collinear{"collinear", {}};
    for (int i = 0; i < 10; ++i) {
        collinear.coords.push_back(1.5 * i);
        collinear.coords.push_back(3.0 * i + 1.0);
    }
    cases.push_back(collinear);
    // Magnitudes 1e-150 .. 1e150: squared distances stay finite (<= 1e300
    // per axis), so the metric is well defined -- but ratios between
    // candidate weights span 300 orders of magnitude.
    PointCase wide{"wide-range", {}};
    for (int e = -150; e <= 150; e += 30) {
        const double x = std::stod("1e" + std::to_string(e));
        wide.coords.push_back(x);
        wide.coords.push_back(e % 60 == 0 ? -x : 0.5 * x);
    }
    cases.push_back(wide);
    return cases;
}

TEST(DegeneratePointsTest, EveryPointEntryMeetsItsTargetOrRefuses) {
    const AlgorithmRegistry& registry = AlgorithmRegistry::global();
    for (const AlgorithmInfo* info : registry.algorithms()) {
        if (info->input == InputKind::kGraph) continue;
        for (const PointCase& c : point_cases()) {
            const std::string label = std::string(info->name) + " on " + c.name;
            SpannerSession session;
            try {
                const EuclideanMetric m(2, c.coords);
                BuildReport report;
                const Graph h = registry.build(info->name, session, BuildInput::of(m),
                                               BuildOptions{}, &report);
                ASSERT_EQ(h.num_vertices(), m.size()) << label;
                const double stretch = max_stretch_metric(m, h);
                EXPECT_LE(stretch, report.stretch_target * (1.0 + 1e-12))
                    << label << ": " << h.num_edges() << " edges";
            } catch (const std::invalid_argument&) {
                // Refusing the input is a valid outcome.
            } catch (const std::exception& e) {
                ADD_FAILURE() << label << " threw a non-invalid_argument exception: "
                              << e.what();
            }
        }
    }
}

TEST(DegeneratePointsTest, NonFiniteCoordinatesAreRefusedAtConstruction) {
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    EXPECT_THROW(EuclideanMetric(2, {0.0, kNaN}), std::invalid_argument);
    EXPECT_THROW(EuclideanMetric(2, {kInf, 0.0}), std::invalid_argument);
    EXPECT_THROW(EuclideanMetric(1, {0.0, -kInf}), std::invalid_argument);
    EXPECT_NO_THROW(EuclideanMetric(2, {1e150, -1e-150}));
}

}  // namespace
}  // namespace gsp
