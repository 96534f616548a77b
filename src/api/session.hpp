// The reusable build session: the unified front door of the library.
//
// A SpannerSession owns the expensive half of the greedy machinery -- the
// stage-2 thread pools, the serial and per-worker Dijkstra workspaces, the
// bound-sketch and landmark arenas, and the candidate materialization
// buffer -- and keeps it warm across build() calls. The one-shot entry
// points (greedy_spanner, greedy_spanner_metric, ...) are sessions that
// live for a single call; a request-serving process keeps one session per
// serving thread, and every warm build() pays zero pool / workspace
// construction (BuildReport::pools_constructed / workspaces_constructed
// certify it; the session-reuse bench probe tracks it in
// BENCH_greedy.json v4).
//
// Reuse never changes results: every run's decisions *and stats* are a
// pure function of (candidates, options) -- a session reused across
// heterogeneous builds returns bit-identical edge sets and reports to
// fresh sessions (property-tested in tests/api_equivalence_test.cpp).
//
// Usage:
//   SpannerSession session;
//   BuildOptions options;
//   options.stretch = 2.0;
//   options.engine.num_threads = 4;
//   GraphCandidateSource source(g);
//   BuildReport report;
//   Graph h = session.build(source, options, &report);
//
// Name-keyed builds over the algorithm registry (theta, yao, baswana-sen,
// ...) go through AlgorithmRegistry::build (api/registry.hpp), which
// threads a session through uniformly.
#pragma once

#include <cstddef>
#include <vector>

#include "api/build_options.hpp"
#include "api/build_report.hpp"
#include "core/candidate_stream.hpp"
#include "core/greedy_engine.hpp"
#include "graph/graph.hpp"
#include "util/annotations.hpp"

namespace gsp {

class CandidateSource;

class SpannerSession {
public:
    SpannerSession() = default;
    SpannerSession(const SpannerSession&) = delete;
    SpannerSession& operator=(const SpannerSession&) = delete;

    /// Run the greedy engine over `source` under `options`. Validates the
    /// options, zeroes `*report`, and fills it with this build's counters
    /// (see BuildReport). Thread pools and workspaces are acquired from
    /// the session cache -- warm on every call after the first of a given
    /// shape.
    GSP_SERIAL_ONLY Graph build(CandidateSource& source, const BuildOptions& options,
                                BuildReport* report = nullptr);

    /// The shared resource arena (pools, workspaces, sketch and landmark
    /// tables) -- what the engine borrows each build.
    [[nodiscard]] EngineResources& resources() { return resources_; }

    /// The serial-loop workspace: reuse it for audits and reroutes between
    /// builds instead of allocating ad-hoc workspaces.
    [[nodiscard]] DijkstraWorkspace& workspace() { return resources_.workspace(); }

    /// The per-worker workspace pool (analysis/audit and spanners/reroute
    /// take it directly via their pool overloads).
    [[nodiscard]] DijkstraWorkspacePool& workspace_pool() {
        return resources_.workspace_pool();
    }

    /// build() calls completed over this session's lifetime.
    [[nodiscard]] std::size_t builds() const { return builds_; }

private:
    EngineResources resources_;
    std::vector<GreedyCandidate> candidates_;  ///< reused materialization buffer
    std::size_t builds_ = 0;
};

}  // namespace gsp
