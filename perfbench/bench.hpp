// Shared pieces of the end-to-end benchmark: command-line arguments, the
// result record every workload fills, the in-memory span tracer of the
// traced run, and the output checks that feed `failed`.
//
// The benchmark drives the library only through its public API
// (AlgorithmRegistry::build, SpannerSession, the candidate sources,
// GreedyEngine::run) and measures every layer from outside: spans wrap
// the calls the benchmark makes, never code inside src/.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"

namespace perfbench {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< measured build time per run
    bool trace = false;     ///< the traced run: per-layer metrics instead of end-to-end
    bool smoke = false;     ///< tiny shapes that finish in seconds (the self-test's mode)
    bool corrupt = false;   ///< damage one timed build's spanner: the checks must count it
    std::string trace_out;  ///< file the traced run writes its spans to ("" = none)
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// What one workload run reports.
struct Result {
    std::size_t attempted = 0;  ///< builds run (cold, timed, traced replays)
    std::size_t failed = 0;     ///< builds that threw or failed a check
    std::vector<std::string> failures;  ///< the first few failure messages
    std::vector<Metric> metrics;
    std::vector<std::pair<std::string, std::string>> facts;
    std::vector<std::string> notes;  ///< extra human-readable lines

    void metric(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void fact(std::string key, std::string value) {
        facts.emplace_back(std::move(key), std::move(value));
    }
    void fail(std::string message) {
        ++failed;
        if (failures.size() < 8) failures.push_back(std::move(message));
    }
};

/// Run the named workload; throws std::invalid_argument on an unknown name.
Result run_workload(const Args& args);

// ------------------------------------------------------------------ tracer --

/// One recorded span: a named interval, the span that caused it, and the
/// build it belongs to.
struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the tracer was created
    double end = 0.0;
    int parent = -1;     ///< index of the parent span, -1 for a root
    std::uint64_t build_id = 0;
};

/// Keeps spans in memory; written out once, when the run ends. Spans nest
/// by scope: a span opened while another is open becomes its child. The
/// benchmark is single-threaded, so children of one span never overlap.
class Tracer {
public:
    /// A span around the enclosing scope. With `tracer` null nothing is
    /// recorded (the untraced path), but the scope still measures time.
    class Scope {
    public:
        Scope(Tracer* tracer, std::string name, std::uint64_t build_id);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        /// Seconds since the span opened.
        [[nodiscard]] double seconds() const;

    private:
        Tracer* tracer_;  ///< null when tracing is off: the scope only times
        int index_ = -1;
        std::chrono::steady_clock::time_point start_;
    };

    /// Per span name: total duration minus the time its child spans cover.
    [[nodiscard]] std::map<std::string, double> self_seconds() const;

    /// Write the spans as Chrome trace-event JSON (chrome://tracing,
    /// Perfetto), with `facts` as the process metadata.
    void write(const std::string& path,
               const std::vector<std::pair<std::string, std::string>>& facts) const;

private:
    [[nodiscard]] double now() const;

    std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;  ///< stack of open span indices
};

// ------------------------------------------------------------------ checks --

/// Order-independent 64-bit digest of an edge set: equal for two graphs
/// with the same edges (endpoints and exact weight bits), in any order.
[[nodiscard]] std::uint64_t edge_digest(const gsp::Graph& h);

/// Exact maximum stretch of h over the edges of g, where each pair is
/// probed only up to `target` (plus rounding slack): the result is exact
/// when it is within the target and +infinity otherwise. One bounded
/// one-sided Dijkstra query per input edge, so the cost tracks a build's
/// rather than the n full Dijkstra runs of an unbounded audit. It is
/// deliberately not the engine's bidirectional query: a fault in that
/// kernel's stopping rule cannot pass both the build and this check.
[[nodiscard]] double graph_stretch_within(const gsp::Graph& g, const gsp::Graph& h,
                                          double target, gsp::DijkstraWorkspace& ws);

/// True when a measured stretch meets its target, allowing the last-ulp
/// reassociation the engine's bidirectional queries permit.
[[nodiscard]] inline bool stretch_ok(double stretch, double target) {
    return stretch <= target * (1.0 + 1e-9);
}

// -------------------------------------------------------------- statistics --

/// Median of the samples (0 for none).
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile q in (0, 1] of the samples (0 for none).
[[nodiscard]] double percentile(std::vector<double> v, double q);

[[nodiscard]] double mean(const std::vector<double>& v);

}  // namespace perfbench
