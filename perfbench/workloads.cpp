// The four workloads of the end-to-end benchmark.
//
// Three single-instance workloads (graph-accept, geo-longlink,
// grid-stream) build one seeded input over and over through one warm
// SpannerSession; session-mix is a closed loop of one client sending
// seeded requests over every registry entry. Each workload:
//
//   1. sets up (input generation, a fresh session, the untimed cold
//      build that fills pools and workspaces);
//   2. checks the cold build: stretch within its target (exact over the
//      input edges for graphs, sampled sources for point sets);
//   3. times warm builds until `seconds` of build time are measured,
//      checking each build's edge digest against the cold build's.
//
// Set-up is repeated kSetupReps times in all, spread evenly over the
// timed window: each repeat tears the previous session and input down
// (untimed) and sets up afresh, and the warm builds continue on the new
// session. setup_s is the median, so set-ups see the same host drift as
// the builds they precede, and every cold build must repeat the first's
// edges.
//
// The traced run (--trace 1) replaces step 3's loop: it alternates untraced
// builds with traced iterations that time the same build inside a span
// and then replay it layer by layer through the public API -- source
// construction, candidate emission, GreedyEngine::run on the emitted
// candidates at 1 and at 4 threads -- so each layer's time and counters
// are measured from outside.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/audit.hpp"
#include "api/candidate_source.hpp"
#include "api/grid_source.hpp"
#include "api/registry.hpp"
#include "api/session.hpp"
#include "bench.hpp"
#include "core/greedy_engine.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "graph/mst.hpp"
#include "metric/euclidean.hpp"
#include "util/random.hpp"
#include "util/rss.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using gsp::BuildInput;
using gsp::BuildOptions;
using gsp::BuildReport;
using gsp::Graph;
using gsp::GreedyStats;
using gsp::SpannerSession;

constexpr int kSetupReps = 9;                 ///< setups per run; setup_s is their median
constexpr std::size_t kMinTimedBuilds = 3;    ///< even when one build outlasts `seconds`
constexpr std::size_t kPointSources = 16;     ///< sampled stretch sources for point inputs
constexpr std::size_t kParallelThreads = 4;   ///< the multi-core side of the speedup probe

// --------------------------------------------------------------- instances --

/// One generated input: a weighted graph or a point set.
struct Instance {
    std::optional<Graph> graph;
    std::optional<gsp::EuclideanMetric> points;

    [[nodiscard]] BuildInput input() const {
        return graph ? BuildInput::of(*graph) : BuildInput::of(*points);
    }
    [[nodiscard]] std::size_t n() const {
        return graph ? graph->num_vertices() : points->size();
    }
    /// w(MST of the input), the denominator of lightness.
    [[nodiscard]] double mst_weight() const {
        return graph ? gsp::mst_weight(*graph) : gsp::metric_mst_weight(*points);
    }
};

Instance graph_instance(Graph g) {
    Instance inst;
    inst.graph = std::move(g);
    return inst;
}

Instance point_instance(gsp::EuclideanMetric m) {
    Instance inst;
    inst.points = std::move(m);
    return inst;
}

gsp::EuclideanMetric square_points(std::size_t n, gsp::Rng& rng) {
    return gsp::uniform_points(n, 2, std::sqrt(static_cast<double>(n)) * 10.0, rng);
}

// ------------------------------------------------------------------ checks --

/// The stretch check of one build: exact over the input edges of a graph,
/// the library's sampled audit for a point set.
double measure_stretch(const Instance& inst, const Graph& h, double target,
                       SpannerSession& session, std::uint64_t seed) {
    if (inst.graph) return graph_stretch_within(*inst.graph, h, target, session.workspace());
    return gsp::max_stretch_metric_sampled(*inst.points, h, kPointSources, seed,
                                           session.workspace_pool());
}

/// The spanner with every edge at vertex 0 removed: what --corrupt hands
/// the checks in place of a real build's output.
Graph corrupted(const Graph& h) {
    Graph out(h.num_vertices());
    for (const gsp::Edge& e : h.edges()) {
        if (e.u != 0 && e.v != 0) out.add_edge(e.u, e.v, e.weight);
    }
    return out;
}

std::string fmt(const char* format, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, format, value);
    return buf;
}

// ------------------------------------------------------------------ replay --

/// The candidate source the registry builds for an engine algorithm,
/// constructed directly so the traced run can time each layer.
std::unique_ptr<gsp::CandidateSource> make_source(std::string_view algorithm,
                                                  const Instance& inst,
                                                  const BuildOptions& options) {
    if (algorithm == "greedy") return std::make_unique<gsp::GraphCandidateSource>(*inst.graph);
    if (algorithm == "greedy-metric") {
        return std::make_unique<gsp::MetricCandidateSource>(*inst.points);
    }
    if (algorithm == "greedy-wspd") {
        return std::make_unique<gsp::WspdCandidateSource>(
            *inst.points, options.geometric.wspd_separation, options.geometric.epsilon);
    }
    if (algorithm == "greedy-grid") {
        return std::make_unique<gsp::GridCandidateSource>(
            *inst.points, options.geometric.wspd_separation, options.geometric.epsilon);
    }
    if (algorithm == "greedy-approx") {
        return std::make_unique<gsp::BaseSpannerCandidateSource>(*inst.points, options);
    }
    return nullptr;
}

/// One layer-by-layer replay of an engine build.
struct Replay {
    double build_s = 0.0;         ///< the registry build being replayed
    std::size_t candidates = 0;
    double construct_s = 0.0;
    double emit_s = 0.0;
    double run_s = 0.0;           ///< engine run at the workload's thread count
    double run_serial_s = 0.0;    ///< the same candidates at 1 thread
    double run_parallel_s = 0.0;  ///< ... and at kParallelThreads
    GreedyStats stats;            ///< counters of the workload-thread-count run
    GreedyStats parallel_stats;   ///< counters of the kParallelThreads run
    std::size_t steals = 0;       ///< thread-pool steals during the parallel run
    std::size_t light_edges = 0;  ///< approximate greedy's seeded E0 set
    double base_s = 0.0;          ///< approximate greedy's base-spanner construction
};

/// Run the engine over pre-emitted candidates exactly as a session build
/// would configure it, with `threads` workers.
Graph run_engine(gsp::CandidateSource& source, const BuildOptions& options,
                 std::size_t threads, SpannerSession& session,
                 const std::vector<gsp::GreedyCandidate>& candidates, GreedyStats& stats) {
    gsp::GreedyEngineOptions engine_options;
    static_cast<gsp::EngineTuning&>(engine_options) = options.engine;
    engine_options.num_threads = threads;
    engine_options.stretch = options.stretch;
    source.configure_engine(engine_options, session);
    gsp::GreedyEngine engine(source.num_vertices(), std::move(engine_options),
                             session.resources());
    Graph h(source.num_vertices());
    source.seed(h);
    return engine.run(std::move(h), candidates, &stats);
}

/// Replay `algorithm` on `inst` under spans, checking that the serial and
/// parallel engine runs both reproduce `digest`.
Replay replay(std::string_view algorithm, const Instance& inst, const BuildOptions& options,
              SpannerSession& session, Tracer* tracer, std::uint64_t build_id,
              double build_s, std::uint64_t digest, Result& result) {
    Replay out;
    out.build_s = build_s;
    std::unique_ptr<gsp::CandidateSource> source;
    {
        Tracer::Scope span(tracer, "api.source.construct", build_id);
        source = make_source(algorithm, inst, options);
        out.construct_s = span.seconds();
    }
    if (auto* base = dynamic_cast<gsp::BaseSpannerCandidateSource*>(source.get())) {
        out.light_edges = base->light_edges();
        out.base_s = base->seconds_base();
    }

    // Emission mirrors the session's delivery choice: a streaming source
    // is drained chunk by chunk, anything else materializes.
    std::vector<gsp::GreedyCandidate> candidates;
    {
        Tracer::Scope span(tracer, "api.source.emit", build_id);
        if (options.chunking == BuildOptions::Chunking::kMaterialize ||
            source->chunk_support() != gsp::ChunkSupport::kStreaming) {
            source->materialize(candidates);
        } else {
            const auto chunks = source->chunks();
            std::vector<gsp::GreedyCandidate> chunk;
            while (chunks->next_chunk(options.engine.chunk_soft_cap, chunk)) {
                candidates.insert(candidates.end(), chunk.begin(), chunk.end());
                chunk.clear();
            }
        }
        out.emit_s = span.seconds();
    }
    out.candidates = candidates.size();

    const auto engine_run = [&](std::size_t threads, const char* name, GreedyStats& stats) {
        ++result.attempted;
        try {
            Tracer::Scope span(tracer, name, build_id);
            const Graph h = run_engine(*source, options, threads, session, candidates, stats);
            const double seconds = span.seconds();
            if (edge_digest(h) != digest) {
                result.fail(std::string(algorithm) + ": engine run at " +
                            std::to_string(threads) + " thread(s) differs from the build");
            }
            return seconds;
        } catch (const std::exception& e) {
            result.fail(std::string(algorithm) + ": engine run threw: " + e.what());
            return 0.0;
        }
    };
    GreedyStats serial_stats;
    out.run_serial_s = engine_run(1, "core.engine.run_serial", serial_stats);
    gsp::ThreadPool& pool = session.resources().acquire_pool(kParallelThreads);
    const std::size_t steals_before = pool.steal_count();
    out.run_parallel_s = engine_run(kParallelThreads, "core.engine.run", out.parallel_stats);
    out.steals = pool.steal_count() - steals_before;

    // The workload's own engine run: one of the two above, or a third run
    // when it builds at another thread count.
    const std::size_t threads = options.engine.num_threads;
    if (threads == 1) {
        out.run_s = out.run_serial_s;
        out.stats = serial_stats;
    } else if (threads == kParallelThreads) {
        out.run_s = out.run_parallel_s;
        out.stats = out.parallel_stats;
    } else {
        out.run_s = engine_run(threads, "core.engine.run_workload", out.stats);
    }
    return out;
}

// ----------------------------------------------------- per-layer reporting --

/// Everything the traced run aggregates before it reports.
struct LayerTotals {
    std::vector<double> gen_s;
    std::vector<double> traced_build_s;    ///< registry builds inside spans
    std::vector<double> untraced_build_s;  ///< the alternating plain builds
    std::vector<Replay> replays;
    std::vector<double> session_setup_s;   ///< BuildReport::setup_seconds of warm builds
    std::size_t warm_pools = 0;
    std::size_t warm_workspaces = 0;
    std::size_t buffer_peak_bytes = 0;
    std::vector<double> audit_s;
    double max_stretch = 0.0;
    std::map<std::string, std::vector<double>> per_algorithm_s;

    void add_warm(const BuildReport& report) {
        session_setup_s.push_back(report.setup_seconds);
        warm_pools += report.pools_constructed;
        warm_workspaces += report.workspaces_constructed;
        buffer_peak_bytes =
            std::max(buffer_peak_bytes, report.stats.candidate_buffer_peak_bytes);
    }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void report_layers(const LayerTotals& t, const Tracer& tracer, Result& r) {
    const double n_rep = static_cast<double>(std::max<std::size_t>(1, t.replays.size()));
    GreedyStats s;   // sums over replays, workload thread count
    GreedyStats p;   // sums over replays, parallel run
    double build = 0, construct = 0, emit = 0, run = 0, run_serial = 0, run_parallel = 0;
    double candidates = 0, steals = 0, light = 0;
    for (const Replay& x : t.replays) {
        build += x.build_s;
        construct += x.construct_s;
        emit += x.emit_s;
        run += x.run_s;
        run_serial += x.run_serial_s;
        run_parallel += x.run_parallel_s;
        candidates += static_cast<double>(x.candidates);
        steals += static_cast<double>(x.steals);
        light += static_cast<double>(x.light_edges);
        const auto add = [](GreedyStats& a, const GreedyStats& b) {
            a.edges_examined += b.edges_examined;
            a.edges_added += b.edges_added;
            a.dijkstra_runs += b.dijkstra_runs;
            a.balls_computed += b.balls_computed;
            a.cache_hits += b.cache_hits;
            a.csr_rebuilds += b.csr_rebuilds;
            a.csr_compactions += b.csr_compactions;
            a.bidirectional_meets += b.bidirectional_meets;
            a.buckets += b.buckets;
            a.snapshot_accepts += b.snapshot_accepts;
            a.repairs += b.repairs;
            a.repair_reprobes += b.repair_reprobes;
            a.repair_fallbacks += b.repair_fallbacks;
            a.certs_published += b.certs_published;
            a.cert_ball_aborts += b.cert_ball_aborts;
            a.group_probes += b.group_probes;
            a.group_probe_decisions += b.group_probe_decisions;
            a.group_probe_early_exits += b.group_probe_early_exits;
            a.cell_balls += b.cell_balls;
            a.cell_ball_decisions += b.cell_ball_decisions;
            a.coarse_rejects += b.coarse_rejects;
            a.sketch_hits += b.sketch_hits;
            a.sketch_accepts += b.sketch_accepts;
            a.handoff_peak_bytes = std::max(a.handoff_peak_bytes, b.handoff_peak_bytes);
        };
        add(s, x.stats);
        add(p, x.parallel_stats);
    }
    const auto per = [&](std::size_t v) { return static_cast<double>(v) / n_rep; };
    const auto d = [](std::size_t v) { return static_cast<double>(v); };

    r.metric("gen.instance_s", median(t.gen_s), "s");
    r.metric("api.source.construct_s", construct / n_rep, "s");
    r.metric("api.source.emit_s", emit / n_rep, "s");
    r.metric("api.source.candidates", candidates / n_rep, "count");
    r.metric("api.source.buffer_peak_mb", d(t.buffer_peak_bytes) / (1024.0 * 1024.0), "MiB");
    r.metric("api.session.overhead_s",
             (build - construct - emit - run) / n_rep, "s");
    r.metric("api.session.setup_s", mean(t.session_setup_s), "s");
    r.metric("api.session.pools_constructed", d(t.warm_pools), "count");
    r.metric("api.session.workspaces_constructed", d(t.warm_workspaces), "count");
    r.metric("api.registry.build_s_p50", median(t.traced_build_s), "s");
    r.metric("core.engine.run_s", run / n_rep, "s");
    r.metric("core.engine.us_per_cand", ratio(run * 1e6, candidates), "us");
    r.metric("core.engine.accept_rate", ratio(d(s.edges_added), d(s.edges_examined)), "ratio");
    r.metric("core.engine.buckets", per(s.buckets), "count");
    r.metric("core.prefilter_stage.speedup", ratio(run_serial, run_parallel), "x");
    r.metric("core.prefilter_stage.snapshot_accepts", per(p.snapshot_accepts), "count");
    r.metric("core.prefilter_stage.repairs", per(p.repairs), "count");
    r.metric("core.prefilter_stage.repair_reprobes", per(p.repair_reprobes), "count");
    r.metric("core.prefilter_stage.repair_fallbacks", per(p.repair_fallbacks), "count");
    r.metric("core.prefilter_stage.repair_share",
             ratio(d(p.repairs), d(p.repairs + p.repair_fallbacks)), "ratio");
    r.metric("core.prefilter_stage.certs_published", per(p.certs_published), "count");
    r.metric("core.prefilter_stage.cert_ball_aborts", per(p.cert_ball_aborts), "count");
    r.metric("core.prefilter_stage.handoff_peak_bytes", d(p.handoff_peak_bytes), "bytes");
    r.metric("util.thread_pool.steals", steals / n_rep, "count");
    r.metric("graph.dijkstra.runs", per(s.dijkstra_runs), "count");
    r.metric("graph.dijkstra.runs_per_cand", ratio(d(s.dijkstra_runs), d(s.edges_examined)),
             "ratio");
    r.metric("graph.dijkstra.bidirectional_meets", per(s.bidirectional_meets), "count");
    r.metric("graph.dijkstra.balls", per(s.balls_computed), "count");
    r.metric("graph.dijkstra.ball_cache_hits", per(s.cache_hits), "count");
    r.metric("graph.batched_probe.group_probes", per(s.group_probes), "count");
    r.metric("graph.batched_probe.decisions", per(s.group_probe_decisions), "count");
    r.metric("graph.batched_probe.decisions_per_probe",
             ratio(d(s.group_probe_decisions), d(s.group_probes)), "ratio");
    r.metric("graph.batched_probe.early_exit_share",
             ratio(d(s.group_probe_early_exits), d(s.group_probes)), "ratio");
    r.metric("graph.incremental_csr.compactions", per(s.csr_compactions), "count");
    r.metric("graph.incremental_csr.rebuilds", per(s.csr_rebuilds), "count");
    r.metric("core.bound_sketch.hits", per(s.sketch_hits), "count");
    r.metric("core.bound_sketch.accepts", per(s.sketch_accepts), "count");
    r.metric("core.bound_sketch.coarse_rejects", per(s.coarse_rejects), "count");
    r.metric("core.bound_sketch.decided_share",
             ratio(d(s.sketch_hits + s.coarse_rejects), d(s.edges_examined)), "ratio");
    r.metric("geom.cell_balls", per(s.cell_balls), "count");
    r.metric("geom.cell_ball_decisions", per(s.cell_ball_decisions), "count");
    r.metric("geom.cell_ball_share", ratio(d(s.cell_ball_decisions), d(s.edges_examined)),
             "ratio");
    r.metric("core.approx_greedy.light_edges", light / n_rep, "count");
    r.metric("analysis.audit_s", mean(t.audit_s), "s");
    r.metric("analysis.max_stretch", t.max_stretch, "ratio");
    r.metric("trace.overhead_s", median(t.traced_build_s) - median(t.untraced_build_s), "s");

    const std::map<std::string, double> self = tracer.self_seconds();
    for (const char* name : {"bench.setup", "bench.iteration", "gen.instance",
                             "api.registry.build", "api.source.construct", "api.source.emit",
                             "core.engine.run", "core.engine.run_serial", "analysis.audit"}) {
        const auto it = self.find(name);
        r.metric(std::string("trace.self_s.") + name, it == self.end() ? 0.0 : it->second,
                 "s");
    }

    // Session-mix only figures: printed and recorded, not metrics (they
    // are absent from the single-algorithm workloads).
    double base_s = 0.0;
    for (const Replay& x : t.replays) base_s += x.base_s;
    if (base_s > 0.0) r.notes.push_back(fmt("core.approx_greedy.base_s %.6g s (total)", base_s));
    for (const auto& [name, samples] : t.per_algorithm_s) {
        r.notes.push_back("api.registry." + name + ".build_s_p50 " +
                          fmt("%.6g", median(samples)) + " s (" +
                          std::to_string(samples.size()) + " builds)");
    }
}

// ------------------------------------------------------ end-to-end metrics --

void report_end_to_end(const std::vector<double>& build_s, const std::vector<double>& setup_s,
                       double edges_per_vertex, double lightness, Result& r) {
    r.metric("build_s_p50", median(build_s), "s");
    r.metric("setup_s", median(setup_s), "s");
    r.metric("peak_rss_mb", static_cast<double>(gsp::process_peak_rss_kb()) / 1024.0, "MiB");
    r.metric("edges_per_vertex", edges_per_vertex, "edges/vertex");
    r.metric("lightness", lightness, "ratio");
    r.fact("timed_builds", std::to_string(build_s.size()));
    // Printed, not a metric: only session-mix holds ten samples beyond
    // p95; on the single-instance workloads it is the second-largest of
    // ~25 builds, whose run-to-run spread exceeds any usable bound.
    const std::size_t beyond =
        build_s.size() -
        static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(build_s.size())));
    r.notes.push_back("build_s_p95 " + fmt("%.6g", percentile(build_s, 0.95)) + " s (" +
                      std::to_string(beyond) + " of " + std::to_string(build_s.size()) +
                      " builds beyond it)");
}

void common_facts(const Args& args, const std::string& simd_backend, Result& r) {
    r.fact("workload", args.workload);
    r.fact("seed", std::to_string(args.seed));
    r.fact("nproc", std::to_string(std::thread::hardware_concurrency()));
    r.fact("simd_backend", simd_backend);
    r.fact("compiler", PERFBENCH_COMPILER);
    r.fact("build_type", PERFBENCH_BUILD_TYPE);
    r.fact("shape", args.smoke ? "smoke" : "full");
    r.fact("setup_reps", std::to_string(kSetupReps));
}

// ------------------------------------------------- single-instance workloads --

struct SingleSpec {
    const char* algorithm;
    std::function<Instance(gsp::Rng&)> generate;
    BuildOptions options;
    std::string description;
};

Result run_single(const Args& args, const SingleSpec& spec) {
    Result r;
    Tracer tracer;
    Tracer* tr = args.trace ? &tracer : nullptr;
    const gsp::AlgorithmRegistry& registry = gsp::AlgorithmRegistry::global();
    LayerTotals layers;
    std::uint64_t build_id = 0;

    // 1. One set-up replaces the session and instance the warm builds use.
    //    The previous ones are torn down first, outside the timed span
    //    (on geo-longlink that joins a 4-thread pool).
    std::vector<double> setup_s;
    std::unique_ptr<SpannerSession> session;
    std::optional<Instance> inst;
    std::optional<Graph> reference;
    BuildReport cold;
    std::uint64_t digest = 0;
    int setups = 0;
    const auto set_up = [&] {
        const int rep = setups++;
        ++r.attempted;
        session.reset();
        inst.reset();
        Graph h;
        double seconds = 0.0;
        try {
            Tracer::Scope setup(tr, "bench.setup", ++build_id);
            {
                Tracer::Scope gen(tr, "gen.instance", build_id);
                gsp::Rng rng(args.seed);
                inst = spec.generate(rng);
                layers.gen_s.push_back(gen.seconds());
            }
            session = std::make_unique<SpannerSession>();
            Tracer::Scope build(tr, "api.registry.build", build_id);
            h = registry.build(spec.algorithm, *session, inst->input(), spec.options, &cold);
            seconds = setup.seconds();
        } catch (const std::exception& e) {
            session.reset();  // ends the run: no warm builds without a set-up
            r.fail(std::string("cold build threw: ") + e.what());
            return;
        }
        setup_s.push_back(seconds);
        if (!reference) {
            digest = edge_digest(h);
            reference = std::move(h);
        } else if (edge_digest(h) != digest) {
            r.fail("cold build " + std::to_string(rep) + " differs from the first");
        }
    };
    set_up();
    common_facts(args, cold.simd_backend, r);
    r.fact("algorithm", spec.algorithm);
    r.fact("threads", std::to_string(spec.options.engine.num_threads));
    r.fact("instance", spec.description);
    if (!reference || !session) return r;

    // 2. Check the reference build once: stretch and the quality figures.
    const auto check_stretch = [&](const Graph& h, const BuildReport& report) {
        Tracer::Scope audit(tr, "analysis.audit", build_id);
        const double stretch = measure_stretch(*inst, h, report.stretch_target, *session,
                                               args.seed);
        layers.audit_s.push_back(audit.seconds());
        layers.max_stretch = std::max(layers.max_stretch, stretch);
        return stretch_ok(stretch, report.stretch_target)
                   ? std::string()
                   : fmt("stretch %.6g", stretch) +
                         fmt(" exceeds target %.6g; ", report.stretch_target);
    };
    if (std::string problem = check_stretch(*reference, cold); !problem.empty()) {
        r.fail("cold build: " + problem);
    }
    const double n = static_cast<double>(inst->n());
    const double edges_per_vertex = static_cast<double>(reference->num_edges()) / n;
    const double lightness = reference->total_weight() / inst->mst_weight();
    r.fact("vertices", std::to_string(inst->n()));
    r.fact("candidates", std::to_string(cold.candidates));
    r.fact("spanner_edges", std::to_string(reference->num_edges()));

    // 3. Warm builds. Untraced: every build is timed. Traced: even builds
    //    are traced iterations (span-wrapped build + layer replay), odd
    //    builds are the untraced comparison for the tracing overhead.
    std::vector<double> build_s;
    double measured = 0.0;
    const Tracer::Scope window(nullptr, "window", 0);
    for (std::size_t i = 0;; ++i) {
        const double progress = args.trace ? window.seconds() : measured;
        if (progress >= args.seconds && i >= kMinTimedBuilds) break;
        while (setups < kSetupReps && progress * kSetupReps >= setups * args.seconds) set_up();
        if (!session) break;
        const bool traced = args.trace && i % 2 == 0;
        ++r.attempted;
        ++build_id;
        Tracer::Scope iteration(traced ? tr : nullptr, "bench.iteration", build_id);
        BuildReport report;
        Graph h;
        double seconds = 0.0;
        {
            Tracer::Scope build(traced ? tr : nullptr, "api.registry.build", build_id);
            try {
                h = registry.build(spec.algorithm, *session, inst->input(), spec.options,
                                   &report);
                seconds = build.seconds();
            } catch (const std::exception& e) {
                measured += build.seconds();  // a failing build still ends the window
                r.fail(std::string("warm build threw: ") + e.what());
                continue;
            }
        }
        build_s.push_back(seconds);
        measured += seconds;
        layers.add_warm(report);
        std::string problem;
        if (args.corrupt && i == 0) {
            h = corrupted(h);
            problem += check_stretch(h, report);
        }
        if (edge_digest(h) != digest) problem += "edge set differs from the cold build";
        if (!problem.empty()) r.fail("warm build " + std::to_string(i) + ": " + problem);
        if (!args.trace) continue;
        (traced ? layers.traced_build_s : layers.untraced_build_s).push_back(seconds);
        if (traced) {
            layers.replays.push_back(replay(spec.algorithm, *inst, spec.options, *session, tr,
                                            build_id, seconds, digest, r));
        }
    }
    while (setups < kSetupReps) set_up();

    if (args.trace) {
        report_layers(layers, tracer, r);
        if (!args.trace_out.empty()) tracer.write(args.trace_out, r.facts);
    } else {
        report_end_to_end(build_s, setup_s, edges_per_vertex, lightness, r);
    }
    return r;
}

// ----------------------------------------------------------- session-mix --

/// The closed-loop request mix: one client, one warm session, requests
/// over every registry entry at three sizes from a small instance pool.
Result run_session_mix(const Args& args) {
    Result r;
    Tracer tracer;
    Tracer* tr = args.trace ? &tracer : nullptr;
    const gsp::AlgorithmRegistry& registry = gsp::AlgorithmRegistry::global();
    LayerTotals layers;
    std::uint64_t build_id = 0;

    const std::vector<std::size_t> sizes = args.smoke ? std::vector<std::size_t>{32, 64, 128}
                                                      : std::vector<std::size_t>{256, 512, 1024};
    constexpr std::size_t kPoolPerSize = 3;  ///< instances per (input kind, size)
    constexpr std::size_t kMinBlocks = 8;    ///< >= kPoolPerSize, see the request loop
    // baswana-sen is left out of the mix: the library's implementation
    // breaks its stretch bound 2k - 1 on some seeded inputs (stretch 3.02
    // at k = 2 on one n = 512 instance of seed 2135749624; about one seed
    // in thirty). Its phase 2 reads adjacency lists from which phase 1
    // dropped an edge on one side only. It rejoins the mix once fixed.
    std::vector<const gsp::AlgorithmInfo*> algorithms = registry.algorithms();
    std::erase_if(algorithms,
                  [](const gsp::AlgorithmInfo* a) { return a->name == "baswana-sen"; });

    BuildOptions options;  // serial: the small-request serving shape
    options.stretch = 2.0;

    // Pool layout: pool[size][kind][i], kind 0 = graph, 1 = point set.
    using Pool = std::vector<std::vector<std::vector<Instance>>>;
    const auto generate_pool = [&] {
        Pool pool(sizes.size());
        gsp::Rng rng(args.seed);
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            pool[s].resize(2);
            for (std::size_t i = 0; i < kPoolPerSize; ++i) {
                pool[s][0].push_back(graph_instance(
                    gsp::random_graph_nm(sizes[s], 8 * sizes[s], {.lo = 1.0, .hi = 2.0}, rng)));
                pool[s][1].push_back(point_instance(square_points(sizes[s], rng)));
            }
        }
        return pool;
    };
    const auto kind_of = [](const gsp::AlgorithmInfo* a) {
        return a->input == gsp::InputKind::kGraph ? 0 : 1;
    };

    // Per distinct (algorithm, size, instance) key: the first build's
    // digest. The first build is also stretch- and (engine algorithms)
    // naive-checked, and feeds the quality figures.
    using Key = std::tuple<std::size_t, std::size_t, std::size_t>;
    std::map<Key, std::uint64_t> keys;
    std::map<std::tuple<std::size_t, int, std::size_t>, double> mst_weight;  // per input
    double sum_edges = 0.0, sum_vertices = 0.0;
    std::vector<double> log_lightness;  // geometric mean: each algorithm counts equally
    std::unique_ptr<SpannerSession> session;
    Pool pool;
    std::string simd_backend;

    const auto check = [&](std::size_t a, std::size_t s, std::size_t i, const Graph& h,
                           const BuildReport& report) -> std::string {
        const std::string name(algorithms[a]->name);
        const Instance& inst = pool[s][kind_of(algorithms[a])][i];
        const auto key = std::make_tuple(a, s, i);
        const std::uint64_t digest = edge_digest(h);
        if (const auto it = keys.find(key); it != keys.end()) {
            return digest == it->second ? "" : "a repeated request built a different edge set";
        }
        keys[key] = digest;
        std::string problem;
        {
            Tracer::Scope audit(tr, "analysis.audit", build_id);
            const double stretch =
                measure_stretch(inst, h, report.stretch_target, *session, args.seed);
            layers.audit_s.push_back(audit.seconds());
            layers.max_stretch = std::max(layers.max_stretch, stretch);
            if (!stretch_ok(stretch, report.stretch_target)) {
                problem += fmt("stretch %.6g", stretch) +
                           fmt(" exceeds target %.6g; ", report.stretch_target);
            }
        }
        if (algorithms[a]->uses_engine && s == 0) {
            // The naive kernel is quadratic-ish in candidates (28 s for
            // greedy-metric at n = 1024), so it checks the smallest size.
            BuildOptions naive = options;
            naive.engine = gsp::EngineTuning::naive();
            const Graph reference = registry.build(name, *session, inst.input(), naive);
            if (edge_digest(reference) != digest) problem += "differs from the naive engine";
        }
        sum_edges += static_cast<double>(h.num_edges());
        sum_vertices += static_cast<double>(inst.n());
        const auto input_key = std::make_tuple(s, kind_of(algorithms[a]), i);
        if (!mst_weight.count(input_key)) mst_weight[input_key] = inst.mst_weight();
        log_lightness.push_back(std::log(h.total_weight() / mst_weight[input_key]));
        return problem;
    };

    /// One request through the registry, then its output checks; returns
    /// the build's wall time, negated when the build threw.
    const auto request = [&](std::size_t a, std::size_t s, std::size_t i, bool traced,
                             bool warm) -> double {
        const std::string name(algorithms[a]->name);
        const Instance& inst = pool[s][kind_of(algorithms[a])][i];
        ++r.attempted;
        BuildReport report;
        Graph h;
        double seconds = 0.0;
        {
            Tracer::Scope build(traced ? tr : nullptr, "api.registry.build", build_id);
            try {
                h = registry.build(name, *session, inst.input(), options, &report);
                seconds = build.seconds();
            } catch (const std::exception& e) {
                r.fail(name + ": build threw: " + e.what());
                return -build.seconds();
            }
        }
        if (simd_backend.empty() && algorithms[a]->uses_engine) simd_backend = report.simd_backend;
        if (warm) layers.add_warm(report);
        try {
            if (std::string problem = check(a, s, i, h, report); !problem.empty()) {
                r.fail(name + ": " + problem);
            }
        } catch (const std::exception& e) {
            r.fail(name + ": check threw: " + e.what());
        }
        if (traced && algorithms[a]->uses_engine) {
            layers.replays.push_back(
                replay(name, inst, options, *session, tr, build_id, seconds, keys[{a, s, i}], r));
        }
        return seconds;
    };

    // 1. Set-up: pool generation, a fresh session, and a warm-up pass that
    //    builds every algorithm once on the largest instance. It replaces
    //    the session and pool the request loop uses; the previous ones are
    //    torn down first, outside the timed span. Repeats are spread over
    //    the loop, as in run_single.
    std::vector<double> setup_s;
    int setups = 0;
    const auto set_up = [&] {
        ++setups;
        session.reset();
        pool.clear();
        Tracer::Scope setup(tr, "bench.setup", ++build_id);
        double check_s = 0.0;
        {
            Tracer::Scope gen(tr, "gen.instance", build_id);
            pool = generate_pool();
            layers.gen_s.push_back(gen.seconds());
        }
        session = std::make_unique<SpannerSession>();
        for (std::size_t a = 0; a < algorithms.size(); ++a) {
            // The first pass's checks run here too; they are not setup.
            const Tracer::Scope total(nullptr, "", 0);
            const double seconds = request(a, sizes.size() - 1, 0, false, false);
            check_s += total.seconds() - std::abs(seconds);
        }
        setup_s.push_back(setup.seconds() - check_s);
    };
    set_up();
    common_facts(args, simd_backend, r);
    r.fact("algorithms", std::to_string(algorithms.size()));
    r.fact("sizes", std::to_string(sizes[0]) + "," + std::to_string(sizes[1]) + "," +
                        std::to_string(sizes[2]));
    r.fact("pool_per_size", std::to_string(kPoolPerSize));
    r.fact("loop", "closed, 1 client, zero think time");

    // 2. The request loop: each block sends one request per (algorithm,
    //    size) class in seeded order, and a class cycles through its pool
    //    instances block by block, so any kPoolPerSize consecutive blocks
    //    request every key once. The run stops at the first block
    //    boundary past `seconds` of build time (wall time when traced) and
    //    after at least kMinBlocks blocks: every run sends the same class
    //    mix and covers every key, later blocks repeat requests, and at
    //    least 10 samples lie beyond p95 (8 blocks = 216 requests).
    gsp::Rng rng(args.seed ^ 0x5e55'1011'0000'0000ULL);
    std::vector<std::pair<std::size_t, std::size_t>> classes;
    std::vector<std::size_t> first_instance;  // per class, seeded
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
        for (std::size_t s = 0; s < sizes.size(); ++s) {
            classes.emplace_back(a, s);
            first_instance.push_back(rng.index(kPoolPerSize));
        }
    }
    std::vector<std::size_t> order(classes.size());
    for (std::size_t c = 0; c < order.size(); ++c) order[c] = c;
    std::vector<double> build_s;
    double measured = 0.0;
    std::size_t requests = 0, repeats = 0;
    const Tracer::Scope window(nullptr, "window", 0);
    for (std::size_t b = 0;; ++b) {
        const double progress = args.trace ? window.seconds() : measured;
        if (b >= kMinBlocks && progress >= args.seconds) break;
        while (setups < kSetupReps && progress * kSetupReps >= setups * args.seconds) set_up();
        rng.shuffle(order);
        for (const std::size_t c : order) {
            const auto [a, s] = classes[c];
            const std::size_t i = (first_instance[c] + b) % kPoolPerSize;
            ++requests;
            if (keys.count({a, s, i})) ++repeats;
            const bool traced = args.trace && requests % 2 == 0;
            ++build_id;
            const double seconds = [&] {
                Tracer::Scope iteration(traced ? tr : nullptr, "bench.iteration", build_id);
                return request(a, s, i, traced, true);
            }();
            if (seconds < 0.0) {
                measured -= seconds;  // a failing request still ends the window
                continue;
            }
            build_s.push_back(seconds);
            measured += seconds;
            layers.per_algorithm_s[std::string(algorithms[a]->name)].push_back(seconds);
            if (args.trace) {
                (traced ? layers.traced_build_s : layers.untraced_build_s).push_back(seconds);
            }
        }
    }
    while (setups < kSetupReps) set_up();
    r.fact("requests", std::to_string(requests));
    r.fact("distinct_requests", std::to_string(keys.size()));
    r.fact("repeat_share", fmt("%.4f", ratio(static_cast<double>(repeats),
                                             static_cast<double>(requests))));

    if (args.trace) {
        report_layers(layers, tracer, r);
        if (!args.trace_out.empty()) tracer.write(args.trace_out, r.facts);
    } else {
        report_end_to_end(build_s, setup_s, ratio(sum_edges, sum_vertices),
                          std::exp(mean(log_lightness)), r);
        // Printed, not a metric: a gated metric must exist on every
        // workload, and on the single-instance ones this is 1/mean(build_s).
        r.notes.push_back("builds_per_s " +
                          fmt("%.6g", ratio(static_cast<double>(build_s.size()), measured)) +
                          " 1/s (closed loop, 1 client)");
    }
    return r;
}

}  // namespace

// ------------------------------------------------------------- dispatcher --

Result run_workload(const Args& args) {
    const bool smoke = args.smoke;
    if (args.workload == "graph-accept") {
        const std::size_t n = smoke ? 256 : 2048;
        SingleSpec spec{"greedy",
                        [n](gsp::Rng& rng) {
                            return graph_instance(gsp::random_graph_nm(
                                n, 16 * n, {.lo = 1.0, .hi = 2.0}, rng));
                        },
                        {},
                        "random_graph_nm(n=" + std::to_string(n) + ", m=16n, w in [1,2])"};
        spec.options.stretch = 2.0;
        // Serial at n = 2048: 4 threads buy nothing on this accept-heavy
        // shape (~1.0x at n = 4096, 0.39x here), and on a shared 4-vCPU
        // host build_s_p50 spread 26% over ten seeds at 4 threads and
        // 14-26% serial at n = 4096, against 7% here. The traced run still
        // replays every build at 1 and 4 threads.
        spec.options.engine.num_threads = 1;
        return run_single(args, spec);
    }
    if (args.workload == "geo-longlink") {
        const std::size_t n = smoke ? 512 : 8192;
        const double radius = 3.0 / std::sqrt(static_cast<double>(n));
        SingleSpec spec{"greedy",
                        [n, radius](gsp::Rng& rng) {
                            return graph_instance(gsp::random_geometric(n, radius, rng, true));
                        },
                        {},
                        "random_geometric(n=" + std::to_string(n) +
                            ", r=3/sqrt(n), ensure_connected)"};
        spec.options.stretch = 2.0;
        // Two threads, not four: on a shared 4-vCPU host, four workers
        // compete with other tenants for every core, and build_s_p50 spread
        // 0.22 over five interleaved seeds against 0.05 at two threads
        // (1.19 s per build against 0.69 s). The traced run still replays
        // every build at 1 and 4 threads for the speedup probe.
        spec.options.engine.num_threads = 2;
        return run_single(args, spec);
    }
    if (args.workload == "grid-stream") {
        const std::size_t n = smoke ? 512 : 4096;
        SingleSpec spec{"greedy-grid",
                        [n](gsp::Rng& rng) { return point_instance(square_points(n, rng)); },
                        {},
                        "uniform_points(n=" + std::to_string(n) + ", 2D), separation 5"};
        spec.options.stretch = 2.0;
        spec.options.engine.num_threads = 1;
        spec.options.geometric.wspd_separation = 5.0;
        return run_single(args, spec);
    }
    if (args.workload == "session-mix") return run_session_mix(args);
    throw std::invalid_argument("unknown workload \"" + args.workload + "\"");
}

}  // namespace perfbench
