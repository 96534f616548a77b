// Shared harness for the greedy-kernel configuration sweep and the
// machine-readable BENCH_greedy.json artifact.
//
// Both bench_runtime (full-size sweep, the perf-trajectory source of truth)
// and bench_micro (CI smoke that validates the schema) emit the same JSON
// shape, version-tagged "gsp.bench_greedy.v12", built on the library's
// shared JsonWriter + append_greedy_stats serializer (src/api/build_report)
// instead of hand-rolled streams:
//
//   {
//     "schema": "gsp.bench_greedy.v12",
//     "source": "<bench binary>",
//     "stretch": <t>,
//     "instance": {"kind": ..., "n": ..., "m": ...},
//     "configs": [
//       {"name": ..., "bidirectional": ..., "ball_sharing": ...,
//        "bound_sketch": ..., "seconds": ...,
//        "edges": ..., "matches_naive": ..., "handoff_bytes": ...,
//        "bytes_per_candidate": ..., "rss_delta_kb": ..., "stats": {...}},
//       ...],
//     "metric_probe": {...},        // bench_runtime only (optional)
//     "session_probe": {...},       // the session-reuse probe (v4)
//     "mem_probe": {...},           // the linear-space probe (v5, required)
//     "time_probe": {...},          // the cell-batched probe (v6, required)
//     "peak_rss_kb": <ru_maxrss>,
//     "speedup_full_vs_naive": <naive seconds / full seconds>
//   }
//
// v2 added the memory trajectory (handoff bytes-per-candidate, peak RSS,
// the metric-workload probe); v3 the speculative-accept counters and the
// accept-heavy probe. v4 (the unified API) adds the session-reuse probe:
// the same instance built repeatedly through one SpannerSession vs a fresh
// session per call, with the per-call thread-pool / workspace construction
// counters -- warm calls must report zero of each (enforced by
// scripts/validate_bench_json.py), certifying the warm-start contract of
// the request-serving path.
//
// v5 (chunked candidate streaming) makes the RSS accounting honest and
// adds the memory probe. Before, a single getrusage() at JSON-write time
// attributed the process-lifetime maximum to every row; now every config
// row and every probe samples ru_maxrss before and after and reports the
// delta (the high-water mark is monotone, so a zero delta means the phase
// fit inside already-touched memory). The required "mem_probe" object
// builds a t = 2 spanner over the grid-pruned streaming candidate source
// on uniform and clustered 2D instances -- n = 10^6 by default in
// bench_runtime, 10^5 in bench_micro's per-PR smoke, overridable with
// GSP_MEM_PROBE_N -- and must stay inside a fixed linear RSS budget
// (enforced by the validator), certifying the linear-space claim end to
// end: candidates are streamed one window at a time, never materialized.
//
// v7 (multi-target group probes) adds the required "group_probe" object:
// the same instance built with the (since removed) GroupProbing knob at
// kOff (the per-candidate baseline) and kOn (one batched traversal deciding a whole
// source group), on both the metric all-pairs and the graph shapes, each
// normalized to microseconds per streamed candidate. The kOn run's
// group-probe counters attribute the amortization (mean group size,
// early-termination share), and the validator enforces bit-identical edge
// sets plus the 1.05x us/candidate regression floor of the metric arm on the reduced
// CI shape.
//
// v8 added a "simd_probe" object timing the runtime-dispatched vector
// kernels against their scalar references, plus a "simd_backend" field on
// the time and group probes. v9 drops all three: the engine's loops are
// plain scalar code again, so there is no backend to ablate or record.
//
// v10 drops the v3 speculative-accept columns: the "accept_probe" object
// and the metric probe's "repairs" / "repair_fallbacks", together with the
// repair keys of every config's "stats". The engine's stage 2 is the
// reject-only prefilter again, so there is no repair to count.
//
// v11 drops the v7 "group_probe" object. Its kOff arm was a user knob
// that no longer exists: the candidate source picks the group mechanism
// (cell balls for the grid, group probes for everything else), so there
// is no per-candidate baseline left to ablate against. The group-probe
// counters stay in every config's "stats".
//
// v12 drops the "csr_snapshot" key of every config row, and the ladder's
// "csr_snapshot" and "bidirectional+csr" rows with it: every engine
// configuration probes the incremental CSR view, so those rows would
// repeat "naive" and "bidirectional".
//
// The output path defaults to BENCH_greedy.json in the working directory;
// override with the GSP_BENCH_JSON environment variable.
// scripts/validate_bench_json.py checks the schema in CI.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/build_report.hpp"
#include "api/candidate_source.hpp"
#include "api/grid_source.hpp"
#include "api/session.hpp"
#include "core/greedy.hpp"
#include "gen/graphs.hpp"
#include "gen/points.hpp"
#include "graph/graph.hpp"
#include "metric/euclidean.hpp"
#include "util/json.hpp"
#include "util/random.hpp"
#include "util/rss.hpp"
#include "util/timer.hpp"

namespace gsp::benchutil {

struct KernelConfig {
    const char* name;
    bool bidirectional;
    bool ball_sharing;
    bool bound_sketch = false;
    std::size_t threads = 1;  ///< stage-2 workers (1 = serial pipeline)
};

/// The ablation ladder: the naive reference, each optimisation alone, the
/// full serial engine, and the full engine with the parallel prefilter
/// stage at increasing worker counts. kKernelConfigs[0] must stay the
/// naive kernel -- the sweep verifies every other row against its edge
/// set. "full" stays the serial pipeline so the mt rows read as speedup
/// over the serial engine; from PR 3 on, "full" includes the cross-bucket
/// bound sketch.
inline constexpr KernelConfig kKernelConfigs[] = {
    {"naive", false, false},
    {"bidirectional", true, false},
    {"ball_sharing", false, true},
    {"bound_sketch", false, false, true},
    {"full", true, true, true},
    {"full+mt2", true, true, true, 2},
    {"full+mt4", true, true, true, 4},
};

struct KernelRun {
    KernelConfig config;
    double seconds = 0.0;
    std::size_t edges = 0;
    bool matches_naive = false;
    GreedyStats stats;
    /// ru_maxrss high-water mark sampled around this run. The mark is
    /// monotone across the process, so delta = after - before is the
    /// memory growth attributable to *this* configuration (0 when the run
    /// fit inside memory an earlier run already touched).
    std::size_t rss_before_kb = 0;
    std::size_t rss_after_kb = 0;
};

inline BuildOptions options_for(const KernelConfig& config, double t) {
    BuildOptions options;
    options.stretch = t;
    options.engine.bidirectional = config.bidirectional;
    options.engine.ball_sharing = config.ball_sharing;
    options.engine.bound_sketch = config.bound_sketch;
    options.engine.num_threads = config.threads;
    return options;
}

/// Run every kernel configuration on (g, t) and verify each edge set
/// against the naive kernel's -- the in-benchmark equivalence check the
/// acceptance criteria require. Each configuration runs in a fresh
/// session (per-call timings stay comparable across the bench history).
inline std::vector<KernelRun> run_kernel_sweep(const Graph& g, double t) {
    std::vector<KernelRun> runs;
    Graph naive_spanner(0);
    for (const KernelConfig& config : kKernelConfigs) {
        KernelRun run;
        run.config = config;
        run.rss_before_kb = process_peak_rss_kb();
        SpannerSession session;
        GraphCandidateSource source(g);
        BuildReport report;
        const Graph h = session.build(source, options_for(config, t), &report);
        run.rss_after_kb = process_peak_rss_kb();
        run.stats = report.stats;
        run.stats.seconds = report.seconds;
        run.seconds = report.seconds;
        run.edges = h.num_edges();
        if (runs.empty()) {
            naive_spanner = h;
            run.matches_naive = true;
        } else {
            run.matches_naive = same_edge_set(h, naive_spanner);
        }
        runs.push_back(std::move(run));
    }
    return runs;
}

/// The metric-workload probe: n points, m = n(n-1)/2 candidates -- the
/// regime where the stage-2/stage-3 handoff dominates memory traffic and
/// the PR-2 verdict/bound arrays cost a flat 9 bytes per candidate (1-byte
/// verdict + 8-byte bound, both sized to the whole run). The artifact
/// tracks the measured bytes-per-candidate of the bucket-local handoff
/// against that baseline.
struct MetricProbeResult {
    std::size_t n = 0;
    std::size_t candidates = 0;
    double stretch = 0.0;
    double serial_seconds = 0.0;
    double mt2_seconds = 0.0;
    std::size_t edges = 0;
    bool matches_serial = false;  ///< mt2 edge set == serial edge set
    std::size_t handoff_bytes = 0;
    double bytes_per_candidate = 0.0;
    /// The PR-2 handoff layout's flat cost on the same run.
    double pr2_bytes_per_candidate = 9.0;
    GreedyStats stats;  ///< serial cached-engine run
    std::size_t rss_before_kb = 0;  ///< ru_maxrss sampled around the probe
    std::size_t rss_after_kb = 0;
};

inline MetricProbeResult run_metric_probe(std::size_t n, double t) {
    Rng rng(1234);
    MetricProbeResult probe;
    probe.rss_before_kb = process_peak_rss_kb();
    const EuclideanMetric pts =
        uniform_points(n, 2, std::sqrt(static_cast<double>(n)) * 10.0, rng);
    probe.n = n;
    probe.candidates = n * (n - 1) / 2;
    probe.stretch = t;

    SpannerSession session;  // one session serves both runs (the API path)
    MetricCandidateSource source(pts);
    BuildOptions options;
    options.stretch = t;

    BuildReport serial_report;
    const Graph serial = session.build(source, options, &serial_report);
    probe.stats = serial_report.stats;
    probe.stats.seconds = serial_report.seconds;
    probe.serial_seconds = serial_report.seconds;
    probe.edges = serial.num_edges();

    options.engine.num_threads = 2;
    BuildReport mt_report;
    const Graph mt = session.build(source, options, &mt_report);
    probe.mt2_seconds = mt_report.seconds;
    probe.matches_serial = same_edge_set(mt, serial);
    // The parallel handoff adds the verdict bitsets; report the larger of
    // the two runs so the column upper-bounds both paths.
    probe.handoff_bytes = std::max(serial_report.stats.handoff_peak_bytes,
                                   mt_report.stats.handoff_peak_bytes);
    probe.bytes_per_candidate =
        static_cast<double>(probe.handoff_bytes) /
        static_cast<double>(probe.candidates == 0 ? 1 : probe.candidates);
    probe.rss_after_kb = process_peak_rss_kb();
    return probe;
}

/// The session-reuse probe: the same parallel build run `builds` times
/// through one warm SpannerSession vs a fresh session per call. The
/// counters certify the tentpole's warm-start claim -- a warm build()
/// constructs zero thread pools and zero Dijkstra workspaces (the
/// validator enforces both at exactly 0) -- and the seconds columns show
/// the per-call setup cost eliminated.
struct SessionProbeResult {
    std::size_t n = 0;
    std::size_t m = 0;
    double stretch = 0.0;
    std::size_t threads = 0;
    std::size_t builds = 0;  ///< measured calls per arm (after the warm prime)
    double cold_seconds = 0.0;       ///< sum over fresh-session calls
    double warm_seconds = 0.0;       ///< sum over warm calls of one session
    double cold_setup_seconds = 0.0; ///< engine/pool acquisition, fresh sessions
    double warm_setup_seconds = 0.0; ///< same, warm session (should be ~0)
    std::size_t cold_pool_constructions = 0;
    std::size_t cold_workspace_constructions = 0;
    std::size_t warm_pool_constructions = 0;       ///< must be 0
    std::size_t warm_workspace_constructions = 0;  ///< must be 0
    bool matches = true;  ///< every warm edge set == the cold edge set
    std::size_t rss_before_kb = 0;  ///< ru_maxrss sampled around the probe
    std::size_t rss_after_kb = 0;
};

inline SessionProbeResult run_session_probe(std::size_t n, double t,
                                            std::size_t threads, std::size_t builds) {
    Rng rng(99);
    SessionProbeResult probe;
    probe.rss_before_kb = process_peak_rss_kb();
    const Graph g = random_graph_nm(n, 8 * n, {.lo = 1.0, .hi = 2.0}, rng);
    probe.n = n;
    probe.m = g.num_edges();
    probe.stretch = t;
    probe.threads = threads;
    probe.builds = builds;

    BuildOptions options;
    options.stretch = t;
    options.engine.num_threads = threads;
    GraphCandidateSource source(g);

    Graph reference(0);
    for (std::size_t i = 0; i < builds; ++i) {
        SpannerSession cold;  // pays pool + workspace construction every call
        BuildReport report;
        Graph h = cold.build(source, options, &report);
        probe.cold_seconds += report.seconds;
        probe.cold_setup_seconds += report.setup_seconds;
        probe.cold_pool_constructions += report.pools_constructed;
        probe.cold_workspace_constructions += report.workspaces_constructed;
        if (i == 0) reference = std::move(h);
    }

    SpannerSession warm;
    {
        BuildReport prime;  // first call of the session pays construction once
        (void)warm.build(source, options, &prime);
    }
    for (std::size_t i = 0; i < builds; ++i) {
        BuildReport report;
        const Graph h = warm.build(source, options, &report);
        probe.warm_seconds += report.seconds;
        probe.warm_setup_seconds += report.setup_seconds;
        probe.warm_pool_constructions += report.pools_constructed;
        probe.warm_workspace_constructions += report.workspaces_constructed;
        probe.matches = probe.matches && same_edge_set(h, reference);
    }
    probe.rss_after_kb = process_peak_rss_kb();
    return probe;
}

/// One instance of the linear-space memory probe: a t = 2 greedy build
/// over the grid-pruned streaming candidate source, with the candidate
/// accounting and the per-instance ru_maxrss samples that certify the
/// candidates were streamed, never materialized.
struct MemProbeInstance {
    std::string kind;  ///< "uniform" | "clustered"
    double gen_seconds = 0.0;    ///< instance generation (streaming emitter)
    double build_seconds = 0.0;  ///< session.build() wall clock
    std::size_t edges = 0;
    double weight = 0.0;
    double stretch_target = 0.0;  ///< dumbbell bound t(s+4)/(s-4)
    std::size_t candidates_streamed = 0;
    std::size_t candidate_buffer_peak_bytes = 0;  ///< peak resident chunk
    std::size_t rss_before_kb = 0;
    std::size_t rss_after_kb = 0;
};

/// The v5 headline probe: can the chunked pipeline build a t = 2 spanner
/// on n = 10^6 2D points inside a fixed *linear* RSS budget? Candidate
/// counts are ~100n at s = 5 (near pairs enumerated exactly below the
/// cutoff, one representative pair per ring cell pair above it), so a
/// materialized run would need ~100n * 16 B = ~1.6 GiB at n = 10^6; the
/// streamed run's candidate buffer peaks at one window instead, and the
/// budget below leaves room only for the O(n) structures (points, grid
/// levels, the spanner, workspaces).
struct MemProbeResult {
    std::size_t n = 0;
    double stretch = 0.0;     ///< engine t over the candidate stream
    double separation = 0.0;  ///< grid separation s (> 4)
    std::size_t rss_budget_kb = 0;  ///< kMemProbeBudget* evaluated at n
    std::size_t rss_before_kb = 0;  ///< high-water mark at probe start
    bool within_budget = true;      ///< max(after) - before <= budget
    std::vector<MemProbeInstance> instances;
};

/// The linear RSS budget of the memory probe: a flat base (binary, heap
/// warmup, earlier probes' small instances) plus a per-point allowance
/// covering coordinates (16 B), the grid hierarchy (~30 B across levels),
/// the spanner adjacency lists (~1.44 edges/point), Dijkstra workspaces,
/// the incremental CSR mirror, and allocator slack. Calibrated against
/// measured high-waters of +62,680 KiB at n = 10^5 and +185,380 KiB at
/// n = 3x10^5 (uniform + clustered, single-core Release, sketch off) --
/// a 2.96x delta for 3x the points, confirming the linear model -- so
/// 896 B/point gives ~1.8-2.3x headroom at those shapes and ~1.45x at
/// 10^6 under straight extrapolation (~630 MiB) while staying far below what any
/// materializing run needs -- the candidate array alone is 16 B x 7.9M
/// = 121 MiB at 10^5 (vs a 149 MiB total budget) and ~2.5 GiB at 10^6
/// (vs 918 MiB). The validator re-derives within_budget from the raw
/// samples, so a change that starts materializing candidates fails CI.
inline constexpr std::size_t kMemProbeBudgetBaseKb = 65536;       // 64 MiB
inline constexpr std::size_t kMemProbeBudgetBytesPerPoint = 896;  // ~0.88 KiB

inline std::size_t mem_probe_budget_kb(std::size_t n) {
    return kMemProbeBudgetBaseKb + n * kMemProbeBudgetBytesPerPoint / 1024;
}

/// Probe size: `fallback` unless the GSP_MEM_PROBE_N environment variable
/// overrides it (CI's per-PR smoke runs the reduced 10^5 shape; the
/// history job on main runs the full 10^6).
inline std::size_t mem_probe_n(std::size_t fallback) {
    if (const char* env = std::getenv("GSP_MEM_PROBE_N")) {
        const unsigned long long v = std::strtoull(env, nullptr, 10);
        if (v > 0) return static_cast<std::size_t>(v);
    }
    return fallback;
}

inline MemProbeResult run_mem_probe(std::size_t n, double t = 2.0,
                                    double separation = 5.0) {
    MemProbeResult probe;
    probe.n = n;
    probe.stretch = t;
    probe.separation = separation;
    probe.rss_budget_kb = mem_probe_budget_kb(n);
    probe.rss_before_kb = process_peak_rss_kb();

    SpannerSession session;  // one session: both builds share the buffer
    BuildOptions options;
    options.stretch = t;
    // The cross-bucket bound sketch is O(n * sketch_ways) resident memory
    // (~64 MiB at n = 10^6). Since the cell-batched path it *does* earn
    // its keep on grid streams (via-landmark coarse rejects), but this
    // probe certifies the RSS floor, not wall clock -- the time probe
    // below measures the sketch-on build -- so it stays off here to keep
    // the budget tight.
    options.engine.bound_sketch = false;
    const double extent = std::sqrt(static_cast<double>(n)) * 10.0;

    const auto run_instance = [&](const char* kind, double gen_seconds,
                                  std::size_t rss_before,
                                  const EuclideanMetric& pts) {
        MemProbeInstance inst;
        inst.kind = kind;
        inst.gen_seconds = gen_seconds;
        inst.rss_before_kb = rss_before;
        GridCandidateSource source(pts, separation);
        BuildReport report;
        const Graph h = session.build(source, options, &report);
        inst.build_seconds = report.seconds;
        inst.edges = h.num_edges();
        inst.weight = h.total_weight();
        inst.stretch_target = report.stretch_target;
        inst.candidates_streamed = report.stats.candidates_streamed;
        inst.candidate_buffer_peak_bytes = report.stats.candidate_buffer_peak_bytes;
        inst.rss_after_kb = process_peak_rss_kb();
        probe.within_budget =
            probe.within_budget &&
            inst.rss_after_kb - probe.rss_before_kb <= probe.rss_budget_kb;
        probe.instances.push_back(std::move(inst));
    };

    {
        Rng rng(2026);
        std::size_t before = process_peak_rss_kb();
        Timer timer;
        const EuclideanMetric uniform = uniform_points(n, 2, extent, rng);
        run_instance("uniform", timer.seconds(), before, uniform);
    }
    {
        // The clustered instance goes through the streaming emitter --
        // cluster centers resident, one point at a time into the flat
        // coordinate array -- the n = 10^6-capable generator path.
        Rng rng(2027);
        std::size_t before = process_peak_rss_kb();
        Timer timer;
        std::vector<double> coords;
        coords.reserve(n * 2);
        // n/100 clusters of ~100 points with spread extent/40 keeps the local
        // density ~2x uniform; tighter clusters (n/1000, extent/50) triple the
        // candidate count and the probe's build time with it.
        stream_clustered_points(n, 2, std::max<std::size_t>(n / 100, 1), extent,
                                extent / 40.0, rng,
                                [&](std::span<const double> p) {
                                    coords.insert(coords.end(), p.begin(), p.end());
                                });
        const EuclideanMetric clustered(2, std::move(coords));
        run_instance("clustered", timer.seconds(), before, clustered);
    }
    return probe;
}

/// The v6 headline probe: wall-clock of the grid-streamed t = 2 build
/// with the cell-batched rejection path on (the grid source's default),
/// reported as microseconds per streamed candidate so runs at different
/// n remain comparable. The cell-ball share (batched decisions over all
/// candidates) and the coarse-reject count attribute where the
/// amortization came from; the validator enforces the us/candidate
/// ceiling at the reduced CI shape and the end-to-end build ceiling at
/// the full n = 10^6 history shape.
struct TimeProbeResult {
    std::size_t n = 0;
    double stretch = 0.0;
    double separation = 0.0;
    double gen_seconds = 0.0;    ///< uniform point generation
    double grid_seconds = 0.0;   ///< grid hierarchy construction (source ctor)
    double build_seconds = 0.0;  ///< session.build() wall clock
    std::size_t edges = 0;
    std::size_t candidates = 0;
    double us_per_candidate = 0.0;
    std::size_t cell_balls = 0;
    std::size_t cell_ball_decisions = 0;
    std::size_t coarse_rejects = 0;
    double cell_ball_share = 0.0;  ///< cell_ball_decisions / candidates
    std::size_t dijkstra_runs = 0;
};

/// Probe size: `fallback` unless GSP_TIME_PROBE_N overrides it (CI's
/// per-PR smoke runs the reduced 10^5 shape; the history job on main
/// runs the full 10^6 with the 15-minute single-core assertion).
inline std::size_t time_probe_n(std::size_t fallback) {
    if (const char* env = std::getenv("GSP_TIME_PROBE_N")) {
        const unsigned long long v = std::strtoull(env, nullptr, 10);
        if (v > 0) return static_cast<std::size_t>(v);
    }
    return fallback;
}

inline TimeProbeResult run_time_probe(std::size_t n, double t = 2.0,
                                      double separation = 5.0) {
    TimeProbeResult probe;
    probe.n = n;
    probe.stretch = t;
    probe.separation = separation;
    const double extent = std::sqrt(static_cast<double>(n)) * 10.0;

    Rng rng(2026);
    Timer gen_timer;
    const EuclideanMetric pts = uniform_points(n, 2, extent, rng);
    probe.gen_seconds = gen_timer.seconds();

    Timer grid_timer;
    GridCandidateSource source(pts, separation);
    probe.grid_seconds = grid_timer.seconds();

    // Default engine tuning: the grid source flips cell batching on, and
    // the bound sketch stays on -- the batched path's drained cell balls
    // are what feed it (direct and via-landmark coarse rejects), unlike
    // the per-candidate path the mem probe's comment describes.
    SpannerSession session;
    BuildOptions options;
    options.stretch = t;
    BuildReport report;
    const Graph h = session.build(source, options, &report);

    probe.build_seconds = report.seconds;
    probe.edges = h.num_edges();
    probe.candidates = report.stats.candidates_streamed;
    probe.us_per_candidate =
        probe.candidates > 0
            ? probe.build_seconds * 1e6 / static_cast<double>(probe.candidates)
            : 0.0;
    probe.cell_balls = report.stats.cell_balls;
    probe.cell_ball_decisions = report.stats.cell_ball_decisions;
    probe.coarse_rejects = report.stats.coarse_rejects;
    probe.cell_ball_share =
        probe.candidates > 0
            ? static_cast<double>(probe.cell_ball_decisions) /
                  static_cast<double>(probe.candidates)
            : 0.0;
    probe.dijkstra_runs = report.stats.dijkstra_runs;
    return probe;
}

/// Process peak RSS in KiB (0 where unsupported). Kept as the top-level
/// JSON field's reader; per-row attribution uses before/after samples of
/// the same counter (util/rss.hpp).
inline std::size_t peak_rss_kb() { return process_peak_rss_kb(); }

inline std::string bench_json_path() {
    const char* env = std::getenv("GSP_BENCH_JSON");
    return env != nullptr ? std::string(env) : std::string("BENCH_greedy.json");
}

inline void write_bench_greedy_json(const std::string& path, const std::string& source,
                                    const std::string& instance_kind, std::size_t n,
                                    std::size_t m, double t,
                                    const std::vector<KernelRun>& runs,
                                    const MemProbeResult& mem_probe,
                                    const TimeProbeResult& time_probe,
                                    const SessionProbeResult* session_probe = nullptr,
                                    const MetricProbeResult* metric_probe = nullptr) {
    JsonWriter w;
    w.begin_object();
    w.member("schema", "gsp.bench_greedy.v12");
    w.member("source", source);
    w.member("stretch", t);
    w.key("instance").begin_object();
    w.member("kind", instance_kind);
    w.member("n", n);
    w.member("m", m);
    w.end_object();

    w.key("configs").begin_array();
    for (const KernelRun& r : runs) {
        const double bpc = static_cast<double>(r.stats.handoff_peak_bytes) /
                           static_cast<double>(m == 0 ? 1 : m);
        w.begin_object();
        w.member("name", r.config.name);
        w.member("bidirectional", r.config.bidirectional);
        w.member("ball_sharing", r.config.ball_sharing);
        w.member("bound_sketch", r.config.bound_sketch);
        w.member("threads", r.config.threads);
        w.member("seconds", r.seconds);
        w.member("edges", r.edges);
        w.member("matches_naive", r.matches_naive);
        w.member("handoff_bytes", r.stats.handoff_peak_bytes);
        w.member("bytes_per_candidate", bpc);
        w.member("rss_delta_kb", r.rss_after_kb - r.rss_before_kb);
        w.key("stats").begin_object();
        append_greedy_stats(w, r.stats);
        w.end_object();
        w.end_object();
    }
    w.end_array();

    if (metric_probe != nullptr) {
        const MetricProbeResult& p = *metric_probe;
        w.key("metric_probe").begin_object();
        w.member("kind", "euclidean_uniform");
        w.member("n", p.n);
        w.member("candidates", p.candidates);
        w.member("stretch", p.stretch);
        w.member("serial_seconds", p.serial_seconds);
        w.member("mt2_seconds", p.mt2_seconds);
        w.member("edges", p.edges);
        w.member("matches_serial", p.matches_serial);
        w.member("handoff_bytes", p.handoff_bytes);
        w.member("bytes_per_candidate", p.bytes_per_candidate);
        w.member("pr2_bytes_per_candidate", p.pr2_bytes_per_candidate);
        w.member("sketch_hits", p.stats.sketch_hits);
        w.member("dijkstra_runs", p.stats.dijkstra_runs);
        w.member("rss_delta_kb", p.rss_after_kb - p.rss_before_kb);
        w.end_object();
    }
    if (session_probe != nullptr) {
        const SessionProbeResult& p = *session_probe;
        w.key("session_probe").begin_object();
        w.member("kind", "random_nm");
        w.member("n", p.n);
        w.member("m", p.m);
        w.member("stretch", p.stretch);
        w.member("threads", p.threads);
        w.member("builds", p.builds);
        w.member("cold_seconds", p.cold_seconds);
        w.member("warm_seconds", p.warm_seconds);
        w.member("cold_setup_seconds", p.cold_setup_seconds);
        w.member("warm_setup_seconds", p.warm_setup_seconds);
        w.member("cold_pool_constructions", p.cold_pool_constructions);
        w.member("cold_workspace_constructions", p.cold_workspace_constructions);
        w.member("warm_pool_constructions", p.warm_pool_constructions);
        w.member("warm_workspace_constructions", p.warm_workspace_constructions);
        w.member("matches", p.matches);
        w.member("rss_delta_kb", p.rss_after_kb - p.rss_before_kb);
        w.end_object();
    }

    {
        const MemProbeResult& p = mem_probe;
        w.key("mem_probe").begin_object();
        w.member("kind", "grid_stream");
        w.member("n", p.n);
        w.member("stretch", p.stretch);
        w.member("separation", p.separation);
        w.member("rss_budget_kb", p.rss_budget_kb);
        w.member("rss_before_kb", p.rss_before_kb);
        w.member("within_budget", p.within_budget);
        w.key("instances").begin_array();
        for (const MemProbeInstance& inst : p.instances) {
            w.begin_object();
            w.member("kind", inst.kind);
            w.member("gen_seconds", inst.gen_seconds);
            w.member("build_seconds", inst.build_seconds);
            w.member("edges", inst.edges);
            w.member("weight", inst.weight);
            w.member("stretch_target", inst.stretch_target);
            w.member("candidates_streamed", inst.candidates_streamed);
            w.member("candidate_buffer_peak_bytes", inst.candidate_buffer_peak_bytes);
            w.member("rss_before_kb", inst.rss_before_kb);
            w.member("rss_after_kb", inst.rss_after_kb);
            w.member("rss_delta_kb", inst.rss_after_kb - inst.rss_before_kb);
            w.end_object();
        }
        w.end_array();
        w.end_object();
    }

    {
        const TimeProbeResult& p = time_probe;
        w.key("time_probe").begin_object();
        w.member("kind", "grid_stream_uniform");
        w.member("n", p.n);
        w.member("stretch", p.stretch);
        w.member("separation", p.separation);
        w.member("gen_seconds", p.gen_seconds);
        w.member("grid_seconds", p.grid_seconds);
        w.member("build_seconds", p.build_seconds);
        w.member("edges", p.edges);
        w.member("candidates", p.candidates);
        w.member("us_per_candidate", p.us_per_candidate);
        w.member("cell_balls", p.cell_balls);
        w.member("cell_ball_decisions", p.cell_ball_decisions);
        w.member("coarse_rejects", p.coarse_rejects);
        w.member("cell_ball_share", p.cell_ball_share);
        w.member("dijkstra_runs", p.dijkstra_runs);
        w.end_object();
    }

    w.member("peak_rss_kb", peak_rss_kb());
    // Named lookups: the ladder may append parallel rows after "full", so
    // ratios reference configs by name rather than position.
    const auto seconds_of = [&runs](const std::string& name) -> double {
        for (const KernelRun& r : runs) {
            if (name == r.config.name) return r.seconds;
        }
        return 0.0;
    };
    const double naive_s = runs.front().seconds;
    const double full_s = seconds_of("full");
    const double mt_s = seconds_of("full+mt4");
    w.member("speedup_full_vs_naive", full_s > 0.0 ? naive_s / full_s : 0.0);
    w.member("speedup_parallel_vs_full",
             mt_s > 0.0 && full_s > 0.0 ? full_s / mt_s : 0.0);
    w.end_object();

    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << w.str() << "\n";
}

}  // namespace gsp::benchutil
