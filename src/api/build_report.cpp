#include "api/build_report.hpp"

namespace gsp {

void append_greedy_stats(JsonWriter& w, const GreedyStats& stats) {
    w.member("edges_examined", stats.edges_examined);
    w.member("edges_added", stats.edges_added);
    w.member("dijkstra_runs", stats.dijkstra_runs);
    w.member("balls_computed", stats.balls_computed);
    w.member("cache_hits", stats.cache_hits);
    w.member("csr_rebuilds", stats.csr_rebuilds);
    w.member("csr_compactions", stats.csr_compactions);
    w.member("sketch_hits", stats.sketch_hits);
    w.member("sketch_accepts", stats.sketch_accepts);
    w.member("cell_balls", stats.cell_balls);
    w.member("cell_ball_decisions", stats.cell_ball_decisions);
    w.member("coarse_rejects", stats.coarse_rejects);
    w.member("landmark_refreshes", stats.landmark_refreshes);
    w.member("landmark_rejects", stats.landmark_rejects);
    w.member("bidirectional_meets", stats.bidirectional_meets);
    w.member("prefilter_rejects", stats.prefilter_rejects);
    w.member("prefilter_gated_off", stats.prefilter_gated_off);
    w.member("snapshot_accepts", stats.snapshot_accepts);
    w.member("group_probes", stats.group_probes);
    w.member("group_probe_decisions", stats.group_probe_decisions);
    w.member("group_probe_early_exits", stats.group_probe_early_exits);
    w.member("buckets", stats.buckets);
    w.member("handoff_peak_bytes", stats.handoff_peak_bytes);
    w.member("candidates_streamed", stats.candidates_streamed);
    w.member("candidate_buffer_peak_bytes", stats.candidate_buffer_peak_bytes);
}

void fill_audit_fields(BuildReport& report, const Graph& h) {
    report.edges = h.num_edges();
    report.weight = h.total_weight();
    report.max_degree = h.max_degree();
}

std::string BuildReport::to_json() const {
    JsonWriter w;
    w.begin_object();
    w.member("algorithm", algorithm);
    w.member("source", source);
    w.member("vertices", vertices);
    w.member("candidates", candidates);
    w.member("stretch_target", stretch_target);
    w.member("edges", edges);
    w.member("weight", weight);
    w.member("max_degree", max_degree);
    w.member("seconds", seconds);
    w.member("us_per_candidate",
             candidates > 0 ? seconds * 1e6 / static_cast<double>(candidates) : 0.0);
    w.member("setup_seconds", setup_seconds);
    w.member("pools_constructed", pools_constructed);
    w.member("workspaces_constructed", workspaces_constructed);
    w.member("simd_backend", simd_backend);
    w.member("peak_rss_kb", peak_rss_kb);
    w.key("stats").begin_object();
    append_greedy_stats(w, stats);
    w.end_object();
    w.end_object();
    return w.str();
}

}  // namespace gsp
