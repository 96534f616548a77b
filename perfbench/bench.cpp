#include "bench.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <stdexcept>

namespace perfbench {

// ------------------------------------------------------------------ tracer --

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::uint64_t build_id)
    : tracer_(tracer), start_(std::chrono::steady_clock::now()) {
    if (tracer_ == nullptr) return;
    Span span;
    span.name = std::move(name);
    span.start = tracer_->now();
    span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
    span.build_id = build_id;
    index_ = static_cast<int>(tracer_->spans_.size());
    tracer_->spans_.push_back(std::move(span));
    tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
    if (tracer_ == nullptr) return;
    tracer_->spans_[static_cast<std::size_t>(index_)].end = tracer_->now();
    tracer_->open_.pop_back();
}

double Tracer::Scope::seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
}

double Tracer::now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
}

std::map<std::string, double> Tracer::self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        self[i] = spans_[i].end - spans_[i].start;
    }
    for (const Span& s : spans_) {
        if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    return out;
}

namespace {

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out + "\"";
}

}  // namespace

void Tracer::write(const std::string& path,
                   const std::vector<std::pair<std::string, std::string>>& facts) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace file " + path);
    out << std::setprecision(17);
    out << "{\"displayTimeUnit\": \"ms\", \"metadata\": {";
    for (std::size_t i = 0; i < facts.size(); ++i) {
        out << (i ? ", " : "") << json_string(facts[i].first) << ": "
            << json_string(facts[i].second);
    }
    out << "}, \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        // Complete events in microseconds; id and parent ride in args.
        out << (i ? ",\n" : "") << "{\"name\": " << json_string(s.name)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " << s.start * 1e6
            << ", \"dur\": " << (s.end - s.start) * 1e6 << ", \"args\": {\"span\": " << i
            << ", \"parent\": " << s.parent << ", \"build_id\": " << s.build_id << "}}";
    }
    out << "\n]}\n";
    if (!out) throw std::runtime_error("short write to trace file " + path);
}

// ------------------------------------------------------------------ checks --

namespace {

std::uint64_t mix64(std::uint64_t x) {  // splitmix64 finalizer
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

}  // namespace

std::uint64_t edge_digest(const gsp::Graph& h) {
    // A sum of strong per-edge hashes is order independent and, unlike a
    // xor, does not cancel a duplicated edge.
    std::uint64_t sum = mix64(h.num_vertices()) ^ mix64(h.num_edges() + 1);
    for (const gsp::Edge& e : h.edges()) {
        const auto lo = static_cast<std::uint64_t>(std::min(e.u, e.v));
        const auto hi = static_cast<std::uint64_t>(std::max(e.u, e.v));
        sum += mix64(mix64((lo << 32) | hi) ^ std::bit_cast<std::uint64_t>(e.weight));
    }
    return sum;
}

double graph_stretch_within(const gsp::Graph& g, const gsp::Graph& h, double target,
                            gsp::DijkstraWorkspace& ws) {
    if (g.num_vertices() != h.num_vertices()) {
        throw std::invalid_argument("graph_stretch_within: vertex count mismatch");
    }
    ws.resize(h.num_vertices());
    double worst = 0.0;
    for (const gsp::Edge& e : g.edges()) {
        const double limit = target * e.weight * (1.0 + 1e-9);
        const double d = ws.distance(h, e.u, e.v, limit);
        if (!std::isfinite(d)) return std::numeric_limits<double>::infinity();
        worst = std::max(worst, d / e.weight);
    }
    return worst;
}

// -------------------------------------------------------------- statistics --

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    if (q == 0.5 && v.size() % 2 == 0) {
        return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
    }
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum / static_cast<double>(v.size());
}

}  // namespace perfbench
