// The unified, layered build configuration.
//
// One options object for every algorithm the registry serves, structured
// as: the shared engine block (EngineTuning -- parallelism, sketch,
// pipeline knobs, identical-output tuning), the target stretch, and one
// small section per algorithm family. Callers set the sections they use;
// validate() checks the whole object up front so a bad combination fails
// before any work (and before any stats out-param could be left stale).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/approx_greedy.hpp"
#include "core/engine_tuning.hpp"

namespace gsp {

struct BuildOptions {
    /// Stretch target t >= 1 of the exact-greedy family (greedy,
    /// greedy-metric, greedy-wspd). The approximate-greedy and baseline
    /// constructions derive their targets from their own sections below.
    double stretch = 2.0;

    /// The shared engine / parallelism / sketch block, consumed by every
    /// algorithm that runs the greedy engine. All fields are decision
    /// preserving (identical edge set at every setting).
    EngineTuning engine;

    /// Candidate delivery of engine builds. The edge set is identical on
    /// both paths (chunk boundaries only split weight buckets); the knob
    /// trades the full materialized array against streaming peak memory.
    enum class Chunking {
        kAuto,         ///< chunk iff the source streams (ChunkSupport::kStreaming)
        kMaterialize,  ///< always materialize the full sorted list
        kChunked       ///< force the chunked path (throws on ChunkSupport::kNone)
    };
    Chunking chunking = Chunking::kAuto;

    /// Section: approximate-greedy (the §5 simulation; "greedy-approx").
    ApproxParams approx;

    /// Section: geometric constructions (theta, yao, wspd, net -- and the
    /// WSPD candidate source of "greedy-wspd").
    struct Geometric {
        /// Cone count of the theta / Yao graphs (>= 4).
        std::size_t cones = 12;
        /// Stretch target 1 + epsilon of the wspd / net baselines (> 0).
        double epsilon = 0.5;
        /// WSPD separation of the "greedy-wspd" candidate source; 0 =
        /// derive the standard 4 + 8/epsilon from `epsilon`.
        double wspd_separation = 0.0;
        /// Degree cap of the net spanner (0 = no delegation).
        std::size_t net_degree_cap = 64;
    } geometric;

    /// Section: Baswana-Sen ("baswana-sen", the randomized comparator).
    struct BaswanaSen {
        unsigned k = 2;             ///< stretch 2k - 1
        std::uint64_t seed = 1;     ///< the construction is randomized
    } baswana_sen;

    /// Throws std::invalid_argument on any inconsistent *shared* field
    /// (stretch + EngineTuning::validate). Called by SpannerSession::build and
    /// AlgorithmRegistry::build before any work. Per-algorithm sections
    /// are deliberately NOT checked here -- a build must never be vetoed
    /// by a section it does not consume (e.g. a theta build with an
    /// untouched approx section); each candidate source / registry entry
    /// validates the section it actually reads.
    void validate() const;
};

}  // namespace gsp
