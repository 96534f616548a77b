#include "core/engine_tuning.hpp"

#include <stdexcept>

namespace gsp {

void EngineTuning::validate() const {
    if (!(bucket_ratio > 1.0)) {
        throw std::invalid_argument("EngineTuning: bucket_ratio must be > 1");
    }
    if (parallel_batch == 0) {
        throw std::invalid_argument("EngineTuning: parallel_batch must be >= 1");
    }
    if (sketch_ways == 0 || (sketch_ways & (sketch_ways - 1)) != 0) {
        throw std::invalid_argument(
            "EngineTuning: sketch_ways must be a power of two >= 1");
    }
    if (chunk_soft_cap == 0) {
        throw std::invalid_argument("EngineTuning: chunk_soft_cap must be >= 1");
    }
    if (!(parallel_accept_gate >= 0.0)) {
        throw std::invalid_argument("EngineTuning: parallel_accept_gate must be >= 0");
    }
}

}  // namespace gsp
