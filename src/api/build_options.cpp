#include "api/build_options.hpp"

#include <cmath>
#include <stdexcept>

namespace gsp {

void BuildOptions::validate() const {
    if (!(stretch >= 1.0) || !std::isfinite(stretch)) {
        throw std::invalid_argument("BuildOptions: stretch must be finite and >= 1");
    }
    engine.validate();
}

}  // namespace gsp
