#include "api/build_options.hpp"

#include <stdexcept>

namespace gsp {

void BuildOptions::validate() const {
    if (!(stretch >= 1.0)) {
        throw std::invalid_argument("BuildOptions: stretch must be >= 1");
    }
    engine.validate();
}

}  // namespace gsp
