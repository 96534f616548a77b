// The one ordering kernel behind every candidate source: a stable,
// comparison-free bucketing by the weight key.
//
// weight_key maps a NaN-free double to a uint64 with the same order (flip
// the sign bit of nonnegatives, all bits of negatives; -0.0 becomes +0.0
// first, so comparator-equal weights share one key). Buckets are the key's
// high bits, (key - key_min) >> shift, about n/2 of them; key bits are
// exponent-major, so buckets are roughly logarithmic in weight, and a few
// long links far above the bulk do not crowd it into one bucket. Three
// passes over the source's items (key range, count, place) scatter them in
// input order into their bucket slots of the caller's buffer, the only
// candidate storage: a source recomputes weights per pass rather than
// holding a copy. Each bucket is then finished under the source's full
// comparator, by insertion sort or, for a large bucket (a mass of equal
// weights), std::stable_sort. Buckets are monotone in weight, equal weights
// share one, and scatter and finish are stable, so the output is exactly
// std::stable_sort's (candidate_order_test asserts it byte for byte).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "util/annotations.hpp"

namespace gsp {

/// Order-preserving uint64 image of a NaN-free double.
[[nodiscard]] inline std::uint64_t weight_key(double w) {
    if (w == 0.0) w = 0.0;  // +0.0 and -0.0 collapse to +0.0's bits
    const auto bits = std::bit_cast<std::uint64_t>(w);
    // Negatives: reverse payload order, below nonnegatives.
    return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

/// The (weight, u, v) tie rule of every point-set source.
struct ByWeightUV {
    template <class T>
    bool operator()(const T& a, const T& b) const {
        return std::tie(a.weight, a.u, a.v) < std::tie(b.weight, b.u, b.v);
    }
};

/// The graph source's (weight, min endpoint, max endpoint) rule; the edge
/// id tie-break comes from scattering edges in id order.
struct ByWeightMinMax {
    template <class T>
    bool operator()(const T& a, const T& b) const {
        return std::make_tuple(a.weight, std::min(a.u, a.v), std::max(a.u, a.v)) <
               std::make_tuple(b.weight, std::min(b.u, b.v), std::max(b.u, b.v));
    }
};

/// The bucketing kernel. Reusable: its bucket array persists across calls
/// (the grid orders thousands of windows per build).
class WeightBuckets {
public:
    /// Append the items `visit` produces to `out`, ordered exactly as
    /// std::stable_sort under `less` orders them from the visit order.
    /// `visit(f)` must call f(item) once per item, in the same order with
    /// the same items on every call; it is called three times. `less` must
    /// order by weight first. Items are any type with a `weight` member.
    template <class T, class Visit, class Less>
    GSP_DECISION_PURE void append_ordered(std::vector<T>& out, Visit&& visit, Less less) {
        std::size_t n = 0;
        std::uint64_t key_min = std::numeric_limits<std::uint64_t>::max();
        std::uint64_t key_max = 0;
        visit([&](const T& item) {
            const std::uint64_t key = weight_key(item.weight);
            key_min = std::min(key_min, key);
            key_max = std::max(key_max, key);
            ++n;
        });
        if (n == 0) return;
        if (n > std::numeric_limits<std::uint32_t>::max()) {
            throw std::length_error("WeightBuckets: more than 2^32 - 1 items in one ordering");
        }
        // About n/2 buckets: at most 2^bit_width(n/2), which is below n.
        const auto target_bits = static_cast<int>(std::bit_width(n / 2));
        const auto range_bits = static_cast<int>(std::bit_width(key_max - key_min));
        const int shift = std::max(0, range_bits - target_bits);
        const auto bucket_of = [&](const T& item) {
            return static_cast<std::size_t>((weight_key(item.weight) - key_min) >> shift);
        };
        const std::size_t buckets = static_cast<std::size_t>((key_max - key_min) >> shift) + 1;

        // Count into slot b + 1, then prefix-sum: slot b is bucket b's begin.
        start_.assign(buckets + 1, 0);
        visit([&](const T& item) { ++start_[bucket_of(item) + 1]; });
        for (std::size_t b = 1; b <= buckets; ++b) start_[b] += start_[b - 1];

        const std::size_t base = out.size();
        out.resize(base + n);
        T* const dst = out.data() + base;
        visit([&](const T& item) { dst[start_[bucket_of(item)]++] = item; });

        // Placement advanced slot b to bucket b's end.
        std::uint32_t begin = 0;
        for (std::size_t b = 0; b < buckets; ++b) {
            finish(dst + begin, dst + start_[b], less);
            begin = start_[b];
        }
    }

private:
    /// Buckets at most this long are finished by insertion sort.
    static constexpr std::ptrdiff_t kInsertionMax = 32;

    template <class T, class Less>
    static void finish(T* first, T* last, Less& less) {
        if (last - first > kInsertionMax) {
            std::stable_sort(first, last, less);
            return;
        }
        for (T* i = first; i != last; ++i) {
            T item = *i;
            T* j = i;
            for (; j != first && less(item, *(j - 1)); --j) *j = *(j - 1);
            *j = item;
        }
    }

    std::vector<std::uint32_t> start_;  ///< bucket begins, then ends
};

}  // namespace gsp
