#include "mqsp/states/states.hpp"

#include "mqsp/support/error.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>
#include <unordered_set>

namespace mqsp::states {

namespace {

StateVector zeroState(const Dimensions& dims) {
    StateVector state(dims);
    state[0] = Complex{0.0, 0.0};
    return state;
}

} // namespace

StateVector ghz(const Dimensions& dims) {
    const MixedRadix radix(dims);
    const Dimension levels = *std::min_element(dims.begin(), dims.end());
    StateVector state = zeroState(dims);
    const double amp = 1.0 / std::sqrt(static_cast<double>(levels));
    for (Level k = 0; k < levels; ++k) {
        const Digits digits(dims.size(), k);
        state.at(digits) = Complex{amp, 0.0};
    }
    return state;
}

StateVector wState(const Dimensions& dims) {
    std::uint64_t terms = 0;
    for (const auto dim : dims) {
        terms += dim - 1;
    }
    StateVector state = zeroState(dims);
    const double amp = 1.0 / std::sqrt(static_cast<double>(terms));
    for (std::size_t site = 0; site < dims.size(); ++site) {
        for (Level level = 1; level < dims[site]; ++level) {
            Digits digits(dims.size(), 0);
            digits[site] = level;
            state.at(digits) = Complex{amp, 0.0};
        }
    }
    return state;
}

StateVector embeddedWState(const Dimensions& dims) {
    StateVector state = zeroState(dims);
    const double amp = 1.0 / std::sqrt(static_cast<double>(dims.size()));
    for (std::size_t site = 0; site < dims.size(); ++site) {
        Digits digits(dims.size(), 0);
        digits[site] = 1;
        state.at(digits) = Complex{amp, 0.0};
    }
    return state;
}

StateVector random(const Dimensions& dims, Rng& rng, RandomKind kind) {
    StateVector state = zeroState(dims);
    for (std::uint64_t i = 0; i < state.size(); ++i) {
        switch (kind) {
        case RandomKind::ComplexUniform:
            state[i] = Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
            break;
        case RandomKind::RealUniform:
            state[i] = Complex{rng.uniform01(), 0.0};
            break;
        case RandomKind::PhaseOnly: {
            const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
            state[i] = Complex{std::cos(angle), std::sin(angle)};
            break;
        }
        }
    }
    state.normalize();
    return state;
}

StateVector randomSparse(const Dimensions& dims, std::uint64_t numNonZero, Rng& rng,
                         RandomKind kind) {
    StateVector state = zeroState(dims);
    requireThat(numNonZero >= 1, "randomSparse: need at least one nonzero amplitude");
    requireThat(numNonZero <= state.size(),
                "randomSparse: more nonzeros requested than the register holds");
    std::unordered_set<std::uint64_t> chosen;
    while (chosen.size() < numNonZero) {
        chosen.insert(rng.uniformIndex(state.size()));
    }
    for (const auto index : chosen) {
        switch (kind) {
        case RandomKind::ComplexUniform:
            state[index] = Complex{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
            break;
        case RandomKind::RealUniform:
            state[index] = Complex{rng.uniform01(), 0.0};
            break;
        case RandomKind::PhaseOnly: {
            const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
            state[index] = Complex{std::cos(angle), std::sin(angle)};
            break;
        }
        }
    }
    if (state.norm() == 0.0) {
        state[*chosen.begin()] = Complex{1.0, 0.0};
    }
    state.normalize();
    return state;
}

StateVector uniform(const Dimensions& dims) {
    StateVector state = zeroState(dims);
    const double amp = 1.0 / std::sqrt(static_cast<double>(state.size()));
    for (std::uint64_t i = 0; i < state.size(); ++i) {
        state[i] = Complex{amp, 0.0};
    }
    return state;
}

StateVector basis(const Dimensions& dims, const Digits& digits) {
    return StateVector::basis(dims, digits);
}

StateVector cyclic(const Dimensions& dims, const Digits& start, std::uint32_t count) {
    const MixedRadix radix(dims);
    requireThat(start.size() == dims.size(), "cyclic: start word size mismatch");
    requireThat(count >= 1, "cyclic: need at least one shift");
    StateVector state = zeroState(dims);
    // Distinct shifted words can collide (when count exceeds the lcm of the
    // dimensions); collect them first so the amplitude stays uniform.
    std::unordered_set<std::uint64_t> words;
    for (std::uint32_t k = 0; k < count; ++k) {
        Digits digits(start.size());
        for (std::size_t site = 0; site < start.size(); ++site) {
            digits[site] = (start[site] + k) % dims[site];
        }
        words.insert(radix.indexOf(digits));
    }
    const double amp = 1.0 / std::sqrt(static_cast<double>(words.size()));
    for (const auto index : words) {
        state[index] = Complex{amp, 0.0};
    }
    return state;
}

std::uint32_t distinctCyclicShifts(const Dimensions& dims) {
    std::uint64_t lcmSoFar = 1;
    constexpr std::uint64_t kCap = std::numeric_limits<std::uint32_t>::max();
    for (const auto dim : dims) {
        lcmSoFar = std::lcm(lcmSoFar, static_cast<std::uint64_t>(dim));
        if (lcmSoFar >= kCap) {
            return static_cast<std::uint32_t>(kCap);
        }
    }
    return static_cast<std::uint32_t>(lcmSoFar);
}

StateVector dicke(const Dimensions& dims, std::uint64_t weight) {
    const MixedRadix radix(dims);
    StateVector state = zeroState(dims);
    std::uint64_t terms = 0;
    Digits digits(dims.size(), 0);
    do {
        std::uint64_t sum = 0;
        for (const auto digit : digits) {
            sum += digit;
        }
        if (sum == weight) {
            state.at(digits) = Complex{1.0, 0.0};
            ++terms;
        }
    } while (radix.increment(digits));
    requireThat(terms > 0, "dicke: no basis state has the requested weight");
    state.normalize();
    return state;
}

std::uint64_t maxDickeWeight(const Dimensions& dims) {
    std::uint64_t maxWeight = 0;
    for (const auto dim : dims) {
        maxWeight += dim - 1;
    }
    return maxWeight;
}

} // namespace mqsp::states
