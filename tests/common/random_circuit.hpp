#pragma once

// Random circuits over every gate kind, shared by the suites that check DD
// gate application against the dense simulator.

#include "mqsp/circuit/circuit.hpp"
#include "mqsp/support/mixed_radix.hpp"
#include "mqsp/support/rng.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <vector>

namespace mqsp {

/// `gates` operations drawn from Hadamard, Shift, LevelSwap, Phase and
/// Givens. Each target is drawn over every site, and half the gates carry
/// one control on a more significant site (the placement the DD backend
/// accepts). The circuit is a function of `dims`, `gates` and `seed`.
inline Circuit randomAllKindCircuit(const Dimensions& dims, int gates, std::uint64_t seed) {
    constexpr double kPi = std::numbers::pi;
    Rng rng(seed);
    const MixedRadix radix(dims);
    Circuit circuit(dims);
    for (int i = 0; i < gates; ++i) {
        const auto target = static_cast<std::size_t>(rng.uniformIndex(dims.size()));
        const Dimension dim = radix.dimensionAt(target);
        auto a = static_cast<Level>(rng.uniformIndex(dim));
        auto b = static_cast<Level>(rng.uniformIndex(dim));
        if (a == b) {
            b = (b + 1) % dim;
        }
        std::vector<Control> controls;
        if (target > 0 && rng.uniform01() < 0.5) {
            const auto ctrl = static_cast<std::size_t>(rng.uniformIndex(target));
            controls.push_back(
                {ctrl, static_cast<Level>(rng.uniformIndex(radix.dimensionAt(ctrl)))});
        }
        switch (rng.uniformIndex(5)) {
        case 0:
            circuit.append(Operation::hadamard(target, controls));
            break;
        case 1:
            circuit.append(Operation::shift(
                target, static_cast<Level>(rng.uniformIndex(dim)), controls));
            break;
        case 2:
            circuit.append(Operation::levelSwap(target, std::min(a, b), std::max(a, b),
                                                controls));
            break;
        case 3:
            circuit.append(Operation::phase(target, std::min(a, b), std::max(a, b),
                                            rng.uniform(-kPi, kPi), controls));
            break;
        default:
            circuit.append(Operation::givens(target, std::min(a, b), std::max(a, b),
                                             rng.uniform(-kPi, kPi),
                                             rng.uniform(-kPi, kPi), controls));
            break;
        }
    }
    return circuit;
}

} // namespace mqsp
