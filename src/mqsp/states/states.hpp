#pragma once

#include "mqsp/statevec/state_vector.hpp"
#include "mqsp/support/rng.hpp"

#include <cstdint>

namespace mqsp {
/// Generators for the benchmark families of the paper's evaluation (§5) plus
/// a few additional classes of structured states useful for tests and
/// ablations. All states are returned normalized.
namespace states {

/// Mixed-dimensional GHZ state (§5, [33]):
///   1/sqrt(m) * sum_{k=0}^{m-1} |k k ... k>,   m = min(dims).
/// On uniform qubit registers this is the textbook GHZ state.
[[nodiscard]] StateVector ghz(const Dimensions& dims);

/// Mixed-dimensional W state (§5, [34]): the equal superposition of every
/// basis state in which exactly one qudit sits in some nonzero level (any
/// level 1..d_i-1) and all others are |0>. The number of terms is
/// sum_i (d_i - 1).
[[nodiscard]] StateVector wState(const Dimensions& dims);

/// Embedded W state (§5, [27]): the qubit W state embedded into the qudit
/// register — exactly one qudit in level |1>, all others |0>; n terms.
[[nodiscard]] StateVector embeddedWState(const Dimensions& dims);

/// How random amplitudes are drawn.
enum class RandomKind {
    /// Re and Im uniform on [-1, 1) (the paper's "amplitudes generated from
    /// a uniform distribution"), then globally normalized.
    ComplexUniform,
    /// Real amplitudes uniform on [0, 1), then normalized.
    RealUniform,
    /// Unit-magnitude amplitudes with uniform random phases.
    PhaseOnly,
};

/// Dense random state on the register.
[[nodiscard]] StateVector random(const Dimensions& dims, Rng& rng,
                                 RandomKind kind = RandomKind::ComplexUniform);

/// Random state with exactly `numNonZero` nonzero amplitudes at random
/// positions (useful for approximation ablations).
[[nodiscard]] StateVector randomSparse(const Dimensions& dims, std::uint64_t numNonZero,
                                       Rng& rng,
                                       RandomKind kind = RandomKind::ComplexUniform);

/// The uniform superposition over all basis states.
[[nodiscard]] StateVector uniform(const Dimensions& dims);

/// A single basis state |digits>.
[[nodiscard]] StateVector basis(const Dimensions& dims, const Digits& digits);

/// Cyclic state (cf. Mozafari et al., ASP-DAC 2022 [24], generalized to
/// mixed dimensions): the equal superposition of the `count` cyclic shifts
/// of the word `start`, where shift k adds k to every digit modulo the
/// digit's own dimension.
[[nodiscard]] StateVector cyclic(const Dimensions& dims, const Digits& start,
                                 std::uint32_t count);

/// The number of distinct cyclic shifts on the register, lcm(dims),
/// saturated to the 32-bit count range (shifts repeat beyond the lcm
/// anyway): the default `count` of a bare cyclic request.
[[nodiscard]] std::uint32_t distinctCyclicShifts(const Dimensions& dims);

/// Generalized Dicke-like state: equal superposition of all basis states
/// whose digits sum to `weight`. (Dicke states are the symmetric fixed-
/// excitation states; on mixed dimensions the digit sum plays the role of
/// the total excitation number.) Throws if no basis state has that weight.
[[nodiscard]] StateVector dicke(const Dimensions& dims, std::uint64_t weight);

/// Σ(dim_i − 1): the largest digit sum, and so the largest Dicke weight,
/// the register admits.
[[nodiscard]] std::uint64_t maxDickeWeight(const Dimensions& dims);

} // namespace states
} // namespace mqsp
