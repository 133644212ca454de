#include "mqsp/sim/simulator.hpp"

#include "mqsp/support/error.hpp"
#include "mqsp/support/parallel.hpp"

#include <algorithm>
#include <array>
#include <vector>

namespace mqsp {

namespace {

/// Minimum touched bases per chunk when the gate kernels fan out over the
/// pool. Gates whose touched set fits one grain run inline with zero
/// dispatch overhead, so small-register circuits behave exactly as the
/// single-threaded code did.
constexpr std::uint64_t kKernelGrain = 4096;

/// Bound on free-digit groups. A register has at most 63 qudits (its total
/// dimension fits 64 bits and every qudit has d >= 2), and a fixed site (the
/// target or a control) separates any two groups, so f fixed sites leave at
/// most min(f + 1, 63 - f) <= 32 groups.
constexpr std::size_t kMaxGroups = 32;

/// The bases one gate touches. The target digit is the walked level and
/// every control digit is fixed, so the touched indices are
/// `base + sum_g digit_g * stride_g + walked level * target stride` over
/// every digit string of the free groups. A group is a run of adjacent
/// non-target, non-control sites; their strides chain, so the run acts as
/// one digit with the innermost site's stride and the product of the run's
/// dimensions as its count. Group 0 is the least significant: the walk
/// visits bases in increasing index order, and its innermost loop is one
/// strided run.
struct TouchedWalk {
    std::uint64_t base = 0;   ///< sum of control level * control stride
    std::uint64_t items = 1;  ///< touched bases (product of the counts); 0 = never fires
    std::size_t numGroups = 0;
    std::array<std::uint64_t, kMaxGroups> stride{};
    std::array<std::uint64_t, kMaxGroups> count{};
};

/// Describe the bases a gate on `target` touches when its kernel walks the
/// target digit `walkedLevel`. Controls that no base satisfies make the
/// gate a no-op (items = 0): a control on the target itself at another
/// level than the walked one, an out-of-range control level, or two
/// controls on one qudit with different levels.
[[nodiscard]] TouchedWalk touchedWalk(const MixedRadix& radix, std::size_t target,
                                      Level walkedLevel, const std::vector<Control>& controls) {
    TouchedWalk walk;
    bool fires = true;
    for (auto ctrl = controls.begin(); ctrl != controls.end(); ++ctrl) {
        requireThat(ctrl->qudit < radix.numQudits(), "Simulator: control qudit out of range");
        if (ctrl->qudit == target) {
            fires = fires && ctrl->level == walkedLevel;
            continue;
        }
        const auto earlier = std::find_if(controls.begin(), ctrl, [&](const Control& other) {
            return other.qudit == ctrl->qudit;
        });
        if (earlier != ctrl) {
            fires = fires && earlier->level == ctrl->level;
            continue;
        }
        fires = fires && ctrl->level < radix.dimensionAt(ctrl->qudit);
        walk.base += static_cast<std::uint64_t>(ctrl->level) * radix.strideAt(ctrl->qudit);
    }

    bool previousFree = false;
    for (std::size_t site = radix.numQudits(); site-- > 0;) {
        const bool fixed = site == target ||
                           std::any_of(controls.begin(), controls.end(),
                                       [site](const Control& ctrl) { return ctrl.qudit == site; });
        if (fixed) {
            previousFree = false;
            continue;
        }
        const std::uint64_t dim = radix.dimensionAt(site);
        if (previousFree) {
            walk.count[walk.numGroups - 1] *= dim;
        } else {
            walk.stride[walk.numGroups] = radix.strideAt(site);
            walk.count[walk.numGroups] = dim;
            ++walk.numGroups;
        }
        previousFree = true;
        walk.items *= dim;
    }
    if (walk.numGroups == 0) {
        // Every non-target site is controlled: one base, one run of length 1.
        walk.count[0] = 1;
        walk.numGroups = 1;
    }
    if (!fires) {
        walk.items = 0;
    }
    return walk;
}

/// Call `visit(base)` for the touched bases with ordinals [begin, end) in
/// walk order. The chunk's first base is decoded once (one division per
/// group); from there a mixed-radix odometer steps the groups, so the loop
/// does no division per amplitude.
template <typename Visit>
void walkTouched(const TouchedWalk& walk, std::uint64_t begin, std::uint64_t end,
                 Visit&& visit) {
    std::array<std::uint64_t, kMaxGroups> digit{};
    std::uint64_t index = walk.base;
    std::uint64_t rest = begin;
    for (std::size_t g = 0; g < walk.numGroups; ++g) {
        digit[g] = rest % walk.count[g];
        rest /= walk.count[g];
        index += digit[g] * walk.stride[g];
    }
    const std::uint64_t innerStride = walk.stride[0];
    const std::uint64_t innerCount = walk.count[0];
    std::uint64_t item = begin;
    while (true) {
        const std::uint64_t run = std::min(innerCount - digit[0], end - item);
        for (std::uint64_t r = 0; r < run; ++r) {
            visit(index);
            index += innerStride;
        }
        item += run;
        if (item == end) {
            return;
        }
        // The inner run wrapped: reset it and carry into the outer groups.
        // The carry stops within the groups: item < end <= items, so a
        // base is still left to visit.
        index -= innerCount * innerStride;
        digit[0] = 0;
        for (std::size_t g = 1;; ++g) {
            index += walk.stride[g];
            if (++digit[g] < walk.count[g]) {
                break;
            }
            index -= walk.count[g] * walk.stride[g];
            digit[g] = 0;
        }
    }
}

/// Apply a two-level update (rows/cols a,b of a 2x2 block) across the
/// register. `m00..m11` is the block in the (a, b) basis. The walk visits
/// the indices whose target digit is `a` and whose controls are satisfied;
/// the partner index differs only in the target digit (a -> b). The pairs
/// are independent, so they fan out over the thread pool.
void applyTwoLevel(StateVector& state, std::size_t target, Level a, Level b, Complex m00,
                   Complex m01, Complex m10, Complex m11,
                   const std::vector<Control>& controls) {
    const auto& radix = state.radix();
    const auto stride = radix.strideAt(target);
    const TouchedWalk walk = touchedWalk(radix, target, a, controls);
    const std::uint64_t offsetA = static_cast<std::uint64_t>(a) * stride;
    const std::uint64_t offsetB = static_cast<std::uint64_t>(b) * stride;
    auto& amps = state.amplitudes();
    parallel::parallelFor(0, walk.items, kKernelGrain, [&](std::uint64_t chunkBegin,
                                                           std::uint64_t chunkEnd) {
        walkTouched(walk, chunkBegin, chunkEnd, [&](std::uint64_t base) {
            const std::uint64_t idxA = base + offsetA;
            const std::uint64_t idxB = base + offsetB;
            const Complex va = amps[idxA];
            const Complex vb = amps[idxB];
            amps[idxA] = m00 * va + m01 * vb;
            amps[idxB] = m10 * va + m11 * vb;
        });
    });
}

/// Apply a full dxd single-qudit matrix (Hadamard, Shift) across the
/// register. The walk visits the bases whose target digit is 0 (controls
/// are tested there); each owns its d-entry column, so bases fan out over
/// the pool with a per-chunk scratch column.
void applyDense(StateVector& state, std::size_t target, const DenseMatrix& matrix,
                const std::vector<Control>& controls) {
    const auto& radix = state.radix();
    const auto stride = radix.strideAt(target);
    const auto dim = radix.dimensionAt(target);
    const TouchedWalk walk = touchedWalk(radix, target, 0, controls);
    auto& amps = state.amplitudes();
    parallel::parallelFor(0, walk.items, kKernelGrain, [&](std::uint64_t chunkBegin,
                                                           std::uint64_t chunkEnd) {
        std::vector<Complex> scratch(dim);
        walkTouched(walk, chunkBegin, chunkEnd, [&](std::uint64_t base) {
            for (Dimension k = 0; k < dim; ++k) {
                scratch[k] = amps[base + static_cast<std::uint64_t>(k) * stride];
            }
            for (Dimension r = 0; r < dim; ++r) {
                Complex acc{0.0, 0.0};
                for (Dimension c = 0; c < dim; ++c) {
                    acc += matrix(r, c) * scratch[c];
                }
                amps[base + static_cast<std::uint64_t>(r) * stride] = acc;
            }
        });
    });
}

} // namespace

void Simulator::apply(StateVector& state, const Operation& op) {
    const auto& radix = state.radix();
    requireThat(op.target < radix.numQudits(), "Simulator: operation target out of range");
    const Dimension dim = radix.dimensionAt(op.target);
    if (const auto m = twoLevelBlock(op)) {
        requireThat(op.levelA < dim && op.levelB < dim, "Simulator: gate level out of range");
        applyTwoLevel(state, op.target, op.levelA, op.levelB, m->aa, m->ab, m->ba, m->bb,
                      op.controls);
        return;
    }
    // Hadamard and Shift mix every level of the target.
    applyDense(state, op.target, op.localMatrix(dim), op.controls);
}

StateVector Simulator::run(const Circuit& circuit, const StateVector& initial) {
    requireThat(circuit.radix() == initial.radix(),
                "Simulator::run: circuit and state registers differ");
    StateVector state = initial;
    // Gates are sequential (each reads the previous one's output); the
    // parallelism lives inside each application's amplitude walk.
    for (const auto& op : circuit.operations()) {
        apply(state, op);
    }
    return state;
}

StateVector Simulator::runFromZero(const Circuit& circuit) {
    return run(circuit, StateVector(circuit.dimensions()));
}

double Simulator::preparationFidelity(const Circuit& circuit, const StateVector& target) {
    return target.fidelityWith(runFromZero(circuit));
}

} // namespace mqsp
