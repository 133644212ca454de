#pragma once

#include "mqsp/circuit/circuit.hpp"
#include "mqsp/statevec/state_vector.hpp"

#include <cstdint>

namespace mqsp {

/// Dense state-vector simulator for mixed-dimensional qudit circuits.
///
/// This is the verification substrate of the repository: every synthesized
/// circuit is replayed here and its output compared against the target state
/// (Table 1's "Fidelity" column). A gate is applied without materializing
/// the full operator, in time proportional to the amplitudes it touches:
/// the kernel enumerates only the indices whose target and control digits
/// match, O(total_dimension / (target dim * product of control dims)) bases
/// per gate (docs/ARCHITECTURE.md, "Dense replay kernel").
class Simulator {
public:
    /// Apply a single (possibly multi-controlled) operation in place.
    /// The state's register must match the operation's targets.
    static void apply(StateVector& state, const Operation& op);

    /// Run the whole circuit on a caller-provided initial state (copied).
    [[nodiscard]] static StateVector run(const Circuit& circuit, const StateVector& initial);

    /// Run the circuit on |0...0> — the state-preparation setting.
    [[nodiscard]] static StateVector runFromZero(const Circuit& circuit);

    /// Fidelity |<target|circuit(|0...0>)>|^2 — the verification metric.
    [[nodiscard]] static double preparationFidelity(const Circuit& circuit,
                                                    const StateVector& target);
};

} // namespace mqsp
