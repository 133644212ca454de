#pragma once

#include "mqsp/circuit/gate.hpp"
#include "mqsp/support/mixed_radix.hpp"

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace mqsp {

/// Resource statistics of a circuit; these are the quality metrics of the
/// paper's Table 1 ("Operations" and "#Controls").
struct CircuitStats {
    std::size_t numOperations = 0;      ///< total multi-controlled ops
    std::size_t numRotations = 0;       ///< GivensRotation ops
    std::size_t numPhases = 0;          ///< PhaseRotation ops
    std::size_t numOther = 0;           ///< Hadamard / Shift ops
    std::size_t numControlledOps = 0;   ///< ops with at least one control
    std::size_t totalControls = 0;      ///< sum of control counts
    std::size_t maxControls = 0;        ///< largest control count on any op
    double medianControls = 0.0;        ///< median control count over all ops
    std::size_t depthEstimate = 0;      ///< greedy ASAP-scheduling depth
};

class Circuit;

/// Validate one operation against a register geometry — target and control
/// sites in range, finite angles, levels within each site's dimension, no
/// control on the target, no duplicate controls. This is the check Circuit::append runs on
/// every materialized append; streaming consumers (circuit::GateStream, the
/// serve APPEND verb) call it directly so a gate can be admitted without a
/// Circuit to append it to. Throws InvalidArgumentError ("Circuit: ...").
void validateOperation(const Operation& op, const MixedRadix& radix);

/// A pull source of operations over a fixed register — the streaming
/// counterpart of a materialized Circuit. Consumers (the backend's
/// verifyStream, the bench generators) drain it one operation at a time,
/// so the producer never has to hold the whole circuit: a GateStream
/// parses MQSP-QASM text incrementally, a generator synthesizes gates on
/// the fly, and CircuitSource adapts an in-memory circuit.
class OperationSource {
public:
    OperationSource() = default;
    OperationSource(const OperationSource&) = default;
    OperationSource& operator=(const OperationSource&) = default;
    OperationSource(OperationSource&&) = default;
    OperationSource& operator=(OperationSource&&) = default;
    virtual ~OperationSource() = default;

    /// Register geometry every yielded operation is valid against.
    [[nodiscard]] virtual const Dimensions& dimensions() const = 0;

    /// The next operation in application order, or nullopt at the end of
    /// the stream. Implementations validate before yielding: a returned
    /// operation is always admissible on dimensions().
    [[nodiscard]] virtual std::optional<Operation> next() = 0;
};

/// Adapter presenting a materialized circuit as an OperationSource (the
/// circuit must outlive the source).
class CircuitSource final : public OperationSource {
public:
    explicit CircuitSource(const Circuit& circuit);

    [[nodiscard]] const Dimensions& dimensions() const override;
    [[nodiscard]] std::optional<Operation> next() override;

private:
    const Circuit* circuit_;
    std::size_t cursor_ = 0;
};

/// A quantum circuit over a mixed-dimensional qudit register.
///
/// Operations are stored in application order (index 0 acts first). The
/// register geometry is fixed at construction; every appended operation is
/// validated against it (target/control sites in range, levels within the
/// site's dimension).
class Circuit {
public:
    Circuit() = default;

    /// Create an empty circuit over the given register.
    explicit Circuit(Dimensions dimensions, std::string name = "circuit");

    /// Register geometry.
    [[nodiscard]] const MixedRadix& radix() const noexcept { return radix_; }
    [[nodiscard]] const Dimensions& dimensions() const noexcept { return radix_.dimensions(); }
    [[nodiscard]] std::size_t numQudits() const noexcept { return radix_.numQudits(); }

    /// Circuit name, used by printers.
    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    /// Append an operation (validated). Returns the operation index.
    std::size_t append(Operation op);

    /// Append all operations of another circuit over the same register.
    void append(const Circuit& other);

    /// Operations in application order.
    [[nodiscard]] const std::vector<Operation>& operations() const noexcept { return ops_; }
    [[nodiscard]] std::size_t numOperations() const noexcept { return ops_.size(); }
    [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }
    [[nodiscard]] const Operation& operator[](std::size_t index) const;

    /// The adjoint circuit: inverses of all ops in reverse order.
    /// Requires every op kind to be invertible via Operation::inverse().
    [[nodiscard]] Circuit inverted() const;

    /// Resource statistics (op counts, control-count median, depth).
    [[nodiscard]] CircuitStats stats() const;

    /// Remove ops that are identities within tol; returns how many were removed.
    std::size_t removeIdentityOperations(double tol = 1e-12);

private:
    void validate(const Operation& op) const;

    MixedRadix radix_;
    std::string name_ = "circuit";
    std::vector<Operation> ops_;
};

} // namespace mqsp
