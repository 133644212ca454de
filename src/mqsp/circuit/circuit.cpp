#include "mqsp/circuit/circuit.hpp"

#include "mqsp/support/error.hpp"

#include <algorithm>
#include <cmath>

namespace mqsp {

Circuit::Circuit(Dimensions dimensions, std::string name)
    : radix_(std::move(dimensions)), name_(std::move(name)) {}

std::size_t Circuit::append(Operation op) {
    validate(op);
    ops_.push_back(std::move(op));
    return ops_.size() - 1;
}

void Circuit::append(const Circuit& other) {
    requireThat(radix_ == other.radix_, "Circuit::append: register dimensions differ");
    ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
}

const Operation& Circuit::operator[](std::size_t index) const {
    requireThat(index < ops_.size(), "Circuit: operation index out of range");
    return ops_[index];
}

Circuit Circuit::inverted() const {
    Circuit inv(radix_.dimensions(), name_ + "_inv");
    for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
        inv.append(it->inverse());
    }
    return inv;
}

CircuitStats Circuit::stats() const {
    CircuitStats s;
    s.numOperations = ops_.size();
    std::vector<std::size_t> controlCounts;
    controlCounts.reserve(ops_.size());
    // Greedy ASAP depth: an op occupies its target and all control sites.
    std::vector<std::size_t> siteReady(radix_.numQudits(), 0);
    for (const auto& op : ops_) {
        switch (op.kind) {
        case GateKind::GivensRotation:
            ++s.numRotations;
            break;
        case GateKind::PhaseRotation:
            ++s.numPhases;
            break;
        case GateKind::Hadamard:
        case GateKind::Shift:
        case GateKind::LevelSwap:
            ++s.numOther;
            break;
        }
        const std::size_t numCtrls = op.numControls();
        controlCounts.push_back(numCtrls);
        s.totalControls += numCtrls;
        s.maxControls = std::max(s.maxControls, numCtrls);
        if (numCtrls > 0) {
            ++s.numControlledOps;
        }
        std::size_t slot = siteReady[op.target];
        for (const auto& ctrl : op.controls) {
            slot = std::max(slot, siteReady[ctrl.qudit]);
        }
        ++slot;
        siteReady[op.target] = slot;
        for (const auto& ctrl : op.controls) {
            siteReady[ctrl.qudit] = slot;
        }
        s.depthEstimate = std::max(s.depthEstimate, slot);
    }
    if (!controlCounts.empty()) {
        std::sort(controlCounts.begin(), controlCounts.end());
        const std::size_t n = controlCounts.size();
        if (n % 2 == 1) {
            s.medianControls = static_cast<double>(controlCounts[n / 2]);
        } else {
            s.medianControls = 0.5 * static_cast<double>(controlCounts[n / 2 - 1] +
                                                         controlCounts[n / 2]);
        }
    }
    return s;
}

std::size_t Circuit::removeIdentityOperations(double tol) {
    const std::size_t before = ops_.size();
    std::erase_if(ops_, [tol](const Operation& op) { return op.isIdentity(tol); });
    return before - ops_.size();
}

void Circuit::validate(const Operation& op) const { validateOperation(op, radix_); }

void validateOperation(const Operation& op, const MixedRadix& radix) {
    requireThat(op.target < radix.numQudits(), "Circuit: operation target out of range");
    requireThat(std::isfinite(op.theta) && std::isfinite(op.phi),
                "Circuit: rotation angles must be finite");
    const Dimension targetDim = radix.dimensionAt(op.target);
    if (op.kind == GateKind::GivensRotation || op.kind == GateKind::PhaseRotation ||
        op.kind == GateKind::LevelSwap) {
        requireThat(op.levelA < targetDim && op.levelB < targetDim,
                    "Circuit: rotation level exceeds the target qudit's dimension");
    }
    if (op.kind == GateKind::Shift) {
        requireThat(op.shiftAmount < targetDim,
                    "Circuit: shift amount must be below the target qudit's dimension");
    }
    for (std::size_t i = 0; i < op.controls.size(); ++i) {
        const auto& ctrl = op.controls[i];
        requireThat(ctrl.qudit < radix.numQudits(), "Circuit: control qudit out of range");
        requireThat(ctrl.qudit != op.target, "Circuit: control cannot sit on the target");
        requireThat(ctrl.level < radix.dimensionAt(ctrl.qudit),
                    "Circuit: control level exceeds the control qudit's dimension");
        for (std::size_t j = i + 1; j < op.controls.size(); ++j) {
            requireThat(op.controls[j].qudit != ctrl.qudit,
                        "Circuit: duplicate control qudit (contradictory or redundant "
                        "conditions are not representable)");
        }
    }
}

CircuitSource::CircuitSource(const Circuit& circuit) : circuit_(&circuit) {}

const Dimensions& CircuitSource::dimensions() const { return circuit_->dimensions(); }

std::optional<Operation> CircuitSource::next() {
    if (cursor_ >= circuit_->numOperations()) {
        return std::nullopt;
    }
    return (*circuit_)[cursor_++];
}

} // namespace mqsp
