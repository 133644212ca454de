#include "mqsp/opt/optimizer.hpp"

#include "mqsp/support/error.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

namespace mqsp {

namespace {

/// True when `op` acts on `site` (as target or control).
bool touches(const Operation& op, std::size_t site) {
    if (op.target == site) {
        return true;
    }
    return std::any_of(op.controls.begin(), op.controls.end(),
                       [site](const Control& ctrl) { return ctrl.qudit == site; });
}

bool disjointSites(const Operation& a, const Operation& b) {
    if (touches(b, a.target)) {
        return false;
    }
    return std::none_of(a.controls.begin(), a.controls.end(),
                        [&b](const Control& ctrl) { return touches(b, ctrl.qudit); });
}

/// Drop the ops a pass marked dead, keeping the survivors in order.
void compact(std::vector<Operation>& ops, const std::vector<char>& dead) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (dead[i] == 0) {
            if (kept != i) {
                ops[kept] = std::move(ops[i]);
            }
            ++kept;
        }
    }
    ops.resize(kept);
}

/// Same rotation axis: merging candidates must agree in everything except
/// the angle. Controls are compared as sorted sets (their order is not
/// semantic).
bool sameAxis(const Operation& a, const Operation& b, double tol) {
    if (a.kind != b.kind || a.target != b.target) {
        return false;
    }
    if (a.kind != GateKind::GivensRotation && a.kind != GateKind::PhaseRotation) {
        return false;
    }
    if (a.levelA != b.levelA || a.levelB != b.levelB) {
        return false;
    }
    if (a.kind == GateKind::GivensRotation && std::abs(a.phi - b.phi) > tol) {
        return false;
    }
    return a.controls == b.controls;
}

/// Identical payload (kind, target, levels, angles, shift) — everything but
/// the controls.
bool samePayload(const Operation& a, const Operation& b, double tol) {
    if (a.kind != b.kind || a.target != b.target) {
        return false;
    }
    switch (a.kind) {
    case GateKind::GivensRotation:
        return a.levelA == b.levelA && a.levelB == b.levelB &&
               std::abs(a.theta - b.theta) <= tol && std::abs(a.phi - b.phi) <= tol;
    case GateKind::PhaseRotation:
        return a.levelA == b.levelA && a.levelB == b.levelB &&
               std::abs(a.theta - b.theta) <= tol;
    case GateKind::Hadamard:
        return true;
    case GateKind::Shift:
        return a.shiftAmount == b.shiftAmount;
    case GateKind::LevelSwap:
        return a.levelA == b.levelA && a.levelB == b.levelB;
    }
    detail::throwInternal("samePayload: unknown gate kind");
}

/// One pass of neighbouring-rotation merging over the op list. Merged ops
/// are marked dead and dropped in one compaction at the end, so a merge
/// moves nothing. Returns the number of merges performed.
std::size_t mergeRotationsPass(std::vector<Operation>& ops, double tol) {
    std::vector<char> dead(ops.size(), 0);
    std::size_t merges = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        Operation& current = ops[i];
        if (dead[i] != 0 || (current.kind != GateKind::GivensRotation &&
                             current.kind != GateKind::PhaseRotation)) {
            continue;
        }
        for (std::size_t j = i + 1; j < ops.size(); ++j) {
            if (dead[j] != 0) {
                continue;
            }
            if (sameAxis(current, ops[j], tol)) {
                current.theta += ops[j].theta;
                dead[j] = 1;
                ++merges;
                continue; // the window keeps extending past the merged slot
            }
            if (!disjointSites(current, ops[j])) {
                break;
            }
        }
    }
    compact(ops, dead);
    return merges;
}

std::size_t dropIdentitiesPass(std::vector<Operation>& ops, double tol) {
    const std::size_t before = ops.size();
    std::erase_if(ops, [tol](const Operation& op) { return op.isIdentity(tol); });
    return before - ops.size();
}

/// Reverse multiplexing: ops identical up to the level of one shared control
/// and jointly covering all of that control's levels collapse into one
/// uncontrolled (on that qudit) op. Collapsed partners are marked dead and
/// dropped in one compaction at the end.
std::size_t mergeControlFansPass(std::vector<Operation>& ops, const MixedRadix& radix,
                                 double tol) {
    std::vector<char> dead(ops.size(), 0);
    std::vector<char> covered; // covered[level]: some op of the fan fires on it
    std::vector<std::size_t> partners;
    std::size_t merges = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const Operation& seed = ops[i];
        if (dead[i] != 0 || seed.controls.empty()) {
            continue;
        }
        for (std::size_t ctrlIndex = 0; ctrlIndex < seed.controls.size(); ++ctrlIndex) {
            const std::size_t fanQudit = seed.controls[ctrlIndex].qudit;
            const Dimension fanDim = radix.dimensionAt(fanQudit);

            // A candidate matches seed in payload and in all other controls.
            const auto isCandidate = [&](const Operation& other,
                                         Level& levelOut) -> bool {
                if (!samePayload(seed, other, tol) ||
                    other.controls.size() != seed.controls.size()) {
                    return false;
                }
                std::optional<Level> level;
                for (std::size_t c = 0; c < seed.controls.size(); ++c) {
                    if (c == ctrlIndex) {
                        if (other.controls[c].qudit != fanQudit) {
                            return false;
                        }
                        level = other.controls[c].level;
                    } else if (other.controls[c] != seed.controls[c]) {
                        return false;
                    }
                }
                levelOut = level.value();
                return true;
            };

            covered.assign(fanDim, 0);
            covered[seed.controls[ctrlIndex].level] = 1;
            std::size_t coveredCount = 1;
            partners.clear();
            for (std::size_t j = i + 1; j < ops.size(); ++j) {
                if (dead[j] != 0) {
                    continue;
                }
                Level level = 0;
                if (isCandidate(ops[j], level)) {
                    if (covered[level] == 0) {
                        covered[level] = 1;
                        ++coveredCount;
                        partners.push_back(j);
                        if (coveredCount == fanDim) {
                            break;
                        }
                    }
                    continue; // duplicate level: leave it for a later round
                }
                if (!disjointSites(seed, ops[j])) {
                    break;
                }
            }
            if (coveredCount != fanDim) {
                continue;
            }
            // Collapse: remove the fan control from the seed, drop partners.
            ops[i].controls.erase(ops[i].controls.begin() +
                                  static_cast<std::ptrdiff_t>(ctrlIndex));
            for (const std::size_t partner : partners) {
                dead[partner] = 1;
            }
            merges += partners.size();
            break; // seed changed; restart its control scan on a later round
        }
    }
    compact(ops, dead);
    return merges;
}

} // namespace

OptimizerReport optimizeCircuit(Circuit& circuit, const OptimizerOptions& options) {
    OptimizerReport report;
    report.opsBefore = circuit.numOperations();

    std::vector<Operation> ops(circuit.operations().begin(), circuit.operations().end());
    // Control order is not semantic; canonicalize so comparisons work.
    for (auto& op : ops) {
        std::sort(op.controls.begin(), op.controls.end());
    }

    const MixedRadix& radix = circuit.radix();
    for (report.rounds = 0; report.rounds < options.maxRounds; ++report.rounds) {
        std::size_t changes = 0;
        if (options.mergeRotations) {
            const std::size_t merged = mergeRotationsPass(ops, options.tolerance);
            report.mergedRotations += merged;
            changes += merged;
        }
        if (options.mergeFullControlFans) {
            const std::size_t merged = mergeControlFansPass(ops, radix, options.tolerance);
            report.mergedControlFans += merged;
            changes += merged;
        }
        if (options.dropIdentities) {
            const std::size_t dropped = dropIdentitiesPass(ops, options.tolerance);
            report.droppedIdentities += dropped;
            changes += dropped;
        }
        if (changes == 0) {
            break;
        }
    }

    Circuit optimized(circuit.dimensions(), circuit.name());
    for (auto& op : ops) {
        optimized.append(std::move(op));
    }
    circuit = std::move(optimized);
    report.opsAfter = circuit.numOperations();
    return report;
}

} // namespace mqsp
