#include "mqsp/synth/synthesizer.hpp"

#include "mqsp/support/error.hpp"

#include <utility>

namespace mqsp {

namespace {

/// The node's local weight vector, as the cascade solver sees it (zero
/// stubs become exact zeros).
std::vector<Complex> nodeWeights(const DDNode& node) {
    std::vector<Complex> weights;
    weights.reserve(node.edges.size());
    for (const auto& edge : node.edges) {
        weights.push_back(edge.isZeroStub() ? Complex{0.0, 0.0} : edge.weight);
    }
    return weights;
}

class SynthesisTraversal {
public:
    SynthesisTraversal(const DecisionDiagram& dd, const SynthesisOptions& options,
                       Circuit& circuit)
        : dd_(dd), options_(options), circuit_(circuit) {}

    void visit(NodeRef ref, std::vector<Control>& pathControls) {
        const DDNode& node = dd_.node(ref);
        ensureThat(!node.isTerminal(), "synthesize: traversal reached the terminal node");

        // 1. Realize this node's weight vector on its qudit via the cascade.
        for (const auto& step : cascadeFor(nodeWeights(node))) {
            Operation op =
                (step.kind == CascadeStep::Kind::Phase)
                    ? Operation::phase(node.site, step.levelA, step.levelB, step.theta,
                                       pathControls)
                    : Operation::givens(node.site, step.levelA, step.levelB, step.theta,
                                        step.phi, pathControls);
            if (!options_.emitIdentityOperations && op.isIdentity(options_.tolerance)) {
                continue;
            }
            circuit_.append(std::move(op));
        }

        // 2. Recurse into children. For a tensor-product node (all nonzero
        //    edges share one child) the child is prepared once, without this
        //    node's control — the §4.3 control-elision rule.
        if (options_.elideTensorProductControls && dd_.isTensorProductNode(ref)) {
            for (const auto& edge : node.edges) {
                if (!edge.isZeroStub()) {
                    visit(edge.node, pathControls);
                    break;
                }
            }
            return;
        }
        for (std::size_t k = 0; k < node.edges.size(); ++k) {
            const auto& edge = node.edges[k];
            if (edge.isZeroStub() || dd_.node(edge.node).isTerminal()) {
                continue;
            }
            pathControls.push_back(Control{node.site, static_cast<Level>(k)});
            visit(edge.node, pathControls);
            pathControls.pop_back();
        }
    }

private:
    const DecisionDiagram& dd_;
    const SynthesisOptions& options_;
    Circuit& circuit_;
};

} // namespace

Circuit synthesize(const DecisionDiagram& dd, const SynthesisOptions& options) {
    Circuit circuit(dd.dimensions(), options.circuitName);
    if (dd.rootNode() == kNoNode) {
        return circuit; // the zero diagram prepares |0...0| trivially
    }

    SynthesisTraversal traversal(dd, options, circuit);
    std::vector<Control> pathControls;
    traversal.visit(dd.rootNode(), pathControls);
    return circuit;
}

PreparationResult prepareExact(const StateVector& state, const SynthesisOptions& options) {
    return prepareExact(DecisionDiagram::fromStateVector(state, options.tolerance),
                        options);
}

PreparationResult prepareExact(DecisionDiagram diagram, const SynthesisOptions& options) {
    PreparationResult result;
    result.diagram = std::move(diagram);
    result.circuit = synthesize(result.diagram, options);
    return result;
}

PreparationResult prepareApproximated(const StateVector& state, double fidelityThreshold,
                                      const SynthesisOptions& options) {
    return prepareApproximated(DecisionDiagram::fromStateVector(state, options.tolerance),
                               fidelityThreshold, options);
}

PreparationResult prepareApproximated(DecisionDiagram diagram, double fidelityThreshold,
                                      const SynthesisOptions& options) {
    PreparationResult result;
    result.diagram = std::move(diagram);
    ApproximationOptions approxOptions;
    approxOptions.fidelityThreshold = fidelityThreshold;
    approxOptions.tolerance = options.tolerance;
    result.approx = approximate(result.diagram, approxOptions);
    result.circuit = synthesize(result.diagram, options);
    return result;
}

} // namespace mqsp
