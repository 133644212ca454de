// Ablation C: the reduction (sub-tree sharing) rule of §4.3. Measures, for
// states with exploitable structure, (a) the memory saving — distinct nodes
// stored once instead of per path — and (b) the control saving from the
// tensor-product elision rule, reported both as control counts and as the
// estimated two-qudit cost after transpilation (the paper's "more
// resource-efficient sequences of operations"). Uniform/product states
// collapse to one node per level and lose all controls; random dense states
// have no redundancy and gain nothing. `fromStateVector` reduces as it
// splits, so `nodes_tree` counts the reduced diagram's internal nodes once
// per root path — the tree the splitter walks. The timed region covers the
// construction plus both syntheses.

#include "bench_common.hpp"
#include "harness.hpp"

#include "mqsp/synth/synthesizer.hpp"
#include "mqsp/transpile/transpiler.hpp"

#include <functional>
#include <unordered_map>
#include <utility>

namespace {

/// Internal nodes below and including `ref`, each counted once per path
/// from `ref` (memoized per node).
std::uint64_t treeInternalNodes(const mqsp::DecisionDiagram& dd, mqsp::NodeRef ref,
                                std::unordered_map<mqsp::NodeRef, std::uint64_t>& memo) {
    if (const auto it = memo.find(ref); it != memo.end()) {
        return it->second;
    }
    std::uint64_t count = 1;
    for (const mqsp::DDEdge& edge : dd.node(ref).edges) {
        if (!edge.isZeroStub() && !dd.node(edge.node).isTerminal()) {
            count += treeInternalNodes(dd, edge.node, memo);
        }
    }
    memo.emplace(ref, count);
    return count;
}

} // namespace

int main(int argc, char** argv) {
    using namespace mqsp;
    using namespace mqsp::bench;

    struct ReductionCase {
        const char* label;
        Dimensions dims;
        std::function<StateVector()> make;
        bool smoke = false;
    };
    const std::vector<ReductionCase> cases = {
        {"uniform", {3, 6, 2}, [] { return states::uniform({3, 6, 2}); }, true},
        {"uniform", {9, 5, 6, 3}, [] { return states::uniform({9, 5, 6, 3}); }, false},
        {"uniform",
         {4, 7, 4, 4, 3, 5},
         [] { return states::uniform({4, 7, 4, 4, 3, 5}); },
         false},
        {"ghz", {3, 6, 2}, [] { return states::ghz({3, 6, 2}); }, false},
        {"ghz", {9, 5, 6, 3}, [] { return states::ghz({9, 5, 6, 3}); }, false},
        {"w", {9, 5, 6, 3}, [] { return states::wState({9, 5, 6, 3}); }, false},
        {"embw",
         {4, 7, 4, 4, 3, 5},
         [] { return states::embeddedWState({4, 7, 4, 4, 3, 5}); },
         false},
        {"random",
         {3, 6, 2},
         [] {
             Rng rng(Rng::kDefaultSeed);
             return states::random({3, 6, 2}, rng);
         },
         false},
        {"product(u3 x rand)",
         {3, 4, 2},
         [] {
             Rng inner(7);
             return states::uniform({3}).kron(states::random({4, 2}, inner));
         },
         false},
    };

    Harness harness("ablation_reduction");
    for (const auto& reductionCase : cases) {
        CaseSpec spec;
        spec.name = reductionCase.label;
        spec.dims = reductionCase.dims;
        spec.reps = 5;
        spec.smoke = reductionCase.smoke;
        spec.body = [make = reductionCase.make](Repetition& rep) {
            const StateVector state = make();

            SynthesisOptions with;
            with.emitIdentityOperations = false;
            with.elideTensorProductControls = true;
            SynthesisOptions without = with;
            without.elideTensorProductControls = false;

            DecisionDiagram dag;
            Circuit elided;
            Circuit plain;
            rep.time([&] {
                dag = DecisionDiagram::fromStateVector(state);
                elided = synthesize(dag, with);
                plain = synthesize(dag, without);
            });
            std::unordered_map<NodeRef, std::uint64_t> memo;
            const auto nodesTree = treeInternalNodes(dag, dag.rootNode(), memo);
            const auto nodesDag = dag.nodeCount(NodeCountMode::Internal);

            rep.metric("nodes_tree", static_cast<double>(nodesTree));
            rep.metric("nodes_reduced", static_cast<double>(nodesDag));
            rep.metric("controls_plain",
                       static_cast<double>(plain.stats().totalControls));
            rep.metric("controls_elided",
                       static_cast<double>(elided.stats().totalControls));
            rep.metric("2q_cost_plain", static_cast<double>(estimateTwoQuditCost(plain)));
            rep.metric("2q_cost_elided",
                       static_cast<double>(estimateTwoQuditCost(elided)));
        };
        harness.add(std::move(spec));
    }
    return harness.main(argc, argv);
}
