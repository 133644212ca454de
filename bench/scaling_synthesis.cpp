// Scaling: the synthesis routine is linear in the number of decision-diagram
// nodes (§3.3). This bench grows random registers and reports DD size and
// synthesis time; time divided by dd_nodes should stay flat, confirming the
// linear-complexity claim. The timed region is synthesize() alone (diagram
// construction is setup).

#include "bench_common.hpp"
#include "harness.hpp"

#include "mqsp/synth/synthesizer.hpp"

#include <stdexcept>

int main(int argc, char** argv) {
    using namespace mqsp;
    using namespace mqsp::bench;

    const std::vector<Dimensions> registers{
        {3, 2},          {3, 3, 2},       {3, 4, 3, 2},    {4, 4, 3, 3, 2},
        {4, 4, 4, 3, 3}, {5, 4, 4, 4, 3}, {5, 5, 4, 4, 4}, {6, 5, 5, 4, 4, 2},
    };

    Harness harness("scaling_synthesis");
    Rng driverSeeder(Rng::kDefaultSeed);
    for (const auto& dims : registers) {
        const std::uint64_t caseSeed = driverSeeder.childSeed();
        CaseSpec spec;
        spec.name = "random";
        spec.dims = dims;
        spec.reps = 10;
        spec.smoke = dims.size() == 2;
        spec.body = [dims, caseSeed](Repetition& rep) {
            Rng rng = repetitionRng(caseSeed, rep.index());
            const StateVector state = states::random(dims, rng);
            const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
            Circuit circuit;
            rep.time([&] { circuit = synthesize(dd); });
            rep.metric("amplitudes", static_cast<double>(state.size()));
            rep.metric("dd_nodes",
                       static_cast<double>(dd.nodeCount(NodeCountMode::Internal)));
            rep.metric("operations", static_cast<double>(circuit.numOperations()));
            // Keep the synthesizer honest.
            if (circuit.numOperations() == 0) {
                throw std::runtime_error("unexpected empty circuit");
            }
        };
        harness.add(std::move(spec));
    }

    // Thread-count rows on the largest register: synthesis of one diagram
    // runs on one thread at any width, so `operations` and `dd_nodes` are
    // identical at every width and the timings stay flat — all four rows
    // feed the metrics gate. The harness pins the case's thread count
    // around the body.
    {
        const Dimensions dims{6, 5, 5, 4, 4, 2};
        const std::uint64_t caseSeed = driverSeeder.childSeed();
        for (const unsigned threads : {1U, 2U, 4U, 8U}) {
            CaseSpec spec;
            spec.name = "random scaling";
            spec.dims = dims;
            spec.threads = threads;
            spec.reps = 10;
            spec.smoke = threads == 4;
            spec.body = [dims, caseSeed](Repetition& rep) {
                Rng rng = repetitionRng(caseSeed, rep.index());
                const StateVector state = states::random(dims, rng);
                const DecisionDiagram dd = DecisionDiagram::fromStateVector(state);
                Circuit circuit;
                rep.time([&] { circuit = synthesize(dd); });
                rep.metric("amplitudes", static_cast<double>(state.size()));
                rep.metric("dd_nodes",
                           static_cast<double>(dd.nodeCount(NodeCountMode::Internal)));
                rep.metric("operations", static_cast<double>(circuit.numOperations()));
                if (circuit.numOperations() == 0) {
                    throw std::runtime_error("unexpected empty circuit");
                }
            };
            harness.add(std::move(spec));
        }
    }
    return harness.main(argc, argv);
}
