// Google-benchmark microbenchmarks for the library's kernels: decision
// diagram construction (which reduces as it splits), amplitude
// reconstruction, dense export, pruning, synthesis and simulation. These underpin the "Time" columns of
// Table 1 and the scaling bench. The session rows time one interning
// probe, fresh and hitting.

#include "mqsp/approx/approximation.hpp"
#include "mqsp/dd/unique_table.hpp"
#include "mqsp/sim/simulator.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <benchmark/benchmark.h>

#include <memory>
#include <span>

namespace {

using namespace mqsp;

const Dimensions& registerForIndex(std::int64_t index) {
    static const std::vector<Dimensions> registers{
        {3, 6, 2}, {9, 5, 6, 3}, {6, 6, 5, 3, 3}, {4, 7, 4, 4, 3, 5}};
    return registers[static_cast<std::size_t>(index)];
}

StateVector benchState(std::int64_t index) {
    Rng rng(Rng::kDefaultSeed + static_cast<std::uint64_t>(index));
    return states::random(registerForIndex(index), rng);
}

void BM_DDConstruct(benchmark::State& state) {
    const StateVector target = benchState(state.range(0));
    for (auto _ : state) {
        auto dd = DecisionDiagram::fromStateVector(target);
        benchmark::DoNotOptimize(dd.rootNode());
    }
    state.SetComplexityN(static_cast<std::int64_t>(target.size()));
}
BENCHMARK(BM_DDConstruct)->DenseRange(0, 3)->Complexity(benchmark::oN);

void BM_DDAmplitude(benchmark::State& state) {
    const StateVector target = benchState(state.range(0));
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(target);
    const auto digits = target.radix().digitsOf(target.size() / 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(dd.amplitudeOf(digits));
    }
}
BENCHMARK(BM_DDAmplitude)->DenseRange(0, 3);

void BM_DDToVector(benchmark::State& state) {
    const StateVector target = benchState(state.range(0));
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(target);
    for (auto _ : state) {
        auto vec = dd.toStateVector();
        benchmark::DoNotOptimize(vec.amplitudes().data());
    }
}
BENCHMARK(BM_DDToVector)->DenseRange(0, 3);

/// The splitter with its interning: range(1) = 0 splits the uniform state
/// (every level collapses to one node), 1 the random state (nothing merges).
void BM_FromStateVector(benchmark::State& state) {
    const StateVector target = state.range(1) == 0
                                   ? states::uniform(registerForIndex(state.range(0)))
                                   : benchState(state.range(0));
    for (auto _ : state) {
        const DecisionDiagram dd = DecisionDiagram::fromStateVector(target);
        benchmark::DoNotOptimize(dd.rootNode());
    }
}
BENCHMARK(BM_FromStateVector)->ArgsProduct({{0, 1, 2, 3}, {0, 1}});

void BM_Approximate(benchmark::State& state) {
    const StateVector target = benchState(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        DecisionDiagram dd = DecisionDiagram::fromStateVector(target);
        state.ResumeTiming();
        const auto report = approximate(dd);
        benchmark::DoNotOptimize(report.removedMass);
    }
}
BENCHMARK(BM_Approximate)->DenseRange(0, 3);

void BM_Synthesize(benchmark::State& state) {
    const StateVector target = benchState(state.range(0));
    const DecisionDiagram dd = DecisionDiagram::fromStateVector(target);
    for (auto _ : state) {
        const Circuit circuit = synthesize(dd);
        benchmark::DoNotOptimize(circuit.numOperations());
    }
    state.SetComplexityN(
        static_cast<std::int64_t>(dd.nodeCount(NodeCountMode::Internal)));
}
BENCHMARK(BM_Synthesize)->DenseRange(0, 3)->Complexity(benchmark::oN);

void BM_SimulatePreparation(benchmark::State& state) {
    // Simulation cost is gate count x Hilbert dimension; use the smaller
    // registers only.
    const StateVector target = benchState(state.range(0));
    SynthesisOptions lean;
    lean.emitIdentityOperations = false;
    const auto prep = prepareExact(target, lean);
    for (auto _ : state) {
        const StateVector out = Simulator::runFromZero(prep.circuit);
        benchmark::DoNotOptimize(out.amplitudes().data());
    }
}
BENCHMARK(BM_SimulatePreparation)->DenseRange(0, 1);

void BM_StateFidelity(benchmark::State& state) {
    const StateVector a = benchState(state.range(0));
    Rng rng(99);
    const StateVector b = states::random(registerForIndex(state.range(0)), rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.fidelityWith(b));
    }
}
BENCHMARK(BM_StateFidelity)->DenseRange(0, 3);

/// The keys a DD replay interns, in interning order: the pool of a
/// session that put `sites` qudits of `dim` levels into uniform
/// superposition and then replayed 60 random two-level gates (half of them
/// controlled). Every pool node was a miss, and children precede their
/// parents.
std::shared_ptr<const dd::DdNodeStore> recordedReplay(Dimension dim, std::size_t sites) {
    const Dimensions dims(sites, dim);
    Rng rng(Rng::kDefaultSeed + dim);
    const dd::DdSession session;
    DecisionDiagram state = DecisionDiagram::zeroState(dims, &session);
    for (std::size_t site = 0; site < sites; ++site) {
        state.applyOperation(Operation::hadamard(site));
    }
    for (int i = 0; i < 60; ++i) {
        const auto target = static_cast<std::size_t>(rng.uniformIndex(sites));
        const auto a = static_cast<Level>(rng.uniformIndex(dim - 1));
        const auto b = static_cast<Level>(a + 1 + rng.uniformIndex(dim - 1 - a));
        std::vector<Control> controls;
        if (target > 0 && rng.uniform01() < 0.5) {
            controls.push_back({static_cast<std::size_t>(rng.uniformIndex(target)),
                                static_cast<Level>(rng.uniformIndex(dim))});
        }
        state.applyOperation(Operation::givens(target, a, b, rng.uniform(-3.0, 3.0),
                                               rng.uniform(-3.0, 3.0), controls));
    }
    return session.store();
}

/// (levels per qudit, qudits) of the three session rows: arity 2, 6, 9.
std::shared_ptr<const dd::DdNodeStore> sessionReplay(std::int64_t arity) {
    const std::size_t sites = arity == 2 ? 10 : arity == 6 ? 5 : 4;
    return recordedReplay(static_cast<Dimension>(arity), sites);
}

/// Replay the recorded keys into `store`, one interning probe each.
void internAll(const dd::DdNodeStore& recorded, dd::DdNodeStore& store) {
    for (NodeRef ref = 1; ref < recorded.size(); ++ref) {
        const DDNode& node = recorded.node(ref);
        benchmark::DoNotOptimize(store.allocate(node.site, std::span<const DDEdge>(node.edges)));
    }
}

/// Fresh interning: every key misses and is inserted into a new store.
void BM_SessionIntern(benchmark::State& state) {
    const auto recorded = sessionReplay(state.range(0));
    for (auto _ : state) {
        dd::DdNodeStore store(dd::DdNodeStore::Mode::Interning);
        internAll(*recorded, store);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(recorded->size() - 1));
}
BENCHMARK(BM_SessionIntern)->Arg(2)->Arg(6)->Arg(9);

/// Probe hits: every key is already interned.
void BM_SessionProbeHit(benchmark::State& state) {
    const auto recorded = sessionReplay(state.range(0));
    dd::DdNodeStore store(dd::DdNodeStore::Mode::Interning);
    internAll(*recorded, store);
    for (auto _ : state) {
        internAll(*recorded, store);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(recorded->size() - 1));
}
BENCHMARK(BM_SessionProbeHit)->Arg(2)->Arg(6)->Arg(9);

} // namespace
