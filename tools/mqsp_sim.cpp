// mqsp_sim — command-line simulator for MQSP-QASM circuits.
//
//   mqsp_sim --qasm circuit.qasm [--shots 1000] [--print-state] [--seed 7]
//            [--backend dense|dd|auto] [--noise 1e-3]
//   mqsp_sim --qasm - --stream [--checkpoint 64]   # gate-by-gate off stdin
//   mqsp_sim --circuit-json circuit.jsonl ...
//
// Reads a circuit in the MQSP-QASM dialect (as emitted by mqsp_prep --qasm)
// or the JSON-lines circuit format (printer.hpp; --circuit-json) and
// simulates it from |0...0> on the selected evaluation backend
// (sim/backend.hpp): `dense` replays on the state-vector simulator, `dd`
// replays natively on decision diagrams — amplitudes, sampling and the
// printed state all come straight off the diagram, so circuits on registers
// far past the dense O(∏dims) ceiling simulate in milliseconds. `auto` (the
// default) picks dense below kAutoBackendThreshold amplitudes, dd beyond.
//
// `--qasm -` reads stdin, so preparation pipes without a temp file:
//   mqsp_prep --state ghz --dims 3,6,2 --qasm | mqsp_sim --qasm - --shots 100
//
// --stream replays the QASM text gate-by-gate as it is parsed (the
// GateStream reader) instead of materializing the whole circuit first — the
// circuit text is never held whole, so circuit files far larger than memory
// replay straight off a file or pipe. On the dense backend memory stays
// O(state). On the dd backend it does not yet: the session is never
// collected during a replay, so it keeps every intermediate node of every
// gate and grows with the number of gates. --checkpoint k prints a
// norm²/dd_nodes probe line every k gates. (Whole-circuit-only features —
// --noise, --circuit-json — do not combine with it.)

#include "cli_args.hpp"

#include "mqsp/circuit/printer.hpp"
#include "mqsp/circuit/qasm.hpp"
#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/sim/backend.hpp"
#include "mqsp/sim/density_simulator.hpp"
#include "mqsp/support/error.hpp"
#include "mqsp/support/rng.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

namespace {

using namespace mqsp;
using cli::argFlag;
using cli::argValue;

/// Cap on --print-state lines from a diagram-backed state: a DD can hold
/// more nonzero amplitudes than any terminal wants to scroll.
constexpr std::uint64_t kMaxPrintedAmplitudes = 1U << 16U;

void printAmplitudeLine(const Digits& digits, const Complex& amplitude) {
    std::printf("  %-14s %s   (p = %.6f)\n", MixedRadix::toKetString(digits).c_str(),
                toString(amplitude).c_str(), squaredMagnitude(amplitude));
}

} // namespace

int main(int argc, char** argv) {
    try {
        cli::configureThreads(argc, argv);
        const auto path = argValue(argc, argv, "--qasm");
        const auto jsonPath = argValue(argc, argv, "--circuit-json");
        const bool streaming = argFlag(argc, argv, "--stream");
        if (static_cast<bool>(path) == static_cast<bool>(jsonPath)) {
            std::fprintf(stderr,
                         "usage: mqsp_sim (--qasm <file|-> | --circuit-json <file|->) "
                         "[--stream [--checkpoint k]] [--shots n] [--print-state] "
                         "[--seed n] [--backend dense|dd|auto] [--threads n] "
                         "[--noise eps]\n");
            return 2;
        }
        requireThat(!streaming || path,
                    "--stream replays MQSP-QASM gate-by-gate — pass --qasm <file|->");
        requireThat(!streaming || !argValue(argc, argv, "--noise"),
                    "--stream cannot combine with --noise (the density simulator "
                    "replays the whole circuit)");
        requireThat(streaming || !argValue(argc, argv, "--checkpoint"),
                    "--checkpoint only applies to --stream");

        const std::string& input = path ? *path : *jsonPath;
        const std::string backendSpec =
            argValue(argc, argv, "--backend").value_or("auto");

        Circuit circuit({2});
        EvalState out;
        std::unique_ptr<EvaluationBackend> backend;
        if (streaming) {
            const auto runStream = [&](std::istream& in) {
                GateStream stream(in);
                backend = makeBackend(backendSpec, stream.radix().totalDimension());
                std::printf("streaming circuit on %s: %s backend\n",
                            formatDimensionSpec(stream.dimensions()).c_str(),
                            backend->name());
                VerifyRequest request;
                request.checkpointInterval =
                    cli::argUint(argc, argv, "--checkpoint", 0);
                const VerifyReport report = backend->verifyStream(stream, request, &out);
                for (const ReplayCheckpoint& checkpoint : report.checkpoints) {
                    std::printf("  checkpoint op %llu: norm2 %.9f, dd_nodes %llu\n",
                                static_cast<unsigned long long>(checkpoint.opIndex),
                                checkpoint.fidelity,
                                static_cast<unsigned long long>(checkpoint.ddNodes));
                }
                std::printf("streamed %llu ops: norm2 %.9f\n",
                            static_cast<unsigned long long>(report.ops), report.fidelity);
            };
            if (input == "-") {
                runStream(std::cin);
            } else {
                std::ifstream in(input);
                requireThat(in.good(), "cannot open QASM file: " + input);
                runStream(in);
            }
        } else {
            const auto parseFrom = [&](std::istream& in) {
                return path ? parseQasm(in) : parseCircuitJsonLines(in);
            };
            if (input == "-") {
                circuit = parseFrom(std::cin);
            } else {
                std::ifstream in(input);
                requireThat(in.good(), std::string("cannot open ") +
                                           (path ? "QASM" : "circuit-JSON") +
                                           " file: " + input);
                circuit = parseFrom(in);
            }

            backend = makeBackend(backendSpec, circuit.radix().totalDimension());

            const auto stats = circuit.stats();
            std::printf("circuit on %s: %zu ops (depth ~%zu), %s backend\n",
                        formatDimensionSpec(circuit.dimensions()).c_str(),
                        stats.numOperations, stats.depthEstimate, backend->name());

            out = backend->runFromZero(circuit);
        }
        const MixedRadix& radix = out.radix();

        if (argFlag(argc, argv, "--print-state")) {
            std::printf("\nfinal state (amplitudes above 1e-9):\n");
            if (out.isDense()) {
                const StateVector& state = out.dense();
                for (std::uint64_t i = 0; i < state.size(); ++i) {
                    if (approxZero(state[i], 1e-9)) {
                        continue;
                    }
                    printAmplitudeLine(radix.digitsOf(i), state[i]);
                }
            } else {
                // Walk the diagram's nonzero paths in the same flat-index
                // order the dense loop uses, capped for sanity.
                std::uint64_t printed = 0;
                bool truncated = false;
                out.diagram().forEachNonZero(
                    [&](const Digits& digits, const Complex& amplitude) {
                        if (approxZero(amplitude, 1e-9)) {
                            return true;
                        }
                        if (printed == kMaxPrintedAmplitudes) {
                            truncated = true;
                            return false;
                        }
                        printAmplitudeLine(digits, amplitude);
                        ++printed;
                        return true;
                    });
                if (truncated) {
                    std::printf("  ... (further amplitudes elided after %llu lines)\n",
                                static_cast<unsigned long long>(kMaxPrintedAmplitudes));
                }
            }
        }

        if (argValue(argc, argv, "--shots")) {
            const std::uint64_t count = cli::argUint(argc, argv, "--shots", 0);
            const std::uint64_t seed =
                cli::argUint(argc, argv, "--seed", Rng::kDefaultSeed);
            // Sampling always happens on a diagram: dense output is
            // converted once; diagram output samples in O(depth) directly.
            const DecisionDiagram dd = out.toDiagram();
            Rng rng(seed);
            const auto histogram = dd.sampleHistogram(rng, count);
            std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(histogram.begin(),
                                                                        histogram.end());
            std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
                return a.second > b.second;
            });
            std::printf("\n%llu shots:\n", static_cast<unsigned long long>(count));
            for (const auto& [index, hits] : sorted) {
                std::printf("  %-14s %8llu  (%.4f)\n",
                            MixedRadix::toKetString(radix.digitsOf(index)).c_str(),
                            static_cast<unsigned long long>(hits),
                            static_cast<double>(hits) / static_cast<double>(count));
            }
        }
        if (const auto noiseSpec = argValue(argc, argv, "--noise")) {
            const double eps = cli::argDouble(argc, argv, "--noise", 0.0);
            requireThat(eps >= 0.0 && eps <= 1.0,
                        "--noise needs an error rate in [0, 1], got " + *noiseSpec);
            requireThat(radix.totalDimension() <= 1024,
                        "--noise replays on a dense density matrix, which needs "
                        "total dimension <= 1024");
            NoiseModel noise;
            noise.singleQuditError = eps / 10.0;
            noise.twoQuditError = eps;
            // Snapshot of the process-wide execution config: --threads
            // (applied by cli::configureThreads above) reaches the density
            // kernels; the reported numbers are bit-identical at any width.
            const DensityMatrix rho = NoisySimulator().run(circuit, noise);
            const StateVector ideal = out.toStateVector(1024);
            std::printf("\nnoisy replay (eps %.3e): fidelity %.9f, purity %.9f, "
                        "trace %.9f\n",
                        eps, rho.fidelityWithPure(ideal), rho.purity(), rho.trace());
        }
        if (const auto session = backend->ddSession()) {
            // DD memory report on stderr (stdout stays pipeable): the pool
            // the replay interned into and the table/cache hit rates.
            const auto sessionStats = session->stats();
            std::fprintf(stderr,
                         "dd session: %llu pool nodes, unique_hit_rate %.3f, "
                         "cache_hit_rate %.3f\n",
                         static_cast<unsigned long long>(sessionStats.poolNodes),
                         sessionStats.uniqueHitRate(), sessionStats.cacheHitRate());
        }
        return 0;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "mqsp_sim: %s\n", error.what());
        return 1;
    }
}
