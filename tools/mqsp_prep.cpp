// mqsp_prep — command-line state preparation.
//
// Synthesizes a mixed-dimensional state-preparation circuit and prints its
// statistics, QASM, and (optionally) a verification replay:
//
//   mqsp_prep --dims 3,6,2 --state ghz --qasm
//   mqsp_prep --dims 1x9,1x5,1x6,1x3 --state random --seed 7 --approx 0.98 --verify
//   mqsp_prep --dims 3,2 --amplitudes psi.txt --optimize --qasm
//   mqsp_prep --dims 27x2 --state ghz --verify --backend dd
//
// The amplitude file format is one "re im" pair per line, in mixed-radix
// order (most significant qudit first); the vector is normalized on load.
//
// `--backend` selects the evaluation substrate (sim/backend.hpp): `dense`
// replays on the state-vector simulator, `dd` stays on decision diagrams
// end-to-end — structured targets (ghz/w/embw/uniform/cyclic/dicke) are
// built natively as diagrams, so preparation AND verification work on
// registers far past the dense O(∏dims) ceiling. `auto` (the default) picks
// dense on small registers and dd beyond kAutoBackendThreshold amplitudes.
// Every path synthesizes from the reduced diagram, so the circuit does not
// depend on the backend, and `--approx` works on every family.

#include "cli_args.hpp"

#include "mqsp/circuit/qasm.hpp"
#include "mqsp/hardware/router.hpp"
#include "mqsp/opt/optimizer.hpp"
#include "mqsp/sim/backend.hpp"
#include "mqsp/sim/density_simulator.hpp"
#include "mqsp/states/family.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/error.hpp"
#include "mqsp/support/parse.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace {

using namespace mqsp;
using cli::argFlag;
using cli::argValue;

void usage() {
    std::fprintf(stderr, R"(usage: mqsp_prep --dims <spec> (--state <name> | --amplitudes <file>) [options]

  --dims <spec>        register, e.g. "3,6,2" or "[1x3,1x6,1x2]" (msq first)
  --state <name>       ghz | w | embw | uniform | random | dicke[=<weight>]
                       | cyclic[=<count>]  (dicke defaults to weight 2;
                       cyclic defaults to all lcm(dims) shifts of |0...0>)
  --amplitudes <file>  dense amplitude vector, one "re im" per line
  --seed <n>           RNG seed for --state random (default: library seed)
  --approx <f>         approximate with fidelity threshold f in (0, 1]
  --faithful           paper-faithful op emission (default: elide identities)
  --optimize           run the peephole optimizer on the result
  --backend <name>     evaluation substrate: dense | dd | auto (default auto;
                       dd scales past the dense memory ceiling)
  --threads <n>        worker threads for the dense simulation kernels and
                       the --noise replay; synthesis and the dd backend run
                       on one thread (default: the MQSP_THREADS env var,
                       else hardware concurrency; 1 = single-threaded —
                       results are bit-identical at any count)
  --qasm               print the circuit in MQSP-QASM
  --verify             replay on the selected backend and report the fidelity
  --noise <eps>        replay under depolarizing noise on the density-matrix
                       simulator (two-qudit rate eps, single-qudit rate
                       eps/10) and report simulated vs estimated fidelity;
                       dense only — total dimension must be <= 1024. The
                       kernels honor --threads; results are bit-identical
                       at any thread count.
)");
}

StateVector loadAmplitudes(const Dimensions& dims, const std::string& path) {
    std::ifstream in(path);
    requireThat(in.good(), "cannot open amplitude file: " + path);
    std::vector<Complex> amps;
    double re = 0.0;
    double im = 0.0;
    while (in >> re >> im) {
        amps.emplace_back(re, im);
    }
    StateVector state(dims, std::move(amps));
    state.normalize();
    return state;
}

/// Parse `--state <name>[=<n>]`: a family name, with an optional weight
/// (dicke=<w>) or shift count (cyclic=<n>) overriding the family default;
/// `seed` is the random family's.
states::FamilySpec parseStateSpec(const std::string& name, const Dimensions& dims,
                                  std::uint64_t seed) {
    const std::size_t equals = name.find('=');
    const std::optional<states::Family> family =
        states::familyNamed(std::string_view(name).substr(0, equals));
    const bool takesValue =
        family == states::Family::Dicke || family == states::Family::Cyclic;
    if (!family || (equals != std::string::npos && !takesValue)) {
        detail::throwInvalidArgument("unknown state '" + name + "'");
    }
    states::FamilySpec spec = states::defaultSpec(*family, dims);
    spec.seed = seed;
    if (equals == std::string::npos) {
        return spec;
    }
    const std::string_view value = std::string_view(name).substr(equals + 1);
    if (*family == states::Family::Dicke) {
        // Strict parse: "dicke=junk" and "dicke=-1" must fail with a named
        // error, not a bare stoull exception or a wrapped huge weight; the
        // weight is then range-checked against the register's maximum
        // excitation count, mirroring the cyclic= bounds check below.
        spec.weight = parse::uint64(value, "--state dicke=<weight>");
        const std::uint64_t maxWeight = states::maxDickeWeight(dims);
        requireThat(spec.weight <= maxWeight,
                    "dicke=<weight> needs a weight in [0, " + std::to_string(maxWeight) +
                        "] for this register (sum of dim_i - 1), got " +
                        std::to_string(spec.weight));
        return spec;
    }
    const std::uint64_t count = parse::uint64(value, "--state cyclic=<count>");
    requireThat(count >= 1 && count <= std::numeric_limits<std::uint32_t>::max(),
                "cyclic=<count> needs a count in [1, 2^32)");
    spec.count = static_cast<std::uint32_t>(count);
    return spec;
}

} // namespace

int main(int argc, char** argv) {
    try {
        cli::configureThreads(argc, argv);
        const auto dimsSpec = argValue(argc, argv, "--dims");
        if (!dimsSpec) {
            usage();
            return 2;
        }
        const Dimensions dims = parseDimensionSpec(*dimsSpec);
        const MixedRadix radix(dims);

        const auto stateName = argValue(argc, argv, "--state");
        const auto amplitudePath = argValue(argc, argv, "--amplitudes");
        if (!stateName && !amplitudePath) {
            usage();
            return 2;
        }
        const std::uint64_t seed = cli::argUint(argc, argv, "--seed", Rng::kDefaultSeed);

        const auto approx = argValue(argc, argv, "--approx");
        const double threshold = cli::argDouble(argc, argv, "--approx", 1.0);

        const std::optional<states::FamilySpec> stateSpec =
            amplitudePath
                ? std::nullopt
                : std::optional<states::FamilySpec>(parseStateSpec(*stateName, dims, seed));
        // Random states and amplitude files are split from a dense vector;
        // every other family has a native diagram builder.
        const bool needsDenseVector = !stateSpec || stateSpec->family == states::Family::Random;

        const std::string backendSpec =
            argValue(argc, argv, "--backend").value_or("auto");
        // `auto` policy: dense below the threshold; above it, dd — except
        // that a target with no diagram builder must construct its dense
        // vector anyway, so while the register still fits the dense
        // ceiling, the dense pipeline is the strictly better tool for it.
        const BackendKind backendKind =
            (backendSpec == "auto" && needsDenseVector &&
             radix.totalDimension() <= kDenseBackendCeiling)
                ? BackendKind::Dense
                : resolveBackendKind(backendSpec, radix.totalDimension());
        const auto backend = makeBackend(backendKind);

        SynthesisOptions options;
        options.emitIdentityOperations = argFlag(argc, argv, "--faithful");
        options.circuitName = stateName.value_or("from_file");

        PreparationResult result;
        EvalState target;
        if (backendKind == BackendKind::Dense) {
            // Dense pipeline, exactly as before the backend layer existed —
            // refusing up front past the ceiling instead of dying in the
            // allocator while building the target.
            requireThat(radix.totalDimension() <= kDenseBackendCeiling,
                        "register has " + std::to_string(radix.totalDimension()) +
                            " amplitudes, past the dense backend ceiling of " +
                            std::to_string(kDenseBackendCeiling) +
                            " — use --backend dd");
            const StateVector state = amplitudePath
                                          ? loadAmplitudes(dims, *amplitudePath)
                                          : states::makeDenseState(*stateSpec, dims);
            result = approx ? prepareApproximated(state, threshold, options)
                            : prepareExact(state, options);
            target = EvalState(state);
        } else {
            // DD pipeline: the target is built on the backend's DD session,
            // so the verification replay later allocates into (and hits)
            // the same uniquing table the target was built through.
            // Structured families are built natively; a dense vector is
            // split under the dense ceiling guard.
            requireThat(!needsDenseVector || radix.totalDimension() <= kDenseBackendCeiling,
                        "state '" + stateName.value_or("from_file") +
                            "' needs a dense amplitude vector to construct, and the register "
                            "is past the dense ceiling — use ghz, w, embw, uniform, cyclic, "
                            "or dicke with --backend dd on registers this large");
            const auto session = backend->ddSession();
            DecisionDiagram diagram =
                amplitudePath ? DecisionDiagram::fromStateVector(
                                    loadAmplitudes(dims, *amplitudePath), options.tolerance,
                                    session.get())
                              : states::makeDiagram(*stateSpec, dims, session.get());
            target = EvalState(diagram);
            result = approx ? prepareApproximated(std::move(diagram), threshold, options)
                            : prepareExact(std::move(diagram), options);
        }

        // Statistics go to stderr so that `--qasm` leaves a clean, pipeable
        // circuit on stdout (`mqsp_prep --qasm > f && mqsp_sim --qasm f`).
        if (argFlag(argc, argv, "--optimize")) {
            const auto report = optimizeCircuit(result.circuit);
            std::fprintf(stderr,
                         "optimizer: %zu -> %zu ops (%zu merges, %zu identities, "
                         "%zu fans)\n",
                         report.opsBefore, report.opsAfter, report.mergedRotations,
                         report.droppedIdentities, report.mergedControlFans);
        }

        const auto stats = result.circuit.stats();
        std::fprintf(stderr, "register          : %s (%llu amplitudes)\n",
                     formatDimensionSpec(dims).c_str(),
                     static_cast<unsigned long long>(radix.totalDimension()));
        std::fprintf(stderr, "backend           : %s%s\n", backend->name(),
                     backendSpec == "auto" ? " (auto)" : "");
        std::fprintf(stderr, "diagram nodes     : %llu internal, %llu tree slots\n",
                     static_cast<unsigned long long>(
                         result.diagram.nodeCount(NodeCountMode::Internal)),
                     static_cast<unsigned long long>(
                         result.diagram.nodeCount(NodeCountMode::TreeSlots)));
        std::fprintf(stderr, "distinct complex  : %zu\n",
                     result.diagram.distinctComplexCount());
        std::fprintf(stderr,
                     "operations        : %zu (median controls %.1f, max %zu, depth ~%zu)\n",
                     stats.numOperations, stats.medianControls, stats.maxControls,
                     stats.depthEstimate);
        if (approx) {
            std::fprintf(stderr, "approx fidelity   : %.6f (threshold %.4f)\n",
                         result.approx.fidelity, threshold);
        }
        if (argFlag(argc, argv, "--verify")) {
            const VerifyReport report =
                backend->verify(VerifyRequest{&result.circuit, &target, 1, 0});
            requireThat(!report.failed, report.error);
            std::fprintf(stderr, "verified fidelity : %.9f\n", report.fidelity);
        }
        if (const auto noiseSpec = argValue(argc, argv, "--noise")) {
            const double eps = cli::argDouble(argc, argv, "--noise", 0.0);
            requireThat(eps >= 0.0 && eps <= 1.0,
                        "--noise needs an error rate in [0, 1], got " + *noiseSpec);
            // The density matrix is quadratic in the Hilbert dimension, so
            // the noisy replay only runs on registers within its own
            // (tighter) ceiling; toStateVector enforces it up front.
            const StateVector denseTarget = target.toStateVector(1024);
            NoiseModel noise;
            noise.singleQuditError = eps / 10.0;
            noise.twoQuditError = eps;
            // The simulator snapshots the process-wide execution config, so
            // --threads (applied by cli::configureThreads above) reaches the
            // density kernels.
            const DensityMatrix rho = NoisySimulator().run(result.circuit, noise);
            std::fprintf(stderr,
                         "noisy fidelity    : %.9f (estimator %.9f, eps %.3e, "
                         "trace %.9f)\n",
                         rho.fidelityWithPure(denseTarget),
                         estimateCircuitFidelity(result.circuit, noise), eps,
                         rho.trace());
        }
        if (const auto session = backend->ddSession()) {
            // Session memory report: how much structure the uniquing table
            // shared between the target build and the verification replay.
            const auto sessionStats = session->stats();
            std::fprintf(stderr,
                         "dd session        : %llu pool nodes, unique_hit_rate %.3f "
                         "(%llu/%llu), cache_hit_rate %.3f (%llu/%llu)\n",
                         static_cast<unsigned long long>(sessionStats.poolNodes),
                         sessionStats.uniqueHitRate(),
                         static_cast<unsigned long long>(sessionStats.unique.hits),
                         static_cast<unsigned long long>(sessionStats.unique.lookups),
                         sessionStats.cacheHitRate(),
                         static_cast<unsigned long long>(sessionStats.cache.hits),
                         static_cast<unsigned long long>(sessionStats.cache.lookups));
        }
        if (argFlag(argc, argv, "--qasm")) {
            emitQasm(std::cout, result.circuit);
        }
        return 0;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "mqsp_prep: %s\n", error.what());
        return 1;
    }
}
