#include "mqsp/circuit/qasm.hpp"

#include "common/counting_new.hpp"
#include "mqsp/sim/simulator.hpp"
#include "mqsp/states/states.hpp"
#include "mqsp/support/error.hpp"
#include "mqsp/support/rng.hpp"
#include "mqsp/synth/synthesizer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numbers>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

namespace mqsp {
namespace {

Circuit sampleCircuit() {
    Circuit circuit({3, 6, 2}, "qasm_sample");
    circuit.append(Operation::phase(0, 0, 1, -0.75));
    circuit.append(Operation::givens(0, 0, 2, 1.25, 0.5));
    circuit.append(Operation::givens(1, 2, 3, 0.33, -1.5, {{0, 2}}));
    circuit.append(Operation::phase(2, 0, 1, 2.0, {{0, 1}, {1, 4}}));
    circuit.append(Operation::hadamard(0));
    circuit.append(Operation::shift(1, 3, {{2, 1}}));
    circuit.append(Operation::levelSwap(1, 0, 5));
    return circuit;
}

void expectSameOps(const Circuit& a, const Circuit& b) {
    ASSERT_EQ(a.numOperations(), b.numOperations());
    EXPECT_EQ(a.dimensions(), b.dimensions());
    for (std::size_t i = 0; i < a.numOperations(); ++i) {
        const Operation& x = a[i];
        const Operation& y = b[i];
        EXPECT_EQ(x.kind, y.kind) << "op " << i;
        EXPECT_EQ(x.target, y.target);
        EXPECT_EQ(x.levelA, y.levelA);
        EXPECT_EQ(x.levelB, y.levelB);
        EXPECT_DOUBLE_EQ(x.theta, y.theta);
        EXPECT_DOUBLE_EQ(x.phi, y.phi);
        EXPECT_EQ(x.shiftAmount, y.shiftAmount);
        EXPECT_EQ(x.controls, y.controls);
    }
}

TEST(Qasm, EmitsHeaderRegisterAndGates) {
    const std::string text = toQasm(sampleCircuit());
    EXPECT_NE(text.find("MQSPQASM 1.0;"), std::string::npos);
    EXPECT_NE(text.find("qreg q[3] = [3, 6, 2];"), std::string::npos);
    EXPECT_NE(text.find("rxy q[0]"), std::string::npos);
    EXPECT_NE(text.find("rz q[0]"), std::string::npos);
    EXPECT_NE(text.find("h q[0];"), std::string::npos);
    EXPECT_NE(text.find("x q[1] (+3) ctl q[2]=1;"), std::string::npos);
    EXPECT_NE(text.find("swp q[1] (0, 5);"), std::string::npos);
    EXPECT_NE(text.find("ctl q[0]=1, q[1]=4;"), std::string::npos);
}

TEST(Qasm, RoundTripsExactly) {
    const Circuit original = sampleCircuit();
    const Circuit parsed = parseQasmString(toQasm(original));
    expectSameOps(original, parsed);
}

TEST(Qasm, RoundTripsSynthesizedCircuits) {
    Rng rng(5);
    const StateVector target = states::random({3, 4, 2}, rng);
    const auto prep = prepareExact(target);
    const Circuit parsed = parseQasmString(toQasm(prep.circuit));
    expectSameOps(prep.circuit, parsed);
    // Behavioural check on top of the structural one.
    EXPECT_NEAR(Simulator::preparationFidelity(parsed, target), 1.0, 1e-9);
}

TEST(Qasm, ToleratesCommentsAndWhitespace) {
    const std::string text = R"(
        // leading comment
        MQSPQASM 1.0;

        qreg q[2] = [3, 2];   // register comment
        h q[0];               // gate comment
          rxy   q[1]   ( 0 , 1 , 0.5 , -0.25 )   ctl   q[0]=2 ;
    )";
    const Circuit circuit = parseQasmString(text);
    ASSERT_EQ(circuit.numOperations(), 2U);
    EXPECT_EQ(circuit[1].kind, GateKind::GivensRotation);
    EXPECT_EQ(circuit[1].controls, (std::vector<Control>{{0, 2}}));
}

TEST(Qasm, RejectsMissingHeader) {
    EXPECT_THROW((void)parseQasmString("qreg q[1] = [2];\n"), InvalidArgumentError);
    EXPECT_THROW((void)parseQasmString(""), InvalidArgumentError);
    EXPECT_THROW((void)parseQasmString("MQSPQASM 2.0;\nqreg q[1] = [2];\n"),
                 InvalidArgumentError);
}

TEST(Qasm, RejectsBadRegister) {
    EXPECT_THROW((void)parseQasmString("MQSPQASM 1.0;\nqreg q[2] = [3];\n"),
                 InvalidArgumentError);
    EXPECT_THROW((void)parseQasmString("MQSPQASM 1.0;\nqreg q[1] = [1];\n"),
                 InvalidArgumentError);
}

TEST(Qasm, RejectsUnknownGatesAndBadSyntax) {
    const std::string header = "MQSPQASM 1.0;\nqreg q[2] = [3, 2];\n";
    EXPECT_THROW((void)parseQasmString(header + "warp q[0];\n"), InvalidArgumentError);
    EXPECT_THROW((void)parseQasmString(header + "h q[0]\n"), InvalidArgumentError);
    EXPECT_THROW((void)parseQasmString(header + "h q[5];\n"), InvalidArgumentError);
    EXPECT_THROW((void)parseQasmString(header + "rxy q[1] (0, 5, 1.0, 0.0);\n"),
                 InvalidArgumentError);
    EXPECT_THROW((void)parseQasmString(header + "h q[0]; extra\n"), InvalidArgumentError);
}

TEST(Qasm, ErrorMessagesCarryLineNumbers) {
    const std::string text = "MQSPQASM 1.0;\nqreg q[1] = [2];\n\n// c\nbad q[0];\n";
    try {
        (void)parseQasmString(text);
        FAIL() << "expected InvalidArgumentError";
    } catch (const InvalidArgumentError& error) {
        EXPECT_NE(std::string(error.what()).find("line 5"), std::string::npos)
            << error.what();
    }
}

TEST(QasmStream, YieldsGatesIncrementallyWithCursorBookkeeping) {
    std::istringstream in(toQasm(sampleCircuit()));
    GateStream stream(in);
    // The preamble is consumed eagerly: the register is known before any
    // gate has been read.
    EXPECT_EQ(stream.dimensions(), (Dimensions{3, 6, 2}));
    EXPECT_EQ(stream.opsRead(), 0U);
    EXPECT_FALSE(stream.eof());

    const Circuit expected = sampleCircuit();
    for (std::size_t i = 0; i < expected.numOperations(); ++i) {
        const auto op = stream.next();
        ASSERT_TRUE(op.has_value()) << "op " << i;
        EXPECT_EQ(op->kind, expected[i].kind) << "op " << i;
        EXPECT_EQ(stream.opsRead(), i + 1);
    }
    EXPECT_FALSE(stream.next().has_value());
    EXPECT_TRUE(stream.eof());
    // Exhausted streams stay exhausted.
    EXPECT_FALSE(stream.next().has_value());
    EXPECT_EQ(stream.opsRead(), sampleCircuit().numOperations());
}

TEST(QasmStream, DrainMatchesTheWholeCircuitParser) {
    const std::string text = toQasm(sampleCircuit());
    std::istringstream in(text);
    GateStream stream(in);
    Circuit drained(stream.dimensions(), "drained");
    while (const auto op = stream.next()) {
        drained.append(*op);
    }
    expectSameOps(parseQasmString(text), drained);
}

TEST(QasmStream, MalformedPreambleFailsAtConstruction) {
    const auto construct = [](const std::string& text) {
        std::istringstream in(text);
        (void)GateStream(in);
    };
    EXPECT_THROW(construct(""), InvalidArgumentError);
    EXPECT_THROW(construct("qreg q[1] = [2];\n"), InvalidArgumentError);
    EXPECT_THROW(construct("MQSPQASM 1.0;\n"), InvalidArgumentError);
    EXPECT_THROW(construct("MQSPQASM 1.0;\nh q[0];\n"), InvalidArgumentError);
}

TEST(QasmStream, StatementParsesOneValidatedGate) {
    const MixedRadix radix(Dimensions{3, 6, 2});
    const Operation op = parseQasmStatement("x q[1] (+3) ctl q[2]=1; // tail", radix);
    EXPECT_EQ(op.kind, GateKind::Shift);
    EXPECT_EQ(op.target, 1U);
    EXPECT_EQ(op.shiftAmount, 3U);
    EXPECT_EQ(op.controls, (std::vector<Control>{{2, 1}}));

    // Empty and comment-only statements are refused, not silently dropped.
    EXPECT_THROW((void)parseQasmStatement("", radix), InvalidArgumentError);
    EXPECT_THROW((void)parseQasmStatement("  // nothing", radix), InvalidArgumentError);
    // Register admissibility is enforced, with the seeded line number in
    // the message.
    try {
        (void)parseQasmStatement("h q[9];", radix, 7);
        FAIL() << "expected InvalidArgumentError";
    } catch (const InvalidArgumentError& error) {
        EXPECT_NE(std::string(error.what()).find("line 7"), std::string::npos)
            << error.what();
    }
}

TEST(QasmStream, OversizedIntegersAreRefusedNotUndefined) {
    const std::string header = "MQSPQASM 1.0;\nqreg q[1] = [2];\n";
    try {
        (void)parseQasmString(header + "x q[99999999999999999999] (+1);\n");
        FAIL() << "expected InvalidArgumentError";
    } catch (const InvalidArgumentError& error) {
        EXPECT_NE(std::string(error.what()).find("overflows"), std::string::npos)
            << error.what();
    }
}

TEST(QasmStream, EveryTruncatedPrefixParsesOrThrowsInvalidArgument) {
    // A torn stream — connection dropped mid-line, file truncated mid-token
    // — must either parse (the tear landed on a statement boundary) or
    // throw InvalidArgumentError. Never a bare stdlib exception, never a
    // crash, and the streaming reader must agree with the whole-circuit
    // parser on which prefixes are acceptable.
    const std::string text = toQasm(sampleCircuit());
    std::size_t parsed = 0;
    std::size_t rejected = 0;
    for (std::size_t cut = 0; cut <= text.size(); ++cut) {
        const std::string prefix = text.substr(0, cut);
        bool wholeOk = false;
        try {
            (void)parseQasmString(prefix);
            wholeOk = true;
            ++parsed;
        } catch (const InvalidArgumentError&) {
            ++rejected;
        }
        bool streamOk = false;
        try {
            std::istringstream in(prefix);
            GateStream stream(in);
            while (stream.next().has_value()) {
            }
            streamOk = true;
        } catch (const InvalidArgumentError&) {
        }
        EXPECT_EQ(wholeOk, streamOk) << "prefix of " << cut << " bytes";
    }
    EXPECT_GT(parsed, 0U);
    EXPECT_GT(rejected, 0U);
}

/// Deterministic xorshift64 — the fuzz corpus must be reproducible.
struct Xorshift {
    std::uint64_t state = 0x9E3779B97F4A7C15ULL;
    std::uint64_t operator()() {
        state ^= state << 13U;
        state ^= state >> 7U;
        state ^= state << 17U;
        return state;
    }
};

TEST(QasmStream, ByteSoupAndMutatedTextNeverEscapeAsBareExceptions) {
    const std::string valid = toQasm(sampleCircuit());
    Xorshift next;
    std::size_t rejected = 0;
    for (int round = 0; round < 2000; ++round) {
        std::string text;
        if (round % 2 == 0) {
            // Pure byte soup, control bytes and NULs included.
            const std::size_t length = next() % 96;
            for (std::size_t i = 0; i < length; ++i) {
                text += static_cast<char>(next() % 256);
            }
        } else {
            // Mutated valid text: gets deep into the gate grammar instead
            // of dying at the header.
            text = valid;
            for (int flips = 0; flips < 3; ++flips) {
                text[next() % text.size()] = static_cast<char>(next() % 256);
            }
        }
        try {
            (void)parseQasmString(text);
        } catch (const InvalidArgumentError&) {
            ++rejected;
        }
        // Any other exception type escapes and fails the test.
    }
    EXPECT_GT(rejected, 0U);
}

TEST(Qasm, RoundTripsEveryBenchmarkFamilyCircuit) {
    Rng rng(9);
    for (const auto& dims : {Dimensions{3, 6, 2}, Dimensions{9, 5, 6, 3}}) {
        for (int which = 0; which < 4; ++which) {
            const StateVector target = which == 0   ? states::ghz(dims)
                                       : which == 1 ? states::wState(dims)
                                       : which == 2 ? states::embeddedWState(dims)
                                                    : states::random(dims, rng);
            SynthesisOptions lean;
            lean.emitIdentityOperations = false;
            const auto prep = prepareExact(target, lean);
            const Circuit parsed = parseQasmString(toQasm(prep.circuit));
            expectSameOps(prep.circuit, parsed);
        }
    }
}

/// printf's "%.17g" rendering of one double.
std::string percentG17(double value) {
    char buffer[40];
    const int length = std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return std::string(buffer, static_cast<std::size_t>(length));
}

TEST(QasmWriter, AnglesPrintExactlyAsPercentG17) {
    const double angles[] = {-0.0, 0.1, 1.0 / 3.0, std::numbers::pi, 1e17, DBL_MAX};
    Circuit circuit({3, 2}, "angles");
    std::string want = "MQSPQASM 1.0;\n// angles\nqreg q[2] = [3, 2];\n";
    for (const double angle : angles) {
        circuit.append(Operation::givens(0, 0, 2, angle, -angle, {{1, 1}}));
        circuit.append(Operation::phase(1, 0, 1, angle));
        want += "rxy q[0] (0, 2, " + percentG17(angle) + ", " + percentG17(-angle) +
                ") ctl q[1]=1;\n";
        want += "rz q[1] (0, 1, " + percentG17(angle) + ");\n";
    }
    EXPECT_EQ(toQasm(circuit), want);
}

TEST(QasmWriter, EmitLeavesTheCallersStreamFormatting) {
    std::ostringstream out;
    out.precision(4);
    emitQasm(out, sampleCircuit());
    EXPECT_EQ(out.precision(), 4);
    EXPECT_EQ(out.str(), toQasm(sampleCircuit()));
}

TEST(Qasm, TinyAndSignedZeroAnglesReadBackBitIdentical) {
    // Subnormals underflow in strtod's eyes (ERANGE), but they are exact
    // doubles and the dialect promises an exact round trip.
    const double angles[] = {9.9999999999999694e-311, std::numeric_limits<double>::denorm_min(),
                             std::nextafter(DBL_MIN, 0.0), DBL_MIN, -0.0};
    Circuit circuit({3});
    for (const double angle : angles) {
        circuit.append(Operation::givens(0, 0, 1, angle, -angle));
        circuit.append(Operation::phase(0, 1, 2, angle));
    }
    const Circuit parsed = parseQasmString(toQasm(circuit));
    ASSERT_EQ(parsed.numOperations(), circuit.numOperations());
    for (std::size_t i = 0; i < circuit.numOperations(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed[i].theta),
                  std::bit_cast<std::uint64_t>(circuit[i].theta))
            << "op " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(parsed[i].phi),
                  std::bit_cast<std::uint64_t>(circuit[i].phi))
            << "op " << i;
    }
}

/// Parse `text` and require an InvalidArgumentError carrying `fragment`.
void expectParseError(const std::string& text, const std::string& fragment) {
    try {
        (void)parseQasmString(text);
        FAIL() << "expected InvalidArgumentError for:\n" << text;
    } catch (const InvalidArgumentError& error) {
        EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos) << error.what();
    }
}

TEST(Qasm, NonFiniteAnglesAreRefusedWithTheLineNumber) {
    const std::string header = "MQSPQASM 1.0;\nqreg q[2] = [3, 2];\n";
    const std::string refused = "line 3: Circuit: rotation angles must be finite";
    expectParseError(header + "rxy q[0] (0, 1, nan, 0);\n", refused);
    expectParseError(header + "rxy q[0] (0, 1, 0.5, inf);\n", refused);
    expectParseError(header + "rz q[1] (0, 1, -inf);\n", refused);
    // Out-of-range text is still not a number at all.
    expectParseError(header + "rz q[1] (0, 1, 1e999);\n", "line 3: expected a number");
}

/// The angle `text` reads to, inside an rz statement.
double readAngle(const std::string& text) {
    const Circuit parsed =
        parseQasmString("MQSPQASM 1.0;\nqreg q[1] = [3];\nrz q[0] (0, 1, " + text + ");\n");
    return parsed[0].theta;
}

TEST(Qasm, EveryAngleSpellingReadsAsStrtodReadsIt) {
    // Spellings strtod accepts and a plain decimal reader might not: an
    // explicit '+', hex floats, an underflow to zero, subnormals. Each must
    // read to the double strtod gives.
    const std::pair<const char*, double> cases[] = {
        {"+1.5", 1.5},
        {"+.5", 0.5},
        {"0x1.8p1", 3.0},
        {"-0X1P-2", -0.25},
        {"0x10", 16.0},
        {"1e-400", 0.0},
        {"-1e-400", -0.0},
        {"4.9406564584124654e-324", std::numeric_limits<double>::denorm_min()},
        {"2.2250738585072009e-308", std::nextafter(DBL_MIN, 0.0)},
        {"1E+2", 100.0},
        {"0.1", 0.1},
        {"-0", -0.0},
        {"3.", 3.0},
    };
    for (const auto& [text, want] : cases) {
        const double got = readAngle(text);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want)) << text;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(std::strtod(text, nullptr)))
            << text;
    }
}

TEST(Qasm, OverflowingAndNanAnglesKeepTheirMessages) {
    const std::string header = "MQSPQASM 1.0;\nqreg q[1] = [3];\n";
    const std::string refused = "line 3: Circuit: rotation angles must be finite";
    expectParseError(header + "rz q[0] (0, 1, 1e999);\n", "line 3: expected a number");
    expectParseError(header + "rz q[0] (0, 1, -1e999);\n", "line 3: expected a number");
    expectParseError(header + "rz q[0] (0, 1, 0x1p99999);\n", "line 3: expected a number");
    expectParseError(header + "rz q[0] (0, 1, nan);\n", refused);
    expectParseError(header + "rz q[0] (0, 1, -NaN);\n", refused);
    expectParseError(header + "rz q[0] (0, 1, +inf);\n", refused);
    expectParseError(header + "rz q[0] (0, 1, +);\n", "line 3: expected a number");
    expectParseError(header + "rz q[0] (0, 1, 0x);\n", "line 3: expected ')'");
}

TEST(GateStream, AControlledGateCostsOneAllocation) {
    // The control list is reserved once for all its entries, and the
    // scanner reads characters without the locale.
    const std::string statement =
        "rxy q[5] (0, 1, 0.5, -0.25) ctl q[0]=1, q[1]=2, q[2]=0, q[3]=1, q[4]=2;\n";
    std::istringstream in("MQSPQASM 1.0;\nqreg q[6] = [2, 3, 2, 2, 3, 2];\n" + statement +
                          statement);
    GateStream stream(in);
    ASSERT_TRUE(stream.next().has_value()); // sizes the line buffer
    const std::size_t before = counting_new::allocations;
    const std::optional<Operation> op = stream.next();
    EXPECT_EQ(counting_new::allocations - before, 1U);
    ASSERT_TRUE(op.has_value());
    ASSERT_EQ(op->controls.size(), 5U);
    EXPECT_EQ(op->controls[4].qudit, 4U);
    EXPECT_EQ(op->controls[4].level, 2U);
}

} // namespace
} // namespace mqsp
