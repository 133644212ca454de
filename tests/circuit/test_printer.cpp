#include "mqsp/circuit/printer.hpp"

#include "mqsp/support/error.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace mqsp {
namespace {

Circuit sampleCircuit() {
    Circuit circuit({3, 6, 2}, "sample");
    circuit.append(Operation::phase(0, 0, 1, -0.75));
    circuit.append(Operation::givens(0, 0, 1, 1.25, 0.5));
    circuit.append(Operation::givens(1, 2, 3, 0.33, -1.5, {{0, 2}}));
    circuit.append(Operation::phase(2, 0, 1, 2.0, {{0, 1}, {1, 4}}));
    circuit.append(Operation::hadamard(0));
    circuit.append(Operation::shift(1, 3, {{2, 1}}));
    circuit.append(Operation::levelSwap(1, 0, 5, {{0, 1}}));
    return circuit;
}

TEST(PrinterText, ContainsHeaderOpsAndFooter) {
    const std::string text = circuitToText(sampleCircuit());
    EXPECT_NE(text.find("circuit \"sample\""), std::string::npos);
    EXPECT_NE(text.find("[1x3,1x6,1x2]"), std::string::npos);
    EXPECT_NE(text.find("R(2,3"), std::string::npos);
    EXPECT_NE(text.find("ops=7"), std::string::npos);
}

TEST(PrinterJson, RoundTripsAllOperations) {
    const Circuit original = sampleCircuit();
    std::stringstream stream;
    printCircuitJsonLines(stream, original);
    const Circuit parsed = parseCircuitJsonLines(stream);

    EXPECT_EQ(parsed.name(), original.name());
    EXPECT_EQ(parsed.dimensions(), original.dimensions());
    ASSERT_EQ(parsed.numOperations(), original.numOperations());
    for (std::size_t i = 0; i < original.numOperations(); ++i) {
        const Operation& a = original[i];
        const Operation& b = parsed[i];
        EXPECT_EQ(a.kind, b.kind) << "op " << i;
        EXPECT_EQ(a.target, b.target);
        EXPECT_EQ(a.levelA, b.levelA);
        EXPECT_EQ(a.levelB, b.levelB);
        EXPECT_DOUBLE_EQ(a.theta, b.theta);
        EXPECT_DOUBLE_EQ(a.phi, b.phi);
        EXPECT_EQ(a.shiftAmount, b.shiftAmount);
        EXPECT_EQ(a.controls, b.controls);
    }
}

TEST(PrinterJson, RoundTripPreservesFullDoublePrecision) {
    Circuit circuit({2}, "precise");
    circuit.append(Operation::givens(0, 0, 1, 0.1234567890123456789, -2.718281828459045));
    std::stringstream stream;
    printCircuitJsonLines(stream, circuit);
    const Circuit parsed = parseCircuitJsonLines(stream);
    EXPECT_DOUBLE_EQ(parsed[0].theta, circuit[0].theta);
    EXPECT_DOUBLE_EQ(parsed[0].phi, circuit[0].phi);
}

TEST(PrinterJson, EmptyCircuitRoundTrips) {
    const Circuit original({4, 2}, "empty");
    std::stringstream stream;
    printCircuitJsonLines(stream, original);
    const Circuit parsed = parseCircuitJsonLines(stream);
    EXPECT_EQ(parsed.numOperations(), 0U);
    EXPECT_EQ(parsed.dimensions(), (Dimensions{4, 2}));
}

TEST(PrinterJson, RejectsMissingHeader) {
    std::stringstream stream;
    EXPECT_THROW((void)parseCircuitJsonLines(stream), InvalidArgumentError);
}

TEST(PrinterJson, RejectsUnknownKind) {
    std::stringstream stream;
    stream << "{\"name\":\"x\",\"dims\":[2]}\n";
    stream << "{\"kind\":\"warp\",\"target\":0,\"levelA\":0,\"levelB\":1,\"theta\":0,"
              "\"phi\":0,\"shift\":0,\"controls\":[]}\n";
    EXPECT_THROW((void)parseCircuitJsonLines(stream), InvalidArgumentError);
}

/// Feed `text` through the parser and require the error message to carry
/// `fragment` — malformed circuit files must say which line and key broke.
void expectParseError(const std::string& text, const std::string& fragment) {
    std::stringstream stream(text);
    try {
        (void)parseCircuitJsonLines(stream);
        FAIL() << "expected InvalidArgumentError for input:\n" << text;
    } catch (const InvalidArgumentError& error) {
        EXPECT_NE(std::string(error.what()).find(fragment), std::string::npos)
            << "input:\n" << text << "\nproduced: " << error.what();
    }
}

constexpr const char* kHeader = "{\"name\":\"x\",\"dims\":[3,2]}\n";

TEST(PrinterJson, RejectsNonNumericValueNamingKeyAndLine) {
    expectParseError(std::string(kHeader) +
                         "{\"kind\":\"phase\",\"target\":zero,\"levelA\":0,\"levelB\":1,"
                         "\"theta\":0,\"phi\":0,\"shift\":0,\"controls\":[]}\n",
                     "value for key 'target'");
    expectParseError(std::string(kHeader) +
                         "{\"kind\":\"phase\",\"target\":0,\"levelA\":0,\"levelB\":1,"
                         "\"theta\":fast,\"phi\":0,\"shift\":0,\"controls\":[]}\n",
                     "value for key 'theta'");
}

TEST(PrinterJson, RejectsNonFiniteAngles) {
    expectParseError(std::string(kHeader) +
                         "{\"kind\":\"phase\",\"target\":0,\"levelA\":0,\"levelB\":1,"
                         "\"theta\":nan,\"phi\":0,\"shift\":0,\"controls\":[]}\n",
                     "rotation angles must be finite");
}

TEST(PrinterJson, RejectsTruncatedOperationLine) {
    // A line cut mid-object (torn write, truncated download) names the
    // first missing key instead of crashing in a raw substring scan.
    expectParseError(std::string(kHeader) + "{\"kind\":\"phase\",\"target\":0\n",
                     "missing key 'levelA'");
    expectParseError(std::string(kHeader) + "{\"kind\":\"phase\"\n", "missing key 'target'");
}

TEST(PrinterJson, RejectsMalformedControlPairs) {
    const std::string prefix = "{\"kind\":\"phase\",\"target\":1,\"levelA\":0,\"levelB\":1,"
                               "\"theta\":0,\"phi\":0,\"shift\":0,";
    expectParseError(std::string(kHeader) + prefix + "\"controls\":[[0,q]]}\n",
                     "control pair in:");
    expectParseError(std::string(kHeader) + prefix + "\"controls\":[[0,-1]]}\n",
                     "control pair in:");
    expectParseError(std::string(kHeader) + prefix + "\"controls\":[[01]]}\n",
                     "malformed control pair");
}

TEST(PrinterJson, RejectsUnterminatedControlsArray) {
    expectParseError(std::string(kHeader) +
                         "{\"kind\":\"phase\",\"target\":1,\"levelA\":0,\"levelB\":1,"
                         "\"theta\":0,\"phi\":0,\"shift\":0,\"controls\":[",
                     "unterminated controls array");
}

TEST(PrinterJson, RejectsBadHeaderDims) {
    expectParseError("{\"name\":\"x\",\"dims\":[3,q]}\n", "dims entry in:");
    expectParseError("{\"name\":\"x\",\"dims\":[3,-2]}\n", "dims entry in:");
    expectParseError("{\"name\":\"x\",\"dims\":[3,2", "unterminated dims in:");
    expectParseError("{\"name\":\"x\"}\n", "missing dims array");
}

} // namespace
} // namespace mqsp
