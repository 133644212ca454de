#include "mqsp/circuit/printer.hpp"

#include "mqsp/support/error.hpp"
#include "mqsp/support/parse.hpp"

#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>

namespace mqsp {

void printCircuitText(std::ostream& out, const Circuit& circuit) {
    out << "circuit \"" << circuit.name() << "\" on "
        << formatDimensionSpec(circuit.dimensions()) << " (" << circuit.numQudits()
        << " qudits)\n";
    std::size_t index = 0;
    for (const auto& op : circuit.operations()) {
        out << std::setw(5) << index++ << ": " << op.toString() << '\n';
    }
    const auto stats = circuit.stats();
    out << "ops=" << stats.numOperations << " rotations=" << stats.numRotations
        << " phases=" << stats.numPhases << " medianControls=" << stats.medianControls
        << " maxControls=" << stats.maxControls << " depth~=" << stats.depthEstimate << '\n';
}

std::string circuitToText(const Circuit& circuit) {
    std::ostringstream out;
    printCircuitText(out, circuit);
    return out.str();
}

namespace {

const char* kindName(GateKind kind) {
    switch (kind) {
    case GateKind::GivensRotation:
        return "givens";
    case GateKind::PhaseRotation:
        return "phase";
    case GateKind::Hadamard:
        return "hadamard";
    case GateKind::Shift:
        return "shift";
    case GateKind::LevelSwap:
        return "levelswap";
    }
    detail::throwInternal("kindName: unknown gate kind");
}

GateKind kindFromName(const std::string& name) {
    if (name == "givens") {
        return GateKind::GivensRotation;
    }
    if (name == "phase") {
        return GateKind::PhaseRotation;
    }
    if (name == "hadamard") {
        return GateKind::Hadamard;
    }
    if (name == "shift") {
        return GateKind::Shift;
    }
    if (name == "levelswap") {
        return GateKind::LevelSwap;
    }
    detail::throwInvalidArgument("parseCircuitJsonLines: unknown gate kind '" + name + "'");
}

// Minimal JSON value scanners for the flat objects we emit. The emitted
// format is fully under our control, so a full JSON parser is unnecessary;
// these helpers still validate structure and throw on malformed input.
std::string extractString(const std::string& line, const std::string& key) {
    const std::string needle = "\"" + key + "\":\"";
    const auto pos = line.find(needle);
    requireThat(pos != std::string::npos,
                "parseCircuitJsonLines: missing key '" + key + "' in: " + line);
    const auto start = pos + needle.size();
    const auto end = line.find('"', start);
    requireThat(end != std::string::npos, "parseCircuitJsonLines: unterminated string value");
    return line.substr(start, end - start);
}

double extractNumber(const std::string& line, const std::string& key) {
    const std::string needle = "\"" + key + "\":";
    const auto pos = line.find(needle);
    requireThat(pos != std::string::npos, "parseCircuitJsonLines: missing key '" + key +
                                              "' in: " + parse::clipForMessage(line));
    const auto start = pos + needle.size();
    auto end = line.find_first_of(",}]", start);
    if (end == std::string::npos) {
        end = line.size();
    }
    return parse::real(line.substr(start, end - start),
                       "parseCircuitJsonLines: value for key '" + key +
                           "' in: " + parse::clipForMessage(line));
}

std::vector<Control> extractControls(const std::string& line) {
    std::vector<Control> controls;
    const std::string needle = "\"controls\":[";
    const auto pos = line.find(needle);
    requireThat(pos != std::string::npos, "parseCircuitJsonLines: missing controls array in: " +
                                              parse::clipForMessage(line));
    auto cursor = pos + needle.size();
    while (cursor < line.size() && line[cursor] != ']') {
        if (line[cursor] == '[') {
            const auto comma = line.find(',', cursor);
            const auto close = line.find(']', cursor);
            if (comma == std::string::npos || close == std::string::npos || comma > close) {
                detail::throwInvalidArgument("parseCircuitJsonLines: malformed control pair in: " +
                                             parse::clipForMessage(line));
            }
            // Both fields parse in place; the message is built only to throw.
            const std::string_view view(line);
            const auto field = [&](std::size_t from, std::size_t to) {
                const std::string_view text = view.substr(from, to - from);
                const auto value = parse::tryUint64(text);
                if (!value) {
                    parse::refuse("parseCircuitJsonLines: control pair in: " +
                                      parse::clipForMessage(line),
                                  "a non-negative integer", text);
                }
                return *value;
            };
            Control ctrl;
            ctrl.qudit = static_cast<std::size_t>(field(cursor + 1, comma));
            ctrl.level = static_cast<Level>(field(comma + 1, close));
            controls.push_back(ctrl);
            cursor = close + 1;
        } else {
            ++cursor;
        }
    }
    requireThat(cursor < line.size(),
                "parseCircuitJsonLines: unterminated controls array in: " +
                    parse::clipForMessage(line));
    return controls;
}

} // namespace

void printCircuitJsonLines(std::ostream& out, const Circuit& circuit) {
    out << "{\"name\":\"" << circuit.name() << "\",\"dims\":[";
    const auto& dims = circuit.dimensions();
    for (std::size_t i = 0; i < dims.size(); ++i) {
        if (i > 0) {
            out << ',';
        }
        out << dims[i];
    }
    out << "]}\n";
    out << std::setprecision(17);
    for (const auto& op : circuit.operations()) {
        out << "{\"kind\":\"" << kindName(op.kind) << "\",\"target\":" << op.target
            << ",\"levelA\":" << op.levelA << ",\"levelB\":" << op.levelB
            << ",\"theta\":" << op.theta << ",\"phi\":" << op.phi
            << ",\"shift\":" << op.shiftAmount << ",\"controls\":[";
        for (std::size_t i = 0; i < op.controls.size(); ++i) {
            if (i > 0) {
                out << ',';
            }
            out << '[' << op.controls[i].qudit << ',' << op.controls[i].level << ']';
        }
        out << "]}\n";
    }
}

Circuit parseCircuitJsonLines(std::istream& in) {
    std::string header;
    requireThat(static_cast<bool>(std::getline(in, header)),
                "parseCircuitJsonLines: missing header line");
    const std::string name = extractString(header, "name");
    Dimensions dims;
    const std::string needle = "\"dims\":[";
    const auto pos = header.find(needle);
    requireThat(pos != std::string::npos, "parseCircuitJsonLines: missing dims array");
    auto cursor = pos + needle.size();
    while (cursor < header.size() && header[cursor] != ']') {
        const auto end = header.find_first_of(",]", cursor);
        requireThat(end != std::string::npos, "parseCircuitJsonLines: unterminated dims in: " +
                                                  parse::clipForMessage(header));
        dims.push_back(static_cast<Dimension>(
            parse::uint64(header.substr(cursor, end - cursor),
                          "parseCircuitJsonLines: dims entry in: " +
                              parse::clipForMessage(header))));
        cursor = end;
        if (header[cursor] == ',') {
            ++cursor;
        }
    }

    Circuit circuit(dims, name);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) {
            continue;
        }
        Operation op;
        op.kind = kindFromName(extractString(line, "kind"));
        op.target = static_cast<std::size_t>(extractNumber(line, "target"));
        op.levelA = static_cast<Level>(extractNumber(line, "levelA"));
        op.levelB = static_cast<Level>(extractNumber(line, "levelB"));
        op.theta = extractNumber(line, "theta");
        op.phi = extractNumber(line, "phi");
        op.shiftAmount = static_cast<Level>(extractNumber(line, "shift"));
        op.controls = extractControls(line);
        circuit.append(std::move(op));
    }
    return circuit;
}

} // namespace mqsp
