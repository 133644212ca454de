#include "mqsp/circuit/qasm.hpp"

#include "mqsp/support/error.hpp"
#include "mqsp/support/parse.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>

namespace mqsp {

namespace {

void put(std::string& out, std::string_view text) { out.append(text); }

template <std::unsigned_integral Integer>
void put(std::string& out, Integer value) {
    char digits[24];
    out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
}

/// Angles print as printf's "%.17g": enough digits to read back every double.
void put(std::string& out, double value) {
    char text[32];
    const auto result =
        std::to_chars(text, text + sizeof text, value, std::chars_format::general, 17);
    out.append(text, result.ptr);
}

template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
    (put(out, parts), ...);
}

} // namespace

void emitQasm(std::ostream& out, const Circuit& circuit) {
    const std::string text = toQasm(circuit);
    out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

std::string toQasm(const Circuit& circuit) {
    const auto& dims = circuit.dimensions();
    std::string out;
    out.reserve(64 + circuit.name().size() + 8 * dims.size() + 96 * circuit.numOperations());
    append(out, "MQSPQASM 1.0;\n// ", circuit.name(), "\nqreg q[", circuit.numQudits(), "] = [");
    for (std::size_t i = 0; i < dims.size(); ++i) {
        append(out, i == 0 ? "" : ", ", dims[i]);
    }
    append(out, "];\n");
    for (const auto& op : circuit.operations()) {
        switch (op.kind) {
        case GateKind::GivensRotation:
            append(out, "rxy q[", op.target, "] (", op.levelA, ", ", op.levelB, ", ", op.theta,
                   ", ", op.phi, ")");
            break;
        case GateKind::PhaseRotation:
            append(out, "rz q[", op.target, "] (", op.levelA, ", ", op.levelB, ", ", op.theta,
                   ")");
            break;
        case GateKind::Hadamard:
            append(out, "h q[", op.target, "]");
            break;
        case GateKind::Shift:
            append(out, "x q[", op.target, "] (+", op.shiftAmount, ")");
            break;
        case GateKind::LevelSwap:
            append(out, "swp q[", op.target, "] (", op.levelA, ", ", op.levelB, ")");
            break;
        }
        for (std::size_t i = 0; i < op.controls.size(); ++i) {
            append(out, i == 0 ? " ctl q[" : ", q[", op.controls[i].qudit, "]=",
                   op.controls[i].level);
        }
        append(out, ";\n");
    }
    return out;
}

namespace {

/// Strip a trailing `//` comment and surrounding whitespace; an empty
/// result means the line carries no statement. A view into `raw`.
[[nodiscard]] std::string_view stripLine(std::string_view raw) {
    if (const auto comment = raw.find("//"); comment != std::string_view::npos) {
        raw = raw.substr(0, comment);
    }
    const auto begin = raw.find_first_not_of(" \t\r");
    if (begin == std::string_view::npos) {
        return {};
    }
    const auto end = raw.find_last_not_of(" \t\r");
    return raw.substr(begin, end - begin + 1);
}

/// Recursive-descent scanner over ONE stripped dialect line, in place: its
/// tokens are views into the line. Both the streaming reader and the
/// single-statement entry point drive it; the line number is carried only
/// for the "parseQasm: line N: ..." messages. The line is a stripLine view
/// into a NUL-terminated string, so it is followed by whitespace, a `//`
/// comment or the terminator, none of which continues a number: strtod
/// may read it in place.
class LineParser {
public:
    LineParser(std::string_view line, std::size_t lineNumber)
        : line_(line), lineNumber_(lineNumber) {}

    [[noreturn]] void fail(const std::string& message) const {
        detail::throwInvalidArgument("parseQasm: line " + std::to_string(lineNumber_) +
                                     ": " + message);
    }

    /// "MQSPQASM 1.0;" — the whole header line.
    void header() {
        const std::string_view keyword = word();
        if (keyword != "MQSPQASM") {
            fail("expected MQSPQASM header, got '" + std::string(keyword) + "'");
        }
        const std::string_view version = word();
        if (version != "1.0") {
            fail("unsupported version '" + std::string(version) + "'");
        }
        expect(';', "header");
    }

    /// "qreg q[n] = [d, ...];" — the whole register line.
    [[nodiscard]] Dimensions qreg() {
        if (word() != "qreg") {
            fail("expected qreg declaration");
        }
        const std::size_t count = site();
        expect('=', "qreg dimensions");
        expect('[', "qreg dimensions");
        Dimensions dims;
        while (true) {
            dims.push_back(static_cast<Dimension>(integer()));
            if (!consume(',')) {
                break;
            }
        }
        expect(']', "qreg dimensions");
        expect(';', "qreg declaration");
        if (dims.size() != count) {
            fail("qreg declares " + std::to_string(count) + " sites but lists " +
                 std::to_string(dims.size()) + " dimensions");
        }
        return dims;
    }

    /// One whole gate statement through the terminating ';'. The returned
    /// operation is syntax-only — the caller validates it against the
    /// register (and re-raises through fail for the line-numbered message).
    [[nodiscard]] Operation gateStatement() {
        const std::string_view gate = word();
        if (gate.empty()) {
            fail("expected a gate name");
        }
        const std::size_t target = site();

        Operation op;
        if (gate == "rxy") {
            expect('(', "rxy parameters");
            const auto a = static_cast<Level>(integer());
            expect(',', "rxy parameters");
            const auto b = static_cast<Level>(integer());
            expect(',', "rxy parameters");
            const double theta = number();
            expect(',', "rxy parameters");
            const double phi = number();
            expect(')', "rxy parameters");
            op = Operation::givens(target, a, b, theta, phi);
        } else if (gate == "rz") {
            expect('(', "rz parameters");
            const auto a = static_cast<Level>(integer());
            expect(',', "rz parameters");
            const auto b = static_cast<Level>(integer());
            expect(',', "rz parameters");
            const double theta = number();
            expect(')', "rz parameters");
            op = Operation::phase(target, a, b, theta);
        } else if (gate == "h") {
            op = Operation::hadamard(target);
        } else if (gate == "x") {
            expect('(', "shift amount");
            expect('+', "shift amount");
            const auto amount = static_cast<Level>(integer());
            expect(')', "shift amount");
            op = Operation::shift(target, amount);
        } else if (gate == "swp") {
            expect('(', "swap levels");
            const auto a = static_cast<Level>(integer());
            expect(',', "swap levels");
            const auto b = static_cast<Level>(integer());
            expect(')', "swap levels");
            op = Operation::levelSwap(target, a, b);
        } else {
            fail("unknown gate '" + std::string(gate) + "'");
        }

        skipSpace();
        if (line_.substr(cursor_, 3) == "ctl") {
            cursor_ += 3;
            op.controls = parseControls();
        }
        expect(';', "statement");
        skipSpace();
        if (cursor_ != line_.size()) {
            fail("trailing characters after ';'");
        }
        return op;
    }

private:
    // Character classes of the "C" locale, tested directly: the library
    // never calls setlocale, and a locale lookup per character is the
    // largest cost of scanning a statement.
    [[nodiscard]] static bool isSpace(char ch) noexcept {
        return ch == ' ' || (ch >= '\t' && ch <= '\r');
    }
    [[nodiscard]] static bool isDigit(char ch) noexcept { return ch >= '0' && ch <= '9'; }
    [[nodiscard]] static bool isWordChar(char ch) noexcept {
        return isDigit(ch) || (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
               ch == '.' || ch == '_';
    }

    void skipSpace() {
        while (cursor_ < line_.size() && isSpace(line_[cursor_])) {
            ++cursor_;
        }
    }

    bool consume(char ch) {
        skipSpace();
        if (cursor_ < line_.size() && line_[cursor_] == ch) {
            ++cursor_;
            return true;
        }
        return false;
    }

    void expect(char ch, const char* what) {
        if (!consume(ch)) {
            fail(std::string("expected '") + ch + "' (" + what + ")");
        }
    }

    std::string_view word() {
        skipSpace();
        const std::size_t start = cursor_;
        while (cursor_ < line_.size() && isWordChar(line_[cursor_])) {
            ++cursor_;
        }
        return line_.substr(start, cursor_ - start);
    }

    std::uint64_t integer() {
        skipSpace();
        const std::size_t start = cursor_;
        while (cursor_ < line_.size() && isDigit(line_[cursor_])) {
            ++cursor_;
        }
        if (start == cursor_) {
            fail("expected an integer");
        }
        const std::string_view digits = line_.substr(start, cursor_ - start);
        const auto value = parse::tryUint64(digits);
        if (!value.has_value()) {
            // Digits-only text can only miss by overflowing 64 bits.
            fail("integer '" + parse::clipForMessage(digits) + "' overflows");
        }
        return *value;
    }

    /// A number read in place by std::from_chars. What it refuses or stops
    /// short of at a hex prefix — an explicit '+', hex floats, underflow
    /// (which it reports as out of range) — is read by strtod, so every
    /// spelling reads to the double strtod gives. Subnormals and underflow
    /// to zero convert; only no conversion at all or an overflow to
    /// infinity is refused.
    double number() {
        skipSpace();
        const char* first = line_.data() + cursor_;
        const char* last = line_.data() + line_.size();
        double value = 0.0;
        auto [end, error] = std::from_chars(first, last, value);
        if (error != std::errc{} || (end != last && (*end == 'x' || *end == 'X'))) {
            char* strtodEnd = nullptr;
            errno = 0;
            value = std::strtod(first, &strtodEnd);
            if (strtodEnd == first || (errno == ERANGE && std::isinf(value))) {
                fail("expected a number");
            }
            end = strtodEnd;
        }
        cursor_ += static_cast<std::size_t>(end - first);
        return value;
    }

    /// "q[<index>]" -> index.
    std::size_t site() {
        skipSpace();
        if (cursor_ >= line_.size() || line_[cursor_] != 'q') {
            fail("expected a qudit reference q[i]");
        }
        ++cursor_;
        expect('[', "qudit reference");
        const auto index = static_cast<std::size_t>(integer());
        expect(']', "qudit reference");
        return index;
    }

    /// The control list after "ctl". Entries are comma-separated and the
    /// statement holds no other comma, so the rest of the line bounds their
    /// number: the list is reserved once.
    std::vector<Control> parseControls() {
        std::vector<Control> controls;
        const std::string_view rest = line_.substr(cursor_);
        controls.reserve(1 + static_cast<std::size_t>(std::count(rest.begin(), rest.end(), ',')));
        while (true) {
            const std::size_t qudit = site();
            expect('=', "control level");
            const auto level = static_cast<Level>(integer());
            controls.push_back({qudit, level});
            if (!consume(',')) {
                break;
            }
        }
        return controls;
    }

    std::string_view line_;
    std::size_t cursor_ = 0;
    std::size_t lineNumber_;
};

/// Parse + register-validate one stripped statement line, re-raising any
/// admissibility error with the line-numbered prefix.
[[nodiscard]] Operation statementOn(std::string_view line, std::size_t lineNumber,
                                    const MixedRadix& radix) {
    LineParser parser(line, lineNumber);
    Operation op = parser.gateStatement();
    try {
        validateOperation(op, radix);
    } catch (const InvalidArgumentError& error) {
        parser.fail(error.what());
    }
    return op;
}

} // namespace

GateStream::GateStream(std::istream& in) : in_(&in) {
    const std::string_view header = nextStatement();
    if (header.empty()) {
        LineParser(header, lineNumber_).fail("missing MQSPQASM header");
    }
    LineParser(header, lineNumber_).header();
    const std::string_view qreg = nextStatement();
    if (qreg.empty()) {
        LineParser(qreg, lineNumber_).fail("missing qreg declaration");
    }
    LineParser qregParser(qreg, lineNumber_);
    radix_ = MixedRadix(qregParser.qreg());
}

std::string_view GateStream::nextStatement() {
    while (std::getline(*in_, line_)) {
        ++lineNumber_;
        if (const std::string_view statement = stripLine(line_); !statement.empty()) {
            return statement;
        }
    }
    return {};
}

std::optional<Operation> GateStream::next() {
    if (eof_) {
        return std::nullopt;
    }
    const std::string_view statement = nextStatement();
    if (statement.empty()) {
        eof_ = true;
        return std::nullopt;
    }
    Operation op = statementOn(statement, lineNumber_, radix_);
    ++opsRead_;
    return op;
}

Circuit parseQasm(std::istream& in) {
    GateStream stream(in);
    Circuit circuit(stream.dimensions(), "parsed");
    while (auto op = stream.next()) {
        circuit.append(std::move(*op));
    }
    return circuit;
}

Circuit parseQasmString(const std::string& text) {
    std::istringstream stream(text);
    return parseQasm(stream);
}

Operation parseQasmStatement(const std::string& text, const MixedRadix& radix,
                             std::size_t lineNumber) {
    const std::string_view stripped = stripLine(text);
    if (stripped.empty()) {
        LineParser(stripped, lineNumber).fail("expected a gate name");
    }
    return statementOn(stripped, lineNumber, radix);
}

} // namespace mqsp
