#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/support/error.hpp"
#include "mqsp/support/parse.hpp"

#include <cmath>
#include <iomanip>
#include <istream>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace mqsp {

// Format:
//   mqsp-dd v1
//   dims <d0> <d1> ...
//   root <nodeRef> <re> <im>
//   node <ref> <site> <numEdges> { <childRef|-> <re> <im> <pruned01> } ...
//   end
// Node references are line numbers of the node table, from 1; the terminal
// is always 0 and is not listed. An absent root is encoded as "root - 0 0".
// Every field is one whitespace-separated token, and a line holds exactly
// its fields. A parsed diagram must be levelled: its root decides site 0,
// and every edge of a site-s node leads to a site-(s+1) node (the terminal
// below the last site). An edge names an earlier line, so the table lists
// children before parents — the order serialize writes — and no cycle can
// parse.

namespace {

/// The next whitespace-separated field of `line`; empty once it is
/// exhausted.
[[nodiscard]] std::string next(std::istringstream& line) {
    std::string field;
    line >> field;
    return field;
}

/// The next two fields of `line` as a complex weight with finite parts.
[[nodiscard]] Complex weight(std::istringstream& line, std::string_view context) {
    const double re = parse::real(next(line), context);
    const double im = parse::real(next(line), context);
    requireThat(std::isfinite(re) && std::isfinite(im),
                "DecisionDiagram::deserialize: weights must be finite");
    return Complex{re, im};
}

} // namespace

void DecisionDiagram::serialize(std::ostream& out) const {
    // The canonical reachable copy: a session's store holds nodes this
    // diagram does not reach, and a rebuild lists the ones it does in one
    // fixed order whatever store they came from.
    const double tolerance = store_ != nullptr ? store_->tolerance() : Tolerance::kDefault;
    const DecisionDiagram copy = rebuiltOn(std::make_shared<dd::DdNodeStore>(tolerance));
    out << "mqsp-dd v1\n";
    out << "dims";
    for (const auto dim : radix_.dimensions()) {
        out << ' ' << dim;
    }
    out << '\n';
    out << std::setprecision(17);
    if (copy.root_ == kNoNode) {
        out << "root - 0 0\n";
    } else {
        out << "root " << copy.root_ << ' ' << rootWeight_.real() << ' ' << rootWeight_.imag()
            << '\n';
    }
    for (std::size_t ref = 1; ref < copy.poolSize(); ++ref) {
        const DDNode& n = copy.node(static_cast<NodeRef>(ref));
        out << "node " << ref << ' ' << n.site << ' ' << n.edges.size();
        for (const auto& edge : n.edges) {
            out << ' ';
            if (edge.isZeroStub()) {
                out << '-';
            } else {
                out << edge.node;
            }
            out << ' ' << edge.weight.real() << ' ' << edge.weight.imag() << ' '
                << (edge.pruned ? 1 : 0);
        }
        out << '\n';
    }
    out << "end\n";
}

DecisionDiagram DecisionDiagram::deserialize(std::istream& in) {
    std::string line;
    requireThat(static_cast<bool>(std::getline(in, line)) && line == "mqsp-dd v1",
                "DecisionDiagram::deserialize: bad magic line");

    requireThat(static_cast<bool>(std::getline(in, line)),
                "DecisionDiagram::deserialize: missing dims line");
    Dimensions dims;
    {
        std::istringstream fields(line);
        requireThat(next(fields) == "dims", "DecisionDiagram::deserialize: missing dims line");
        for (std::string field = next(fields); !field.empty(); field = next(fields)) {
            const std::uint64_t dim = parse::uint64(field, "DecisionDiagram::deserialize: dims");
            requireThat(dim <= std::numeric_limits<Dimension>::max(),
                        "DecisionDiagram::deserialize: dimension out of range");
            dims.push_back(static_cast<Dimension>(dim));
        }
    }
    requireThat(!dims.empty(), "DecisionDiagram::deserialize: empty register");
    DecisionDiagram dd(std::make_shared<dd::DdNodeStore>(Tolerance::kDefault), dims);

    requireThat(static_cast<bool>(std::getline(in, line)),
                "DecisionDiagram::deserialize: missing root line");
    std::optional<std::uint64_t> rootRef; // none for an absent root
    {
        std::istringstream fields(line);
        requireThat(next(fields) == "root", "DecisionDiagram::deserialize: missing root line");
        if (const std::string refText = next(fields); refText != "-") {
            rootRef = parse::uint64(refText, "DecisionDiagram::deserialize: root reference");
        }
        dd.rootWeight_ = weight(fields, "DecisionDiagram::deserialize: root weight");
        requireThat(next(fields).empty(),
                    "DecisionDiagram::deserialize: trailing fields on the root line");
    }

    // File ref -> store ref: interning merges two equal lines into one node.
    std::vector<NodeRef> refs{0}; // the terminal
    std::vector<DDEdge> edges;
    while (std::getline(in, line)) {
        if (line == "end") {
            if (rootRef) {
                requireThat(*rootRef < refs.size(),
                            "DecisionDiagram::deserialize: dangling root reference");
                dd.root_ = refs[*rootRef];
                requireThat(dd.node(dd.root_).site == 0,
                            "DecisionDiagram::deserialize: the root must decide site 0");
            }
            return dd;
        }
        std::istringstream fields(line);
        requireThat(next(fields) == "node",
                    "DecisionDiagram::deserialize: expected a node line or the end line");
        const std::uint64_t ref =
            parse::uint64(next(fields), "DecisionDiagram::deserialize: node reference");
        requireThat(ref == refs.size(),
                    "DecisionDiagram::deserialize: nodes must be listed in pool order");
        const std::uint64_t site =
            parse::uint64(next(fields), "DecisionDiagram::deserialize: node site");
        requireThat(site < dims.size(), "DecisionDiagram::deserialize: site out of range");
        const std::uint64_t numEdges =
            parse::uint64(next(fields), "DecisionDiagram::deserialize: edge count");
        requireThat(numEdges == dims[site],
                    "DecisionDiagram::deserialize: edge count does not match dimension");
        const std::uint64_t below = site + 1 == dims.size() ? DDNode::kTerminalSite : site + 1;
        // One edge at a time: a declared count allocates nothing until the
        // line holds that many edges.
        edges.clear();
        for (std::uint64_t k = 0; k < numEdges; ++k) {
            DDEdge edge;
            if (const std::string childText = next(fields); childText != "-") {
                const std::uint64_t child =
                    parse::uint64(childText, "DecisionDiagram::deserialize: edge reference");
                requireThat(child < ref,
                            "DecisionDiagram::deserialize: an edge must name an earlier node");
                edge.node = refs[child];
                requireThat(dd.node(edge.node).site == below,
                            "DecisionDiagram::deserialize: an edge must lead exactly one "
                            "site down");
            }
            const Complex w = weight(fields, "DecisionDiagram::deserialize: edge weight");
            edge.weight = edge.isZeroStub() ? Complex{0.0, 0.0} : w;
            const std::string pruned = next(fields);
            requireThat(pruned == "0" || pruned == "1",
                        "DecisionDiagram::deserialize: the pruned flag must be 0 or 1");
            edge.pruned = pruned == "1";
            edges.push_back(edge);
        }
        requireThat(next(fields).empty(),
                    "DecisionDiagram::deserialize: trailing fields on a node line");
        refs.push_back(dd.store_->allocate(static_cast<std::uint32_t>(site), edges));
    }
    detail::throwInvalidArgument("DecisionDiagram::deserialize: missing end line");
}

} // namespace mqsp
