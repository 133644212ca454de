#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/support/error.hpp"
#include "mqsp/support/parse.hpp"

#include <iomanip>
#include <istream>
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
// Node references are pool indices; the terminal is always pool slot 0 and
// is not listed. An absent root is encoded as "root - 0 0". A parsed
// diagram must be levelled: its root decides site 0, and every edge of a
// site-s node leads to a site-(s+1) node (the terminal below the last
// site), so no cycle can parse.

namespace {

/// A node reference field, refused before narrowing when no pool could hold
/// it (the exact pool bound is checked once the pool is complete).
[[nodiscard]] NodeRef parseRef(const std::string& text, std::string_view context) {
    const std::uint64_t ref = parse::uint64(text, context);
    requireThat(ref < kNoNode, "DecisionDiagram::deserialize: node reference out of range");
    return static_cast<NodeRef>(ref);
}

} // namespace

void DecisionDiagram::serialize(std::ostream& out) const {
    if (store_ != nullptr && store_->interning()) {
        // An interning store may hold nodes this diagram does not reach (a
        // session's other diagrams); serialize a reachable-only private
        // copy instead of dumping the whole store.
        rebuiltOn(nullptr).serialize(out);
        return;
    }
    out << "mqsp-dd v1\n";
    out << "dims";
    for (const auto dim : radix_.dimensions()) {
        out << ' ' << dim;
    }
    out << '\n';
    out << std::setprecision(17);
    if (root_ == kNoNode) {
        out << "root - 0 0\n";
    } else {
        out << "root " << root_ << ' ' << rootWeight_.real() << ' ' << rootWeight_.imag()
            << '\n';
    }
    for (std::size_t ref = 1; ref < poolSize(); ++ref) {
        const DDNode& n = node(static_cast<NodeRef>(ref));
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

    requireThat(static_cast<bool>(std::getline(in, line)) && line.rfind("dims", 0) == 0,
                "DecisionDiagram::deserialize: missing dims line");
    Dimensions dims;
    {
        std::istringstream stream(line.substr(4));
        Dimension dim = 0;
        while (stream >> dim) {
            dims.push_back(dim);
        }
    }
    requireThat(!dims.empty(), "DecisionDiagram::deserialize: empty register");

    DecisionDiagram dd(nullptr, dims); // a private store, filled by this parse only

    requireThat(static_cast<bool>(std::getline(in, line)) && line.rfind("root", 0) == 0,
                "DecisionDiagram::deserialize: missing root line");
    {
        std::istringstream stream(line.substr(4));
        std::string refText;
        double re = 0.0;
        double im = 0.0;
        requireThat(static_cast<bool>(stream >> refText >> re >> im),
                    "DecisionDiagram::deserialize: malformed root line");
        dd.root_ = refText == "-"
                       ? kNoNode
                       : parseRef(refText, "DecisionDiagram::deserialize: root reference");
        dd.rootWeight_ = Complex{re, im};
    }

    while (std::getline(in, line)) {
        if (line == "end") {
            // Validate all references now that the pool is complete.
            requireThat(dd.root_ == kNoNode || dd.root_ < dd.poolSize(),
                        "DecisionDiagram::deserialize: dangling root reference");
            requireThat(dd.root_ == kNoNode || dd.node(dd.root_).site == 0,
                        "DecisionDiagram::deserialize: the root must decide site 0");
            const std::uint32_t lastSite = static_cast<std::uint32_t>(dims.size() - 1);
            for (std::size_t ref = 1; ref < dd.poolSize(); ++ref) {
                const DDNode& n = dd.node(static_cast<NodeRef>(ref));
                const std::uint32_t below =
                    n.site == lastSite ? DDNode::kTerminalSite : n.site + 1;
                for (const auto& edge : n.edges) {
                    if (edge.isZeroStub()) {
                        continue;
                    }
                    requireThat(edge.node < dd.poolSize(),
                                "DecisionDiagram::deserialize: dangling node reference");
                    requireThat(dd.node(edge.node).site == below,
                                "DecisionDiagram::deserialize: an edge must lead exactly one "
                                "site down");
                }
            }
            return dd;
        }
        requireThat(line.rfind("node", 0) == 0,
                    "DecisionDiagram::deserialize: unexpected line: " + line);
        std::istringstream stream(line.substr(4));
        std::size_t ref = 0;
        std::uint32_t site = 0;
        std::size_t numEdges = 0;
        requireThat(static_cast<bool>(stream >> ref >> site >> numEdges),
                    "DecisionDiagram::deserialize: malformed node line");
        requireThat(ref == dd.poolSize(),
                    "DecisionDiagram::deserialize: nodes must be listed in pool order");
        requireThat(site < dims.size(), "DecisionDiagram::deserialize: site out of range");
        requireThat(numEdges == dims[site],
                    "DecisionDiagram::deserialize: edge count does not match dimension");
        std::vector<DDEdge> edges(numEdges);
        for (auto& edge : edges) {
            std::string refText;
            double re = 0.0;
            double im = 0.0;
            int pruned = 0;
            requireThat(static_cast<bool>(stream >> refText >> re >> im >> pruned),
                        "DecisionDiagram::deserialize: malformed edge");
            if (refText == "-") {
                edge = DDEdge{kNoNode, Complex{0.0, 0.0}, pruned != 0};
            } else {
                edge = DDEdge{parseRef(refText, "DecisionDiagram::deserialize: edge reference"),
                              Complex{re, im}, pruned != 0};
            }
        }
        (void)dd.store_->allocate(site, edges);
    }
    detail::throwInvalidArgument("DecisionDiagram::deserialize: missing end line");
}

} // namespace mqsp
