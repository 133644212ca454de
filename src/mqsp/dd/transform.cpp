#include "mqsp/dd/decision_diagram.hpp"

namespace mqsp {

void DecisionDiagram::cutRoot() {
    root_ = kNoNode;
    rootWeight_ = Complex{0.0, 0.0};
}

} // namespace mqsp
