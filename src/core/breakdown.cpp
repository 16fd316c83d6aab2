#include "breakdown.hpp"

namespace amped {
namespace core {

std::vector<std::pair<std::string, double>>
Breakdown::phases() const
{
    return {
        {"compute-forward", computeForward},
        {"compute-backward", computeBackward},
        {"weight-update", weightUpdate},
        {"comm-TP-intra", commTpIntra},
        {"comm-TP-inter", commTpInter},
        {"comm-PP", commPp},
        {"comm-MoE", commMoe},
        {"comm-grad-intra", commGradIntra},
        {"comm-grad-inter", commGradInter},
        {"pipeline-bubble", bubble},
    };
}

} // namespace core
} // namespace amped
