/**
 * @file
 * Per-phase training-time breakdown (paper Sec. VI-A, Fig. 3).
 *
 * AMPeD "has the capability to show a detailed breakdown of the time
 * spent in computation and communication due to TP, PP, and DP
 * individually"; this struct is that capability.  All fields are
 * per-batch seconds.
 */

#ifndef AMPED_CORE_BREAKDOWN_HPP
#define AMPED_CORE_BREAKDOWN_HPP

#include <string>
#include <vector>

namespace amped {
namespace core {

/** Per-batch time split into the phases of Eq. 1. */
struct Breakdown
{
    double computeForward = 0.0;  ///< Sum_l U_f / (N_TP N_DP N_PP).
    double computeBackward = 0.0; ///< Sum_l U_b / (N_TP N_DP N_PP).
    double weightUpdate = 0.0;    ///< Sum_l U_w / (N_TP N_DP N_PP).
    double commTpIntra = 0.0;     ///< TP all-reduce, intra-node, f+b.
    double commTpInter = 0.0;     ///< TP all-reduce, inter-node, f+b.
    double commPp = 0.0;          ///< Pipeline hop transfers, f+b.
    double commMoe = 0.0;         ///< MoE all-to-all pairs, f+b.
    double commGradIntra = 0.0;   ///< Gradient all-reduce, intra stage.
    double commGradInter = 0.0;   ///< Gradient all-reduce, inter stage.
    double bubble = 0.0;          ///< Pipeline bubble waiting, Eq. 8.

    /** Total per-batch time (sum of all phases). */
    double total() const;

    /** Total communication (all comm phases, no compute/bubble). */
    double communication() const;

    /** Total computation (forward + backward + weight update). */
    double computation() const;

    /** (label, seconds) pairs for reports, in display order. */
    std::vector<std::pair<std::string, double>> phases() const;
};

// The sums are inline: AmpedModel::assemble takes total() once per
// grid point.
inline double
Breakdown::total() const
{
    return computation() + communication() + bubble;
}

inline double
Breakdown::communication() const
{
    return commTpIntra + commTpInter + commPp + commMoe +
           commGradIntra + commGradInter;
}

inline double
Breakdown::computation() const
{
    return computeForward + computeBackward + weightUpdate;
}

} // namespace core
} // namespace amped

#endif // AMPED_CORE_BREAKDOWN_HPP
