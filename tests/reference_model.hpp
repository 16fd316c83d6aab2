/**
 * @file
 * The tests' oracle for Eq. 1's per-point half: a per-layer
 * evaluation that assembles the ten Breakdown phases and the result
 * itself, layer loop by layer loop, instead of through
 * core::AmpedModel::assemble, which evaluate(), the sweep kernel and
 * the optimizer's screen share.  So each of the three is checked
 * against code it does not share.
 * It reads the model only through its public per-term functions
 * (forwardComputeTime, tpIntraCommTime, gradCommTime, ...), whose
 * equations test_core_model.cpp checks one by one.
 */

#ifndef AMPED_TESTS_REFERENCE_MODEL_HPP
#define AMPED_TESTS_REFERENCE_MODEL_HPP

#include <string>

#include "core/amped_model.hpp"

namespace amped {
namespace testutil {

/**
 * Evaluates Eq. 1 for one point exactly as AmpedModel::evaluate
 * must: the same result bits, and the same exception (category and
 * text) at the same step.
 */
core::EvaluationResult
referenceEvaluate(const core::AmpedModel &model,
                  const mapping::ParallelismConfig &mapping,
                  const core::TrainingJob &job);

/**
 * Evaluates one point with AmpedModel::evaluate and with
 * referenceEvaluate.  Returns "" when both give a result with the
 * same bits in every field, or both throw the same category
 * (UserError or another exception) with the same text; otherwise a
 * description of the difference.
 */
std::string evaluateMismatch(const core::AmpedModel &model,
                             const mapping::ParallelismConfig &mapping,
                             const core::TrainingJob &job);

} // namespace testutil
} // namespace amped

#endif // AMPED_TESTS_REFERENCE_MODEL_HPP
