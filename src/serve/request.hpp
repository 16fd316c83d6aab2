/**
 * @file
 * The one request path behind `amped` and `amped serve`.  A request
 * is a params object: serve receives it as JSON, the CLI makes it
 * from its flags.  Both read it through one field table (request.cpp:
 * name, kind, default, help text and range per field) and build their
 * inputs with the same builders and search calls.  A new field is
 * one table row plus its FieldId and its bit in the field sets that
 * read it.
 *
 * It lives in amped_serve, the one library that links both
 * amped_explore and amped_validate (the calibrated model options).
 */

#ifndef AMPED_SERVE_REQUEST_HPP
#define AMPED_SERVE_REQUEST_HPP

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "common/arg_parser.hpp"
#include "explore/optimizer.hpp"
#include "obs/json.hpp"
#include "serve/protocol.hpp"

namespace amped {
namespace serve {

/** The fields, in table order.  `top` and `memory-check` have a row
 *  for a ranking (explore, sweep) and one for a search (optimize);
 *  `system` and `artifact` are serve-only. */
enum class FieldId : unsigned char
{
    model, accel, intra, inter, nodes, perNode, nics,
    batch, tokens, microbatch, effA, effB, effFloor, bubbleR,
    tpIntra, ppIntra, dpIntra, tpInter, ppInter, dpInter,
    batches, sweepTop, optimizeTop, ep,
    sweepMemoryCheck, optimizeMemoryCheck, system, artifact, count
};

/** A set of fields: bit i is FieldId i. */
using FieldSet = std::uint32_t;

constexpr FieldSet
fieldSet(std::initializer_list<FieldId> ids)
{
    FieldSet set = 0;
    for (const FieldId id : ids)
        set |= FieldSet{1} << static_cast<unsigned>(id);
    return set;
}

/** Model, cluster, efficiency and job; CLI `scale` reads these. */
constexpr FieldSet kCommonFields = fieldSet(
    {FieldId::model, FieldId::accel, FieldId::intra, FieldId::inter,
     FieldId::nodes, FieldId::perNode, FieldId::nics, FieldId::batch,
     FieldId::tokens, FieldId::microbatch, FieldId::effA,
     FieldId::effB, FieldId::effFloor, FieldId::bubbleR});

/** CLI evaluate, breakdown, memory, report and resilience. */
constexpr FieldSet kOneMappingFields =
    kCommonFields |
    fieldSet({FieldId::tpIntra, FieldId::ppIntra, FieldId::dpIntra,
              FieldId::tpInter, FieldId::ppInter, FieldId::dpInter});

constexpr FieldSet kExploreFields =
    kCommonFields |
    fieldSet({FieldId::sweepTop, FieldId::sweepMemoryCheck});

constexpr FieldSet kOptimizeFields =
    kCommonFields |
    fieldSet({FieldId::batches, FieldId::optimizeTop, FieldId::ep,
              FieldId::optimizeMemoryCheck});

/** The params keys serve method @p method accepts. */
FieldSet methodFields(Method method);

/**
 * Reader over a params object, which must outlive it.  Keys outside
 * the field set are rejected up front.  A read checks the value's
 * kind and the field's range, or gives the table default when the
 * key is absent; a field nobody reads is never checked.
 */
class Params
{
  public:
    /**
     * @param prefix How diagnostics spell a field: "params." (serve)
     *        or "--" (CLI).
     * @throws UserError naming the first key outside @p fields.
     */
    Params(const obs::Json &object, FieldSet fields,
           const char *prefix);

    bool has(FieldId id) const { return find(id) != nullptr; }

    /** The checked value of @p id, or its default. */
    const obs::Json &get(FieldId id) const;

    std::string text(FieldId id) const { return get(id).asString(); }
    std::int64_t integer(FieldId id) const { return get(id).asInt(); }
    double number(FieldId id) const { return get(id).asDouble(); }
    bool flag(FieldId id) const { return get(id).asBool(); }

  private:
    const obs::Json *find(FieldId id) const;

    const obs::Json &object_;
    FieldSet fields_;
    const char *prefix_;
};

/** Registers an option (a switch for a flag) per field in @p fields,
 *  with the table's name, help text and default text. */
void addFieldOptions(ArgParser &parser, FieldSet fields);

/**
 * The params object of a parsed command line: a member per field in
 * @p fields that the user gave.  Integers and numbers parse with
 * ArgParser::getInt / getDouble and their messages; a comma list
 * becomes a number array, and an empty one is left out.
 */
obs::Json paramsFromFlags(const ArgParser &parser, FieldSet fields);

/** Configs the CLI loads from --model-file, --accel-file and
 *  --system-file; each replaces the fields it covers. */
struct Overrides
{
    std::optional<model::TransformerConfig> model;
    std::optional<hw::AcceleratorConfig> accelerator;
    std::optional<net::SystemConfig> system;
};

/** The override, else serve's `system` object (through
 *  explore::systemFromConfig), else the cluster fields. */
net::SystemConfig systemFrom(const Params &params,
                             const Overrides &given = {});

/** The calibrated model; its intra-node all-reduce ring is as wide
 *  as a node of the built system. */
core::AmpedModel modelFrom(const Params &params,
                           const Overrides &given = {});

core::TrainingJob jobFrom(const Params &params);
mapping::ParallelismConfig mappingFrom(const Params &params);

/** `batches`, else just `batch`. */
std::vector<double> batchesFrom(const Params &params);

/**
 * Rejects a grid over @p max_grid_points (0 = unlimited), then sweeps
 * the model's whole mapping space on @p threads workers under
 * @p token, screening memory when `memory-check` is set, and keeps
 * the best `top` entries.
 */
explore::RankedSweep runSweep(const Params &params,
                              const Overrides &given, unsigned threads,
                              CancelToken token,
                              std::size_t max_grid_points);

/** The branch-and-bound search, set up as runSweep: the best `top`
 *  strategies over `batches` with expert-parallel degree `ep`. */
explore::OptimizerResult runOptimize(const Params &params,
                                     const Overrides &given,
                                     unsigned threads,
                                     CancelToken token,
                                     std::size_t max_grid_points);

} // namespace serve
} // namespace amped

#endif // AMPED_SERVE_REQUEST_HPP
