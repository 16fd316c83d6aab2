#include "serve/request.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/keyval.hpp"
#include "common/parse_num.hpp"
#include "core/memory_model.hpp"
#include "explore/config_io.hpp"
#include "explore/registry.hpp"
#include "validate/calibrations.hpp"

namespace amped {
namespace serve {

namespace {

/** A field's kind; a `flag` is a JSON boolean or a CLI switch. */
enum class Kind : unsigned char
{
    text, integer, number, flag, numberList, object
};

/** Accepted values (of each entry, for a list): any, finite and > 0,
 *  finite and >= 0, >= 1, or in (0, 1]. */
enum class Range : unsigned char
{
    any, positive, nonNegative, atLeastOne, unitInterval
};

/** One row of the field table. */
struct Field
{
    const char *name;        ///< JSON key; CLI flag without "--".
    Kind kind;
    const char *defaultText; ///< The CLI's default text; "" = none.
    const char *help;        ///< The CLI's help text.
    Range range = Range::any;
};

/** The field table, in FieldId order; the texts are the CLI's. */
constexpr Field kFields[] = {
    {"model", Kind::text, "145b", "model preset name"},
    {"accel", Kind::text, "a100", "accelerator preset name"},
    {"intra", Kind::text, "nvlink-a100",
     "intra-node interconnect preset"},
    {"inter", Kind::text, "hdr", "inter-node interconnect preset"},
    {"nodes", Kind::integer, "128", "number of nodes",
     Range::atLeastOne},
    {"per-node", Kind::integer, "8", "accelerators per node",
     Range::atLeastOne},
    {"nics", Kind::integer, "0",
     "NICs per node (0 = one per accelerator)", Range::nonNegative},
    {"batch", Kind::number, "8192", "global batch size",
     Range::positive},
    {"tokens", Kind::number, "300e9", "training-token budget",
     Range::positive},
    {"microbatch", Kind::number, "0", "microbatch size (0 = B/(DP*PP))",
     Range::nonNegative},
    {"eff-a", Kind::number, "0.9", "efficiency curve parameter a",
     Range::unitInterval},
    {"eff-b", Kind::number, "30", "efficiency curve parameter b",
     Range::positive},
    {"eff-floor", Kind::number, "0.25", "efficiency floor",
     Range::nonNegative},
    {"bubble-r", Kind::number, "0.1", "bubble-overlap ratio R",
     Range::nonNegative},
    {"tp-intra", Kind::integer, "1", "tensor parallel, intra-node",
     Range::atLeastOne},
    {"pp-intra", Kind::integer, "1", "pipeline parallel, intra-node",
     Range::atLeastOne},
    {"dp-intra", Kind::integer, "1", "data parallel, intra-node",
     Range::atLeastOne},
    {"tp-inter", Kind::integer, "1", "tensor parallel, inter-node",
     Range::atLeastOne},
    {"pp-inter", Kind::integer, "1", "pipeline parallel, inter-node",
     Range::atLeastOne},
    {"dp-inter", Kind::integer, "1", "data parallel, inter-node",
     Range::atLeastOne},
    {"batches", Kind::numberList, "",
     "comma-separated batch sizes to search (empty = just --batch)",
     Range::positive},
    {"top", Kind::integer, "10", "how many mappings to print",
     Range::atLeastOne},
    {"top", Kind::integer, "5", "how many strategies to return",
     Range::atLeastOne},
    {"ep", Kind::integer, "1", "expert-parallel degree N_EP",
     Range::atLeastOne},
    {"memory-check", Kind::flag, "",
     "drop mappings that exceed device memory"},
    {"memory-check", Kind::flag, "",
     "prune mappings that exceed device memory"},
    {"system", Kind::object, "", ""},
    {"artifact", Kind::text, "", ""},
};

constexpr auto kFieldCount = static_cast<std::size_t>(FieldId::count);
static_assert(std::size(kFields) == kFieldCount,
              "one table row per FieldId");

const Field &
field(FieldId id)
{
    return kFields[static_cast<std::size_t>(id)];
}

bool
contains(FieldSet set, std::size_t row)
{
    return (set >> row & 1u) != 0;
}

/** Each field's default, parsed once: the text of a text field,
 *  false for a flag, else the text's JSON value (null if none). */
const obs::Json &
defaultOf(FieldId id)
{
    static const std::vector<obs::Json> defaults = [] {
        std::vector<obs::Json> out;
        for (const Field &row : kFields)
            out.push_back(row.kind == Kind::text ? obs::Json(row.defaultText)
                          : row.kind == Kind::flag ? obs::Json(false)
                          : *row.defaultText != '\0'
                              ? obs::Json::parse(row.defaultText)
                              : obs::Json());
        return out;
    }();
    return defaults[static_cast<std::size_t>(id)];
}

bool
hasKind(const obs::Json &value, Kind kind)
{
    using JK = obs::Json::Kind;
    switch (kind) {
      case Kind::text: return value.kind() == JK::string;
      case Kind::integer: return value.kind() == JK::integer;
      case Kind::number:
        return value.kind() == JK::number || value.kind() == JK::integer;
      case Kind::flag: return value.kind() == JK::boolean;
      case Kind::numberList: return value.isArray();
      case Kind::object: return value.isObject();
    }
    return false;
}

bool
inRange(Range range, double value)
{
    switch (range) {
      case Range::any: return true;
      case Range::positive: return std::isfinite(value) && value > 0.0;
      case Range::nonNegative:
        return std::isfinite(value) && value >= 0.0;
      case Range::atLeastOne: return value >= 1.0;
      case Range::unitInterval: return value > 0.0 && value <= 1.0;
    }
    return false;
}

/** How a diagnostic names each Kind and each Range. */
constexpr const char *kKindText[] = {
    "a string", "an integer", "a number", "a boolean",
    "an array of numbers", "an object"};
constexpr const char *kRangeText[] = {"", "> 0", ">= 0", ">= 1",
                                      "in (0, 1]"};

/** A `--batches` comma list ("2048,4096,8192") as a number array. */
obs::Json
numberListFromText(const Field &row, const std::string &list)
{
    obs::Json values = obs::Json::array();
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = list.find(',', start);
        const std::string token = list.substr(
            start, comma == std::string::npos ? std::string::npos
                                              : comma - start);
        double value = 0.0;
        if (!tryParseDouble(token.c_str(), value) ||
            !inRange(row.range, value))
            fatal("--", row.name, " entry '", token,
                  "' is not a positive number");
        values.push(value);
        if (comma == std::string::npos)
            return values;
        start = comma + 1;
    }
}

/**
 * Builds a SystemConfig from serve's `system` object by rendering it
 * as a key = value document and reusing the config_io loader — so its
 * field-named diagnostics (unknown keys, range checks) flow through
 * to the response verbatim.
 */
net::SystemConfig
systemFromJson(const obs::Json &system)
{
    std::ostringstream text;
    text.precision(17);
    for (const auto &[key, value] : system.members()) {
        switch (value.kind()) {
          case obs::Json::Kind::string:
            text << key << " = " << value.asString() << "\n";
            break;
          case obs::Json::Kind::boolean:
            text << key << " = " << (value.asBool() ? 1 : 0) << "\n";
            break;
          case obs::Json::Kind::integer:
          case obs::Json::Kind::number:
            text << key << " = " << value.dump() << "\n";
            break;
          default:
            throw UserError("params.system." + key +
                            " must be a scalar");
        }
    }
    try {
        return explore::systemFromConfig(
            KeyValueConfig::fromString(text.str()));
    } catch (const UserError &error) {
        throw UserError(std::string("params.system: ") +
                        error.what());
    }
}

} // namespace

FieldSet
methodFields(Method method)
{
    constexpr FieldSet system = fieldSet({FieldId::system});
    switch (method) {
      case Method::ping: return 0;
      case Method::eval: return kOneMappingFields | system;
      case Method::sweep:
        return kExploreFields | system | fieldSet({FieldId::batches});
      case Method::optimize: return kOptimizeFields | system;
      case Method::report:
        return kOneMappingFields | system |
               fieldSet({FieldId::artifact});
    }
    return 0;
}

Params::Params(const obs::Json &object, FieldSet fields,
               const char *prefix)
    : object_(object), fields_(fields), prefix_(prefix)
{
    for (const auto &member : object_.members()) {
        bool known = false;
        for (std::size_t row = 0; row < kFieldCount && !known; ++row)
            known = contains(fields_, row) &&
                    member.first == kFields[row].name;
        if (!known)
            fatal("unknown params key '", member.first, "'");
    }
}

const obs::Json *
Params::find(FieldId id) const
{
    if (contains(fields_, static_cast<std::size_t>(id)))
        for (const auto &member : object_.members())
            if (member.first == field(id).name)
                return &member.second;
    return nullptr;
}

const obs::Json &
Params::get(FieldId id) const
{
    const Field &row = field(id);
    AMPED_ASSERT(contains(fields_, static_cast<std::size_t>(id)),
                 row.name);
    const obs::Json *value = find(id);
    if (value == nullptr)
        return defaultOf(id);
    if (!hasKind(*value, row.kind))
        fatal(prefix_, row.name, " must be ",
              kKindText[static_cast<std::size_t>(row.kind)]);
    const char *range = kRangeText[static_cast<std::size_t>(row.range)];
    if (row.kind == Kind::numberList) {
        if (value->items().empty())
            fatal(prefix_, row.name, " must not be empty");
        for (std::size_t i = 0; i < value->items().size(); ++i) {
            if (!hasKind(value->at(i), Kind::number))
                fatal(prefix_, row.name, "[", i, "] must be a number");
            if (!inRange(row.range, value->at(i).asDouble()))
                fatal(prefix_, row.name, "[", i, "] must be ", range);
        }
    } else if (hasKind(*value, Kind::number) &&
               !inRange(row.range, value->asDouble())) {
        const double got = value->asDouble();
        if (!std::isfinite(got))
            fatal(prefix_, row.name, " must be finite, got ", got);
        fatal(prefix_, row.name, " must be ", range, ", got ", got);
    }
    return *value;
}

void
addFieldOptions(ArgParser &parser, FieldSet fields)
{
    for (std::size_t row = 0; row < kFieldCount; ++row) {
        const Field &f = kFields[row];
        if (contains(fields, row) && f.kind == Kind::flag)
            parser.addFlag(f.name, f.help);
        else if (contains(fields, row))
            parser.addOption(f.name, f.help, f.defaultText);
    }
}

obs::Json
paramsFromFlags(const ArgParser &parser, FieldSet fields)
{
    obs::Json params = obs::Json::object();
    for (std::size_t row = 0; row < kFieldCount; ++row) {
        const Field &f = kFields[row];
        if (!contains(fields, row) || !parser.wasProvided(f.name))
            continue;
        if (f.kind == Kind::integer)
            params.set(f.name, parser.getInt(f.name));
        else if (f.kind == Kind::number)
            params.set(f.name, parser.getDouble(f.name));
        else if (f.kind == Kind::flag)
            params.set(f.name, true);
        else if (f.kind != Kind::numberList)
            params.set(f.name, parser.get(f.name));
        else if (!parser.get(f.name).empty())
            params.set(f.name, numberListFromText(f, parser.get(f.name)));
    }
    return params;
}

net::SystemConfig
systemFrom(const Params &params, const Overrides &given)
{
    if (given.system)
        return *given.system;
    if (params.has(FieldId::system))
        return systemFromJson(params.get(FieldId::system));
    net::SystemConfig sys;
    sys.numNodes = params.integer(FieldId::nodes);
    sys.acceleratorsPerNode = params.integer(FieldId::perNode);
    sys.intraLink =
        explore::interconnectByName(params.text(FieldId::intra));
    sys.interLink =
        explore::interconnectByName(params.text(FieldId::inter));
    const std::int64_t nics = params.integer(FieldId::nics);
    sys.nicsPerNode = nics > 0 ? nics : sys.acceleratorsPerNode;
    sys.name = std::to_string(sys.numNodes) + "x" +
               std::to_string(sys.acceleratorsPerNode) + " " +
               params.text(FieldId::accel) + " / " +
               params.text(FieldId::inter);
    sys.validate();
    return sys;
}

core::AmpedModel
modelFrom(const Params &params, const Overrides &given)
{
    auto model_cfg =
        given.model ? *given.model
                    : explore::modelByName(params.text(FieldId::model));
    auto accel = given.accelerator
                     ? *given.accelerator
                     : explore::acceleratorByName(
                           params.text(FieldId::accel));
    auto system = systemFrom(params, given);
    core::ModelOptions options =
        validate::calibrations::nvswitchOptions(
            system.acceleratorsPerNode);
    options.bubbleOverlapRatio = params.number(FieldId::bubbleR);
    const double a = params.number(FieldId::effA);
    const double floor =
        std::min(params.number(FieldId::effFloor), a);
    return core::AmpedModel(
        std::move(model_cfg), std::move(accel),
        hw::MicrobatchEfficiency(a, params.number(FieldId::effB),
                                 floor),
        std::move(system), options);
}

core::TrainingJob
jobFrom(const Params &params)
{
    core::TrainingJob job;
    job.batchSize = params.number(FieldId::batch);
    job.totalTrainingTokens = params.number(FieldId::tokens);
    const double ub = params.number(FieldId::microbatch);
    if (ub > 0.0)
        job.microbatching.microbatchSizeOverride = ub;
    return job;
}

mapping::ParallelismConfig
mappingFrom(const Params &params)
{
    return mapping::makeMapping(params.integer(FieldId::tpIntra),
                                params.integer(FieldId::ppIntra),
                                params.integer(FieldId::dpIntra),
                                params.integer(FieldId::tpInter),
                                params.integer(FieldId::ppInter),
                                params.integer(FieldId::dpInter));
}

std::vector<double>
batchesFrom(const Params &params)
{
    if (!params.has(FieldId::batches))
        return {params.number(FieldId::batch)};
    std::vector<double> batches;
    for (const obs::Json &batch : params.get(FieldId::batches).items())
        batches.push_back(batch.asDouble());
    return batches;
}

explore::RankedSweep
runSweep(const Params &params, const Overrides &given,
         unsigned threads, CancelToken token,
         std::size_t max_grid_points)
{
    const auto top =
        static_cast<std::size_t>(params.integer(FieldId::sweepTop));
    const auto model = modelFrom(params, given);
    const auto batches = batchesFrom(params);
    explore::preflightGridPoints(model.system(),
                                 model.opCounter().config().numLayers,
                                 batches.size(), max_grid_points);
    explore::Explorer explorer(model);
    explorer.setThreads(threads);
    explorer.setCancelToken(std::move(token));
    if (params.flag(FieldId::sweepMemoryCheck))
        explorer.setMemoryModel(core::MemoryModel(
            model.opCounter(), model.accelerator()));
    return explorer.sweepTop(batches, jobFrom(params), top);
}

explore::OptimizerResult
runOptimize(const Params &params, const Overrides &given,
            unsigned threads, CancelToken token,
            std::size_t max_grid_points)
{
    explore::OptimizerRequest request;
    request.topK =
        static_cast<std::size_t>(params.integer(FieldId::optimizeTop));
    const auto model = modelFrom(params, given);
    request.batchSizes = batchesFrom(params);
    explore::preflightGridPoints(model.system(),
                                 model.opCounter().config().numLayers,
                                 request.batchSizes.size(),
                                 max_grid_points);
    explore::Optimizer optimizer(model);
    optimizer.setThreads(threads);
    optimizer.setCancelToken(std::move(token));
    if (params.flag(FieldId::optimizeMemoryCheck))
        optimizer.setMemoryModel(core::MemoryModel(
            model.opCounter(), model.accelerator()));
    request.jobTemplate = jobFrom(params);
    request.expertParallel = params.integer(FieldId::ep);
    return optimizer.optimize(request);
}

} // namespace serve
} // namespace amped
