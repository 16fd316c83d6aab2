/**
 * @file
 * Design-space explorer: enumerate every valid parallelism mapping
 * of a cluster for a chosen model and batch size, rank them by
 * predicted training time, and show the best configurations — the
 * paper's Case Study I workflow as a command-line tool.
 *
 * Usage:
 *   parallelism_explorer [model] [batch] [nodes] [accs_per_node]
 *                        [top_k] [threads]
 *     model: 145B | 310B | 530B | 1T | gpt3 (default 145B)
 *     batch: global batch size (default 8192)
 *     nodes / accs_per_node: cluster shape (default 128 x 8)
 *     top_k: how many mappings to print (default 10)
 *     threads: sweep worker threads (default 0 = AMPED_THREADS or
 *              all cores; the ranking is identical either way)
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/parse_num.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "explore/explorer.hpp"
#include "hw/presets.hpp"
#include "model/presets.hpp"
#include "net/system_config.hpp"
#include "validate/calibrations.hpp"

namespace {

amped::model::TransformerConfig
pickModel(const std::string &name)
{
    using namespace amped::model::presets;
    if (name == "310B")
        return megatron310B();
    if (name == "530B")
        return megatron530B();
    if (name == "1T")
        return megatron1T();
    if (name == "gpt3")
        return gpt3_175B();
    return megatron145B();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace amped;

    const std::string model_name = argc > 1 ? argv[1] : "145B";
    const double batch = argc > 2 ? amped::parseDouble(argv[2]) : 8192.0;
    const std::int64_t nodes = argc > 3 ? std::atoll(argv[3]) : 128;
    const std::int64_t per_node = argc > 4 ? std::atoll(argv[4]) : 8;
    const std::size_t top_k =
        argc > 5 ? static_cast<std::size_t>(std::atoll(argv[5])) : 10;
    const unsigned threads =
        argc > 6 ? static_cast<unsigned>(std::atoll(argv[6])) : 0;

    const auto model_cfg = pickModel(model_name);

    net::SystemConfig system;
    system.name = std::to_string(nodes) + "x" +
                  std::to_string(per_node) + " A100 / HDR";
    system.numNodes = nodes;
    system.acceleratorsPerNode = per_node;
    system.intraLink = net::presets::nvlinkA100();
    system.interLink = net::presets::hdrInfiniband();
    system.nicsPerNode = per_node;

    try {
        core::AmpedModel amped(
            model_cfg, hw::presets::a100(),
            validate::calibrations::caseStudy1(), system,
            validate::calibrations::caseStudyOptions());
        explore::Explorer explorer(amped);
        explorer.setThreads(threads);

        core::TrainingJob job;
        job.batchSize = batch;
        job.totalTrainingTokens = 300e9;

        std::cout << "exploring " << model_cfg.name << " on "
                  << system.name << ", batch " << batch << " ...\n";
        const auto ranked = explorer.sweepTop({batch}, job, top_k);
        const auto &sweep = ranked.sweep;
        std::cout << ranked.ranked << " feasible mappings, "
                  << sweep.skipped << " skipped (batch too small)\n\n";

        std::cout << "top " << sweep.entries.size()
                  << " mappings by training time:\n"
                  << explore::sweepTable(sweep.entries) << '\n';

        if (!sweep.entries.empty()) {
            std::cout << "breakdown of the best mapping ("
                      << sweep.entries.front().mapping.toString()
                      << "):\n"
                      << explore::breakdownTable(
                             sweep.entries.front().result);
        }
    } catch (const UserError &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 1;
    }
    return 0;
}
