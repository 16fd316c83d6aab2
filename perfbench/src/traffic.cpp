#include "traffic.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace {

/** Sweep grids a rerank may pick from (the most recent ones). */
constexpr std::size_t kRerankWindow = 4;

/** Sweep grids a repeat may pick from; well inside the service
 *  cache's default budget. */
constexpr std::size_t kRepeatWindow = 64;

std::string
num(std::int64_t value)
{
    return std::to_string(value);
}

} // namespace

const char *
className(ServeClass cls)
{
    switch (cls) {
      case ServeClass::eval: return "eval";
      case ServeClass::report: return "report";
      case ServeClass::sweep: return "sweep";
      case ServeClass::rerank: return "rerank";
      case ServeClass::repeat: return "repeat";
      case ServeClass::optimize: return "optimize";
    }
    return "?";
}

TrafficGenerator::TrafficGenerator(std::uint64_t seed) : rng_(seed) {}

std::int64_t
TrafficGenerator::uniform(std::int64_t lo, std::int64_t hi)
{
    return rng_.uniformInt(lo, hi);
}

std::vector<ServeLine>
TrafficGenerator::nextRound()
{
    std::vector<ServeClass> order;
    for (std::size_t c = 0; c < kServeClassCount; ++c)
        order.insert(order.end(), kRoundQuota[c],
                     static_cast<ServeClass>(c));
    for (std::size_t i = order.size() - 1; i > 0; --i)
        std::swap(order[i],
                  order[static_cast<std::size_t>(
                      uniform(0, static_cast<std::int64_t>(i)))]);
    if (grids_.empty()) {
        // Reranks and repeats need an earlier sweep.
        std::stable_partition(order.begin(), order.end(),
                              [](ServeClass c) {
                                  return c == ServeClass::sweep;
                              });
    }

    std::vector<ServeLine> round;
    round.reserve(order.size());
    for (const ServeClass cls : order) {
        switch (cls) {
          case ServeClass::eval:
          case ServeClass::report:
            round.push_back(pointLine(cls));
            break;
          case ServeClass::sweep:
            round.push_back(sweepLine());
            break;
          case ServeClass::rerank:
            round.push_back(rerankLine());
            break;
          case ServeClass::repeat:
            round.push_back(repeatLine());
            break;
          case ServeClass::optimize:
            round.push_back(optimizeLine());
            break;
        }
    }
    return round;
}

ServeLine
TrafficGenerator::pointLine(ServeClass cls)
{
    static const char *const models[] = {"145b", "gpt3", "310b",
                                         "530b"};
    ServeLine line;
    line.cls = cls;
    line.id = nextId_++;
    PointSpec &p = line.point;
    p.model = models[uniform(0, 3)];
    const std::int64_t node_bits = uniform(4, 7); // 16..128 nodes
    p.nodes = std::int64_t{1} << node_bits;
    // Hand each factor of two to TP, PP or DP at random, keeping the
    // pipeline no deeper than 16 stages (every model has more layers).
    const auto split = [&](std::int64_t bits, std::int64_t &tp,
                           std::int64_t &pp, std::int64_t &dp,
                           std::int64_t pp_room) {
        for (std::int64_t b = 0; b < bits; ++b) {
            const std::int64_t pick = uniform(0, 2);
            if (pick == 0)
                tp *= 2;
            else if (pick == 1 && pp * 2 <= pp_room)
                pp *= 2;
            else
                dp *= 2;
        }
    };
    split(3, p.tpIntra, p.ppIntra, p.dpIntra, 4);
    split(node_bits, p.tpInter, p.ppInter, p.dpInter, 16 / p.ppIntra);
    p.batch = 256 * uniform(8, 64);

    line.text = "{\"id\":" + num(line.id) + ",\"method\":\"" +
                className(cls) + "\",\"params\":{\"model\":\"" +
                p.model + "\",\"nodes\":" + num(p.nodes) +
                ",\"per-node\":" + num(kPerNode) +
                ",\"batch\":" + num(p.batch) +
                ",\"tp-intra\":" + num(p.tpIntra) +
                ",\"pp-intra\":" + num(p.ppIntra) +
                ",\"dp-intra\":" + num(p.dpIntra) +
                ",\"tp-inter\":" + num(p.tpInter) +
                ",\"pp-inter\":" + num(p.ppInter) +
                ",\"dp-inter\":" + num(p.dpInter) + "}}";
    return line;
}

std::string
TrafficGenerator::gridText(const char *method, const GridSpec &grid,
                           std::int64_t top, bool memory_check)
{
    std::string batches;
    for (const std::int64_t b : grid.batches)
        batches += (batches.empty() ? "" : ",") + num(b);
    return "{\"id\":" + num(nextId_) + ",\"method\":\"" + method +
           "\",\"params\":{\"model\":\"" + grid.model +
           "\",\"nodes\":" + num(grid.nodes) +
           ",\"per-node\":" + num(kPerNode) + ",\"batches\":[" +
           batches + "],\"top\":" + num(top) +
           (memory_check ? ",\"memory-check\":true" : "") + "}}";
}

ServeLine
TrafficGenerator::sweepLine()
{
    GridSpec grid;
    grid.model = "145b";
    grid.nodes = 64;
    // 31 seeded batch sizes plus one that no earlier grid of this run
    // used, so the batch list (and both cache keys) is new.
    const std::int64_t base = 1024 + 8 * uniform(0, 127);
    for (std::int64_t j = 0; j < 31; ++j)
        grid.batches.push_back(base + 64 * j);
    grid.batches.push_back(4096 + 8 * freshGrids_++);

    ServeLine line;
    line.cls = ServeClass::sweep;
    line.top = 10;
    line.text = gridText("sweep", grid, line.top, false);
    line.id = nextId_++;
    line.grid = grids_.size();
    grids_.push_back(std::move(grid));
    usedTops_.push_back(1u << line.top);
    return line;
}

ServeLine
TrafficGenerator::rerankLine()
{
    // Candidates: the most recent grids first, then older ones, each
    // with at least one small top (1..9) not asked for it yet.
    const std::size_t n = grids_.size();
    const std::size_t window = std::min(kRerankWindow, n);
    std::size_t grid = n - 1 - static_cast<std::size_t>(uniform(
                                   0, static_cast<std::int64_t>(window) - 1));
    const auto has_free = [&](std::size_t g) {
        return (usedTops_[g] & 0x3feu) != 0x3feu;
    };
    if (!has_free(grid)) {
        std::size_t g = n;
        while (g > 0 && !has_free(g - 1))
            --g;
        if (g == 0)
            throw std::logic_error("rerank: every grid is exhausted");
        grid = g - 1;
    }
    std::vector<std::int64_t> free_tops;
    for (std::int64_t t = 1; t <= 9; ++t)
        if ((usedTops_[grid] & (1u << t)) == 0)
            free_tops.push_back(t);
    const std::int64_t top = free_tops[static_cast<std::size_t>(
        uniform(0, static_cast<std::int64_t>(free_tops.size()) - 1))];
    usedTops_[grid] |= 1u << top;

    ServeLine line;
    line.cls = ServeClass::rerank;
    line.grid = grid;
    line.top = top;
    line.text = gridText("sweep", grids_[grid], top, false);
    line.id = nextId_++;
    return line;
}

ServeLine
TrafficGenerator::repeatLine()
{
    const std::size_t n = grids_.size();
    const std::size_t window = std::min(kRepeatWindow, n);
    ServeLine line;
    line.cls = ServeClass::repeat;
    line.grid = n - 1 - static_cast<std::size_t>(uniform(
                            0, static_cast<std::int64_t>(window) - 1));
    line.top = 10;
    line.text = gridText("sweep", grids_[line.grid], line.top, false);
    line.id = nextId_++;
    return line;
}

ServeLine
TrafficGenerator::optimizeLine()
{
    // One model and cluster: a mix of grid shapes would put the class
    // median at whichever shape the seed drew more of.
    GridSpec grid;
    grid.model = "145b";
    grid.nodes = 64;
    const std::int64_t base = 1024 + 8 * uniform(0, 127);
    for (std::int64_t j = 0; j < 15; ++j)
        grid.batches.push_back(base + 128 * j);
    grid.batches.push_back(8192 + 8 * freshGrids_++);

    ServeLine line;
    line.cls = ServeClass::optimize;
    line.top = 3;
    line.text = gridText("optimize", grid, line.top, true);
    line.id = nextId_++;
    return line;
}

} // namespace perfbench
