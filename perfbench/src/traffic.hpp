/**
 * @file
 * Seeded request generator for the serve_mix replay.
 *
 * Traffic comes in rounds of kRoundLines request lines with fixed
 * per-class quotas (40 % eval, 10 % report, 15 % sweep, 10 % rerank,
 * 10 % repeat, 15 % optimize), shuffled within the round.  A line's
 * class is fixed when it is generated, from the request alone, so a
 * cache change can never move a request from one latency metric to
 * another.  The same seed always yields the same lines and labels;
 * the server sees only the line text.
 *
 *  - eval / report: one mapping of 145b, gpt3, 310b or 530b on a
 *    16-128 node A100 cluster.
 *  - sweep: a 64x8 A100 grid (265 mappings x 32 batch sizes) whose
 *    batch list no earlier request used, so both the service cache
 *    and the Explorer memo miss.
 *  - rerank: one of the last few sweep grids with a small `top` not
 *    asked for that grid before: a service-cache miss that the
 *    Explorer memo answers.
 *  - repeat: the exact line of an earlier sweep, which the service
 *    cache answers.
 *  - optimize: a fresh 145b grid on 64x8 A100s (265 mappings x 16
 *    batch sizes) with the memory screen on.
 */

#ifndef PERFBENCH_TRAFFIC_HPP
#define PERFBENCH_TRAFFIC_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

enum class ServeClass : unsigned char
{
    eval,
    report,
    sweep,
    rerank,
    repeat,
    optimize
};

constexpr std::size_t kServeClassCount = 6;

/** Lines of each class (in enum order) in one round. */
constexpr std::array<std::size_t, kServeClassCount> kRoundQuota = {
    8, 2, 3, 2, 2, 3};

constexpr std::size_t kRoundLines = 20;

const char *className(ServeClass cls);

/** Accelerators per node in every generated cluster. */
constexpr std::int64_t kPerNode = 8;

/** One (model, cluster, mapping, batch) point of an eval/report. */
struct PointSpec
{
    std::string model;
    std::int64_t nodes = 0;
    std::int64_t tpIntra = 1, ppIntra = 1, dpIntra = 1;
    std::int64_t tpInter = 1, ppInter = 1, dpInter = 1;
    std::int64_t batch = 0;
};

/** A sweep grid: the model's full mapping space x a batch list. */
struct GridSpec
{
    std::string model;
    std::int64_t nodes = 0;
    std::vector<std::int64_t> batches;
};

struct ServeLine
{
    ServeClass cls = ServeClass::eval;
    std::int64_t id = 0;
    std::string text;
    PointSpec point;      ///< eval and report lines.
    std::size_t grid = 0; ///< sweep/rerank/repeat: sweep grid index.
    std::int64_t top = 0; ///< sweep/rerank/repeat: requested top.
};

class TrafficGenerator
{
  public:
    explicit TrafficGenerator(std::uint64_t seed);

    /** The next round of kRoundLines lines. */
    std::vector<ServeLine> nextRound();

    /** Grid of the sweep that introduced sweep-grid @p index. */
    const GridSpec &sweepGrid(std::size_t index) const
    {
        return grids_[index];
    }

  private:
    ServeLine pointLine(ServeClass cls);
    ServeLine sweepLine();
    ServeLine rerankLine();
    ServeLine repeatLine();
    ServeLine optimizeLine();
    std::string gridText(const char *method, const GridSpec &grid,
                         std::int64_t top, bool memory_check);
    std::int64_t uniform(std::int64_t lo, std::int64_t hi);

    amped::Rng rng_;
    std::int64_t nextId_ = 1;
    std::int64_t freshGrids_ = 0;
    std::vector<GridSpec> grids_;
    std::vector<std::uint32_t> usedTops_; ///< Per grid, bit t = top t.
};

} // namespace perfbench

#endif // PERFBENCH_TRAFFIC_HPP
