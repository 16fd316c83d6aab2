/**
 * @file
 * Tests for parallelism mappings: validation against systems,
 * microbatch derivation, and exhaustive enumeration.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "common/error.hpp"
#include "mapping/parallelism.hpp"

namespace amped {
namespace mapping {
namespace {

net::SystemConfig
system128x8()
{
    auto sys = net::presets::a100Cluster1024();
    return sys;
}

TEST(ParallelismTest, DegreeProducts)
{
    const auto cfg = makeMapping(8, 1, 1, 1, 2, 64);
    EXPECT_EQ(cfg.tp(), 8);
    EXPECT_EQ(cfg.pp(), 2);
    EXPECT_EQ(cfg.dp(), 64);
    EXPECT_EQ(cfg.totalWorkers(), 1024);
}

TEST(ParallelismTest, MakeMappingRejectsNonPositive)
{
    EXPECT_THROW(makeMapping(0, 1, 1, 1, 1, 1), UserError);
    EXPECT_THROW(makeMapping(1, 1, 1, 1, -2, 1), UserError);
}

TEST(ParallelismTest, ValidateForMatchingSystem)
{
    const auto sys = system128x8();
    EXPECT_NO_THROW(makeMapping(8, 1, 1, 1, 2, 64).validateFor(sys));
    EXPECT_NO_THROW(makeMapping(1, 1, 8, 1, 128, 1).validateFor(sys));
    // Intra product 4 != 8.
    EXPECT_THROW(makeMapping(4, 1, 1, 1, 2, 64).validateFor(sys),
                 UserError);
    // Inter product 64 != 128.
    EXPECT_THROW(makeMapping(8, 1, 1, 1, 1, 64).validateFor(sys),
                 UserError);
}

TEST(ParallelismTest, DiagnosticsTextIsPinned)
{
    // These checks format their message only when they fail; pin
    // each message byte for byte so a reworded or dropped part
    // fails here, not just the throw.
    const auto sys = system128x8();
    Microbatching sized;
    sized.microbatchSizeOverride = 32.0;
    struct Case
    {
        const char *name;
        std::function<void()> check;
        const char *message;
    };
    const Case cases[] = {
        {"non-positive degree",
         [] { makeMapping(8, 1, 1, 1, -2, 64); },
         "parallelism degrees must all be >= 1 (TP8 | DP64 "
         "(intra|inter))"},
        {"intra mismatch",
         [&] { makeMapping(4, 1, 1, 1, 2, 64).validateFor(sys); },
         "mapping TP4 | PP2*DP64 (intra|inter): intra-node degree "
         "product 4 != accelerators per node 8"},
        {"inter mismatch",
         [&] { makeMapping(8, 1, 1, 1, 1, 64).validateFor(sys); },
         "mapping TP8 | DP64 (intra|inter): inter-node degree "
         "product 64 != node count 128"},
        {"sub-unit microbatch",
         [] {
             Microbatching().microbatchSize(
                 8.0, makeMapping(1, 4, 4, 1, 1, 1));
         },
         "batch 8 too small for mapping PP4*DP4 | 1 (intra|inter): "
         "microbatch size would be 0.5 (< 1 sample)"},
        {"fewer than one microbatch",
         [&] {
             sized.numMicrobatches(256.0,
                                   makeMapping(1, 1, 16, 1, 1, 1));
         },
         "batch 256 with mapping DP16 | 1 (intra|inter) yields 0.5 "
         "microbatches (< 1)"},
    };
    for (const auto &row : cases) {
        SCOPED_TRACE(row.name);
        try {
            row.check();
            ADD_FAILURE() << "no UserError thrown";
        } catch (const UserError &error) {
            EXPECT_STREQ(error.what(), row.message);
        }
    }
}

TEST(ParallelismTest, ToStringShowsBothTiers)
{
    const auto cfg = makeMapping(8, 1, 1, 1, 2, 64);
    EXPECT_EQ(cfg.toString(), "TP8 | PP2*DP64 (intra|inter)");
    const auto trivial = makeMapping(1, 1, 1, 1, 1, 1);
    EXPECT_EQ(trivial.toString(), "1 | 1 (intra|inter)");
}

TEST(MicrobatchingTest, DefaultRuleMatchesPaper)
{
    Microbatching mb;
    const auto cfg = makeMapping(8, 1, 1, 1, 2, 64);
    // ub = B / (DP * PP) = 16384 / 128.
    EXPECT_DOUBLE_EQ(mb.microbatchSize(16384.0, cfg), 128.0);
    // N_ub = N_PP by default.
    EXPECT_DOUBLE_EQ(mb.numMicrobatches(16384.0, cfg), 2.0);
}

TEST(MicrobatchingTest, SizeOverrideDerivesCount)
{
    Microbatching mb;
    mb.microbatchSizeOverride = 4.0;
    const auto cfg = makeMapping(1, 4, 2, 1, 1, 1); // PP=4, DP=2
    EXPECT_DOUBLE_EQ(mb.microbatchSize(64.0, cfg), 4.0);
    // per-replica batch 32 / ub 4 = 8 microbatches.
    EXPECT_DOUBLE_EQ(mb.numMicrobatches(64.0, cfg), 8.0);
}

TEST(MicrobatchingTest, CountOverrideDerivesSize)
{
    Microbatching mb;
    mb.numMicrobatchesOverride = 32.0; // GPipe M = 32
    const auto cfg = makeMapping(1, 8, 1, 1, 1, 1);
    EXPECT_DOUBLE_EQ(mb.numMicrobatches(128.0, cfg), 32.0);
    EXPECT_DOUBLE_EQ(mb.microbatchSize(128.0, cfg), 4.0);
}

TEST(MicrobatchingTest, RejectsSubUnitMicrobatch)
{
    Microbatching mb;
    const auto cfg = makeMapping(1, 4, 4, 1, 1, 1); // DP*PP = 16
    EXPECT_THROW(mb.microbatchSize(8.0, cfg), UserError);
    EXPECT_THROW(mb.microbatchSize(0.0, cfg), UserError);
}

TEST(FactorizationTest, ThreeWayCountsAndProducts)
{
    // 8 = 2^3: ordered triples of product 8 -> C(3+2,2) = 10.
    const auto triples = threeWayFactorizations(8);
    EXPECT_EQ(triples.size(), 10u);
    for (const auto &t : triples)
        EXPECT_EQ(t[0] * t[1] * t[2], 8);
    // All distinct.
    std::set<std::array<std::int64_t, 3>> unique(triples.begin(),
                                                 triples.end());
    EXPECT_EQ(unique.size(), triples.size());
}

TEST(FactorizationTest, TrivialAndErrors)
{
    const auto one = threeWayFactorizations(1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], (std::array<std::int64_t, 3>{1, 1, 1}));
    EXPECT_THROW(threeWayFactorizations(0), UserError);
}

TEST(MappingSpaceTest, EnumerationIsExhaustiveAndValid)
{
    const auto sys = system128x8();
    MappingSpace space(sys);
    const auto mappings = space.enumerate();
    // 8 = 2^3 -> 10 intra splits; 128 = 2^7 -> C(9,2) = 36 inter
    // splits; 360 total.
    EXPECT_EQ(mappings.size(), 360u);
    for (const auto &m : mappings)
        EXPECT_NO_THROW(m.validateFor(sys));
}

TEST(MappingSpaceTest, PipelineCapFilters)
{
    const auto sys = system128x8();
    MappingSpace space(sys);
    const auto capped = space.enumerate(/*max_pp=*/8);
    EXPECT_LT(capped.size(), space.enumerate().size());
    for (const auto &m : capped)
        EXPECT_LE(m.pp(), 8);
}

TEST(MappingSpaceTest, CoversPureStrategies)
{
    const auto sys = system128x8();
    MappingSpace space(sys);
    const auto mappings = space.enumerate();
    bool pure_dp = false, pure_tp = false, tp_intra_dp_inter = false;
    for (const auto &m : mappings) {
        if (m.dp() == 1024)
            pure_dp = true;
        if (m.tp() == 1024)
            pure_tp = true;
        if (m.tpIntra == 8 && m.dpInter == 128 && m.pp() == 1 &&
            m.tpInter == 1)
            tp_intra_dp_inter = true;
    }
    EXPECT_TRUE(pure_dp);
    EXPECT_TRUE(pure_tp);
    EXPECT_TRUE(tp_intra_dp_inter);
}

/** Property: every enumerated mapping uses every accelerator. */
class MappingSpaceProperty
    : public ::testing::TestWithParam<std::pair<int, int>>
{};

TEST_P(MappingSpaceProperty, ProductsMatchSystem)
{
    const auto [nodes, per_node] = GetParam();
    net::SystemConfig sys = net::presets::tinyTest();
    sys.numNodes = nodes;
    sys.acceleratorsPerNode = per_node;
    MappingSpace space(sys);
    for (const auto &m : space.enumerate()) {
        EXPECT_EQ(m.tpIntra * m.ppIntra * m.dpIntra, per_node);
        EXPECT_EQ(m.tpInter * m.ppInter * m.dpInter, nodes);
        EXPECT_EQ(m.totalWorkers(), sys.totalAccelerators());
    }
}

INSTANTIATE_TEST_SUITE_P(SystemShapes, MappingSpaceProperty,
                         ::testing::Values(std::pair{1, 1},
                                           std::pair{2, 2},
                                           std::pair{4, 8},
                                           std::pair{12, 6},
                                           std::pair{16, 16}));

} // namespace
} // namespace mapping
} // namespace amped
