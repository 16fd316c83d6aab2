/**
 * @file
 * Tests for TransformerConfig: validation, MoE layer placement, and
 * parameter counting against known model sizes.
 */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "model/presets.hpp"
#include "model/transformer_config.hpp"

namespace amped {
namespace model {
namespace {

TEST(TransformerConfigTest, FactoryProducesValidConfig)
{
    const auto cfg = makeGptConfig("t", 12, 768, 12, 1024, 50000);
    EXPECT_EQ(cfg.ffnHiddenSize, 4 * 768);
    EXPECT_EQ(cfg.headDim(), 64);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(TransformerConfigTest, ValidationCatchesEachBadField)
{
    auto good = presets::tinyTest();
    auto check = [&](auto mutate) {
        auto bad = good;
        mutate(bad);
        EXPECT_THROW(bad.validate(), UserError);
    };
    check([](TransformerConfig &c) { c.numLayers = 0; });
    check([](TransformerConfig &c) { c.hiddenSize = -1; });
    check([](TransformerConfig &c) { c.numHeads = 0; });
    check([](TransformerConfig &c) { c.numHeads = 7; }); // 64 % 7 != 0
    check([](TransformerConfig &c) { c.seqLength = 0; });
    check([](TransformerConfig &c) { c.vocabSize = 0; });
    check([](TransformerConfig &c) { c.ffnHiddenSize = 0; });
    check([](TransformerConfig &c) {
        c.moe.numExperts = 4;
        c.moe.expertsPerToken = 8; // top-k > experts
    });
    check([](TransformerConfig &c) {
        c.moe.numExperts = 4;
        c.moe.moeLayerInterval = 0;
    });
}

TEST(TransformerConfigTest, MoeLayerPlacementEveryOther)
{
    auto cfg = presets::tinyTest();
    cfg.moe.numExperts = 8;
    cfg.moe.moeLayerInterval = 2;
    cfg.validate();
    // Interval 2 -> layers 1, 3 of a 4-layer stack host experts.
    EXPECT_FALSE(cfg.isMoeLayer(0));
    EXPECT_TRUE(cfg.isMoeLayer(1));
    EXPECT_FALSE(cfg.isMoeLayer(2));
    EXPECT_TRUE(cfg.isMoeLayer(3));
    EXPECT_EQ(cfg.numMoeLayers(), 2);
}

TEST(TransformerConfigTest, DenseModelHasNoMoeLayers)
{
    const auto cfg = presets::minGpt85M();
    for (std::int64_t l = 0; l < cfg.numLayers; ++l)
        EXPECT_FALSE(cfg.isMoeLayer(l));
    EXPECT_EQ(cfg.numMoeLayers(), 0);
}

TEST(TransformerConfigTest, Gpt3ParameterCountIsAbout175B)
{
    const auto cfg = presets::gpt3_175B();
    const double params = cfg.parameterCount();
    EXPECT_NEAR(params / 1e9, 175.0, 5.0);
}

TEST(TransformerConfigTest, Megatron145BParameterCount)
{
    const double params = presets::megatron145B().parameterCount();
    EXPECT_NEAR(params / 1e9, 145.0, 5.0);
}

TEST(TransformerConfigTest, Megatron1TParameterCount)
{
    const double params = presets::megatron1T().parameterCount();
    EXPECT_NEAR(params / 1e12, 1.0, 0.05);
}

TEST(TransformerConfigTest, MinGpt85MWithoutEmbeddings)
{
    // The paper quotes 85 M for minGPT (12 x 768): layer weights only.
    const double params =
        presets::minGpt85M().parameterCount(/*include_embeddings=*/false);
    EXPECT_NEAR(params / 1e6, 85.0, 3.0);
}

TEST(TransformerConfigTest, MoeParametersScaleWithExperts)
{
    auto dense = presets::tinyTest();
    auto moe = dense;
    moe.moe.numExperts = 16;
    moe.moe.moeLayerInterval = 2;
    moe.validate();
    // Experts multiply FFN weights on half the layers: the MoE model
    // must be much larger but less than 16x.
    const double dense_params = dense.parameterCount(false);
    const double moe_params = moe.parameterCount(false);
    EXPECT_GT(moe_params, 2.0 * dense_params);
    EXPECT_LT(moe_params, 16.0 * dense_params);
}

} // namespace

/**
 * Print a preset parameter by name. Without this gtest prints its raw
 * bytes, which hold heap addresses, so the listed test names would
 * change from one process to the next.
 */
static void PrintTo(const TransformerConfig &cfg, std::ostream *os)
{
    *os << cfg.name;
}

namespace {

/** Every preset must validate and have positive parameters. */
class PresetProperty
    : public ::testing::TestWithParam<TransformerConfig>
{};

TEST_P(PresetProperty, ValidatesAndCounts)
{
    const auto &cfg = GetParam();
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_GT(cfg.parameterCount(), 0.0);
    EXPECT_GT(cfg.parameterCount(true), cfg.parameterCount(false));
    EXPECT_EQ(cfg.hiddenSize % cfg.numHeads, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, PresetProperty,
    ::testing::Values(presets::tinyTest(), presets::minGpt85M(),
                      presets::minGptPipeline(), presets::gpt3_175B(),
                      presets::megatron145B(), presets::megatron310B(),
                      presets::megatron530B(), presets::megatron1T(),
                      presets::gpipeTransformer24(),
                      presets::glamMoE()),
    [](const ::testing::TestParamInfo<TransformerConfig> &info) {
        std::string name = info.param.name;
        for (char &ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

} // namespace
} // namespace model
} // namespace amped
