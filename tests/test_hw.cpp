/**
 * @file
 * Tests for the accelerator model: peak throughput of the Table IV
 * presets, precision scaling, and reciprocal throughputs.
 */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "hw/accelerator.hpp"
#include "hw/presets.hpp"

namespace amped {
namespace hw {
namespace {

TEST(AcceleratorTest, A100PeakMatchesTableIV)
{
    const auto a100 = presets::a100();
    // 1.41e9 * 108 * 4 * 512 = 311.9 TFLOP/s.
    EXPECT_NEAR(a100.peakMacFlops().value() / 1e12, 312.0, 1.0);
    EXPECT_DOUBLE_EQ(a100.offChipBandwidth.value(), 2.4e12);
}

TEST(AcceleratorTest, H100PeakMatchesTableIV)
{
    const auto h100 = presets::h100();
    // 1.8e9 * 132 * 4 * 1024 = 973 TFLOP/s.
    EXPECT_NEAR(h100.peakMacFlops().value() / 1e12, 973.0, 2.0);
    EXPECT_DOUBLE_EQ(h100.offChipBandwidth.value(), 3.6e12);
}

TEST(AcceleratorTest, V100PeakMatchesDatasheet)
{
    // V100 FP16 tensor peak ~ 125 TFLOP/s.
    EXPECT_NEAR(presets::v100Sxm3().peakMacFlops().value() / 1e12, 125.0, 2.0);
}

TEST(AcceleratorTest, P100PeakMatchesDatasheet)
{
    // P100 FP16 peak ~ 21.2 TFLOP/s.
    EXPECT_NEAR(presets::p100Pcie().peakMacFlops().value() / 1e12, 21.2, 1.0);
}

TEST(AcceleratorTest, NonlinPeakUsesDeviceTotalUnits)
{
    const auto a100 = presets::a100();
    // Eq. 4 has no N_cores factor: f * 192 * 4.
    EXPECT_DOUBLE_EQ(a100.peakNonlinOps().value(), 1.41e9 * 192.0 * 4.0);
}

TEST(PrecisionTest, MacFactorCeilsOperandOverUnit)
{
    Precisions p;
    p.parameterBits = Bits{16.0};
    p.activationBits = Bits{16.0};
    p.macUnitBits = Bits{16.0};
    EXPECT_DOUBLE_EQ(macPrecisionFactor(p), 1.0);
    p.activationBits = Bits{32.0}; // wider operand: 2 passes
    EXPECT_DOUBLE_EQ(macPrecisionFactor(p), 2.0);
    p.activationBits = Bits{8.0};
    p.parameterBits = Bits{8.0}; // narrower operand still occupies the unit
    EXPECT_DOUBLE_EQ(macPrecisionFactor(p), 1.0);
    p.parameterBits = Bits{24.0}; // max(24, 8)/16 -> ceil(1.5) = 2
    EXPECT_DOUBLE_EQ(macPrecisionFactor(p), 2.0);
}

TEST(PrecisionTest, NonlinFactorCeils)
{
    Precisions p;
    p.nonlinearBits = Bits{32.0};
    p.nonlinearUnitBits = Bits{16.0};
    EXPECT_DOUBLE_EQ(nonlinPrecisionFactor(p), 2.0);
    p.nonlinearBits = Bits{8.0};
    EXPECT_DOUBLE_EQ(nonlinPrecisionFactor(p), 1.0);
}

TEST(ThroughputTest, CMacIsReciprocalOfEffectivePeak)
{
    const auto a100 = presets::a100();
    const double eff = 0.5;
    EXPECT_DOUBLE_EQ(cMac(a100, eff).value(),
                     (1.0 / (a100.peakMacFlops() * eff)).value());
    EXPECT_DOUBLE_EQ(cNonlin(a100).value(),
                     (1.0 / a100.peakNonlinOps()).value());
}

TEST(ThroughputTest, CMacRejectsBadEfficiency)
{
    const auto a100 = presets::a100();
    EXPECT_THROW(cMac(a100, 0.0), UserError);
    EXPECT_THROW(cMac(a100, -0.1), UserError);
    EXPECT_THROW(cMac(a100, 1.5), UserError);
}

TEST(AcceleratorTest, ValidationCatchesBadFields)
{
    auto check = [](auto mutate) {
        auto bad = presets::tinyTest();
        mutate(bad);
        EXPECT_THROW(bad.validate(), UserError);
    };
    check([](AcceleratorConfig &c) { c.frequency = Hertz{0.0}; });
    check([](AcceleratorConfig &c) { c.numCores = 0; });
    check([](AcceleratorConfig &c) { c.numMacUnits = -1; });
    check([](AcceleratorConfig &c) { c.macUnitWidth = 0; });
    check([](AcceleratorConfig &c) { c.numNonlinUnits = 0; });
    check([](AcceleratorConfig &c) { c.nonlinUnitWidth = 0; });
    check([](AcceleratorConfig &c) { c.memoryBytes = 0.0; });
    check([](AcceleratorConfig &c) {
        c.offChipBandwidth = BitsPerSecond{0.0};
    });
    check([](AcceleratorConfig &c) {
        c.precisions.activationBits = Bits{0.0};
    });
}

} // namespace

/**
 * Print a preset parameter by name. Without this gtest prints its raw
 * bytes, which hold heap addresses, so the listed test names would
 * change from one process to the next.
 */
static void PrintTo(const AcceleratorConfig &cfg, std::ostream *os)
{
    *os << cfg.name;
}

namespace {

/** Every preset validates; peak throughputs are positive. */
class AccelPresetProperty
    : public ::testing::TestWithParam<AcceleratorConfig>
{};

TEST_P(AccelPresetProperty, ValidAndPositive)
{
    const auto &cfg = GetParam();
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_GT(cfg.peakMacFlops(), FlopsPerSecond{0.0});
    EXPECT_GT(cfg.peakNonlinOps(), FlopsPerSecond{0.0});
    // MAC pipelines dominate nonlinear throughput on every device.
    EXPECT_GT(cfg.peakMacFlops(), cfg.peakNonlinOps());
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, AccelPresetProperty,
    ::testing::Values(presets::tinyTest(), presets::v100Sxm3(),
                      presets::p100Pcie(), presets::a100(),
                      presets::h100()),
    [](const ::testing::TestParamInfo<AcceleratorConfig> &info) {
        std::string name = info.param.name;
        for (char &ch : name)
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        return name;
    });

} // namespace
} // namespace hw
} // namespace amped
