/**
 * @file
 * Tests of the benchmark's own helpers: the percentile guard, the
 * host-gauge sample selection, the serve_mix generator's determinism
 * and class quotas, and span self time.  Exits nonzero on the first
 * failed expectation.
 *
 *   python3 perfbench/run.py --selftest
 */

#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "traffic.hpp"

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(static_cast<double>(n - i)); // unsorted input
    return v;
}

void
percentileRefusesThinTails()
{
    using perfbench::percentile;
    // p50 of 20 samples: rank 10, exactly 10 beyond.
    expect(percentile(iota(20), 50).value_or(-1) == 10.0,
           "p50 of 1..20 is 10");
    expect(!percentile(iota(19), 50), "p50 refused with 9 beyond");
    expect(percentile(iota(21), 50).value_or(-1) == 11.0,
           "p50 of 1..21 is 11");
    // p90 needs 100 samples; p99 needs 1000.
    expect(!percentile(iota(99), 90), "p90 refused with 99 samples");
    expect(percentile(iota(100), 90).value_or(-1) == 90.0,
           "p90 of 1..100 is 90");
    expect(!percentile(iota(999), 99), "p99 refused with 999 samples");
    expect(percentile(iota(1000), 99).value_or(-1) == 990.0,
           "p99 of 1..1000 is 990");
    expect(!percentile({}, 50), "empty sample set refused");
    expect(perfbench::minSamplesFor(50) == 20, "p50 needs 20 samples");
    expect(perfbench::minSamplesFor(90) == 100, "p90 needs 100 samples");
    for (std::size_t n = 1; n < 300; ++n)
        for (const double pct : {50.0, 90.0, 99.0})
            expect(percentile(iota(n), pct).has_value() ==
                       (perfbench::samplesBeyond(n, pct) >=
                        perfbench::kMinBeyond),
                   "percentile reported iff 10 samples lie beyond it");
}

void
gaugeSelectionKeepsUsualSpeed()
{
    using perfbench::samplesWithin;
    using perfbench::usualGauge;
    using Picks = std::vector<std::size_t>;
    // Fifteen samples at the usual speed (gauge 1.00-1.05), five in a
    // slow spell (1.4): the slow ones go, order is kept.
    std::vector<double> gauge;
    Picks usual;
    for (std::size_t i = 0; i < 20; ++i) {
        const bool slow = i % 4 == 1;
        gauge.push_back(slow ? 1.4 : 1.0 + 0.01 * static_cast<double>(i % 6));
        if (!slow)
            usual.push_back(i);
    }
    expect(usualGauge(gauge) == 1.0, "usual gauge is the p2 reading");
    expect(usualGauge({}) == 0.0, "no readings, usual gauge 0");
    expect(samplesWithin(gauge, 1.2 * usualGauge(gauge), 10) == usual,
           "samples beyond the limit are dropped");
    // Too few qualify: the min_keep smallest readings, in sample order.
    expect(samplesWithin({1.0, 2.0, 1.5, 3.0, 1.2}, 1.1, 3) ==
               Picks({0, 2, 4}),
           "min_keep tops up by gauge order");
    expect(samplesWithin({2.0, 1.0}, 1.1, 5) == Picks({0, 1}),
           "min_keep beyond the sample count keeps every sample");
    expect(samplesWithin({}, 1.1, 5).empty(), "no samples, none kept");
    // A host at one speed throughout keeps everything: the limit
    // follows the run's own usual reading, not a fixed speed.
    const std::vector<double> flat(12, 3.0);
    expect(samplesWithin(flat, 1.2 * usualGauge(flat), 1).size() == 12,
           "a run at one speed keeps every sample");
}

void
trafficIsSeeded()
{
    using namespace perfbench;
    const auto rounds = [](std::uint64_t seed, int n) {
        TrafficGenerator gen(seed);
        std::vector<ServeLine> lines;
        for (int r = 0; r < n; ++r)
            for (auto &line : gen.nextRound())
                lines.push_back(std::move(line));
        return lines;
    };
    const auto a = rounds(7, 40);
    const auto b = rounds(7, 40);
    const auto c = rounds(8, 40);
    bool same = a.size() == b.size();
    bool differs = false;
    for (std::size_t i = 0; same && i < a.size(); ++i) {
        same = a[i].text == b[i].text && a[i].cls == b[i].cls &&
               a[i].id == b[i].id;
        differs = differs || a[i].text != c[i].text;
    }
    expect(same, "one seed yields the same lines and class labels");
    expect(differs, "another seed yields other lines");

    // Quotas hold in every round; ids run 1, 2, ...; reranks and
    // repeats refer to sweeps already sent; reranks ask a new top.
    std::size_t sweeps_sent = 0;
    std::vector<std::vector<std::int64_t>> tops;
    for (std::size_t r = 0; r * kRoundLines < a.size(); ++r) {
        std::size_t count[kServeClassCount] = {};
        for (std::size_t i = 0; i < kRoundLines; ++i) {
            const ServeLine &line = a[r * kRoundLines + i];
            ++count[static_cast<std::size_t>(line.cls)];
            expect(line.id ==
                       static_cast<std::int64_t>(r * kRoundLines + i + 1),
                   "ids are consecutive");
            const std::string tag =
                "\"method\":\"" +
                std::string(line.cls == ServeClass::eval ||
                                    line.cls == ServeClass::report ||
                                    line.cls == ServeClass::optimize
                                ? className(line.cls)
                                : "sweep") +
                "\"";
            expect(line.text.find(tag) != std::string::npos,
                   "line method matches its class");
            if (line.cls == ServeClass::sweep) {
                expect(line.grid == sweeps_sent, "sweeps are new grids");
                ++sweeps_sent;
                tops.push_back({line.top});
            } else if (line.cls == ServeClass::rerank ||
                       line.cls == ServeClass::repeat) {
                expect(line.grid < sweeps_sent,
                       "rerank/repeat follow their sweep");
                if (line.cls == ServeClass::rerank) {
                    for (const auto t : tops[line.grid])
                        expect(t != line.top, "rerank asks a new top");
                    tops[line.grid].push_back(line.top);
                }
            }
        }
        for (std::size_t k = 0; k < kServeClassCount; ++k)
            expect(count[k] == kRoundQuota[k], "round quota holds");
    }
}

void
selfTimeSubtractsOnlyChildCover()
{
    using perfbench::Span;
    // Root [0, 100] with children [10, 30] and [20, 50] (overlapping:
    // covered 40, not 50), a child [90, 120] clipped to 10, and a
    // grandchild [12, 18] that must not be subtracted from the root.
    std::vector<Span> spans = {
        {"root", 1, 0, 1, 0.0, 100.0},
        {"a", 2, 1, 1, 10.0, 30.0},
        {"b", 3, 1, 1, 20.0, 50.0},
        {"c", 4, 1, 1, 90.0, 120.0},
        {"a.inner", 5, 2, 1, 12.0, 18.0},
        {"other", 6, 0, 2, 200.0, 250.0},
    };
    const auto self = perfbench::selfTimesUs(spans);
    expect(std::abs(self[0] - 50.0) < 1e-9, "root self = 100 - 40 - 10");
    expect(std::abs(self[1] - 14.0) < 1e-9, "a self = 20 - 6");
    expect(std::abs(self[2] - 30.0) < 1e-9, "b self = 30");
    expect(std::abs(self[4] - 6.0) < 1e-9, "leaf self = duration");
    expect(std::abs(self[5] - 50.0) < 1e-9, "unrelated root untouched");

    // The recorder nests spans by open order.
    perfbench::Tracer tracer(true);
    {
        perfbench::Tracer::Scope outer(tracer, "outer", 9);
        perfbench::Tracer::Scope inner(tracer, "inner", 9);
    }
    expect(tracer.spans().size() == 2 && tracer.spans()[1].parent == 1 &&
               tracer.spans()[1].request == 9,
           "spans record parent and request");
    perfbench::Tracer off(false);
    {
        perfbench::Tracer::Scope s(off, "x", 1);
    }
    expect(off.spans().empty(), "a disabled tracer records nothing");
}

} // namespace

int
main()
{
    percentileRefusesThinTails();
    gaugeSelectionKeepsUsualSpeed();
    trafficIsSeeded();
    selfTimeSubtractsOnlyChildCover();
    if (failures != 0) {
        std::cerr << failures << " expectation(s) failed\n";
        return 1;
    }
    std::cout << "perfbench selftest: all expectations hold\n";
    return 0;
}
