#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

std::uint64_t
Tracer::open(const char *name, std::uint64_t request)
{
    if (!enabled_)
        return 0;
    Span span;
    span.name = name;
    span.id = spans_.size() + 1;
    span.parent = openStack_.empty() ? 0 : openStack_.back();
    span.request = request;
    span.startUs = nowUs();
    spans_.push_back(std::move(span));
    openStack_.push_back(spans_.back().id);
    return spans_.back().id;
}

void
Tracer::close(std::uint64_t id)
{
    if (id == 0)
        return;
    spans_[id - 1].endUs = nowUs();
    if (!openStack_.empty() && openStack_.back() == id)
        openStack_.pop_back();
}

std::string
Tracer::chromeJson() const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (i != 0)
            out += ',';
        // Span names are fixed identifiers; no escaping needed.
        out += "{\"name\":\"" + s.name + "\",\"cat\":\"" +
               s.name.substr(0, s.name.find('.')) + "\",\"ph\":\"X\"";
        std::snprintf(buf, sizeof buf,
                      ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                      "\"args\":{\"id\":%llu,\"parent\":%llu,"
                      "\"request\":%llu}}",
                      s.startUs, s.endUs - s.startUs,
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.request));
        out += buf;
    }
    out += "]}\n";
    return out;
}

std::vector<double>
selfTimesUs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans)
        if (s.parent != 0 && s.parent <= spans.size())
            children[s.parent - 1].emplace_back(s.startUs, s.endUs);

    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].startUs;
        const double hi = spans[i].endUs;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double run_lo = 0.0;
        double run_hi = 0.0;
        bool open_run = false;
        for (auto [a, b] : kids) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a)
                continue;
            if (open_run && a <= run_hi) {
                run_hi = std::max(run_hi, b);
                continue;
            }
            if (open_run)
                covered += run_hi - run_lo;
            run_lo = a;
            run_hi = b;
            open_run = true;
        }
        if (open_run)
            covered += run_hi - run_lo;
        self[i] = (hi - lo) - covered;
    }
    return self;
}

std::vector<LayerTotals>
layerTotals(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimesUs(spans);
    std::map<std::string, LayerTotals> by_name;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        LayerTotals &t = by_name[spans[i].name];
        t.name = spans[i].name;
        ++t.count;
        t.totalUs += spans[i].endUs - spans[i].startUs;
        t.selfUs += self[i];
    }
    std::vector<LayerTotals> out;
    out.reserve(by_name.size());
    for (auto &entry : by_name)
        out.push_back(std::move(entry.second));
    return out;
}

} // namespace perfbench
