#include "bench_core.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "obs/export.hh"
#include "util/error.hh"
#include "util/rng.hh"

namespace perfbench
{

std::vector<size_t>
designOrder(uint64_t seed, uint64_t request, size_t n)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    ucx::Rng rng = ucx::Rng(seed).split(request);
    for (size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

ucx::Dataset
drawDataset(const ucx::Dataset &published,
            const ucx::FittedEstimator &dee1, uint64_t seed,
            uint64_t index)
{
    // Streams of the draws sit far from the request-order streams,
    // so the two never share a generator.
    constexpr uint64_t kDrawStreamBase = 1ull << 32;
    ucx::Rng rng = ucx::Rng(seed).split(kDrawStreamBase + index);
    ucx::Dataset out;
    for (const ucx::Component &c : published.components()) {
        ucx::Component drawn = c;
        double median =
            dee1.predictMedian(c.metrics, dee1.productivity(c.project));
        drawn.effort = median * std::exp(dee1.sigmaEps() * rng.normal());
        out.add(std::move(drawn));
    }
    return out;
}

std::optional<double>
percentile(std::vector<double> samples, double q)
{
    constexpr size_t kMinBeyond = 10;
    ucx::require(q > 0.0 && q < 1.0, "percentile needs q in (0, 1)");
    size_t n = samples.size();
    if (n == 0)
        return std::nullopt;
    auto rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    rank = std::clamp<size_t>(rank, 1, n);
    if (n - rank < kMinBeyond)
        return std::nullopt;
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

double
median(std::vector<double> values)
{
    ucx::require(!values.empty(), "median of no values");
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double
referenceLoopMs(uint64_t *checksum)
{
    constexpr size_t kKeys = size_t{1} << 18;
    constexpr int kRounds = 5;
    Clock::time_point start = Clock::now();
    uint64_t sum = 0;
    std::vector<uint64_t> keys(kKeys);
    std::unordered_map<uint64_t, uint64_t> table;
    for (int round = 0; round < kRounds; ++round) {
        // splitmix64 over a fixed start: the same keys every run.
        uint64_t x = 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(round + 1);
        for (uint64_t &k : keys) {
            x += 0x9e3779b97f4a7c15ull;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            k = z ^ (z >> 31);
        }
        std::sort(keys.begin(), keys.end());
        table.clear();
        table.reserve(kKeys / 4);
        for (size_t i = 0; i < kKeys; i += 4)
            table[keys[i] >> 20] += keys[i + 1];
        sum += table.size() + keys[kKeys / 2];
    }
    double ms = msBetween(start, Clock::now());
    if (checksum)
        *checksum = sum;
    return ms;
}

double
cpuMsNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto ms = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) * 1e3 +
               static_cast<double>(tv.tv_usec) / 1e3;
    };
    return ms(ru.ru_utime) + ms(ru.ru_stime);
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

size_t
SpanLog::open(const std::string &name, uint64_t request)
{
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : static_cast<int>(stack_.back());
    span.request = request;
    span.startMs = msBetween(origin_, Clock::now());
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanLog::close(size_t index)
{
    assert(!stack_.empty() && stack_.back() == index);
    stack_.pop_back();
    Span &span = spans_[index];
    span.endMs = msBetween(origin_, Clock::now());
    if (span.parent >= 0)
        spans_[static_cast<size_t>(span.parent)].childMs +=
            span.endMs - span.startMs;
}

double
SpanLog::selfMs(size_t index) const
{
    const Span &span = spans_[index];
    return span.endMs - span.startMs - span.childMs;
}

std::map<std::string, SpanLog::Totals>
SpanLog::totals() const
{
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        Totals &t = out[spans_[i].name];
        t.count += 1;
        t.totalMs += spans_[i].endMs - spans_[i].startMs;
        t.selfMs += selfMs(i);
    }
    return out;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    return '"' + ucx::obs::jsonEscape(s) + '"';
}

} // namespace perfbench
