/**
 * @file
 * Tests of the benchmark's own logic: seeded inputs,
 * percentile refusal, the median, span self times, allocation
 * counting, and that the traced replay reproduces the untraced
 * request with counts that repeat exactly.
 */

#include <filesystem>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "bench_core.hh"
#include "data/paper_data.hh"
#include "designs/registry.hh"
#include "engine/session.hh"
#include "obs/metrics.hh"
#include "util/alloc_hook.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

WorkloadOptions
testOptions(uint64_t seed = 7)
{
    WorkloadOptions opts;
    opts.seed = seed;
    opts.poolWorkers = 2;
    opts.referencePath = PERFBENCH_REFERENCE;
    opts.storeRoot = (std::filesystem::current_path() /
                      "perfbench-test-stores")
                         .string();
    std::filesystem::create_directories(opts.storeRoot);
    return opts;
}

ucx::FittedEstimator
publishedDee1()
{
    ucx::EstimationSession session(ucx::SessionConfig{},
                                   ucx::ExecContext::serial());
    return session.fit(ucx::EstimatorSpec::dee1());
}

/** Count metrics: everything a traced request reports except time. */
const std::vector<std::string> kCounts = {
    "hdl.tokens",          "hdl.parse.allocs",      "lint.gate.allocs",
    "synth.elaborate.runs", "synth.lower.gates",    "synth.pass.runs",
    "synth.allocs",        "cache.hits",            "cache.misses",
    "cache.disk_hits",     "io.bytes_read",         "io.decode.allocs",
    "nlme.fits",           "nlme.allocs",           "opt.nm.evaluations",
    "opt.bfgs.evaluations", "opt.bfgs.gradient_evaluations",
    "opt.multistart.starts", "exec.graph.tasks",    "exec.pool.tasks",
};

/** Traced run of requests [first, first + n), counts summed. */
std::map<std::string, double>
tracedCounts(Workload &w, uint64_t first, uint64_t n)
{
    std::map<std::string, double> sum;
    SpanLog log;
    ucx::obs::setEnabled(true);
    for (uint64_t r = first; r < first + n; ++r) {
        TracedRequest t = w.traced(r, log);
        EXPECT_TRUE(sameOutput(t.sessionPath, t.replay)) << "request " << r;
        for (const std::string &k : kCounts)
            sum[k] += t.layers.count(k) ? t.layers.at(k) : 0.0;
    }
    ucx::obs::setEnabled(false);
    return sum;
}

} // namespace

TEST(Inputs, SameSeedSameRequestSequence)
{
    for (uint64_t r = 0; r < 20; ++r) {
        std::vector<size_t> a = designOrder(42, r, 17);
        EXPECT_EQ(a, designOrder(42, r, 17));
        EXPECT_EQ(std::set<size_t>(a.begin(), a.end()).size(), 17u);
    }
    bool differs = false;
    for (uint64_t r = 0; r < 20; ++r)
        differs |= designOrder(42, r, 17) != designOrder(43, r, 17);
    EXPECT_TRUE(differs);
    EXPECT_NE(designOrder(42, 0, 17), designOrder(42, 1, 17));
}

TEST(Inputs, SameSeedSameDatasetDraws)
{
    const ucx::Dataset &published = ucx::paperDataset();
    ucx::FittedEstimator dee1 = publishedDee1();
    ucx::Dataset a = drawDataset(published, dee1, 42, 3);
    ucx::Dataset b = drawDataset(published, dee1, 42, 3);
    ucx::Dataset c = drawDataset(published, dee1, 42, 4);
    ucx::Dataset d = drawDataset(published, dee1, 43, 3);
    ASSERT_EQ(a.size(), published.size());
    bool cDiffers = false, dDiffers = false;
    for (size_t i = 0; i < a.size(); ++i) {
        const ucx::Component &x = a.components()[i];
        EXPECT_EQ(x.effort, b.components()[i].effort);
        EXPECT_EQ(x.metrics, published.components()[i].metrics);
        EXPECT_GT(x.effort, 0.0);
        cDiffers |= x.effort != c.components()[i].effort;
        dDiffers |= x.effort != d.components()[i].effort;
    }
    EXPECT_TRUE(cDiffers);
    EXPECT_TRUE(dDiffers);
}

TEST(Statistics, PercentileRefusesThinTail)
{
    std::vector<double> v;
    for (int i = 1; i <= 99; ++i)
        v.push_back(i);
    EXPECT_FALSE(percentile(v, 0.9).has_value());
    v.push_back(100);
    ASSERT_TRUE(percentile(v, 0.9).has_value());
    EXPECT_EQ(*percentile(v, 0.9), 90.0);
    std::vector<double> small(19, 1.0);
    EXPECT_FALSE(percentile(small, 0.5).has_value());
    small.push_back(1.0);
    EXPECT_TRUE(percentile(small, 0.5).has_value());
}

TEST(Statistics, MedianAveragesTheMiddlePair)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2, 4}), 2.5);
    EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
}

TEST(Spans, SelfTimeExcludesChildren)
{
    SpanLog log;
    size_t outer = log.open("outer", 0);
    size_t inner = log.open("inner", 0);
    log.close(inner);
    log.close(outer);
    const SpanLog::Span &o = log.spans()[outer];
    const SpanLog::Span &i = log.spans()[inner];
    EXPECT_EQ(i.parent, static_cast<int>(outer));
    EXPECT_DOUBLE_EQ(log.selfMs(outer),
                     (o.endMs - o.startMs) - (i.endMs - i.startMs));
}

TEST(Allocations, CountingHookSeesEveryNew)
{
    // Kept allocations: a new/delete pair alone may be elided.
    std::vector<std::unique_ptr<int>> keep;
    keep.reserve(1000);
    uint64_t before = ucx::allocCountsGlobal().allocs;
    for (int i = 0; i < 1000; ++i)
        keep.push_back(std::make_unique<int>(i));
    uint64_t counted = ucx::allocCountsGlobal().allocs - before;
    EXPECT_EQ(counted, 1000u);
    EXPECT_EQ(keep.back() ? *keep.back() : 0, 999);

    before = ucx::allocCountsGlobal().allocs;
    volatile uint64_t sink = 0;
    for (uint64_t i = 0; i < 1000; ++i)
        sink = sink + i;
    EXPECT_EQ(ucx::allocCountsGlobal().allocs - before, 0u);
}

TEST(Replay, EstimateColdMatchesForAllDesigns)
{
    std::unique_ptr<Workload> w =
        makeWorkload("estimate_cold", testOptions());
    w->setup();
    // The unit hook runs once per design, on both traced paths too.
    size_t units = 0;
    w->setUnitHook([&units] { ++units; });
    RequestOutput untraced = w->request(5);
    std::string why;
    ASSERT_TRUE(w->check(5, untraced, why)) << why;
    ASSERT_EQ(untraced.components.size(), ucx::shippedDesigns().size());
    EXPECT_EQ(units, untraced.components.size());
    SpanLog log;
    ucx::obs::setEnabled(true);
    TracedRequest t = w->traced(5, log);
    ucx::obs::setEnabled(false);
    EXPECT_EQ(units, 3 * untraced.components.size());
    EXPECT_TRUE(sameOutput(t.sessionPath, untraced));
    EXPECT_TRUE(sameOutput(t.replay, untraced));
    EXPECT_GT(t.layers.at("synth.pass.runs"), 0.0);
    EXPECT_GT(t.layers.at("synth.cones_ms"), 0.0);
}

TEST(Replay, EstimateRestartMatchesWithoutPassRuns)
{
    std::unique_ptr<Workload> w =
        makeWorkload("estimate_restart", testOptions());
    w->setup();
    LayerValues fill = w->prepareTrace();
    EXPECT_GT(fill.at("cache.disk_writes"), 0.0);
    RequestOutput untraced = w->request(2);
    std::string why;
    ASSERT_TRUE(w->check(2, untraced, why)) << why;
    SpanLog log;
    ucx::obs::setEnabled(true);
    TracedRequest t = w->traced(2, log);
    ucx::obs::setEnabled(false);
    EXPECT_TRUE(sameOutput(t.replay, untraced));
    EXPECT_TRUE(w->check(2, t.sessionPath, why)) << why;
    EXPECT_EQ(t.layers.at("synth.pass.runs"), 0.0);
    EXPECT_GT(t.layers.at("cache.disk_hits"), 0.0);
    EXPECT_GT(t.layers.at("io.bytes_read"), 0.0);
    w->teardown();
}

TEST(Replay, CalibrateMatchesForOneRequest)
{
    std::unique_ptr<Workload> w = makeWorkload("calibrate", testOptions());
    w->setup();
    // The unit hook runs once per fit, on both traced paths too.
    size_t units = 0;
    w->setUnitHook([&units] { ++units; });
    RequestOutput untraced = w->request(3);
    std::string why;
    ASSERT_TRUE(w->check(3, untraced, why)) << why;
    ASSERT_EQ(untraced.fits.size(), 24u);
    EXPECT_EQ(units, 24u);
    SpanLog log;
    ucx::obs::setEnabled(true);
    TracedRequest t = w->traced(3, log);
    ucx::obs::setEnabled(false);
    EXPECT_EQ(units, 72u);
    EXPECT_TRUE(sameOutput(t.sessionPath, untraced));
    EXPECT_TRUE(sameOutput(t.replay, untraced));
    EXPECT_EQ(t.layers.at("nlme.fits"), 24.0);
    EXPECT_EQ(t.layers.at("nlme.converged_ratio"), 1.0);
}

TEST(Counts, RepeatExactlyAcrossRequestsAndCycles)
{
    // Estimate requests differ only in visiting order.
    std::unique_ptr<Workload> cold =
        makeWorkload("estimate_cold", testOptions());
    cold->setup();
    std::map<std::string, double> a = tracedCounts(*cold, 0, 1);
    std::map<std::string, double> b = tracedCounts(*cold, 1, 1);
    for (const char *k : {"hdl.tokens", "synth.lower.gates",
                                 "synth.pass.runs", "cache.misses",
                                 "synth.elaborate.runs"})
        EXPECT_EQ(a.at(k), b.at(k)) << k;

    // Calibrate counts repeat over whole cycles of draws.
    std::unique_ptr<Workload> fit = makeWorkload("calibrate", testOptions());
    fit->setup();
    uint64_t k = fit->cycle();
    std::map<std::string, double> c1 = tracedCounts(*fit, 0, k);
    std::map<std::string, double> c2 = tracedCounts(*fit, 3 * k, k);
    for (const char *name :
         {"opt.nm.evaluations", "opt.bfgs.evaluations",
          "opt.bfgs.gradient_evaluations", "opt.multistart.starts",
          "nlme.fits"})
        EXPECT_EQ(c1.at(name), c2.at(name)) << name;
}
