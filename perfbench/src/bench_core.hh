/**
 * @file
 * The benchmark's own logic, kept apart from the workloads so the
 * tests can check it without running the pipeline: seeded request
 * inputs, percentiles that refuse thin tails, the host reference
 * loop, an in-memory span log with self times, and JSON output
 * helpers.
 *
 * Nothing here calls into src/ except the seeded generator
 * (util/rng), the dataset/estimator types the draws produce and the
 * JSON string escape (obs/export).
 */

#ifndef PERFBENCH_BENCH_CORE_HH
#define PERFBENCH_BENCH_CORE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/dataset.hh"
#include "core/estimator.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** @return Milliseconds between two steady-clock points. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

// ------------------------------------------------- seeded inputs

/**
 * Datasets a calibrate run cycles through. Count metrics are taken
 * over whole cycles, so they do not depend on how many requests a
 * run of fixed length happened to complete.
 */
inline constexpr uint64_t kDrawCycle = 16;

/**
 * Order in which one estimate request visits the shipped designs:
 * a Fisher-Yates permutation of [0, n) drawn from split stream
 * @p request of @p seed.
 */
std::vector<size_t> designOrder(uint64_t seed, uint64_t request,
                                size_t n);

/**
 * One drawn calibration dataset: the published components with
 * their metrics unchanged and each effort redrawn from the published
 * DEE1 mixed fit, median(metrics, rho_team) * exp(sigma_eps * z),
 * z ~ N(0, 1) from split stream @p index of @p seed.
 *
 * @param published The paper's Table 4 dataset.
 * @param dee1      DEE1 fitted (mixed) on @p published.
 * @param seed      Run seed.
 * @param index     Draw number (a request uses index % kDrawCycle).
 */
ucx::Dataset drawDataset(const ucx::Dataset &published,
                         const ucx::FittedEstimator &dee1,
                         uint64_t seed, uint64_t index);

// --------------------------------------------------- statistics

/**
 * Nearest-rank percentile that refuses thin tails: with n samples
 * the value is the ceil(q n)-th smallest, and it is returned only
 * when at least ten samples lie above that rank.
 *
 * @param samples Sample values (any order).
 * @param q       Quantile in (0, 1).
 * @return The percentile, or nullopt when the tail is too thin.
 */
std::optional<double> percentile(std::vector<double> samples, double q);

/** @return The median (mean of the middle two for even counts). */
double median(std::vector<double> values);

// ------------------------------------------------ reference loop

/**
 * A fixed sort + hash loop independent of src/: sorts a
 * pseudo-random vector of 2^18 keys and hashes the result into an
 * unordered_map, five times. Its time traces host speed phases; it
 * is a recorded diagnostic, never a metric.
 *
 * @param checksum Receives a checksum of the work (keeps it live).
 * @return Wall milliseconds of the loop.
 */
double referenceLoopMs(uint64_t *checksum = nullptr);

/** @return User + system CPU of this process so far, in ms. */
double cpuMsNow();

// ------------------------------------------------------- spans

/**
 * In-memory span log of one traced run. Spans nest strictly (the
 * replay is serial), carry the request they belong to, and are only
 * written out when the run ends.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;      ///< Index of the enclosing span.
        uint64_t request = 0; ///< Request the span belongs to.
        double startMs = 0.0; ///< Since the log's origin.
        double endMs = 0.0;
        double childMs = 0.0; ///< Time covered by direct children.
    };

    SpanLog();

    /** Open a span under the innermost open one. */
    size_t open(const std::string &name, uint64_t request);

    /** Close span @p index, the innermost open one. */
    void close(size_t index);

    /** @return Duration minus the time its direct children cover. */
    double selfMs(size_t index) const;

    /** @return Every recorded span. */
    const std::vector<Span> &spans() const { return spans_; }

    /** Per-name totals over all spans. */
    struct Totals
    {
        uint64_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };

    /** @return Totals keyed by span name. */
    std::map<std::string, Totals> totals() const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

/** RAII span over a SpanLog. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name, uint64_t request)
        : log_(log), index_(log.open(name, request))
    {
    }
    ~ScopedSpan() { log_.close(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    size_t index_;
};

// ------------------------------------------------------- JSON

/** @return @p v formatted with all 17 significant digits. */
std::string jsonNumber(double v);

/** @return @p s as a quoted JSON string. */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_BENCH_CORE_HH
