/**
 * @file
 * The three benchmark workloads and their traced replays.
 *
 * A workload owns everything set-up builds (the worker pool, the
 * seeded inputs, DEE1 or the Table 4 check, the disk store) and
 * serves two kinds of request over it:
 *
 *  - request(): the request as a user makes it, through
 *    EstimationSession only. The timed loop calls this with obs
 *    collection off.
 *  - traced(): the same request twice — once through the session
 *    with obs counters on and benchmark spans around each session
 *    call, then replayed layer by layer through each layer's public
 *    functions under benchmark spans. Both outputs must equal the
 *    expected ones.
 *
 * Every request opens a fresh EstimationSession, so nothing is
 * reused across requests except what set-up built on purpose (the
 * pool, DEE1, and for estimate_restart the disk store).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_core.hh"
#include "core/metric.hh"
#include "engine/session.hh"

namespace perfbench
{

/** One estimated component. */
struct ComponentOutput
{
    std::string name;
    ucx::MetricValues metrics{};
    ucx::Prediction prediction;
};

/** One calibrated estimator. */
struct FitOutput
{
    std::string spec; ///< EstimatorSpec fingerprint.
    double sigmaEps = 0.0;
    bool converged = false;
    std::vector<double> weights;
};

/**
 * What one request produced. Estimate requests fill components in
 * registry order (whatever order they visited them in); calibrate
 * requests fill fits in spec order.
 */
struct RequestOutput
{
    std::vector<ComponentOutput> components;
    std::vector<FitOutput> fits;
    /** The request session's cache statistics (not an output). */
    ucx::ArtifactCache::Stats cache;
};

/** @return True when components and fits are bit-for-bit equal. */
bool sameOutput(const RequestOutput &a, const RequestOutput &b);

/** Per-request layer metrics of one traced request. */
using LayerValues = std::map<std::string, double>;

/** Result of one traced request. */
struct TracedRequest
{
    RequestOutput sessionPath; ///< Through the session, obs on.
    RequestOutput replay;      ///< Layer by layer.
    double sessionPathMs = 0.0; ///< Wall time of the session path.
    LayerValues layers;
};

/** Settings every workload needs. */
struct WorkloadOptions
{
    uint64_t seed = 1;
    size_t poolWorkers = 1;       ///< Workers of the shared pool.
    std::string referencePath;    ///< Expected estimate outputs.
    std::string storeRoot;        ///< Parent of the disk stores.
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build (or rebuild anew, after teardown()) everything
     * requests need and run one untimed warm-up request. Throws
     * UcxError when a set-up check (the DEE1 reference, Table 4)
     * fails.
     */
    virtual void setup() = 0;

    /** Remove what set-up left on disk. */
    virtual void teardown() {}

    /** Run request @p r the way a user would. */
    virtual RequestOutput request(uint64_t r) = 0;

    /**
     * Check request @p r's output (and, for the disk workload, that
     * it computed nothing).
     *
     * @param why Receives the first failure.
     * @return True when the output is the expected one.
     */
    virtual bool check(uint64_t r, const RequestOutput &out,
                       std::string &why) = 0;

    /** Run request @p r traced (see the file comment). */
    virtual TracedRequest traced(uint64_t r, SpanLog &log) = 0;

    /** @return Requests per cycle of distinct inputs. */
    virtual uint64_t cycle() const { return 1; }

    /**
     * @return How long the client stays on one CPU before it moves
     *         to the next, at the next unit of work.
     */
    virtual double rotationMs() const { return 250.0; }

    /**
     * Call @p hook before each unit of a request's work (a design of
     * an estimate request, a fit of a calibrate request), timed or
     * traced; null stops it. The program uses it to move the client
     * between CPUs.
     */
    void
    setUnitHook(std::function<void()> hook)
    {
        unitHook_ = std::move(hook);
    }

    /** @return Set-up facts for the report (JSON object members). */
    virtual std::map<std::string, std::string> setupFacts() const
    {
        return {};
    }

    /**
     * Prepare the traced phase (work only the replay needs, kept out
     * of set-up so it does not count in setup_s).
     *
     * @return Layer metrics measured once per set-up rather than
     *         per request (the disk writes of the store fill).
     */
    virtual LayerValues prepareTrace() { return {}; }

  protected:
    /** Run the unit hook, if one is set. */
    void
    beforeUnit() const
    {
        if (unitHook_)
            unitHook_();
    }

  private:
    std::function<void()> unitHook_;
};

/**
 * Create a workload by name.
 *
 * @return The workload, or null for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadOptions &opts);

/** @return Every per-layer metric name with its unit, in order. */
const std::vector<std::pair<std::string, std::string>> &layerMetrics();

/**
 * Estimate every shipped design once, cold, in registry order, with
 * DEE1 calibrated on the published dataset: the regression
 * reference's content.
 */
RequestOutput estimateReference(size_t pool_workers);

/** @return The reference file's JSON for @p out. */
std::string referenceJson(const RequestOutput &out);

/**
 * Load a reference file written by referenceJson.
 *
 * @return The expected components (throws UcxError when malformed).
 */
RequestOutput loadReference(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
