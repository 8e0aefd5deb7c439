#include "workloads.hh"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "cache/key.hh"
#include "core/measure.hh"
#include "data/paper_data.hh"
#include "designs/registry.hh"
#include "hdl/source_metrics.hh"
#include "io/disk_store.hh"
#include "io/registry.hh"
#include "io/serde.hh"
#include "lint/lint.hh"
#include "nlme/mixed_model.hh"
#include "nlme/pooled.hh"
#include "obs/metrics.hh"
#include "synth/pass.hh"
#include "util/alloc_hook.hh"
#include "util/error.hh"
#include "util/json.hh"

namespace fs = std::filesystem;

namespace perfbench
{

using ucx::ArtifactCache;
using ucx::Dataset;
using ucx::Design;
using ucx::EstimationSession;
using ucx::EstimatorSpec;
using ucx::ExecContext;
using ucx::FittedEstimator;
using ucx::Metric;
using ucx::MetricValues;
using ucx::SessionConfig;

namespace
{

/** Request number of the untimed warm-up (never a timed request). */
constexpr uint64_t kWarmupRequest = ~uint64_t{0};

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

uint64_t
allocsNow()
{
    return ucx::allocCountsGlobal().allocs;
}

using Counters = std::map<std::string, uint64_t>;

Counters
counterSnapshot()
{
    Counters out;
    for (const ucx::obs::CounterSample &c :
         ucx::obs::Registry::instance().snapshot().counters)
        out[c.name] = c.value;
    return out;
}

double
counterDelta(const Counters &before, const Counters &after,
             const std::string &name)
{
    auto b = before.find(name);
    auto a = after.find(name);
    uint64_t vb = b == before.end() ? 0 : b->second;
    uint64_t va = a == after.end() ? 0 : a->second;
    return static_cast<double>(va - vb);
}

/** Sum of the synth.pass.<name>.runs counters' deltas. */
double
passRunsDelta(const Counters &before, const Counters &after)
{
    double sum = 0.0;
    const std::string prefix = "synth.pass.";
    const std::string suffix = ".runs";
    for (const auto &[name, value] : after) {
        (void)value;
        if (name.size() > prefix.size() + suffix.size() &&
            name.compare(0, prefix.size(), prefix) == 0 &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            sum += counterDelta(before, after, name);
    }
    return sum;
}

/**
 * One timed step of a traced request: a span in the log plus the
 * heap allocations made while it was open (process-wide, so pool
 * workers count; nothing else runs during a traced request). The
 * span closes when the step goes out of scope, and its time (and
 * allocations) are then added to the request's layer values.
 */
class Step
{
  public:
    Step(SpanLog &log, const std::string &name, uint64_t request,
         LayerValues &lv, std::string ms_key, std::string alloc_key = "")
        : log_(log), index_(log.open(name, request)), lv_(lv),
          msKey_(std::move(ms_key)), allocKey_(std::move(alloc_key)),
          allocs_(allocsNow())
    {
    }

    ~Step()
    {
        uint64_t allocs = allocsNow() - allocs_;
        log_.close(index_);
        const SpanLog::Span &span = log_.spans()[index_];
        lv_[msKey_] += span.endMs - span.startMs;
        if (!allocKey_.empty())
            lv_[allocKey_] += static_cast<double>(allocs);
    }

    Step(const Step &) = delete;
    Step &operator=(const Step &) = delete;

  private:
    SpanLog &log_;
    size_t index_;
    LayerValues &lv_;
    std::string msKey_;
    std::string allocKey_;
    uint64_t allocs_;
};

/** Session configuration of every request: memory cache, defaults. */
SessionConfig
requestConfig(const std::string &cache_dir = "")
{
    SessionConfig config;
    config.cacheDir = cache_dir;
    return config;
}

/**
 * Fold one module type's synthesis metrics into a component's
 * vector the way the accounting procedure does: sums, except Freq,
 * which is the slowest module's.
 */
void
accumulate(MetricValues &into, const ucx::SynthMetrics &m, bool first)
{
    auto at = [&into](Metric metric) -> double & {
        return into[static_cast<size_t>(metric)];
    };
    at(Metric::FanInLC) += static_cast<double>(m.fanInLC);
    at(Metric::Nets) += static_cast<double>(m.nets);
    at(Metric::Cells) += static_cast<double>(m.cells);
    at(Metric::FFs) += static_cast<double>(m.ffs);
    at(Metric::AreaL) += m.areaLogicUm2;
    at(Metric::AreaS) += m.areaStorageUm2;
    at(Metric::PowerD) += m.powerDynamicMw;
    at(Metric::PowerS) += m.powerStaticUw;
    if (first || m.freqMHz < at(Metric::Freq))
        at(Metric::Freq) = m.freqMHz;
}

FitOutput
fitOutput(const EstimatorSpec &spec, const FittedEstimator &fit)
{
    return {spec.fingerprint(), fit.sigmaEps(), fit.converged(),
            fit.weights()};
}

/** Session-path bookkeeping shared by the traced requests. */
struct SessionPathMeter
{
    Counters counters = counterSnapshot();
    double cpuMs = cpuMsNow();
    Clock::time_point start = Clock::now();

    /** Record the request-wide counts into @p t. */
    void
    finish(TracedRequest &t, const ArtifactCache::Stats &stats,
           size_t threads)
    {
        t.sessionPathMs = msBetween(start, Clock::now());
        double cpu = cpuMsNow() - cpuMs;
        Counters after = counterSnapshot();
        LayerValues &lv = t.layers;
        lv["cache.hits"] = static_cast<double>(stats.hits);
        lv["cache.misses"] = static_cast<double>(stats.misses);
        lv["cache.hit_ratio"] = stats.hitRate();
        lv["cache.disk_hits"] = static_cast<double>(stats.diskHits);
        lv["cache.disk_writes"] = static_cast<double>(stats.diskWrites);
        lv["cache.disk_bytes"] = static_cast<double>(stats.diskBytes);
        static const std::vector<std::pair<std::string, std::string>>
            kCounters = {
                {"hdl.tokens", "hdl.lex.tokens"},
                {"synth.elaborate.runs", "synth.elaborate.runs"},
                {"synth.lower.gates", "synth.lower.gates"},
                {"opt.nm.evaluations", "opt.nm.evaluations"},
                {"opt.bfgs.evaluations", "opt.bfgs.evaluations"},
                {"opt.bfgs.gradient_evaluations",
                 "opt.bfgs.gradient_evaluations"},
                {"opt.multistart.starts", "opt.multistart.starts"},
                {"exec.graph.tasks", "exec.graph.tasks"},
            };
        for (const auto &[metric, counter] : kCounters)
            lv[metric] = counterDelta(counters, after, counter);
        // Tasks handed to the pool through either of its entry
        // points: single submissions (the task graph's) and batches.
        lv["exec.pool.tasks"] =
            counterDelta(counters, after, "exec.pool.submits") +
            counterDelta(counters, after, "exec.pool.tasks");
        lv["synth.pass.runs"] = passRunsDelta(counters, after);
        lv["exec.utilization"] =
            cpu / (t.sessionPathMs * static_cast<double>(threads));
    }
};

// ------------------------------------------------------ estimate

/**
 * estimate_cold and estimate_restart: estimate all shipped designs,
 * in a seeded order, in a fresh session — memory-only for cold, over
 * the set-up disk store for restart.
 */
class EstimateWorkload : public Workload
{
  public:
    EstimateWorkload(WorkloadOptions opts, bool restart)
        : opts_(std::move(opts)), restart_(restart)
    {
    }

    ~EstimateWorkload() override { teardown(); }

    void
    setup() override
    {
        pool_ = ExecContext::withThreads(opts_.poolWorkers);
        designs_.clear();
        for (const ucx::ShippedDesign &d : ucx::shippedDesigns())
            designs_.push_back(&d);

        RequestOutput reference = loadReference(opts_.referencePath);
        ucx::require(reference.components.size() == designs_.size() &&
                         reference.fits.size() == 1,
                     "reference does not cover every shipped design");
        expected_ = {};
        expected_.components = reference.components;
        {
            EstimationSession session(requestConfig(), pool_);
            dee1_ = session.fit(EstimatorSpec::dee1());
            RequestOutput dee1, expected;
            dee1.fits.push_back(fitOutput(EstimatorSpec::dee1(), dee1_));
            expected.fits = reference.fits;
            ucx::require(sameOutput(dee1, expected),
                         "DEE1 calibration differs from the reference");
        }
        if (restart_)
            fillStore();

        // Untimed warm-up, not checked here: a wrong output fails the
        // timed requests on the same input too, and the result
        // reports them, where a throw would end the run without one.
        request(kWarmupRequest);
    }

    /**
     * A cold request (about 70 ms) moves about four times, so it
     * visits every CPU and its latency averages over their phases
     * instead of taking one CPU's (see README.md, "Host findings").
     * A restart request (about 7 ms) pays more for moves inside it
     * than it gains, so it moves between requests only.
     */
    double rotationMs() const override { return restart_ ? 250.0 : 15.0; }

    void
    teardown() override
    {
        if (!storeDir_.empty()) {
            std::error_code ec;
            fs::remove_all(storeDir_, ec);
            storeDir_.clear();
        }
    }

    RequestOutput
    request(uint64_t r) override
    {
        EstimationSession session(requestConfig(storeDir_), pool_);
        RequestOutput out = estimate(session, order(r));
        out.cache = session.cache().stats();
        return out;
    }

    bool
    check(uint64_t, const RequestOutput &out, std::string &why) override
    {
        if (!sameOutput(out, expected_)) {
            why = "estimate differs from the reference";
            return false;
        }
        if (restart_) {
            const ArtifactCache::Stats &s = out.cache;
            if (s.misses != s.diskHits || s.diskWrites != 0 ||
                s.diskCorrupt != 0) {
                why = "restart request computed " +
                      std::to_string(s.misses - s.diskHits) +
                      " artifacts and wrote " +
                      std::to_string(s.diskWrites);
                return false;
            }
        }
        return true;
    }

    TracedRequest
    traced(uint64_t r, SpanLog &log) override
    {
        TracedRequest t;
        std::vector<size_t> visit = order(r);
        {
            ScopedSpan request(log, "request.session_path", r);
            t.sessionPath = sessionPath(visit, r, log, t);
        }
        {
            ScopedSpan request(log, "request.replay", r);
            t.replay = replay(visit, r, log, t.layers);
        }
        return t;
    }

    std::map<std::string, std::string>
    setupFacts() const override
    {
        std::map<std::string, std::string> facts;
        facts["designs"] = std::to_string(designs_.size());
        facts["dee1_sigma_eps"] = jsonNumber(dee1_.sigmaEps());
        if (restart_)
            facts["store_bytes"] = std::to_string(fillBytes_);
        if (!loadedKeys_.empty()) {
            facts["store_entries"] = std::to_string(storeEntries_);
            facts["store_loaded_per_request"] =
                std::to_string(loadedKeys_.size());
        }
        return facts;
    }

    LayerValues
    prepareTrace() override
    {
        if (!restart_)
            return {};
        findLoadedKeys();
        // The store is written once, in set-up; requests write
        // nothing (check() refuses any write). These three report
        // the set-up fill instead of a per-request zero.
        LayerValues lv;
        lv["cache.disk_writes"] = static_cast<double>(fillWrites_);
        lv["cache.disk_bytes"] = static_cast<double>(fillBytes_);
        lv["io.write_ms"] = replayWrites();
        return lv;
    }

  private:
    std::vector<size_t>
    order(uint64_t r) const
    {
        return designOrder(opts_.seed, r, designs_.size());
    }

    /**
     * The request body: parse, measure and predict each design, one
     * after another in the seeded order, as the library's callers
     * estimate a processor. measure() spreads a design's module types
     * over the session's pool. Results land in registry order.
     *
     * @param lv When set, receives engine.measure_ms and
     *           engine.predict_ms: the calls' wall times, summed.
     */
    RequestOutput
    estimate(EstimationSession &session, const std::vector<size_t> &visit,
             LayerValues *lv = nullptr) const
    {
        RequestOutput out;
        out.components.resize(designs_.size());
        for (size_t idx : visit) {
            beforeUnit();
            const ucx::ShippedDesign &d = *designs_[idx];
            Design design;
            design.addSource(d.source, d.name + ".v");
            Clock::time_point t0 = Clock::now();
            ucx::ComponentMeasurement m = session.measure(design, d.top);
            Clock::time_point t1 = Clock::now();
            out.components[idx] = {d.name, m.metrics,
                                   session.predict(dee1_, m.metrics)};
            if (lv) {
                (*lv)["engine.measure_ms"] += msBetween(t0, t1);
                (*lv)["engine.predict_ms"] += msBetween(t1, Clock::now());
            }
        }
        return out;
    }

    /** The request through the session, under one span. */
    RequestOutput
    sessionPath(const std::vector<size_t> &visit, uint64_t r,
                SpanLog &log, TracedRequest &t) const
    {
        SessionPathMeter meter;
        LayerValues &lv = t.layers;
        std::optional<EstimationSession> session;
        {
            Step step(log, "engine.session", r, lv, "engine.session_ms");
            session.emplace(requestConfig(storeDir_), pool_);
        }
        RequestOutput out;
        {
            ScopedSpan span(log, "engine.estimate", r);
            out = estimate(*session, visit, &lv);
        }
        out.cache = session->cache().stats();
        meter.finish(t, out.cache, pool_.threads() + 1);
        return out;
    }

    /** The request walked layer by layer (see README.md). */
    RequestOutput
    replay(const std::vector<size_t> &visit, uint64_t r, SpanLog &log,
           LayerValues &lv) const
    {
        EstimationSession session(requestConfig(storeDir_), pool_);
        ArtifactCache *cache = &session.cache();
        const ucx::PassConfig &passes = session.config().passes;
        std::vector<ucx::Pass> pipeline = wrappedPasses(passes, log, r, lv);

        RequestOutput out;
        out.components.resize(designs_.size());
        for (size_t idx : visit) {
            beforeUnit();
            const ucx::ShippedDesign &d = *designs_[idx];
            ScopedSpan component(log, "component", r);
            Design design;
            {
                Step step(log, "hdl.parse", r, lv, "hdl.parse_ms",
                          "hdl.parse.allocs");
                design.addSource(d.source, d.name + ".v");
            }
            ucx::LintReport gate;
            {
                Step step(log, "lint.gate", r, lv, "lint.gate_ms",
                          "lint.gate.allocs");
                ucx::LintRunOptions lint;
                lint.config = passes;
                lint.cache = cache;
                lint.netlistRules = false;
                gate = ucx::lintHdlDesign(design, d.top, d.top, lint);
            }
            ucx::require(!gate.firstAtLeast(ucx::LintSeverity::Error),
                         "lint gate refused " + d.name);
            std::shared_ptr<const ucx::ElabResult> whole;
            {
                Step step(log, "synth.elaborate", r, lv,
                          "synth.elaborate_ms", "synth.allocs");
                whole = ucx::elaborateShared(design, d.top, {}, cache);
            }
            MetricValues metrics{};
            if (restart_) {
                // The whole measurement is one disk hit: the request
                // never reaches the per-module path.
                Step step(log, "core.measure", r, lv, "core.measure_ms");
                ucx::MeasureOptions opts;
                opts.cache = cache;
                opts.passes = passes;
                opts.exec = &pool_;
                metrics = ucx::measureComponent(design, d.top, opts).metrics;
            } else {
                ucx::SourceMetrics source;
                {
                    Step step(log, "hdl.source_metrics", r, lv,
                              "hdl.source_ms");
                    source = ucx::measureSource(design.sourceText(), d.top);
                }
                std::map<std::string, size_t> census;
                whole->top.countModules(census);
                bool first = true;
                for (const auto &[module, count] : census) {
                    (void)count;
                    std::map<std::string, int64_t> params;
                    {
                        Step step(log, "core.minimize", r, lv,
                                  "core.minimize_ms");
                        params = ucx::minimizeParameters(design, module,
                                                         cache);
                    }
                    ucx::ElabOptions one_opts;
                    one_opts.topParams = params;
                    one_opts.blackBoxChildren = true;
                    std::shared_ptr<const ucx::ElabResult> one;
                    {
                        Step step(log, "synth.elaborate", r, lv,
                                  "synth.elaborate_ms", "synth.allocs");
                        one = ucx::elaborateShared(design, module,
                                                   one_opts, cache);
                    }
                    ucx::PipelineRun run;
                    run.cache = cache;
                    run.base = ucx::synthCacheKey(
                        ucx::elabCacheKey(design, module, one_opts),
                        passes);
                    ucx::PipelineContext ctx =
                        ucx::runPasses(one->rtl, pipeline, passes, run);
                    accumulate(metrics, *ctx.metrics, first);
                    first = false;
                }
                metrics[static_cast<size_t>(Metric::LoC)] =
                    static_cast<double>(source.loc);
                metrics[static_cast<size_t>(Metric::Stmts)] =
                    static_cast<double>(source.stmts);
            }
            Step step(log, "replay.predict", r, lv, "replay.predict_ms");
            out.components[idx] = {d.name, metrics,
                                   session.predict(dee1_, metrics)};
        }
        if (restart_)
            replayReads(r, log, lv);
        out.cache = session.cache().stats();
        return out;
    }

    /** The configured pass list with each Pass::run timed. */
    static std::vector<ucx::Pass>
    wrappedPasses(const ucx::PassConfig &config, SpanLog &log,
                  uint64_t r, LayerValues &lv)
    {
        std::vector<ucx::Pass> passes = ucx::passListFor(config);
        for (ucx::Pass &pass : passes) {
            auto inner = pass.run;
            std::string span = "synth.pass." + pass.name;
            std::string key = "synth." + pass.name + "_ms";
            pass.run = [inner, span, key, &log, r,
                        &lv](ucx::PipelineContext &ctx) {
                Step step(log, span, r, lv, key, "synth.allocs");
                inner(ctx);
            };
        }
        return passes;
    }

    /** Read and decode, straight from the store, what r loaded. */
    void
    replayReads(uint64_t r, SpanLog &log, LayerValues &lv) const
    {
        ScopedSpan io(log, "io.replay", r);
        ucx::io::DiskStore store(storeDir_);
        for (const std::string &key : loadedKeys_) {
            std::string framed;
            ucx::io::DiskStore::ReadStatus status;
            {
                Step step(log, "io.read", r, lv, "io.read_ms");
                status = store.read(key, framed);
            }
            ucx::require(status == ucx::io::DiskStore::ReadStatus::Hit,
                         "store entry vanished: " + key);
            lv["io.bytes_read"] += static_cast<double>(framed.size());
            const ucx::io::ArtifactCodec *codec =
                ucx::io::SerdeRegistry::global().byTag(
                    ucx::io::peekFrame(framed).typeTag);
            ucx::require(codec != nullptr, "no codec for " + key);
            Step step(log, "io.decode", r, lv, "io.decode_ms",
                      "io.decode.allocs");
            std::shared_ptr<const void> value = codec->decode(framed);
        }
    }

    /** Every entry file of the store: key, frame, codec. */
    struct StoreEntry
    {
        std::string key;
        std::string framed;
        const ucx::io::ArtifactCodec *codec = nullptr;
    };

    std::vector<StoreEntry>
    storeEntries() const
    {
        std::vector<std::string> paths;
        for (const fs::directory_entry &e :
             fs::recursive_directory_iterator(storeDir_))
            if (e.is_regular_file())
                paths.push_back(e.path().string());
        std::sort(paths.begin(), paths.end());
        std::vector<StoreEntry> out;
        for (const std::string &path : paths) {
            std::string bytes;
            StoreEntry entry;
            if (!ucx::io::DiskStore::readFile(path, bytes) ||
                !ucx::io::DiskStore::unpackEntry(bytes, entry.key,
                                                 entry.framed))
                continue;
            entry.codec = ucx::io::SerdeRegistry::global().byTag(
                ucx::io::peekFrame(entry.framed).typeTag);
            if (entry.codec)
                out.push_back(std::move(entry));
        }
        return out;
    }

    /** Set-up's cold pass: every artifact written through. */
    void
    fillStore()
    {
        static uint64_t fills = 0;
        storeDir_ = (fs::path(opts_.storeRoot) /
                     ("store-" + std::to_string(getpid()) + "-" +
                      std::to_string(fills++)))
                        .string();
        fs::remove_all(storeDir_);
        fs::create_directories(storeDir_);
        EstimationSession session(requestConfig(storeDir_), pool_);
        std::vector<size_t> visit(designs_.size());
        for (size_t i = 0; i < visit.size(); ++i)
            visit[i] = i;
        RequestOutput out = estimate(session, visit);
        ucx::require(sameOutput(out, expected_),
                     "store fill differs from the reference");
        ArtifactCache::Stats stats = session.cache().stats();
        fillWrites_ = stats.diskWrites;
        fillBytes_ = stats.diskBytes;
    }

    /**
     * Which store entries a restart request loads: run one in a
     * session too large to evict, then ask its memory tier for each
     * store key — a memory hit means the request loaded it.
     */
    void
    findLoadedKeys()
    {
        SessionConfig config = requestConfig(storeDir_);
        config.cacheCapacity = size_t{1} << 20;
        EstimationSession session(config, pool_);
        estimate(session, order(kWarmupRequest));
        uint64_t disk_hits = session.cache().stats().diskHits;
        std::vector<StoreEntry> entries = storeEntries();
        storeEntries_ = entries.size();
        loadedKeys_.clear();
        for (const StoreEntry &e : entries) {
            uint64_t hits = session.cache().stats().hits;
            session.cache().getRaw(ucx::CacheKey(e.key), *e.codec->type);
            if (session.cache().stats().hits > hits)
                loadedKeys_.push_back(e.key);
        }
        ucx::require(loadedKeys_.size() == disk_hits,
                     "restart request loaded " + std::to_string(disk_hits) +
                         " entries, found " +
                         std::to_string(loadedKeys_.size()));
    }

    /** @return Milliseconds to write the whole store afresh. */
    double
    replayWrites() const
    {
        std::string fresh = storeDir_ + "-writes";
        std::error_code ec;
        fs::remove_all(fresh, ec);
        ucx::io::DiskStore store(fresh);
        double ms = 0.0;
        for (const StoreEntry &e : storeEntries()) {
            Clock::time_point start = Clock::now();
            store.write(e.key, e.framed);
            ms += msBetween(start, Clock::now());
        }
        fs::remove_all(fresh, ec);
        return ms;
    }

    WorkloadOptions opts_;
    bool restart_;
    ExecContext pool_;
    std::vector<const ucx::ShippedDesign *> designs_;
    FittedEstimator dee1_;
    RequestOutput expected_;
    std::string storeDir_;
    std::vector<std::string> loadedKeys_;
    size_t storeEntries_ = 0;
    uint64_t fillWrites_ = 0;
    uint64_t fillBytes_ = 0;
};

// ----------------------------------------------------- calibrate

/** Table 4 estimators: DEE1, then the paper's single metrics. */
std::vector<EstimatorSpec>
table4Specs()
{
    std::vector<EstimatorSpec> specs;
    auto both = [&specs](EstimatorSpec mixed) {
        EstimatorSpec pooled = mixed;
        pooled.mode = ucx::FitMode::Pooled;
        specs.push_back(std::move(mixed));
        specs.push_back(std::move(pooled));
    };
    both(EstimatorSpec::dee1());
    for (const ucx::PaperSigma &ref : ucx::paperSigmas())
        both(EstimatorSpec::single(ref.metric));
    return specs;
}

/**
 * calibrate: fit the 12 Table 4 estimators, mixed and with rho = 1,
 * on one drawn dataset in a fresh session.
 */
class CalibrateWorkload : public Workload
{
  public:
    explicit CalibrateWorkload(WorkloadOptions opts)
        : opts_(std::move(opts)), specs_(table4Specs())
    {
    }

    uint64_t cycle() const override { return kDrawCycle; }

    void
    setup() override
    {
        pool_ = ExecContext::withThreads(opts_.poolWorkers);
        const Dataset &published = ucx::paperDataset();
        FittedEstimator dee1 = checkTable4(published);
        datasets_.clear();
        for (uint64_t k = 0; k < kDrawCycle; ++k)
            datasets_.push_back(drawDataset(published, dee1, opts_.seed, k));
        expected_.assign(kDrawCycle, std::nullopt);

        // Untimed warm-up, not checked here (see EstimateWorkload).
        request(kWarmupRequest);
    }

    RequestOutput
    request(uint64_t r) override
    {
        const Dataset &data = datasets_[r % kDrawCycle];
        EstimationSession session(requestConfig(), pool_);
        RequestOutput out;
        for (const EstimatorSpec &spec : specs_) {
            beforeUnit();
            out.fits.push_back(fitOutput(spec, session.fitOn(data, spec)));
        }
        return out;
    }

    bool
    check(uint64_t r, const RequestOutput &out, std::string &why) override
    {
        for (const FitOutput &fit : out.fits) {
            if (!fit.converged || !std::isfinite(fit.sigmaEps)) {
                why = "fit " + fit.spec + " did not converge";
                return false;
            }
        }
        std::optional<RequestOutput> &expected =
            expected_[r % kDrawCycle];
        if (!expected) {
            expected = out;
            return true;
        }
        if (!sameOutput(out, *expected)) {
            why = "refit of dataset " + std::to_string(r % kDrawCycle) +
                  " differs from its first fit";
            return false;
        }
        return true;
    }

    TracedRequest
    traced(uint64_t r, SpanLog &log) override
    {
        TracedRequest t;
        const Dataset &data = datasets_[r % kDrawCycle];
        {
            ScopedSpan request(log, "request.session_path", r);
            SessionPathMeter meter;
            std::optional<EstimationSession> session;
            {
                Step step(log, "engine.session", r, t.layers,
                          "engine.session_ms");
                session.emplace(requestConfig(), pool_);
            }
            for (const EstimatorSpec &spec : specs_) {
                beforeUnit();
                FittedEstimator fit;
                {
                    Step step(log, "engine.fit", r, t.layers,
                              "engine.fit_ms");
                    fit = session->fitOn(data, spec);
                }
                t.sessionPath.fits.push_back(fitOutput(spec, fit));
            }
            meter.finish(t, session->cache().stats(), pool_.threads() + 1);
        }
        {
            ScopedSpan request(log, "request.replay", r);
            t.replay = replay(data, r, log, t.layers);
        }
        return t;
    }

    std::map<std::string, std::string>
    setupFacts() const override
    {
        return {{"table4_max_abs_diff", jsonNumber(table4MaxDiff_)},
                {"table4_rounding_mismatches",
                 std::to_string(table4RoundingMismatches_)},
                {"draw_cycle", std::to_string(kDrawCycle)}};
    }

  private:
    /**
     * Fit the 24 Table 4 estimators on the published data and hold
     * each sigma_eps to the paper's printed value.
     *
     * @return DEE1 (mixed), the source of the drawn datasets.
     */
    FittedEstimator
    checkTable4(const Dataset &published)
    {
        // The paper prints two decimals, so a refit matches when it
        // is within one unit of the second decimal. AreaS is the one
        // estimator that rounds to a different printed value (2.08
        // against 2.07, in both columns); see README.md.
        constexpr double kTolerance = 0.01 + 1e-9;
        std::vector<std::pair<double, double>> paper = {
            {ucx::paperDee1Reference().sigmaMixed,
             ucx::paperDee1Reference().sigmaPooled}};
        for (const ucx::PaperSigma &ref : ucx::paperSigmas())
            paper.emplace_back(ref.sigmaMixed, ref.sigmaPooled);

        EstimationSession session(requestConfig(), pool_);
        FittedEstimator dee1;
        table4MaxDiff_ = 0.0;
        table4RoundingMismatches_ = 0;
        for (size_t i = 0; i < specs_.size(); ++i) {
            FittedEstimator fit = session.fitOn(published, specs_[i]);
            double want = i % 2 == 0 ? paper[i / 2].first
                                     : paper[i / 2].second;
            double diff = std::fabs(fit.sigmaEps() - want);
            table4MaxDiff_ = std::max(table4MaxDiff_, diff);
            if (std::round(fit.sigmaEps() * 100.0) !=
                std::round(want * 100.0))
                ++table4RoundingMismatches_;
            ucx::require(fit.converged() && diff <= kTolerance,
                         "Table 4 sigma_eps of " + specs_[i].fingerprint() +
                             " is " + jsonNumber(fit.sigmaEps()) +
                             ", paper " + jsonNumber(want));
            if (i == 0)
                dee1 = fit;
        }
        return dee1;
    }

    /** lintFit, then the nlme model itself, for every spec. */
    RequestOutput
    replay(const Dataset &data, uint64_t r, SpanLog &log,
           LayerValues &lv) const
    {
        EstimationSession session(requestConfig(), pool_);
        RequestOutput out;
        double converged = 0.0;
        for (const EstimatorSpec &spec : specs_) {
            beforeUnit();
            ScopedSpan fit_span(log, "fit", r);
            ucx::LintReport report;
            {
                Step step(log, "lint.fit", r, lv, "lint.fit_ms");
                report = session.lintFit(data, spec);
            }
            ucx::require(!report.firstAtLeast(ucx::LintSeverity::Error),
                         "fit lint refused " + spec.fingerprint());
            ucx::NlmeData nlme = data.toNlmeData(spec.metrics, spec.zeroPolicy);
            FitOutput fit;
            fit.spec = spec.fingerprint();
            if (spec.mode == ucx::FitMode::MixedEffects) {
                ucx::MixedFit f;
                {
                    Step step(log, "nlme.mixed_fit", r, lv,
                              "nlme.mixed_fit_ms", "nlme.allocs");
                    f = ucx::MixedModel(nlme).fit(pool_);
                }
                fit.sigmaEps = f.sigmaEps;
                fit.converged = f.converged;
                fit.weights = f.weights;
            } else {
                ucx::PooledFit f;
                {
                    Step step(log, "nlme.pooled_fit", r, lv,
                              "nlme.pooled_fit_ms", "nlme.allocs");
                    f = ucx::PooledModel(nlme).fit(pool_);
                }
                fit.sigmaEps = f.sigmaEps;
                fit.converged = f.converged;
                fit.weights = f.weights;
            }
            converged += fit.converged ? 1.0 : 0.0;
            out.fits.push_back(std::move(fit));
        }
        lv["nlme.fits"] += static_cast<double>(specs_.size());
        lv["nlme.converged_ratio"] +=
            converged / static_cast<double>(specs_.size());
        return out;
    }

    WorkloadOptions opts_;
    std::vector<EstimatorSpec> specs_;
    ExecContext pool_;
    std::vector<Dataset> datasets_;
    std::vector<std::optional<RequestOutput>> expected_;
    double table4MaxDiff_ = 0.0;
    size_t table4RoundingMismatches_ = 0;
};

void
writeMetricsObject(std::ostringstream &os, const MetricValues &values)
{
    os << "{";
    bool first = true;
    for (Metric m : ucx::allMetrics()) {
        os << (first ? "" : ", ") << jsonString(ucx::metricName(m))
           << ": " << jsonNumber(values[static_cast<size_t>(m)]);
        first = false;
    }
    os << "}";
}

} // namespace

bool
sameOutput(const RequestOutput &a, const RequestOutput &b)
{
    if (a.components.size() != b.components.size() ||
        a.fits.size() != b.fits.size())
        return false;
    for (size_t i = 0; i < a.components.size(); ++i) {
        const ComponentOutput &x = a.components[i];
        const ComponentOutput &y = b.components[i];
        if (x.name != y.name)
            return false;
        for (size_t k = 0; k < x.metrics.size(); ++k)
            if (!sameBits(x.metrics[k], y.metrics[k]))
                return false;
        if (!sameBits(x.prediction.median, y.prediction.median) ||
            !sameBits(x.prediction.mean, y.prediction.mean) ||
            !sameBits(x.prediction.lo90, y.prediction.lo90) ||
            !sameBits(x.prediction.hi90, y.prediction.hi90))
            return false;
    }
    for (size_t i = 0; i < a.fits.size(); ++i) {
        const FitOutput &x = a.fits[i];
        const FitOutput &y = b.fits[i];
        if (x.spec != y.spec || x.converged != y.converged ||
            !sameBits(x.sigmaEps, y.sigmaEps) ||
            x.weights.size() != y.weights.size())
            return false;
        for (size_t k = 0; k < x.weights.size(); ++k)
            if (!sameBits(x.weights[k], y.weights[k]))
                return false;
    }
    return true;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadOptions &opts)
{
    if (name == "estimate_cold")
        return std::make_unique<EstimateWorkload>(opts, false);
    if (name == "estimate_restart")
        return std::make_unique<EstimateWorkload>(opts, true);
    if (name == "calibrate")
        return std::make_unique<CalibrateWorkload>(opts);
    return nullptr;
}

const std::vector<std::pair<std::string, std::string>> &
layerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list = {
        {"hdl.parse_ms", "ms"},
        {"hdl.tokens", "count"},
        {"hdl.parse.allocs", "count"},
        {"lint.gate_ms", "ms"},
        {"lint.gate.allocs", "count"},
        {"lint.fit_ms", "ms"},
        {"core.minimize_ms", "ms"},
        {"synth.elaborate_ms", "ms"},
        {"synth.elaborate.runs", "count"},
        {"synth.lower_ms", "ms"},
        {"synth.lower.gates", "count"},
        {"synth.techmap_ms", "ms"},
        {"synth.lutmap_ms", "ms"},
        {"synth.cones_ms", "ms"},
        {"synth.timing_ms", "ms"},
        {"synth.power_ms", "ms"},
        {"synth.metrics_ms", "ms"},
        {"synth.pass.runs", "count"},
        {"synth.allocs", "count"},
        {"cache.hits", "count"},
        {"cache.misses", "count"},
        {"cache.hit_ratio", "ratio"},
        {"cache.disk_hits", "count"},
        {"cache.disk_writes", "count"},
        {"cache.disk_bytes", "bytes"},
        {"io.read_ms", "ms"},
        {"io.decode_ms", "ms"},
        {"io.bytes_read", "bytes"},
        {"io.decode.allocs", "count"},
        {"io.write_ms", "ms"},
        {"engine.session_ms", "ms"},
        {"engine.measure_ms", "ms"},
        {"engine.predict_ms", "ms"},
        {"engine.fit_ms", "ms"},
        {"nlme.mixed_fit_ms", "ms"},
        {"nlme.pooled_fit_ms", "ms"},
        {"nlme.fits", "count"},
        {"nlme.converged_ratio", "ratio"},
        {"nlme.allocs", "count"},
        {"opt.nm.evaluations", "count"},
        {"opt.bfgs.evaluations", "count"},
        {"opt.bfgs.gradient_evaluations", "count"},
        {"opt.multistart.starts", "count"},
        {"opt.evals_per_ms", "1/ms"},
        {"exec.graph.tasks", "count"},
        {"exec.pool.tasks", "count"},
        {"exec.utilization", "ratio"},
        {"obs.trace_overhead", "ratio"},
    };
    return list;
}

RequestOutput
estimateReference(size_t pool_workers)
{
    ExecContext pool = ExecContext::withThreads(pool_workers);
    EstimationSession session(requestConfig(), pool);
    FittedEstimator dee1 = session.fit(EstimatorSpec::dee1());
    RequestOutput out;
    for (const ucx::ShippedDesign &d : ucx::shippedDesigns()) {
        Design design;
        design.addSource(d.source, d.name + ".v");
        ucx::ComponentMeasurement m = session.measure(design, d.top);
        out.components.push_back(
            {d.name, m.metrics, session.predict(dee1, m.metrics)});
    }
    out.fits.push_back(fitOutput(EstimatorSpec::dee1(), dee1));
    return out;
}

std::string
referenceJson(const RequestOutput &out)
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"perfbench.reference.v1\",\n"
       << "  \"regenerate\": \"python3 perfbench/run.py "
          "--regenerate-reference\",\n";
    const FitOutput &dee1 = out.fits.at(0);
    os << "  \"dee1\": {\"spec\": " << jsonString(dee1.spec)
       << ", \"sigma_eps\": " << jsonNumber(dee1.sigmaEps)
       << ", \"converged\": " << (dee1.converged ? "true" : "false")
       << ", \"weights\": [";
    for (size_t k = 0; k < dee1.weights.size(); ++k)
        os << (k ? ", " : "") << jsonNumber(dee1.weights[k]);
    os << "]},\n  \"components\": [\n";
    for (size_t i = 0; i < out.components.size(); ++i) {
        const ComponentOutput &c = out.components[i];
        os << "    {\"name\": " << jsonString(c.name) << ",\n"
           << "     \"metrics\": ";
        writeMetricsObject(os, c.metrics);
        os << ",\n     \"prediction\": {\"median\": "
           << jsonNumber(c.prediction.median)
           << ", \"mean\": " << jsonNumber(c.prediction.mean)
           << ", \"lo90\": " << jsonNumber(c.prediction.lo90)
           << ", \"hi90\": " << jsonNumber(c.prediction.hi90) << "}}"
           << (i + 1 < out.components.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

RequestOutput
loadReference(const std::string &path)
{
    std::ifstream in(path);
    ucx::require(static_cast<bool>(in),
                 "cannot read the reference file " + path);
    std::stringstream text;
    text << in.rdbuf();
    ucx::json::Value doc = ucx::json::Value::parse(text.str());
    ucx::require(doc.at("schema").asString() == "perfbench.reference.v1",
                 "unknown reference schema in " + path);
    RequestOutput out;
    const ucx::json::Value &dee1 = doc.at("dee1");
    FitOutput fit;
    fit.spec = dee1.at("spec").asString();
    fit.sigmaEps = dee1.at("sigma_eps").asNumber();
    fit.converged = dee1.at("converged").asBool();
    for (const ucx::json::Value &w : dee1.at("weights").items())
        fit.weights.push_back(w.asNumber());
    out.fits.push_back(std::move(fit));
    for (const ucx::json::Value &c : doc.at("components").items()) {
        ComponentOutput comp;
        comp.name = c.at("name").asString();
        for (Metric m : ucx::allMetrics())
            comp.metrics[static_cast<size_t>(m)] =
                c.at("metrics").at(ucx::metricName(m)).asNumber();
        const ucx::json::Value &p = c.at("prediction");
        comp.prediction.median = p.at("median").asNumber();
        comp.prediction.mean = p.at("mean").asNumber();
        comp.prediction.lo90 = p.at("lo90").asNumber();
        comp.prediction.hi90 = p.at("hi90").asNumber();
        out.components.push_back(std::move(comp));
    }
    return out;
}

} // namespace perfbench
