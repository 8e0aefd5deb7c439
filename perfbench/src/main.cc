/**
 * @file
 * ucx_perfbench — the whole-request benchmark program.
 *
 *   ucx_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 --reference FILE --store-root DIR --report FILE
 *                 [--commit ID] [--source-digest HEX]
 *   ucx_perfbench --write-reference FILE
 *
 * One run: the host reference loop, a closed-loop client timing
 * requests with obs collection off in eight slices with a set-up
 * before each (setup_s is the median of the eight), the reference
 * loop again, and — with --trace 1 — a shorter timed phase and then
 * the traced replay. The last stdout line is the result object; the
 * full report (settings, diagnostics, spans) goes to --report.
 */

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_core.hh"
#include "obs/metrics.hh"
#include "util/alloc_hook.hh"
#include "workloads.hh"

extern char **environ;

namespace fs = std::filesystem;
using namespace perfbench;

namespace
{

/** Requests a timed phase needs so that ten samples lie beyond p90. */
constexpr uint64_t kMinTimedRequests = 100;

/**
 * Set-ups per run, one before each slice of the timed phase;
 * setup_s is their median.
 */
constexpr int kSetups = 8;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string reference;
    std::string storeRoot;
    std::string report;
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
    std::string writeReference;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "ucx_perfbench: " << why << "\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string v = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (flag == "--trace") {
            a.trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
        } else if (flag == "--reference") {
            a.reference = v;
        } else if (flag == "--store-root") {
            a.storeRoot = v;
        } else if (flag == "--report") {
            a.report = v;
        } else if (flag == "--commit") {
            a.commit = v;
        } else if (flag == "--source-digest") {
            a.sourceDigest = v;
        } else if (flag == "--write-reference") {
            a.writeReference = v;
        } else {
            usage("unknown flag " + flag);
        }
        if (end != nullptr && *end != '\0')
            usage("bad value '" + v + "' for " + flag);
    }
    if (!a.writeReference.empty())
        return a;
    if (a.workload.empty() || a.reference.empty() || a.storeRoot.empty())
        usage("--workload, --reference and --store-root are required");
    if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1))
        usage("--seconds must be > 0 and --trace 0 or 1");
    return a;
}

size_t
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<size_t>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * Moves the calling thread to the next CPU it may run on once it has
 * stayed @p period_ms on one (checked at each tick), and restores its
 * affinity when destroyed. Each vCPU of the host has its own fast and
 * slow phases, lasting seconds; a serial client that the scheduler
 * leaves on one vCPU would time that vCPU's phase only. Rotating
 * samples every vCPU evenly (see README.md, "Host findings"). Only
 * the client moves; pool workers, created before, keep their
 * affinity.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(double period_ms)
        : periodMs_(period_ms), last_(Clock::now())
    {
        CPU_ZERO(&saved_);
        if (sched_getaffinity(0, sizeof saved_, &saved_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &saved_))
                cpus_.push_back(c);
        if (cpus_.size() > 1)
            move();
    }

    ~CpuRotation()
    {
        if (cpus_.size() > 1)
            sched_setaffinity(0, sizeof saved_, &saved_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Move on when the current CPU has had its turn. */
    void
    tick()
    {
        if (cpus_.size() > 1 && msBetween(last_, Clock::now()) >= periodMs_)
            move();
    }

  private:
    void
    move()
    {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
        last_ = Clock::now();
    }

    double periodMs_;
    cpu_set_t saved_;
    std::vector<int> cpus_;
    size_t next_ = 0;
    Clock::time_point last_;
};

/** @return VmHWM of this process in MB (0 when unreadable). */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** Every UCX_* variable of the environment, sorted. */
std::map<std::string, std::string>
ucxEnvironment()
{
    std::map<std::string, std::string> out;
    for (char **e = environ; e && *e; ++e) {
        std::string kv = *e;
        size_t eq = kv.find('=');
        if (kv.rfind("UCX_", 0) == 0 && eq != std::string::npos)
            out[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
    return out;
}

/** One timed phase of the closed-loop client. */
struct Phase
{
    std::vector<double> latencyMs;
    std::vector<uint64_t> allocs; ///< Per request, process-wide.
    double wallMs = 0.0;
    double cpuMs = 0.0;
    uint64_t failed = 0;
    std::string firstFailure;
};

/**
 * Add one slice to @p p: run requests back to back, numbered on from
 * the requests @p p already holds, until @p seconds have passed and
 * @p p holds at least @p min_requests. Before each unit of a
 * request's work the client moves to the next CPU if it has stayed
 * Workload::rotationMs() on its current one; the slice ends with the
 * client's affinity restored.
 */
void
timedSlice(Workload &w, Phase &p, double seconds, uint64_t min_requests)
{
    CpuRotation rotation(w.rotationMs());
    w.setUnitHook([&rotation] { rotation.tick(); });
    double cpu0 = cpuMsNow();
    Clock::time_point start = Clock::now();
    Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (uint64_t r = p.latencyMs.size();; ++r) {
        uint64_t a0 = ucx::allocCountsGlobal().allocs;
        Clock::time_point t0 = Clock::now();
        std::string why;
        bool ok = false;
        try {
            RequestOutput out = w.request(r);
            Clock::time_point t1 = Clock::now();
            p.latencyMs.push_back(msBetween(t0, t1));
            ok = w.check(r, out, why);
        } catch (const std::exception &e) {
            p.latencyMs.push_back(msBetween(t0, Clock::now()));
            why = e.what();
        }
        p.allocs.push_back(ucx::allocCountsGlobal().allocs - a0);
        if (!ok) {
            ++p.failed;
            if (p.firstFailure.empty())
                p.firstFailure = "request " + std::to_string(r) + ": " + why;
        }
        Clock::time_point now = Clock::now();
        if (now >= deadline && p.latencyMs.size() >= min_requests)
            break;
    }
    p.wallMs += msBetween(start, Clock::now());
    p.cpuMs += cpuMsNow() - cpu0;
    w.setUnitHook(nullptr);
}

/** @return Mean of the first whole-cycle prefix of @p v. */
double
wholeCycleMean(const std::vector<uint64_t> &v, uint64_t cycle)
{
    size_t n = v.size() / cycle * cycle;
    if (n == 0)
        n = v.size();
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i)
        sum += static_cast<double>(v[i]);
    return sum / static_cast<double>(n);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << jsonString(metrics[i].name)
           << ": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": " << jsonString(metrics[i].unit) << "}";
    }
    os << "}";
    return os.str();
}

std::string
stringMapJson(const std::map<std::string, std::string> &m, bool raw)
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[k, v] : m) {
        os << (first ? "" : ", ") << jsonString(k) << ": "
           << (raw ? v : jsonString(v));
        first = false;
    }
    os << "}";
    return os.str();
}

std::string
numbersJson(const std::vector<double> &v)
{
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << jsonNumber(v[i]);
    os << "]";
    return os.str();
}

int
writeReference(const std::string &path)
{
    RequestOutput out = estimateReference(
        std::max<size_t>(1, hostCpus() - 1));
    std::ofstream file(path);
    file << referenceJson(out);
    if (!file)
        usage("cannot write " + path);
    std::cerr << "wrote " << out.components.size()
              << " components to " << path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    if (!args.writeReference.empty())
        return writeReference(args.writeReference);

    // End-to-end metrics are timed with collection off, whatever
    // UCX_OBS says; only the traced phase turns it on.
    ucx::obs::setEnabled(false);

    const size_t cpus = hostCpus();
    WorkloadOptions opts;
    opts.seed = args.seed;
    opts.poolWorkers = cpus > 1 ? cpus - 1 : 1;
    opts.referencePath = args.reference;
    opts.storeRoot = args.storeRoot;
    std::unique_ptr<Workload> w = makeWorkload(args.workload, opts);
    if (!w)
        usage("unknown workload '" + args.workload + "'");

    // ------------------------------------- set-ups and timed slices
    // A set-up runs before each slice of the timed phase, so the
    // median of the set-ups samples the whole run, as the timed
    // metrics do, instead of one moment of it. The next slice serves
    // its requests from the state that set-up built.
    std::vector<double> setupS;
    auto setUp = [&] {
        try {
            fs::create_directories(args.storeRoot);
            // Each set-up starts from a flushed file system, so the
            // previous store's removal is not charged to it, and its
            // own writes are flushed before timing resumes, so
            // writeback does not run during timed requests.
            w->teardown();
            ::sync();
            Clock::time_point t0 = Clock::now();
            w->setup();
            setupS.push_back(msBetween(t0, Clock::now()) / 1e3);
            ::sync();
            return true;
        } catch (const std::exception &e) {
            std::cerr << "ucx_perfbench: set-up failed: " << e.what()
                      << "\n";
            w->teardown();
            return false;
        }
    };

    uint64_t checksum = 0;
    double refBefore = referenceLoopMs(&checksum);
    double timedSeconds = args.trace ? args.seconds / 3.0 : args.seconds;
    Phase timed;
    for (int k = 0; k < kSetups; ++k) {
        if (!setUp())
            return 1;
        bool last = k + 1 == kSetups;
        timedSlice(*w, timed, timedSeconds / kSetups,
                   last ? kMinTimedRequests : 0);
    }
    double refAfter = referenceLoopMs(&checksum);
    const double n = static_cast<double>(timed.latencyMs.size());
    const double rps = n / (timed.wallMs / 1e3);

    std::optional<double> p50 = percentile(timed.latencyMs, 0.5);
    std::optional<double> p90 = percentile(timed.latencyMs, 0.9);
    uint64_t attempted = timed.latencyMs.size();
    uint64_t failed = timed.failed;
    std::string firstFailure = timed.firstFailure;

    std::vector<Metric> metrics;
    std::map<std::string, std::string> diagnostics;
    SpanLog spans;
    if (!args.trace) {
        metrics = {
            {"requests_per_s", rps, "1/s"},
            {"latency_p50_ms", p50.value_or(NAN), "ms"},
            {"latency_p90_ms", p90.value_or(NAN), "ms"},
            {"cpu_ms_per_req", timed.cpuMs / n, "ms"},
            {"allocs_per_req", wholeCycleMean(timed.allocs, w->cycle()),
             "count"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"setup_s", median(setupS), "s"},
            {"ok_share", 1.0 - static_cast<double>(failed) / n,
             "fraction"},
        };
    } else {
        // ------------------------------------------------ traced
        ucx::obs::setEnabled(true);
        LayerValues setupLayers = w->prepareTrace();
        // Traced requests move between CPUs as the timed ones do, so
        // obs.trace_overhead compares like with like.
        CpuRotation rotation(w->rotationMs());
        w->setUnitHook([&rotation] { rotation.tick(); });
        std::vector<LayerValues> perRequest;
        double sessionPathMs = 0.0;
        Clock::time_point deadline =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(args.seconds - timedSeconds));
        const uint64_t first = attempted;
        for (uint64_t r = first;; ++r) {
            ++attempted;
            try {
                TracedRequest t = w->traced(r, spans);
                std::string why;
                bool ok = sameOutput(t.sessionPath, t.replay) &&
                          w->check(r, t.sessionPath, why);
                if (!ok) {
                    ++failed;
                    if (firstFailure.empty())
                        firstFailure =
                            "traced request " + std::to_string(r) + ": " +
                            (why.empty() ? "replay differs from the "
                                           "session path"
                                         : why);
                }
                sessionPathMs += t.sessionPathMs;
                perRequest.push_back(std::move(t.layers));
            } catch (const std::exception &e) {
                ++failed;
                if (firstFailure.empty())
                    firstFailure = e.what();
                break;
            }
            if (Clock::now() >= deadline &&
                perRequest.size() % w->cycle() == 0)
                break;
        }
        w->setUnitHook(nullptr);
        ucx::obs::setEnabled(false);

        // Per-request means over whole cycles of inputs, so counts
        // repeat exactly whatever the number of requests.
        LayerValues mean;
        const double traced = static_cast<double>(perRequest.size());
        for (const LayerValues &lv : perRequest)
            for (const auto &[k, v] : lv)
                mean[k] += v;
        for (auto &[k, v] : mean)
            v /= traced;
        double evals = mean["opt.nm.evaluations"] +
                       mean["opt.bfgs.evaluations"];
        double fitMs = mean["nlme.mixed_fit_ms"] + mean["nlme.pooled_fit_ms"];
        mean["opt.evals_per_ms"] = fitMs > 0.0 ? evals / fitMs : 0.0;
        double tracedRps = traced / (sessionPathMs / 1e3);
        mean["obs.trace_overhead"] = rps / tracedRps - 1.0;
        for (const auto &[k, v] : setupLayers)
            mean[k] = v;
        for (const auto &[name, unit] : layerMetrics())
            metrics.push_back({name, mean[name], unit});
        diagnostics["traced_requests"] = std::to_string(perRequest.size());
        diagnostics["traced_requests_per_s"] = jsonNumber(tracedRps);
        std::ostringstream extra;
        extra << "{";
        bool firstKey = true;
        for (const auto &[k, v] : mean) {
            extra << (firstKey ? "" : ", ") << jsonString(k) << ": "
                  << jsonNumber(v);
            firstKey = false;
        }
        extra << "}";
        diagnostics["layer_means"] = extra.str();
    }
    w->teardown();

    bool percentilesOk = p50.has_value() && p90.has_value();
    bool correct = failed == 0 && percentilesOk;
    if (!percentilesOk && firstFailure.empty())
        firstFailure = "too few timed requests for p90";

    // ---------------------------------------------------- report
    std::map<std::string, std::string> settings = {
        {"workload", jsonString(args.workload)},
        {"seed", std::to_string(args.seed)},
        {"run_seconds", jsonNumber(args.seconds)},
        {"trace", std::to_string(args.trace)},
        {"setups", std::to_string(kSetups)},
        {"client_cpu_rotation_ms", jsonNumber(w->rotationMs())},
        {"nproc", std::to_string(cpus)},
        {"pool_workers", std::to_string(opts.poolWorkers)},
        {"client_threads", "1"},
        {"store_root", jsonString(args.storeRoot)},
        {"obs_timed", "false"},
        {"obs_traced", args.trace ? "true" : "false"},
        {"ucx_env", stringMapJson(ucxEnvironment(), false)},
        {"build_type", jsonString(PERFBENCH_BUILD_TYPE)},
        {"cxx_flags", jsonString(PERFBENCH_CXX_FLAGS)},
        {"compiler", jsonString(PERFBENCH_COMPILER)},
        {"commit", jsonString(args.commit)},
        {"source_digest", jsonString(args.sourceDigest)},
        {"min_timed_requests", std::to_string(kMinTimedRequests)},
        {"draw_cycle", std::to_string(w->cycle())},
    };
    diagnostics["reference_loop_before_ms"] = jsonNumber(refBefore);
    diagnostics["reference_loop_after_ms"] = jsonNumber(refAfter);
    diagnostics["reference_loop_checksum"] = std::to_string(checksum);
    diagnostics["timed_requests"] = std::to_string(timed.latencyMs.size());
    diagnostics["timed_wall_ms"] = jsonNumber(timed.wallMs);
    diagnostics["samples_beyond_p90"] = std::to_string(
        timed.latencyMs.size() -
        static_cast<size_t>(std::ceil(0.9 * n)));
    diagnostics["setup_s_each"] = numbersJson(setupS);
    diagnostics["timed_latency_ms"] = numbersJson(timed.latencyMs);
    diagnostics["first_failure"] = jsonString(firstFailure);
    diagnostics["setup_facts"] = stringMapJson(w->setupFacts(), true);

    if (!args.report.empty()) {
        fs::path path(args.report);
        if (path.has_parent_path())
            fs::create_directories(path.parent_path());
        std::ofstream report(path);
        report << "{\"schema\": \"perfbench.report.v1\",\n"
               << " \"settings\": " << stringMapJson(settings, true)
               << ",\n \"correct\": " << (correct ? "true" : "false")
               << ",\n \"attempted\": " << attempted
               << ",\n \"failed\": " << failed
               << ",\n \"metrics\": " << metricsJson(metrics)
               << ",\n \"diagnostics\": " << stringMapJson(diagnostics, true)
               << ",\n \"spans\": {";
        bool firstSpan = true;
        for (const auto &[name, t] : spans.totals()) {
            report << (firstSpan ? "" : ",") << "\n  " << jsonString(name)
                   << ": {\"count\": " << t.count
                   << ", \"total_ms\": " << jsonNumber(t.totalMs)
                   << ", \"self_ms\": " << jsonNumber(t.selfMs) << "}";
            firstSpan = false;
        }
        // Raw spans of the first cycle of traced requests show the
        // nesting; the totals above cover every request.
        report << "},\n \"spans_first_cycle\": [";
        bool firstRaw = true;
        const std::vector<SpanLog::Span> &raw = spans.spans();
        uint64_t firstRequest = raw.empty() ? 0 : raw.front().request;
        for (size_t i = 0; i < raw.size(); ++i) {
            if (raw[i].request >= firstRequest + w->cycle())
                break;
            report << (firstRaw ? "" : ",") << "\n  ["
                   << jsonString(raw[i].name) << ", " << raw[i].parent
                   << ", " << raw[i].request << ", "
                   << jsonNumber(raw[i].startMs) << ", "
                   << jsonNumber(raw[i].endMs) << ", "
                   << jsonNumber(spans.selfMs(i)) << "]";
            firstRaw = false;
        }
        report << "]}\n";
    }
    if (!firstFailure.empty())
        std::cerr << "ucx_perfbench: " << firstFailure << "\n";

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << metricsJson(metrics) << "}"
              << std::endl;
    return 0;
}
