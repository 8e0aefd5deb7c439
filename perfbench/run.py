#!/usr/bin/env python3
"""Build and run the whole-request benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload estimate_cold --seed 1 \
        --seconds 35 --trace 0

builds the library and ucx_perfbench into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs it, and prints its result
object as the last line of stdout. The full report of the run
(settings, diagnostics, spans) lands in <build>/reports/.

Other modes:

    --steady [--runs N] [--workloads a,b] [--seed-base N] [--trace 0|1]
        run every workload N times (default 10), alternating
        workloads, and print each metric's median, quartiles and
        spread against its bound in BENCHMARK.json
    --compare A B
        compare two report files, directories of reports, or --steady
        summaries by their medians; exits 1 when a metric is worse
        than its bound, and refuses (exit 2) when settings differ
    --regenerate-reference
        rewrite perfbench/reference/estimate.json from the current
        program (the only way that file changes)
    --selftest
        build and run the tests of the benchmark's own logic
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference" / "estimate.json"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880
# Settings that may differ between two runs being compared: the
# input seed and the identity of the code under test.
RUN_IDENTITY = {"seed", "commit", "source_digest"}


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = Path(base)
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_logged(cmd, log, timeout):
    """Run a build step with its output in the log, never on stdout."""
    with open(log, "ab") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"build step timed out: {' '.join(map(str, cmd))}")
    if code != 0:
        tail = Path(log).read_text(errors="replace")[-4000:]
        print(tail, file=sys.stderr)
        fail(f"build step failed: {' '.join(map(str, cmd))}")


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a "
             "full checkout")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (out / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"], log,
                   max(1, deadline - time.monotonic()))
    jobs = str(max(1, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(out), "-j", jobs, "--target",
                *targets], log, max(1, deadline - time.monotonic()))
    return out


def source_digest():
    """SHA-256 over every file ucx_perfbench is built from."""
    h = hashlib.sha256()
    files = []
    for top in ("src", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    for p in sorted(files):
        rel = p.relative_to(ROOT).as_posix()
        h.update(rel.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def commit_id():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def rel(path):
    """A path relative to the checkout root when it lies inside it, so
    two checkouts record the same settings."""
    try:
        return str(Path(path).relative_to(ROOT))
    except ValueError:
        return str(path)


def run_bench(out, workload, seed, seconds, trace, report):
    cmd = [str(out / "ucx_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--reference", rel(REFERENCE),
           "--store-root", rel(out / "stores"), "--report", rel(report),
           "--commit", commit_id(), "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"ucx_perfbench exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, stdout


def single_run(args):
    out = build(["ucx_perfbench"])
    report = (out / "reports" /
              f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    code, stdout = run_bench(out, args.workload, args.seed, args.seconds,
                              args.trace, report)
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code


def load_bounds():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec.get("end_to_end", [])}


def spread_table(runs, bounds):
    """Per metric: median, quartiles, IQR/median, max/min."""
    rows = []
    names = list(runs[0]["metrics"])
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med if med else float("nan")
        lo, hi = min(values), max(values)
        row = {"metric": name, "unit": runs[0]["metrics"][name]["unit"],
               "median": med, "q1": q1, "q3": q3, "iqr_share": iqr,
               "max_over_min": hi / lo if lo else float("nan")}
        if name in bounds:
            row["bound"] = bounds[name]["bound"]
        rows.append(row)
    return rows


def steady(args):
    out = build(["ucx_perfbench"])
    workloads = args.workloads.split(",")
    bounds = load_bounds()
    stamp = time.strftime("%Y%m%d-%H%M%S")
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            seed = args.seed_base + i
            report = out / "steady" / stamp / f"{w}-seed{seed}.json"
            code, stdout = run_bench(out, w, seed, args.seconds,
                                      args.trace, report)
            if code != 0 or not stdout.strip():
                fail(f"{w} seed {seed} exited {code}")
            result = json.loads(stdout.strip().splitlines()[-1])
            detail = json.loads(report.read_text())
            result["settings"] = detail["settings"]
            result["diagnostics"] = {
                k: detail["diagnostics"][k]
                for k in ("reference_loop_before_ms",
                          "reference_loop_after_ms")}
            results[w].append(result)
            m = result["metrics"]
            first = next(iter(m))
            print(f"run {i + 1}/{args.runs} {w} seed {seed}: "
                  f"correct={result['correct']} {first}="
                  f"{m[first]['value']:.4g} ref_loop="
                  f"{result['diagnostics']['reference_loop_before_ms']:.1f}/"
                  f"{result['diagnostics']['reference_loop_after_ms']:.1f} ms",
                  file=sys.stderr)
    summary = {"schema": "perfbench.steady.v1", "runs": args.runs,
               "seconds": args.seconds, "trace": args.trace,
               "workloads": {}}
    within = True
    for w in workloads:
        runs = results[w]
        rows = spread_table(runs, bounds)
        ref = [r["diagnostics"]["reference_loop_before_ms"] for r in runs]
        ref += [r["diagnostics"]["reference_loop_after_ms"] for r in runs]
        summary["workloads"][w] = {
            "settings": runs[0]["settings"], "rows": rows,
            "all_correct": all(r["correct"] for r in runs),
            "reference_loop_ms": {"median": statistics.median(ref),
                                  "min": min(ref), "max": max(ref)},
            "runs": runs}
        print(f"\n{w}  (all correct: "
              f"{summary['workloads'][w]['all_correct']}; reference loop "
              f"{min(ref):.1f}..{max(ref):.1f} ms)")
        print(f"  {'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'iqr/med':>9}{'bound':>7}{'max/min':>9}")
        for row in rows:
            bound = row.get("bound")
            mark = ""
            if bound is not None:
                ok = row["iqr_share"] <= bound / 3
                within &= row["iqr_share"] <= bound
                mark = "" if ok else "  <- above a third of its bound"
            print(f"  {row['metric']:<34}{row['median']:>14.6g}"
                  f"{row['q1']:>14.6g}{row['q3']:>14.6g}"
                  f"{row['iqr_share']:>9.4f}"
                  f"{'' if bound is None else bound:>7}"
                  f"{row['max_over_min']:>9.4f}{mark}")
    path = Path(args.out) if args.out else (out / "steady" / stamp /
                                            "summary.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=1))
    print(f"\nsummary: {path}")
    return 0 if within else 1


def load_runs(path):
    """Reports under a path, as {workload: [(settings, metrics)]}."""
    path = Path(path)
    docs = []
    if path.is_dir():
        docs = [json.loads(p.read_text()) for p in sorted(path.rglob("*.json"))]
    else:
        docs = [json.loads(path.read_text())]
    runs = {}
    for doc in docs:
        if doc.get("schema") == "perfbench.steady.v1":
            for w, block in doc["workloads"].items():
                for r in block["runs"]:
                    runs.setdefault(w, []).append((r["settings"], r["metrics"]))
        elif doc.get("schema") == "perfbench.report.v1":
            w = doc["settings"]["workload"]
            runs.setdefault(w, []).append((doc["settings"], doc["metrics"]))
    return runs


def comparable(settings):
    return {k: v for k, v in settings.items() if k not in RUN_IDENTITY}


def compare(args):
    base, new = load_runs(args.compare[0]), load_runs(args.compare[1])
    bounds = load_bounds()
    refused = regressed = False
    for w in sorted(set(base) & set(new)):
        keys = [comparable(s) for s, _ in base[w] + new[w]]
        if any(k != keys[0] for k in keys):
            diff = sorted({f for k in keys for f in k
                           if k.get(f) != keys[0].get(f)})
            print(f"{w}: settings differ ({', '.join(diff)}); refusing "
                  "to compare", file=sys.stderr)
            refused = True
            continue
        print(f"\n{w}: {len(base[w])} base runs, {len(new[w])} new runs")
        for name in base[w][0][1]:
            b = statistics.median(m[name]["value"] for _, m in base[w])
            n = statistics.median(m[name]["value"] for _, m in new[w])
            change = (n - b) / b if b else float("nan")
            spec = bounds.get(name)
            verdict = ""
            if spec:
                worse = -change if spec["better"] == "higher" else change
                regressed |= worse > spec["bound"]
                verdict = ("worse than bound" if worse > spec["bound"]
                           else "within bound")
            print(f"  {name:<34}{b:>14.6g}{n:>14.6g}{change:>+9.2%}  "
                  f"{verdict}")
    if not set(base) & set(new):
        fail("no workload in common")
    return 2 if refused else 1 if regressed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="run length (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads",
                   default="estimate_cold,estimate_restart,calibrate")
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--regenerate-reference", action="store_true")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if args.seconds is None:
        spec = ROOT / "BENCHMARK.json"
        args.seconds = (json.loads(spec.read_text())["run_seconds"]
                        if spec.is_file() else 10)
    if args.compare:
        return compare(args)
    if args.regenerate_reference:
        out = build(["ucx_perfbench"])
        return subprocess.run([str(out / "ucx_perfbench"),
                               "--write-reference", str(REFERENCE)],
                              timeout=RUN_TIMEOUT_S).returncode
    if args.selftest:
        out = build(["perfbench_tests"])
        return subprocess.run([str(out / "perfbench_tests")],
                              cwd=out).returncode
    if args.steady:
        if args.runs < 10:
            fail("a steadiness check needs at least 10 runs")
        return steady(args)
    if not args.workload:
        fail("--workload is required")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
