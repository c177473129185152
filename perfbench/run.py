"""The uendo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a closed loop with one
client.  A run repeats passes for S seconds; every pass is a fresh
interpreter (`worker.py`) that sends each request of the workload exactly
once, so a memo helps only where distinct requests share work.  Pass p of
seed N always gets the same inputs.  Outputs are checked after every pass
(`checker.py`); the last line printed is one JSON object with the metrics:
with `--trace 0` the end-to-end ones, medians over the passes; with
`--trace 1` the per-layer ones, from traced passes alternating with
untraced ones.  `python3 perfbench/make_reference.py` remakes the
reference digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import calibrate
import checker
import tracer
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

# imports timed before each pass, and at least in all; spreading them over
# the run samples the machine's speed at several moments
SETUP_PER_PASS = 3
SETUP_MIN = 9
RUN_LIMIT_S = 170

PREDICTIONS = (
    ("weylnum.i_number.self_s", "wall_s, latency_tail_ms", "ladder, sweep", "interactive"),
    ("weylnum.sigma, weylnum.e_number", "wall_s", "ladder, sweep", ""),
    ("centralizer.NormalizerModel.elements, centralizer.levi_diagram", "wall_s",
     "ladder, sweep", ""),
    ("signs.relative_signs", "wall_s", "sweep", ""),
    ("tadic.expand", "latency_tail_ms", "ladder", ""),
    ("cli.*, params.*", "latency_p50_ms, wall_s", "interactive", "ladder, sweep"),
    ("import work in every module", "setup_s", "interactive, ladder, sweep", ""),
    ("memoisation", "peak_rss_mb", "sweep", ""),
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(count: int) -> list:
    """(scaled, unscaled) seconds to import uendo.cli in `count` fresh
    interpreters.  Calibration slices run after the import, so they import
    nothing that uendo would otherwise import itself."""
    code = (
        "import sys, time\n"
        "sys.path.insert(0, %r)\n"
        "t = time.perf_counter()\n"
        "import uendo.cli\n"
        "t = time.perf_counter() - t\n"
        "sys.path.insert(0, %r)\n"
        "from calibrate import slice_seconds\n"
        "print(repr(t), [slice_seconds() for _ in range(7)], uendo.cli.__file__, sep='\\n')\n"
        % (str(ROOT / "src"), str(HERE))
    )
    times = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_env(), cwd=ROOT, timeout=60, check=True)
        seconds, slices, where = done.stdout.split("\n")[:3]
        if not pathlib.Path(where).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError("uendo imported from %s, not from the checkout" % where)
        kernel = statistics.median(json.loads(slices))
        times.append((float(seconds) * calibrate.REFERENCE_S / kernel, float(seconds)))
    return times


def run_pass(work: pathlib.Path, kind: str, docs: dict, requests: list, trace: bool,
             timeout: float) -> dict:
    """Write the documents, run one worker over the requests, return its report."""
    for name, text in docs.items():
        path = work / (name + ".txt")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    sent = []
    for request in requests:
        request = dict(request)
        if "doc" in request:
            request["argv"] = request["argv"] + [str(work / (request["doc"] + ".txt"))]
        sent.append(request)
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps({"root": str(ROOT), "kind": kind, "requests": sent,
                                     "trace": trace}))
    result_path.unlink(missing_ok=True)
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path),
                           str(result_path)], capture_output=True, text=True, env=_env(),
                          cwd=ROOT, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError("worker exited %d: %s" % (done.returncode, done.stderr.strip()[-500:]))
    lines = result_path.read_text().splitlines()
    report = json.loads(lines[-1])
    report["rows"] = [json.loads(line) for line in lines[:-1]]
    report["sent"] = sent
    return report


def tail(latencies: list):
    """(value, percentile, n): the latency with exactly ten requests beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - 11, 0)
    return ordered[index], 100.0 * (index + 1) / n, n


def pass_stats(report: dict) -> dict:
    """Wall time and latencies of one pass, scaled to the reference speed."""
    rows = report["rows"]
    factors = calibrate.scale_factors(
        report["slices"], [(r["start"], r["start"] + r["latency"]) for r in rows])
    scaled = [r["latency"] * f for r, f in zip(rows, factors)]
    value, percentile, n = tail(scaled)
    return {
        "wall_s": sum(scaled),
        "raw_wall_s": sum(r["latency"] for r in rows),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_tail_ms": value * 1e3,
        "percentile": percentile,
        "n": n,
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
    }


def pass_inputs(workload: str, seed: int, pass_index: int, reference: dict):
    if workload == "interactive":
        return ("cli",) + workloads.interactive(seed, pass_index)
    if workload == "ladder":
        return ("cli",) + workloads.ladder(seed, pass_index)
    sizes = {"rs": len(reference["rs"]), "dds": len(reference["dds"])}
    return ("sweep",) + workloads.sweep(seed, pass_index, sizes)


def check_pass(kind: str, docs: dict, report: dict, reference: dict) -> list:
    if kind == "sweep":
        return checker.check_sweep(report["rows"], reference)
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from uendo.cli import parse

    return checker.check_cli(report["sent"], report["rows"], docs, reference["cli"], parse)


def reports_digest(kind: str, report: dict, reference: dict):
    """SHA-256 over the fixed reports of a pass, their number, and how many
    are byte-identical to the reference (CLI reports; the reference keeps
    only digests of sweep results)."""
    whole, fixed, same = hashlib.sha256(), 0, 0
    for request, row in sorted(zip(report["sent"], report["rows"]), key=lambda p: p[1]["id"]):
        if request.get("doc", "").startswith("gen/"):
            continue
        text = row["out"] if kind == "cli" else json.dumps(
            {k: v for k, v in row.items() if k not in ("start", "latency")}, sort_keys=True)
        sha = hashlib.sha256(text.encode()).hexdigest()
        whole.update(("%s %s\n" % (row["id"], sha)).encode())
        fixed += 1
        same += sha == reference["cli"].get(row["id"], {}).get("sha256")
    return whole.hexdigest(), fixed, same


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    if not (ROOT / "src" / "uendo" / "cli.py").is_file():
        print("no uendo sources at %s" % (ROOT / "src" / "uendo"), file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in declared["workloads"]}

    print("# python %s on %s (%s), nproc %d" % (
        platform.python_version(), platform.machine(), platform.platform(),
        len(os.sched_getaffinity(0))))
    print("# commit %s; reference made at %s" % (git_commit(), reference["commit"]))
    print("# workload %s, seed %d, %g s, trace %d: %s" % (
        args.workload, args.seed, args.seconds, args.trace, why[args.workload]))
    for layer_metric, moves, where, stays in PREDICTIONS:
        if args.workload in where or args.workload in stays:
            print("# predicted: %s moves %s on %s%s" % (
                layer_metric, moves, where, "; not on " + stays if stays else ""))

    # import timings feed only setup_s, which a traced run does not report
    setup_per_pass, setup_min = (0, 0) if args.trace else (SETUP_PER_PASS, SETUP_MIN)
    measure_setup(1)  # may write bytecode caches; not counted
    setup = []
    work = HERE / ".work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir(parents=True, exist_ok=True)
    passes, traced_passes, failures = [], [], []
    attempted = 0
    crashed = None
    try:
        deadline = perf_counter() + args.seconds
        pass_index = 0
        while crashed is None and (pass_index == 0 or perf_counter() < deadline):
            setup += measure_setup(setup_per_pass)
            kind, docs, requests = pass_inputs(args.workload, args.seed, pass_index, reference)
            # a traced pass repeats the untraced pass's inputs, for the overhead ratio
            for trace in (False, True)[:1 + args.trace]:
                attempted += len(requests)
                try:
                    report = run_pass(work, kind, docs, requests, trace,
                                      max(RUN_LIMIT_S - (perf_counter() - started), 1))
                except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
                    crashed = "pass %d: %s" % (pass_index, error)
                    failures += [(r["id"], "pass did not complete") for r in requests]
                    break
                failures += check_pass(kind, docs, report, reference)
                (traced_passes if trace else passes).append(report)
            pass_index += 1
        setup += measure_setup(max(setup_min - len(setup), 0))
        digest_line = reports_digest(kind, passes[0], reference) if passes else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any((HERE / ".work").iterdir()):
            (HERE / ".work").rmdir()

    stats = [pass_stats(p) for p in passes]
    lines = []
    metrics = {}
    if stats and not args.trace:
        values = {name: statistics.median(s[name] for s in stats) for name, _ in END_TO_END[1:]}
        values["setup_s"] = statistics.median(t for t, _ in setup)
        raw = {"setup_s": statistics.median(r for _, r in setup),
               "wall_s": statistics.median(s["raw_wall_s"] for s in stats)}
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            note = ""
            if name in raw:
                note = "  (unscaled %.6f)" % raw[name]
            if name == "latency_tail_ms":
                note = "  (p%.2f of %d requests per pass)" % (stats[0]["percentile"], stats[0]["n"])
            lines.append("%-16s %14.6f %s%s" % (name, values[name], unit, note))
        lines.append("passes %d; medians over passes; times scaled to a kernel slice of %g s"
                     % (len(stats), calibrate.REFERENCE_S))
    if stats and traced_passes:
        derived = [tracer.derive(p["spans"]) for p in traced_passes]
        for name in tracer.metric_names():
            value = statistics.median_low(d[name] for d in derived)
            metrics[name] = {"value": value, "unit": tracer.metric_unit(name)}
        traced = [pass_stats(p)["wall_s"] for p in traced_passes]
        overhead = statistics.median(t / s["wall_s"] for t, s in zip(traced, stats)) - 1
        metrics["trace.overhead_share"] = {"value": overhead, "unit": "share"}
        for layer in tracer.LAYERS:
            lines.append("%-16s %14.6f s self time" % (layer, metrics[layer + ".self_s"]["value"]))
        lines.append("trace.overhead_share %.4f (traced wall %.4f s against untraced %.4f s)" % (
            overhead, statistics.median(traced), statistics.median(s["wall_s"] for s in stats)))
        if traced_passes[0]["untraced"]:
            lines.append("not traced (missing): %s" % ", ".join(traced_passes[0]["untraced"]))

    for line in lines:
        print(line)
    print("failed_share     %14.6f  (%d of %d requests over %d passes)" % (
        len(failures) / max(attempted, 1), len(failures), attempted,
        len(passes) + len(traced_passes)))
    if digest_line:
        sha, fixed, same = digest_line
        print("reports_sha256   %s  (%d fixed reports%s)" % (
            sha, fixed, ", %d byte-identical to reference" % same if kind == "cli" else ""))
    for request_id, reason in failures[:10]:
        print("FAILED %s: %s" % (request_id, reason))
    if crashed:
        print("CRASHED %s" % crashed)
    result = {
        "correct": not failures and crashed is None,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
