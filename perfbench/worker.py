"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC names the checkout root, the request list and whether to trace.  The
worker imports `uendo` from the checkout's `src/`, runs every request once
as a closed loop with one client, timing each request alone, and writes
one JSON line per request, then one with its peak resident memory, the
calibration slices and (when traced) the spans.
Between requests, at most every SLICE_EVERY_S seconds, it times one
calibration slice (`calibrate.py`) so that the runner can scale request
times to the machine's speed at the moment they ran.
CLI requests call `uendo.cli.main(argv)` with stdout and stderr captured.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import pathlib
import resource
import sys
from time import perf_counter

from calibrate import slice_seconds
from checker import digest

SLICE_EVERY_S = 0.02


def _peak_rss_kb() -> int:
    """This process's own resident high-water mark.  On Linux, ru_maxrss
    of a spawned child also counts the parent's memory at the spawn, so
    VmHWM is read instead where it exists."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _import_uendo(root: pathlib.Path):
    sys.path.insert(0, str(root / "src"))
    import uendo.cli

    where = pathlib.Path(uendo.cli.__file__).resolve()
    if root / "src" not in where.parents:
        raise SystemExit("uendo imported from %s, not from the checkout" % where)
    return uendo


def _cli_call(uendo, request):
    argv = request["argv"]
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return uendo.cli.main(argv)

    def summary(code):
        return {"code": code, "out": out.getvalue(), "err": err.getvalue()}

    return call, summary


def _sweep_call(uendo, families, request):
    op, index = request["op"], request["index"]
    if op == "ie":
        datum = families["ie"][index]

        def call():
            return uendo.weylnum.i_number(datum), uendo.weylnum.e_number(datum)

        def summary(result):
            return {"i": str(result[0]), "e": str(result[1])}
    elif op == "rs":
        psi, tag, table = families["rs"][index]

        def call():
            return uendo.signs.relative_signs(psi, tag, table)

        def summary(rec):
            return {
                "fibers_constant": rec.fibers_constant,
                "spectral_identity": rec.spectral_identity,
                "digest": digest([
                    sorted([repr(k), v] for k, v in rec.eps1.items()),
                    sorted([repr(k), v] for k, v in rec.eps_gm.items()),
                    sorted([repr(k), v] for k, v in rec.r_minus.items()),
                ]),
            }
    else:
        seed, tag, table, places = families["dds"][index]

        def call():
            return uendo.multiplicity.decompose_discrete_spectrum(seed, tag, table, places)

        def summary(lines):
            return {"digest": digest([[repr(l.psi), l.members_selected, l.members_total]
                                      for l in lines])}
    return call, summary


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(pathlib.Path(spec_path).read_text())
    uendo = _import_uendo(pathlib.Path(spec["root"]))
    if spec["kind"] == "sweep":
        import uendo.multiplicity
        import uendo.signs
        import uendo.weylnum
        from workloads import build_sweep_families

        families = build_sweep_families()
        make_call = functools.partial(_sweep_call, uendo, families)
    else:
        make_call = functools.partial(_cli_call, uendo)

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    slices = []
    next_slice = 0.0
    # each row is written, and its result dropped, as soon as its request
    # ends, so that no earlier output is held in memory and peak_rss_kb is
    # the program's own
    with open(result_path, "w") as result_file:
        for index, request in enumerate(spec["requests"]):
            call, summary = make_call(request)
            if perf_counter() >= next_slice:
                slices.append((perf_counter(), slice_seconds()))
                next_slice = perf_counter() + SLICE_EVERY_S
            if tracer:
                tracer.request = index
            exc = None
            result = None
            t0 = perf_counter()
            try:
                result = call()
            except Exception as error:  # a failed request is recorded, not fatal
                exc = "%s: %s" % (type(error).__name__, error)
            except SystemExit as error:
                exc = "SystemExit: %s" % (error.code,)
            latency = perf_counter() - t0
            row = {"id": request["id"], "start": t0, "latency": latency, "exc": exc}
            if exc is None or spec["kind"] == "cli":
                try:
                    row.update(summary(result))
                except Exception as error:  # the result lacks what the checker reads
                    row["exc"] = "summary: %s: %s" % (type(error).__name__, error)
            result_file.write(json.dumps(row) + "\n")
            del call, summary, result, row

        slices.append((perf_counter(), slice_seconds()))
        peak_rss_kb = _peak_rss_kb()
        if tracer:
            tracer.uninstall()
        result_file.write(json.dumps({
            "slices": slices,
            "peak_rss_kb": peak_rss_kb,
            "spans": tracer.export() if tracer else None,
            "untraced": tracer.missing if tracer else [],
        }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
