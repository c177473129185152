"""Remake perfbench/reference.json from the checkout's current sources.

    python3 perfbench/make_reference.py

Runs every fixed request once (the fixtures, the small endoscopy and tadic
tables, `check`, the ladder, and every member of the sweep families) and
records, per request, the exit code and a digest of each report field, the
SHA-256 of each CLI report, and the i-values and result digests of the
sweep.  Remake it only at a commit whose outputs are known to be right:
the benchmark counts every later difference as a failed request.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import checker
import run
import workloads


def main() -> int:
    work = run.HERE / ".work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        docs, requests = workloads.fixed_cli_requests()
        report = run.run_pass(work, "cli", docs, requests, False, 600)
        cli = {}
        for request, row in zip(requests, report["rows"]):
            if row["exc"] is not None or row["code"] not in checker.OK_EXIT_CODES:
                raise SystemExit("%s: %s" % (row["id"], row["exc"] or row["code"]))
            cli[row["id"]] = {
                "exit": row["code"],
                "fields": checker.field_digests(request["argv"][0], row["out"])
                if row["code"] == 0 else {},
                "sha256": hashlib.sha256(row["out"].encode()).hexdigest(),
            }

        sys.path.insert(0, str(run.ROOT / "src"))
        families = workloads.build_sweep_families()
        sweep = [{"id": "%s/%d" % (op, i), "op": op, "index": i}
                 for op in ("ie", "rs", "dds") for i in range(len(families[op]))]
        rows = run.run_pass(work, "sweep", {}, sweep, False, 600)["rows"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    out = {"commit": run.git_commit(), "cli": cli, "ie": [], "rs": [], "dds": []}
    for row in rows:
        op = row["id"].split("/")[0]
        if row["exc"] is not None:
            raise SystemExit("%s: %s" % (row["id"], row["exc"]))
        if op == "ie":
            if row["i"] != row["e"]:
                raise SystemExit("%s: i != e" % row["id"])
            out["ie"].append(row["i"])
        else:
            if op == "rs" and not (row["fibers_constant"] and row["spectral_identity"]):
                raise SystemExit("%s: relative-sign flags are false" % row["id"])
            out[op].append(row["digest"])
    run.REFERENCE.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print("wrote %s: %d CLI reports, %d/%d/%d sweep entries" % (
        run.REFERENCE, len(cli), len(out["ie"]), len(out["rs"]), len(out["dds"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
