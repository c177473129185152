"""The largest input each report budget admits, and the smallest it refuses.

`endoscopy --n` is admitted up to `ENDOSCOPY_MAX_N`, `arthur` up to
`ARTHUR_MAX_ROWS` component rows, `tadic --n` up to `TADIC_MAX_N`, and
`arthur` and `multiplicity` a parameter of up to `PARAMETER_MAX_SIZE`
constituents, which bounds every factor of its centralizer: one label of
multiplicity 256 gives O(256), of rank 128.  The largest `arthur` report
admitted comes from 17 labels of multiplicities 7..23: 255 constituents
and 2^16 rows, each its own class, so no two rows share their i and e.
Each case runs `python -m uendo.cli` in a child process, started by a
small launcher process: on Linux a child's `ru_maxrss` starts from the
resident size of the process that spawned it, which for the launcher is about 18 MB and for
a test runner could be anything.  Each case pins the exit code, stderr (empty, or the one-line
refusal), the byte count and SHA-256 of stdout, a wall-time limit and a
bound on the child's peak resident memory.  The digests are those the
dict-built reports gave before the reports were written from text layouts;
that of `arthur` on the 256-constituent parameter is that of its report
built row by row as a dict, as `test_cli._arthur_oracle` does.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from test_cli import _multiplicities_document, distinct_labels_document
from uendo import cli

SRC = pathlib.Path(cli.__file__).resolve().parents[1]

# Runs argv[1:] with stdout hashed as it arrives, and prints the exit code,
# stderr, the byte count and digest of stdout, the wall time and the child's
# ru_maxrss in kB as one JSON line.
LAUNCHER = """
import hashlib, json, os, subprocess, sys, time
start = time.perf_counter()
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
digest, size = hashlib.sha256(), 0
for chunk in iter(lambda: child.stdout.read(1 << 20), b""):
    digest.update(chunk)
    size += len(chunk)
err = child.stderr.read().decode()
_, status, usage = os.wait4(child.pid, 0)
child.returncode = os.waitstatus_to_exitcode(status)
print(json.dumps({"code": child.returncode, "err": err, "bytes": size,
                  "sha256": digest.hexdigest(), "wall_s": time.perf_counter() - start,
                  "maxrss_kb": usage.ru_maxrss}))
"""


EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
OVER_PARAMETER_BUDGET = ("error: parameter is over the size budget of 256 constituents counted "
                         "with multiplicity\n")

# (argv after `uendo`, a document for --input or None, exit code, stderr,
# stdout bytes, stdout SHA-256, wall limit in s, peak RSS bound in MB)
CASES = {
    "endoscopy at the N budget": (
        ["endoscopy", "--n", "10000"], None, 0, "", 2_952_117,
        "e1b74a4c8ee0ecccd088266d717e39eb0f4ab8b2f64eb0aa324df8dc301715a0", 1.5, 32),
    "endoscopy over the N budget": (
        ["endoscopy", "--n", "10001"], None, 2,
        "error: endoscopy N = 10001 is over the size budget of N <= 10000\n", 0, EMPTY_SHA256,
        1.0, 24),
    "arthur at the row budget, 16 labels of multiplicity 16": (
        ["arthur"], distinct_labels_document(16, 16), 0, "", 44_801_884,
        "7ca6b5129d4e230486f50ca777c4d880d36528826a3b534c71e2981f760efbdc", 1.5, 40),
    "arthur at the row budget, 17 labels of multiplicities 7..23": (
        ["arthur"], _multiplicities_document(range(7, 24)), 0, "", 45_142_313,
        "4702ecf10fa81e2eeeadcf1ded57e372e729c8d85192ba0edb7c3285b448cd3c", 3.0, 72),
    "arthur over the row budget, 17 labels of multiplicity 2": (
        ["arthur"], distinct_labels_document(17, 2), 2,
        "error: arthur has 131072 component rows, over the size budget of 65536 rows\n", 0,
        EMPTY_SHA256, 1.0, 24),
    "arthur at the parameter budget, one label of multiplicity 256": (
        ["arthur"], distinct_labels_document(1, 256), 0, "", 1_593,
        "5b9ba7b33210cdd8a79c863c2ca6cb5bcaa5ac943761d6c515f6ca7bb348688e", 2.0, 24),
    "multiplicity at the parameter budget, one label of multiplicity 256": (
        ["multiplicity"], distinct_labels_document(1, 256), 0, "", 380,
        "72d4f123d7c0d9f07f54b6f42b0e12bb22c4ca1ad37f2ac84bbe94e19f022159", 1.5, 24),
    "arthur over the parameter budget, one label of multiplicity 257": (
        ["arthur"], distinct_labels_document(1, 257), 2, OVER_PARAMETER_BUDGET, 0, EMPTY_SHA256,
        1.0, 24),
    "multiplicity over the parameter budget, one label of multiplicity 257": (
        ["multiplicity"], distinct_labels_document(1, 257), 2, OVER_PARAMETER_BUDGET, 0,
        EMPTY_SHA256, 1.0, 24),
    "tadic at the n budget": (
        ["tadic", "--n", "8", "--k", "2", "--field", "arch"], None, 0, "", 40_194_965,
        "4476047d138279c807eecc668fe70b21119b326ba0d1ec2cce7614846ce66cc1", 1.5, 32),
    "tadic over the n budget": (
        ["tadic", "--n", "9", "--k", "2", "--field", "arch"], None, 2,
        "error: tadic --n 9 is over the size budget of n <= 8\n", 0, EMPTY_SHA256, 1.0, 24),
}


def test_budgets_are_the_ones_pinned():
    assert (cli.ENDOSCOPY_MAX_N, cli.ARTHUR_MAX_ROWS) == (10_000, 2 ** 16)
    assert (cli.PARAMETER_MAX_SIZE, cli.TADIC_MAX_N) == (256, 8)


@pytest.mark.parametrize("name", list(CASES))
def test_budget_edge(name, tmp_path):
    argv, document, code, err, size, sha256, wall_limit_s, rss_bound_mb = CASES[name]
    if document is not None:
        path = tmp_path / "doc.txt"
        path.write_text(document)
        argv = argv + ["--input", str(path)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, "-m", "uendo.cli"]
                          + argv, capture_output=True, text=True, env=env, timeout=60,
                          check=True)
    result = json.loads(done.stdout)
    assert (result["code"], result["err"]) == (code, err)
    assert (result["bytes"], result["sha256"]) == (size, sha256)
    assert result["wall_s"] < wall_limit_s, result
    assert result["maxrss_kb"] < rss_bound_mb * 1024, result
