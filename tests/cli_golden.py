"""The CLI's golden corpus: one sha256 per request of its (exit code,
stdout, stderr), and one per input of its bytes, kept in `tests/golden/`.

The corpus is the benchmark's fixed requests
(`perfbench/workloads.fixed_cli_requests()`), every document command on the
generated documents of two interactive seeds, and the input-reading cases:
a directory, a missing file, a NUL in the path, CRLF, lone CR, non-UTF-8,
over 64 KiB and empty.  Inputs are written under relative names in the
current directory, so no refusal line depends on where the corpus lives.

Run as a script from anywhere to write the digests again, after a change
that alters reports on purpose:

    PYTHONPATH=src python3 tests/cli_golden.py
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import pathlib
import sys
import tempfile

from uendo import cli

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
INPUTS, REQUESTS = GOLDEN / "inputs.sha256", GOLDEN / "requests.sha256"
SEEDS = (4101, 4102)


def load_workloads():
    """`perfbench/workloads.py`, loaded from its file: `perfbench` is a
    directory of scripts, not a package."""
    path = HERE.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read_cases(fixture: str) -> dict:
    """The input-reading cases: name -> bytes written, or None when the
    name is a directory, or absent for a path that is never written."""
    text = fixture.encode()
    return {"read/crlf": text.replace(b"\n", b"\r\n"),
            "read/cr": text.replace(b"\n", b"\r"),
            "read/non-utf8": b"group U(1) parity +\n# \xff\n" + text,
            "read/large": text + b"#" + b"x" * (70 * 1024) + b"\n",
            "read/empty": b"",
            "read/directory": None}


def corpus(workloads):
    """(inputs, requests): inputs maps a relative path to its bytes (None
    for a directory), and requests is a list of (id, argv) in corpus order."""
    docs, fixed = workloads.fixed_cli_requests()
    inputs = {name: text.encode() for name, text in docs.items()}
    requests = [(r["id"], r["argv"] + [r["doc"]] if "doc" in r else r["argv"]) for r in fixed]
    for seed in SEEDS:
        generated = {"s%d/%s" % (seed, name): text
                     for name, text in workloads.interactive(seed, 0)[0].items()
                     if name.startswith("gen/")}
        inputs.update((name, text.encode()) for name, text in generated.items())
        requests += [("%s %s" % (command, name), [command, "--input", name])
                     for name in generated for command in workloads.DOC_COMMANDS]
    reads = _read_cases(docs["fixtures/doc01"])
    inputs.update(reads)
    paths = dict(zip(reads, reads))
    paths.update({"read/missing": "read/missing", "read/nul": "read/nul\0"})
    requests += [("%s %s" % (command, name), [command, "--input", path])
                 for name, path in paths.items() for command in workloads.DOC_COMMANDS]
    return inputs, requests


def write_inputs(inputs: dict) -> None:
    """Write each input under its relative name in the current directory."""
    for name, data in inputs.items():
        path = pathlib.Path(name)
        if data is None:
            path.mkdir(parents=True)
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def input_digests(inputs: dict) -> dict:
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in inputs.items() if data is not None}


def run(requests) -> dict:
    """id -> sha256 of repr((exit code, stdout, stderr)), each request run
    in-process through `cli.main`, in the order given."""
    digests = {}
    for request_id, argv in requests:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        outcome = repr((code, out.getvalue(), err.getvalue()))
        digests[request_id] = hashlib.sha256(outcome.encode()).hexdigest()
    return digests


def read(path: pathlib.Path) -> dict:
    """A digest file as name -> digest: one '<sha256>  <name>' per line."""
    return dict(line.split("  ", 1)[::-1] for line in path.read_text().splitlines())


def _write(path: pathlib.Path, digests: dict) -> None:
    path.write_text("".join("%s  %s\n" % (digest, name) for name, digest in digests.items()))


def main() -> int:
    inputs, requests = corpus(load_workloads())
    with tempfile.TemporaryDirectory() as root:
        os.chdir(root)
        write_inputs(inputs)
        digests = run(requests)
        os.chdir(HERE)
    GOLDEN.mkdir(exist_ok=True)
    _write(INPUTS, input_digests(inputs))
    _write(REQUESTS, digests)
    print("%d inputs, %d requests" % (len(inputs), len(digests)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
