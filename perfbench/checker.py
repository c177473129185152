"""Output checks for the benchmark's requests.

Fixed inputs (fixtures, ladder, the sweep families) are compared with
reference digests of each report field taken when `reference.json` was
made; extra fields are allowed, as the v1 schema allows them.  Seeded
documents are checked by the CLI contract and the paper's identities.
`check_cli` and `check_sweep` return one (request id, reason) per failed
request.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

OK_EXIT_CODES = (0, 1, 2)
_ANSWERED_IF_FACTORING = ("centralizer", "arthur", "epsilon", "multiplicity")


def digest(value) -> str:
    """Short SHA-256 of the canonical JSON of a value."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_fields(command: str, stdout: str) -> dict:
    """The report's top-level fields; `print` reports its text."""
    if command == "print":
        return {"text": stdout}
    return json.loads(stdout)


def field_digests(command: str, stdout: str) -> dict:
    return {key: digest(value) for key, value in report_fields(command, stdout).items()}


def _fraction(value) -> Fraction:
    return Fraction(value["num"], value["den"])


def _check_reference(request, row, ref):
    if ref is None:
        return "no reference for a fixed request"
    if row["code"] != ref["exit"]:
        return "exit %s, reference %s" % (row["code"], ref["exit"])
    if row["code"] != 0:
        return None
    try:
        got = field_digests(request["argv"][0], row["out"])
    except ValueError:
        return "stdout is not JSON"
    for key, want in ref["fields"].items():
        if got.get(key) != want:
            return "field %r differs from reference" % key
    return None


def _check_document(doc_text, rows, parse):
    """Identities across one document's reports; rows maps command -> row.
    Returns {command: reason} for the requests that break them."""
    bad = {}
    reports = {}
    for command, row in rows.items():
        if row["code"] == 0:
            try:
                reports[command] = report_fields(command, row["out"])
            except ValueError:
                bad[command] = "stdout is not JSON"
    for command in ("classify", "print"):
        if command in rows and rows[command]["code"] != 0:
            bad[command] = "exit %s on a well-formed document" % rows[command]["code"]
    if "classify" in reports:
        factoring = reports["classify"]["factors_through"]
        for command in _ANSWERED_IF_FACTORING:
            if command in rows and rows[command]["code"] != (0 if factoring else 2):
                bad[command] = "exit %s, but factors_through is %s" % (
                    rows[command]["code"], factoring)
    if "arthur" in reports:
        for row in reports["arthur"]["components"]:
            if row["i"] != row["e"]:
                bad["arthur"] = "i != e on component %r" % (row["component"],)
    if all(c in reports for c in ("multiplicity", "epsilon", "arthur", "centralizer")):
        want = (reports["epsilon"]["value_at_s_psi"] * _fraction(reports["arthur"]["sigma_bar0"])
                / reports["centralizer"]["component_group_order"])
        if _fraction(reports["multiplicity"]["stable_coefficient"]) != want:
            bad["multiplicity"] = "stable_coefficient != value_at_s_psi * sigma_bar0 / order"
    if "print" in reports:
        try:
            same = parse(reports["print"]["text"]) == parse(doc_text)
        except Exception as error:  # the printed document does not parse
            same = False
            bad["print"] = "printed document does not parse: %s" % error
        if not same:
            bad.setdefault("print", "parse(print_document(d)) != d")
    return bad


def check_cli(requests, rows, docs, reference, parse):
    """Check every CLI row.  `reference` maps request ids of fixed requests to
    {"exit", "fields"}; `parse` is the program's document parser."""
    failures = {}
    by_doc = {}
    for request, row in zip(requests, rows):
        if row["exc"] is not None:
            failures[row["id"]] = "raised %s" % row["exc"]
            continue
        if row["code"] not in OK_EXIT_CODES:
            failures[row["id"]] = "exit %s" % row["code"]
            continue
        doc = request.get("doc")
        if doc is None or not doc.startswith("gen/"):
            reason = _check_reference(request, row, reference.get(row["id"]))
            if reason:
                failures[row["id"]] = reason
        if doc is not None:
            by_doc.setdefault(doc, {})[request["argv"][0]] = (request, row)
    for doc, entries in by_doc.items():
        try:
            bad = _check_document(docs[doc], {c: row for c, (_, row) in entries.items()}, parse)
        except (KeyError, TypeError, ValueError) as error:  # a report lacks a field it had
            bad = {c: "report fields unreadable: %r" % (error,) for c in entries}
        for command, reason in bad.items():
            failures.setdefault(entries[command][1]["id"], reason)
    return sorted(failures.items())


def check_sweep(rows, reference):
    """Check sweep rows against the reference families."""
    failures = []
    for row in rows:
        if row["exc"] is not None:
            failures.append((row["id"], "raised %s" % row["exc"]))
            continue
        op, index = row["id"].split("/")
        want = reference[op][int(index)]
        if op == "ie":
            if row["i"] != row["e"]:
                failures.append((row["id"], "i != e"))
            elif row["i"] != want:
                failures.append((row["id"], "i = %s, reference %s" % (row["i"], want)))
        elif op == "rs" and not (row["fibers_constant"] and row["spectral_identity"]):
            failures.append((row["id"], "relative-sign flags are false"))
        elif row["digest"] != want:
            failures.append((row["id"], "result differs from reference"))
    return failures
