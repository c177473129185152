"""Spans around the public functions of each uendo layer, installed from outside.

`Tracer.install` replaces each traced function, by identity, in every
`uendo.*` module namespace that binds it (names brought in by
`from ... import` included) and in module-level dicts; a traced method is
replaced on its class.  Spans stay in memory until `export`, and `derive`
turns exported spans into the per-layer metrics.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter

from workloads import weyl_order

# (layer, qualified name) in a fixed order; a span stores the index
TRACED = tuple(
    (layer, name)
    for layer, names in (
        ("cli", ("main", "parse", "elaborate", "print_document", "report_classify",
                 "report_centralizer", "report_arthur", "report_endoscopy", "report_epsilon",
                 "report_multiplicity", "report_tadic", "run_check")),
        ("params", ("classify", "factors_through")),
        ("weylnum", ("i_number", "e_number", "sigma", "elliptic_classes")),
        ("centralizer", ("centralizer_shape", "component_group", "levi_diagram",
                         "NormalizerModel.elements")),
        ("signs", ("epsilon_character", "relative_signs")),
        ("multiplicity", ("stable_coefficient", "enumerate_members", "spectral_multiplicity",
                          "decompose_discrete_spectrum")),
        ("endoscopy", ("enumerate_standard", "enumerate_twisted")),
        ("tadic", ("expand", "tempered_part")),
        ("checks", ("run_all",)),
    )
    for name in names
)
LAYERS = tuple(dict.fromkeys(layer for layer, _ in TRACED))

# What a span keeps from its arguments or result, read when spans are exported.
_KEEP_ARG = {"weylnum.i_number", "weylnum.sigma"}
_RESULT_LEN = {"centralizer.NormalizerModel.elements", "multiplicity.enumerate_members"}


class Tracer:
    """Records spans [name index, parent, start, end, failed, request, attr]."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []
        self._undo = []
        self.missing = []

    def _wrap(self, index, fn, full_name):
        spans, stack = self.spans, self._stack
        keep_arg = full_name in _KEEP_ARG
        result_len = full_name in _RESULT_LEN
        perms = full_name == "tadic.expand"

        def traced(*args, **kwargs):
            record = [index, stack[-1] if stack else -1, 0.0, 0.0, 0, self.request,
                      args[0] if keep_arg else None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[4] = 1
                raise
            finally:
                record[3] = perf_counter()
                stack.pop()
            if result_len:
                record[6] = len(result)
            elif perms:
                record[6] = math.factorial(args[1])
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import uendo.checks  # noqa: F401  (imported lazily by the CLI)
        import uendo.cli  # noqa: F401

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "uendo" or name.startswith("uendo."))]
        for index, (layer, name) in enumerate(TRACED):
            home = sys.modules.get("uendo." + layer)
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append("%s.%s" % (layer, name))
                continue
            wrapper = self._wrap(index, fn, "%s.%s" % (layer, name))
            if owner_name:
                self._replace(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, key, wrapper)
                    elif isinstance(value, dict):  # a dispatch table binds it too
                        for dkey, dvalue in list(value.items()):
                            if dvalue is fn:
                                self._undo.append((value, dkey, fn))
                                value[dkey] = wrapper

    def _replace(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, key, fn in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._undo.clear()

    def export(self) -> list:
        """Spans as JSON-ready lists; kept arguments become counts and keys."""
        out = []
        for index, parent, t0, t1, failed, request, attr in self.spans:
            layer, name = TRACED[index]
            if "%s.%s" % (layer, name) == "weylnum.i_number":
                order = weyl_order([(f.kind, f.size) for f in attr.base.factors])
                attr = {"weyl_order": order, "key": repr(attr)}
            elif "%s.%s" % (layer, name) == "weylnum.sigma":
                attr = {"key": repr(attr)}
            out.append([index, parent, t0, t1, failed, request, attr])
        return out


def self_times(spans) -> list:
    """Per span: its duration minus the durations of its direct children.
    Spans nest (one thread), so children never overlap each other."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child[span[1]] += span[3] - span[2]
    return [span[3] - span[2] - c for span, c in zip(spans, child)]


def metric_names() -> list:
    """Every per-layer metric, in a fixed order."""
    names = []
    for layer, name in TRACED:
        names += ["%s.%s.calls" % (layer, name), "%s.%s.self_s" % (layer, name)]
    for layer in LAYERS:
        names += ["%s.self_s" % layer, "%s.errors" % layer]
    names += [
        "weylnum.i_number.weyl_order",
        "centralizer.NormalizerModel.elements.n",
        "multiplicity.enumerate_members.n",
        "tadic.expand.perms",
        "weylnum.i_number.repeat_share",
        "weylnum.sigma.repeat_share",
    ]
    return names


def derive(spans) -> dict:
    """Per-layer metrics of one traced pass, from its exported spans."""
    metrics = {name: 0 for name in metric_names()}
    selfs = self_times(spans)
    seen = {"weylnum.i_number": set(), "weylnum.sigma": set()}
    repeats = {"weylnum.i_number": 0, "weylnum.sigma": 0}
    for span, self_s in zip(spans, selfs):
        layer, name = TRACED[span[0]]
        full = "%s.%s" % (layer, name)
        metrics[full + ".calls"] += 1
        metrics[full + ".self_s"] += self_s
        metrics[layer + ".self_s"] += self_s
        metrics[layer + ".errors"] += span[4]
        attr = span[6]
        if full in seen:
            key = attr["key"]
            repeats[full] += key in seen[full]
            seen[full].add(key)
        if full == "weylnum.i_number":
            metrics["weylnum.i_number.weyl_order"] += attr["weyl_order"]
        elif full in _RESULT_LEN and attr is not None:
            metrics[full + ".n"] += attr
        elif full == "tadic.expand" and attr is not None:
            metrics["tadic.expand.perms"] += attr
    for full in repeats:
        calls = metrics[full + ".calls"]
        metrics[full + ".repeat_share"] = repeats[full] / calls if calls else 0.0
    return metrics


def metric_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("repeat_share") or name == "trace.overhead_share":
        return "share"
    return "count"
