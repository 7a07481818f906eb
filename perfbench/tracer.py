"""Span recorder that wraps e8voa functions from outside the package.

``install`` replaces each target function at every binding site: every
``e8voa.*`` module attribute (and every attribute of the extra modules
given) that *is* the original object, and every class attribute that is,
which catches ``from ... import`` copies and aliases such as
``Cyclotomic.__rmul__``.  ``lru_cache`` objects keep their ``cache_info``
on the wrapper.  Spans (name, parent, start, end) are kept in memory in
flat arrays and written out by ``dump``; ``aggregate`` turns them into
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array


def _cells(args, result):
    mat = args[0]
    return len(mat) * (len(mat[0]) if mat else 0)


def _int_cells(args, result):
    return len(args[0]) * args[1]


def _rows(args, result):
    return len(result)


# (module, attribute path, span name, named counts computed from (args, result))
TARGETS = [
    ("lattice", "enumerate_short", "lattice.enumerate_short", {"hits": _rows}),
    ("lattice", "coset_min_norm", "lattice.coset_min_norm", {}),
    ("lattice", "count_X_eta", "lattice.count_X_eta", {}),
    ("lattice", "size_reduce_basis", "lattice.size_reduce_basis", {}),
    ("griess", "product", "griess.product", {}),
    ("griess", "inner", "griess.inner", {}),
    ("griess", "conformal_check", "griess.conformal_check", {}),
    ("griess", "module_act", "griess.module_act", {}),
    ("griess", "ModuleSpace.act_matrix", "griess.ModuleSpace.act_matrix", {}),
    ("griess", "ModuleSpace.__init__", "griess.ModuleSpace.init", {}),
    ("griess", "tau_from_matrix", "griess.tau_from_matrix", {}),
    ("griess", "coset_U2", "griess.coset_U2", {}),
    ("griess", "generated_closure_coords", "griess.generated_closure_coords", {}),
    ("griess", "e8_context", "griess.e8_context", {}),
    ("griess", "build_node_family", "griess.build_node_family", {}),
    ("griess", "build_hamming_family", "griess.build_hamming_family", {}),
    ("linalg", "kernel_basis", "linalg.kernel_basis", {"cells": _cells}),
    ("linalg", "kernel_basis_int", "linalg.kernel_basis_int", {"cells": _int_cells}),
    ("linalg", "rref", "linalg.rref", {}),
    ("linalg", "invert", "linalg.invert", {}),
    ("linalg", "hermite_normal_form", "linalg.hermite_normal_form", {}),
    ("scalars", "Cyclotomic.__init__", "scalars.Cyclotomic.init", {}),
    ("scalars", "Cyclotomic.__mul__", "scalars.Cyclotomic.mul", {}),
    ("scalars", "Cyclotomic.__add__", "scalars.Cyclotomic.add", {}),
    ("scalars", "Cyclotomic.inverse", "scalars.Cyclotomic.inverse", {}),
    ("mckay", "direct_inner", "mckay.direct_inner", {}),
    ("mckay", "counting_formula_inner", "mckay.counting_formula_inner", {}),
    ("mckay", "dihedral_check", "mckay.dihedral_check", {}),
    ("mckay", "conway_report", "mckay.conway_report", {}),
    ("leech", "build_leech", "leech.build_leech", {}),
    ("leech", "certify_minimum", "leech.certify_minimum", {}),
    ("leech", "embed_sqrt2E8_cubed", "leech.embed_sqrt2E8_cubed", {}),
    ("leech", "block_norm4_count", "leech.block_norm4_count", {}),
    ("leech", "sigma_tilde_order", "leech.sigma_tilde_order", {}),
    ("codes", "named_code", "codes.named_code", {}),
    ("codes", "is_type_II", "codes.is_type_II", {}),
    ("codes", "construction_A", "codes.construction_A", {}),
    ("codes", "residue_code_B", "codes.residue_code_B", {}),
    ("rootsys", "extended_e8_node", "rootsys.extended_e8_node", {}),
    ("rootsys", "build_root_system", "rootsys.build_root_system", {}),
]

# lru_cache objects whose cache_info() is read at the end of the run
CACHES = [("griess", "build_node_family"), ("rootsys", "extended_e8_node")]

SECTION = "section"


class Recorder:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = []
        self._active = {}

    def _id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self._active[name] = 0
        return self.name_ids[name]

    def span(self, name, fn, counters=None, args=()):
        """Run fn(*args) inside a span; counters add named counts."""
        nid = self._id(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if self._active[name] else 0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self._active[name] += 1
        self.start[idx] = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            self.end[idx] = time.perf_counter()
            self._active[name] -= 1
            self._stack.pop()
        if counters:
            for stat, count in counters.items():
                key = f"{name}.{stat}"
                self.counts[key] = self.counts.get(key, 0) + count(args, result)
        return result

    def wrap(self, original, name, counters):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if kwargs:
                return self.span(name, lambda *a: original(*a, **kwargs),
                                 counters, args)
            return self.span(name, original, counters, args)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(original, attr):
                setattr(traced, attr, getattr(original, attr))
        return traced

    def install(self, extra_modules=()):
        """Wrap every target at every binding site."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "e8voa" or n.startswith("e8voa.")) and m is not None]
        modules += list(extra_modules)
        classes = [v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("e8voa")]
        for mod_name, path, name, counters in TARGETS:
            owner = importlib.import_module(f"e8voa.{mod_name}")
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = (vars(owner)[parts[-1]] if isinstance(owner, type)
                        else getattr(owner, parts[-1]))
            traced = self.wrap(original, name, counters)
            for holder in modules + classes:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, traced)

    def dump(self, path):
        caches = {}
        for mod_name, attr in CACHES:
            info = getattr(importlib.import_module(f"e8voa.{mod_name}"),
                           attr).cache_info()
            caches[f"{mod_name}.{attr}.hits"] = info.hits
            caches[f"{mod_name}.{attr}.misses"] = info.misses
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name_of": list(self.name_of),
                       "parent": list(self.parent), "nested": list(self.nested),
                       "start": list(self.start), "end": list(self.end),
                       "counts": self.counts, "caches": caches}, fh)


def aggregate(data) -> dict:
    """Per-name calls, incl_s (outermost spans only) and self_s.

    Self time is a span's duration minus the time its child spans cover;
    the program is single-threaded, so child spans never overlap.
    """
    names = data["names"]
    start, end, parent = data["start"], data["end"], data["parent"]
    covered = [0.0] * len(start)
    for idx, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[idx] - start[idx]
    stats = {}
    for idx, nid in enumerate(data["name_of"]):
        s = stats.setdefault(names[nid], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        dur = end[idx] - start[idx]
        s["calls"] += 1
        s["self_s"] += dur - covered[idx]
        if not data["nested"][idx]:
            s["incl_s"] += dur
    return stats
