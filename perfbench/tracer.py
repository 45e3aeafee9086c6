"""Span tracing installed from outside the engine.

`Tracer.install` replaces the public entry points of each module in
`hopfcyclic` with wrappers that record one span per call: the layer group,
start, end, and the index of the enclosing span.  A function is replaced
wherever a module of the package holds it, including inside module-level
tuples, because `cocyclic`, `cup` and `cli` import names from the modules
that define them.  Spans stay in memory; `dump` hands them out at the end.

Self time is a span's duration minus the durations of its direct children.
The engine is single-threaded, so children never overlap.

An entry point that no longer resolves raises `MissingEntryPoint` naming it:
a renamed function must fail the traced run, never report zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

import numpy as np

CLOCK = time.monotonic  # system-wide on Linux, so child-process spans merge

# Layer group -> entry points, as "module:function" or "module:Class.method".
ENTRY_POINTS = {
    "linalg.compose": ("linalg:LinearMap.__matmul__", "linalg:LinearMap.__add__",
                       "linalg:LinearMap.__sub__", "linalg:LinearMap.scale"),
    "linalg.tensor": ("linalg:tensor_map", "linalg:tensor_permutation",
                      "linalg:hom_precompose", "linalg:hom_postcompose"),
    "linalg.apply": ("linalg:LinearMap.apply", "linalg:LinearMap.column"),
    "linalg.elim": ("linalg:rref", "linalg:kernel_basis", "linalg:solve",
                    "linalg:cokernel", "linalg:solve_constrained_subspace",
                    "linalg:LinearMap.kernel", "linalg:LinearMap.rank",
                    "linalg:LinearMap.inverse"),
    "linalg.convert": ("linalg:LinearMap.fractions", "linalg:LinearMap.from_rows",
                       "linalg:LinearMap.from_entries", "linalg:stack_vertical",
                       "linalg:from_blocks"),
    "hopf.check": ("hopf:check_algebra", "hopf:check_coalgebra",
                   "hopf:check_hopf_axioms", "hopf:check_module",
                   "hopf:check_comodule", "hopf:check_module_algebra",
                   "hopf:check_module_coalgebra", "hopf:check_comodule_algebra",
                   "hopf:check_coalgebra_action"),
    "coefficients.check": ("coefficients:check_sayd_module",
                           "coefficients:check_sayd_contramodule",
                           "coefficients:check_compatible_pair"),
    "cocyclic.build.plain": ("cocyclic:plain_algebra_cocyclic",),
    "cocyclic.build.coalgebra": ("cocyclic:coalgebra_cocyclic",),
    "cocyclic.build.algebra_module": ("cocyclic:algebra_module_cocyclic",),
    "cocyclic.build.comodule_algebra": ("cocyclic:comodule_algebra_cocyclic",),
    "cocyclic.build.algebra_contra": ("cocyclic:algebra_contra_cocyclic",),
    "cocyclic.verify": ("cocyclic:verify_cocyclic",),
    "cocyclic.mixed": ("cocyclic:mixed_complex", "cocyclic:check_mixed_complex"),
    "cocyclic.hh": ("cocyclic:hochschild_cohomology",),
    "cocyclic.hc": ("cocyclic:cyclic_cohomology",),
    "cocyclic.coboundary": ("cocyclic:full_b", "cocyclic:full_B"),
    "cup.setup": ("cup:ac_cup_setup", "cup:aa_cup_setup"),
    "cup.comparison": ("cup:psi_matrix", "cup:phi_matrix"),
    "cup.comparison_check": ("cup:check_psi", "cup:check_phi",
                             "cup:check_collapse_factorization"),
    "cup.total": ("cup:total_complex", "cup:check_total_mixed_complex"),
    "cup.aw": ("cup:check_aw_chain_map",),
    "cup.product": ("cup:cup_ac", "cup:cup_ac_general", "cup:cup_aa",
                    "cup:cup_aa_general"),
    "cup.complete": ("cup:cyclic_complete",),
    "cup.cocycle_check": ("cup:check_bb_cocycle", "cup:bb_cohomologous",
                          "cup:cyclic_cocycle_subspace"),
    "specfile.parse": ("specfile:parse_spec", "specfile:SpecFile.build_construction",
                       "specfile:SpecFile.build_cup_setup"),
    "cli.command": ("cli:cmd_check", "cli:cmd_cohomology", "cli:cmd_cup"),
    "reporting.emit": ("reporting:Report.to_json", "reporting:Report.to_text"),
}

# Span group for a CLI child's start-up, recorded by cli_entry.py.
STARTUP = "cli.startup"

LAYERS = ("linalg", "hopf", "coefficients", "cocyclic", "cup", "specfile", "cli",
          "reporting")


class MissingEntryPoint(RuntimeError):
    """A wrapped entry point does not exist in the engine any more."""


def _cells(shape) -> int:
    rows, cols = shape
    return int(rows) * int(cols)


# Argument-side counters, keyed by the wrapped function's name.  Each takes
# the call's arguments under the engine's own parameter names.
def _elim_cells(name, args, kwargs) -> int:
    if name in ("rref", "kernel_basis", "solve"):
        mat = args[0] if args else kwargs["mat"]
        return _cells(np.shape(mat))
    if name == "solve_constrained_subspace":
        space = args[0] if args else kwargs["space"]
        constraints = args[1] if len(args) > 1 else kwargs["constraints"]
        return sum(c.target.dim for c in constraints) * space.dim
    return _cells((args[0] if args else kwargs["f"]).shape)  # cokernel and methods


def _coboundary_key(name, args, kwargs):
    module = args[0] if args else kwargs["module"]
    n = args[1] if len(args) > 1 else kwargs["n"]
    return module, (id(module), n, name)


def _comparison_key(name, args, kwargs):
    setup = args[0] if args else kwargs["setup"]
    n = args[1] if len(args) > 1 else kwargs.get("n", kwargs.get("q"))
    collapse = args[2] if len(args) > 2 else kwargs["collapse"]
    return setup, (id(setup), n, id(collapse), name)


_KEYED = {"cocyclic.coboundary": _coboundary_key, "cup.comparison": _comparison_key}


class Tracer:
    """Spans and counters for one process.  `install` wraps, `uninstall`
    restores the original functions."""

    def __init__(self):
        self._undo = []
        self.spans = []          # [group, start, end, parent index or -1]
        self._stack = []
        self._open = Counter()
        self.calls = Counter()
        self.counts = Counter()  # linalg.elim.cells, linalg.max_cells, ...
        self.distinct = {group: set() for group in _KEYED}
        self._pinned = []        # objects whose id() is part of a distinct key
        self._raised = []        # (exception, layer) for attribution

    def reset(self) -> None:
        """Forget recorded spans and counters; the wrappers hold these
        containers, so they are cleared in place."""
        for store in (self.spans, self._stack, self._open, self.calls, self.counts,
                      self._pinned, self._raised, *self.distinct.values()):
            store.clear()

    # -- recording ----------------------------------------------------

    def add_span(self, group: str, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([group, start, end, parent])

    def raised_in(self, exc: BaseException):
        """The layer whose call first saw `exc` propagate, if traced."""
        for seen, layer in self._raised:
            if seen is exc:
                return layer
        return None

    def clear_raised(self) -> None:
        self._raised.clear()

    def _before(self, group, name, args, kwargs) -> None:
        self.calls[group] += 1
        if group == "linalg.elim" and not self._open[group]:
            self.counts["linalg.elim.cells"] += _elim_cells(name, args, kwargs)
        keyed = _KEYED.get(group)
        if keyed is not None:
            pin, key = keyed(name, args, kwargs)
            if key not in self.distinct[group]:
                self.distinct[group].add(key)
                self._pinned.append(pin)

    def _after(self, group, result) -> None:
        if group in ("linalg.compose", "linalg.tensor"):
            cells = _cells(result.shape)
            if cells > self.counts["linalg.max_cells"]:
                self.counts["linalg.max_cells"] = cells
        elif group == "cocyclic.verify":
            self.counts["cocyclic.verify.identities"] += len(result.entries)

    def _wrap(self, group: str, fn):
        name = fn.__name__
        layer = group.split(".", 1)[0]
        spans, stack, opened = self.spans, self._stack, self._open
        tracer = self

        def traced(*args, **kwargs):
            tracer._before(group, name, args, kwargs)
            span = [group, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            opened[group] += 1
            span[1] = CLOCK()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if tracer.raised_in(exc) is None:
                    tracer._raised.append((exc, layer))
                raise
            finally:
                span[2] = CLOCK()
                opened[group] -= 1
                stack.pop()
            tracer._after(group, result)
            return result

        return functools.update_wrapper(traced, fn)

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in ENTRY_POINTS; raise MissingEntryPoint
        naming the first one that does not resolve."""
        if self._undo:
            raise RuntimeError("the tracer is already installed")
        package = importlib.import_module("hopfcyclic")
        modules = [package] + [importlib.import_module(f"hopfcyclic.{layer}")
                               for layer in LAYERS]
        try:
            for group, points in ENTRY_POINTS.items():
                for point in points:
                    self._install_point(group, point, modules)
        except BaseException:
            self.uninstall()
            raise

    def _install_point(self, group, point, modules) -> None:
        module_name, _, path = point.partition(":")
        module = importlib.import_module(f"hopfcyclic.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = vars(module).get(owner_name)
            raw = vars(owner).get(attr) if isinstance(owner, type) else None
            if raw is None:
                raise MissingEntryPoint(f"hopfcyclic.{module_name}.{path}")
            if isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(group, raw.__func__))
            else:
                replacement = self._wrap(group, raw)
            setattr(owner, attr, replacement)
            self._undo.append((owner, attr, raw))
            return
        fn = vars(module).get(attr)
        if not callable(fn):
            raise MissingEntryPoint(f"hopfcyclic.{module_name}.{attr}")
        wrapped = self._wrap(group, fn)
        for holder in modules:
            for name, value in list(vars(holder).items()):
                swapped = _substitute(value, fn, wrapped)
                if swapped is not value:
                    setattr(holder, name, swapped)
                    self._undo.append((holder, name, value))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    # -- output -------------------------------------------------------

    def dump(self) -> dict:
        """Spans and counters as plain data, for merging across processes."""
        counts = dict(self.counts)
        for group, keys in self.distinct.items():
            counts[f"{group}.distinct"] = len(keys)
        return {"spans": [list(s) for s in self.spans],
                "calls": dict(self.calls), "counts": counts}


def _substitute(value, fn, wrapped):
    """`value` with `fn` replaced by `wrapped`, looking inside tuples; the
    same object when `fn` does not occur."""
    if value is fn:
        return wrapped
    if isinstance(value, tuple):
        items = tuple(_substitute(v, fn, wrapped) for v in value)
        if any(a is not b for a, b in zip(items, value)):
            return items
    return value


def merge(dumps: list[dict]) -> dict:
    """One dump from several processes: spans concatenated with their parent
    indices shifted, calls and counts summed, max_cells maximised."""
    spans, calls, counts = [], Counter(), Counter()
    for d in dumps:
        offset = len(spans)
        spans.extend([g, s, e, p + offset if p >= 0 else -1]
                     for g, s, e, p in d["spans"])
        calls.update(d["calls"])
        for key, value in d["counts"].items():
            if key == "linalg.max_cells":
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    return {"spans": spans, "calls": dict(calls), "counts": dict(counts)}


def self_times(spans) -> tuple[Counter, float]:
    """Self time per group, and the total duration of top-level spans."""
    child = [0.0] * len(spans)
    for group, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    own, top = Counter(), 0.0
    for i, (group, start, end, parent) in enumerate(spans):
        own[group] += (end - start) - child[i]
        if parent < 0:
            top += end - start
    return own, top
