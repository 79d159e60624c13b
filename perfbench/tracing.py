"""Spans around lpl's public functions, installed from outside ``src/``.

``Tracer.install`` rebinds each wrapped function in its defining module and
in every module that imported it by name, and patches methods on their
class; ``uninstall`` puts the originals back.  The run is single-threaded,
so spans nest strictly: a span's self time is its duration minus the time
its direct child spans cover, and the time a hook spends gathering a count
is charged to no span.  Spans are kept in memory, tagged with the operation
id, and written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

from lpl import algebroid, cli, embedding, lie, lie_poisson, linalg, submanifold
from lpl.lie import LieAlgebra
from lpl.lie_poisson import Polynomial
from lpl.linalg import Subspace
from lpl.submanifold import CERTIFIED_CONSTANT, AffineSubspace

# (span name, defining module, function, modules that imported it by name)
FUNCTIONS = (
    ("linalg.rref", linalg, "rref", (lie,)),
    ("linalg.nullspace", linalg, "nullspace", (algebroid,)),
    ("linalg.solve", linalg, "solve", (submanifold, embedding)),
    ("lie.validate_jacobi", lie, "validate_jacobi", (cli, embedding)),
    ("lie.is_subalgebra", lie, "is_subalgebra", (submanifold, embedding, algebroid)),
    ("lie_poisson.bivector_at", lie_poisson, "bivector_at", (algebroid,)),
    ("lie_poisson.parse_polynomial", lie_poisson, "parse_polynomial", (cli,)),
    ("lie_poisson.poisson_bracket_poly", lie_poisson, "poisson_bracket_poly", (cli,)),
    ("lie_poisson.casimir_check", lie_poisson, "casimir_check", (cli,)),
    ("submanifold.classify", submanifold, "classify", (cli,)),
    ("submanifold.pre_poisson_check", submanifold, "pre_poisson_check", (embedding,)),
    ("submanifold.is_coisotropic", submanifold, "is_coisotropic", ()),
    ("submanifold.pointwise_flags", submanifold, "pointwise_flags", ()),
    ("embedding.extend", embedding, "extend", ()),
    ("embedding.cosymplectic_locus", embedding, "cosymplectic_locus", ()),
    ("embedding.coisotropy_in_extension", embedding, "coisotropy_in_extension", ()),
    ("embedding.constant_sharp_conormal", embedding, "constant_sharp_conormal", ()),
    ("embedding.symmetric_pair_analysis", embedding, "symmetric_pair_analysis", ()),
    ("embedding.induced_structure", embedding, "induced_structure", ()),
    ("embedding.is_cosymplectic_at", embedding, "is_cosymplectic_at", ()),
    ("algebroid.transversal_orbit_report", algebroid, "transversal_orbit_report", ()),
    ("algebroid.orbit_tangent", algebroid, "orbit_tangent", ()),
    ("cli.report", cli, "run", ()),
    ("cli.render_json", cli, "render_json", ()),
)

# (span name, class, method names); ``Subspace.__add__`` is an alias of ``sum``.
METHODS = (
    ("lie.bracket", LieAlgebra, ("bracket",)),
    ("lie.coad_apply", LieAlgebra, ("coad_apply",)),
    ("linalg.subspace", Subspace,
     ("span", "sum", "__add__", "intersect", "annihilator", "contains", "contains_vector")),
    ("lie_poisson.poly_arith", Polynomial, ("__add__", "__mul__", "diff")),
    ("submanifold.sample_points", AffineSubspace, ("sample_points",)),
)


def _rref_hook(tracer: "Tracer", args, kwargs, result) -> None:
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    tracer.counts["linalg.rref.cells"] += len(rows) * ncols
    bits = max(
        (max(e.numerator.bit_length(), e.denominator.bit_length()) for row in result for e in row),
        default=0,
    )
    tracer.counts["linalg.rref.max_bits"] = max(tracer.counts["linalg.rref.max_bits"], bits)


def _sample_points_hook(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["submanifold.sample_points.count"] += len(result)


def _pre_poisson_hook(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["submanifold.certified_verdicts"] += result.kind == CERTIFIED_CONSTANT


HOOKS = {
    "linalg.rref": _rref_hook,
    "submanifold.sample_points": _sample_points_hook,
    "submanifold.pre_poisson_check": _pre_poisson_hook,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (op id, name, parent index or -1, start, end)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)  # outermost spans of a name only
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[list] = []  # [span index, name, parent, start, child seconds]
        self._depth: Counter = Counter()
        self._saved: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._depth[name] += 1
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append([len(self.spans) - 1, name, parent, perf_counter(), 0.0])

    def exit(self, hook=None) -> None:
        end = perf_counter()
        index, name, parent, start, child = self._stack.pop()
        duration = end - start
        self.spans[index] = (self.op_id, name, parent, start, end)
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self._depth[name] -= 1
        if not self._depth[name]:
            self.total_s[name] += duration
        if hook is not None:
            hook()
        if self._stack:
            # The hook's time is trace overhead: keep it out of the parent's self time.
            self._stack[-1][4] += perf_counter() - start

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit()
                raise
            tracer.exit(hook and (lambda: hook(tracer, args, kwargs, result)))
            return result

        return traced

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        for name, module, attr, importers in FUNCTIONS:
            traced = self.wrap(name, getattr(module, attr))
            for owner in (module, *importers):
                self._patch(owner, attr, traced)
        for name, cls, attrs in METHODS:
            for attr in attrs:
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    self._patch(cls, attr, staticmethod(self.wrap(name, raw.__func__)))
                else:
                    self._patch(cls, attr, self.wrap(name, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def write_spans(self, path, ops) -> None:
        """One JSON line per span: op id, command, name, parent index, start and end in us."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as out:
            for op_id, name, parent, start, end in self.spans:
                command = ops[op_id].command if op_id >= 0 else "setup"
                out.write(json.dumps([
                    op_id, command, name, parent,
                    round((start - origin) * 1e6, 1), round((end - origin) * 1e6, 1),
                ]) + "\n")
