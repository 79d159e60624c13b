"""Seeded end-to-end benchmark of the ``lpl`` command line operations.

One client in one process runs a fixed, seed-generated list of ``lpl``
operations in a closed loop.  An operation is ``lpl.cli.run`` followed by
``lpl.cli.render_json``: what ``lpl <command> --problem FILE --json`` does
after parsing.  Users pay parsing (model resolution and ``validate_jacobi``)
on every invocation, so it is timed as set-up and not inside the operations.

Set-up (import, input generation, writing the problem files and parsing
every problem) runs ``SETUPS`` times, spread over the run, and its median is
reported.  An untimed reference pass follows the first set-up; then the list
runs in timed passes until the requested seconds have gone by, at least
``MIN_PASSES`` passes.  Every set-up and operation time is scaled to the
host's reference speed by the calibration blocks run next to it (see
``calibrate.py``).  Untraced runs report the end-to-end metrics; traced
runs alternate untraced and traced passes and report the per-layer metrics.
In both, an operation fails unless it exits 0 with a JSON report or 2 with a
refusal, and its bytes equal those of the reference pass.  Every problem of
the workload also gets an untimed ``classify`` verdict; where it is
certified, sympy recomputes its rank, and a mismatch fails every operation
on that problem.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import gc
import hashlib
import json
import operator
import random
import resource
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibrate
import workloads
from lpl import cli, embedding
from lpl.lie import NotASubalgebra
from lpl.linalg import DimensionMismatch
from tracing import Tracer

OUT = Path(__file__).resolve().parent / "out"
SETUPS = 3
MIN_PASSES = 3

# The exit classes of ``lpl.cli.main``.
REFUSALS = (
    embedding.RankNotConstant,
    embedding.ConstancyNotCertified,
    embedding.NotComplementary,
    NotASubalgebra,
)
INPUT_ERRORS = (cli.InputError, DimensionMismatch)


def run(workload: str, seed: int, seconds: float, traced: bool, import_s: float) -> int:
    workdir = OUT / f"{workload}-s{seed}"
    setup_times, factors = [], []

    def timed_setup():
        gc.collect()
        before = calibrate.block() + calibrate.block()
        start = perf_counter()
        result = setup(workload, seed, workdir)
        setup_times.append(perf_counter() - start)
        factors.append(calibrate.scale(before + calibrate.block() + calibrate.block()))
        return result

    # The set-ups run at the start, the middle and the end of the run, so that
    # one slow stretch of a shared machine does not decide their median.
    ops, problems = timed_setup()
    # The untimed reference pass warms up and gives each operation's outcome;
    # every timed outcome must equal it.
    reference = [execute(op, p) for op, p in zip(ops, problems)]
    passes, traces = [], []
    began = perf_counter()
    # Stop within half a pass of ``seconds``, so that a run's length does not
    # depend on where the last pass happens to end.
    while (perf_counter() - began + (passes[-1].wall / 2 if passes else 0) < seconds
           or len(passes) < MIN_PASSES or (traced and not traces)):
        tracer = Tracer() if traced and len(passes) % 2 else None
        passes.append(timed_pass(ops, problems, tracer))
        if tracer is not None:
            traces.append((passes[-1], tracer))
        if len(setup_times) < SETUPS - 1 and perf_counter() - began >= seconds / 2:
            timed_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setup_times) < SETUPS:
        timed_setup()

    bad = {i for i, (code, text) in enumerate(reference) if not _valid(code, text)}
    mismatched, checked = certified_rank_mismatches(ops, problems, reference, workdir)
    bad |= {i for i, op in enumerate(ops) if op.problem in mismatched}
    attempted = failed = 0
    for p in passes:
        attempted += len(p.outcomes)
        failed += sum(i in bad or outcome != reference[i] for i, outcome in enumerate(p.outcomes))

    digest = hashlib.sha256()
    for i, (op, (code, text)) in enumerate(zip(ops, reference)):
        digest.update(f"{i} {op.command} {op.problem} exit={code}\n{text}".encode())
    untraced = [p for p in passes if not any(p is t for t, _ in traces)]
    times = op_times(untraced)
    pooled = [t for p in untraced for t in p.scaled]
    raw = [statistics.median(t) for t in zip(*(p.times for p in untraced))]
    print(f"workload {workload} seed {seed}: {len(ops)} operations, {len(passes)} passes "
          f"({len(untraced)} untraced)")
    print(f"measured, unscaled: {len(ops) / sum(raw):.4g} ops/s, p50 {statistics.median(raw) * 1e3:.4g} ms, "
          f"p90 {statistics.quantiles(raw, n=10)[-1] * 1e3:.4g} ms, set-up {import_s + statistics.median(setup_times):.4g} s")
    print(f"failed_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    print(f"certified classify verdicts checked with sympy: {checked}, mismatched: {len(mismatched)}")
    print(f"report_sha256 {digest.hexdigest()}")

    if traced:
        metrics = layer_metrics(workload, seed, ops, workdir, traces, sum(times))
    else:
        metrics = {
            "ops_per_s": (len(ops) / sum(times), "1/s"),
            "op_p50_ms": (statistics.median(pooled) * 1e3, "ms"),
            "op_p90_ms": (statistics.quantiles(pooled, n=10)[-1] * 1e3, "ms"),
            "setup_s": (import_s * factors[0] + statistics.median(map(operator.mul, setup_times, factors)), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}" + (f" ({len(pooled)} samples)" if name.startswith("op_p") else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def setup(workload: str, seed: int, workdir: Path):
    """Generate the inputs, write them as CLI files and parse every problem."""
    builder = workloads.WORKLOADS[workload](random.Random(seed))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name, content in builder.files.items():
        (workdir / name).write_text(json.dumps(content, indent=2) + "\n")
    return builder.ops, parse_all(builder.ops, workdir)


def parse_all(ops, workdir: Path) -> list[cli.Problem]:
    """Each problem file parsed once, as ``lpl <command> --problem FILE`` does."""
    parsed = {}
    for name in dict.fromkeys(op.problem for op in ops):
        path = workdir / name
        parsed[name] = cli.parse_problem(path.read_text(), base_dir=path.parent)
    return [parsed[op.problem] for op in ops]


def execute(op: workloads.Op, problem: cli.Problem) -> tuple[int, str]:
    """Exit code and output text of one operation, as ``lpl.cli.main`` maps them."""
    try:
        return 0, cli.render_json(cli.run(op.command, problem, op.polys))
    except REFUSALS as exc:
        return 2, f"refused: {exc}\n"
    except INPUT_ERRORS as exc:
        return 1, f"error: {exc}\n"
    except Exception as exc:  # noqa: BLE001 - any other exception is a failed operation
        return 3, f"uncaught {type(exc).__name__}: {exc}\n"


def _valid(code: int, text: str) -> bool:
    """Exit 2 (a refusal), or exit 0 with a report that parses as JSON."""
    if code != 0:
        return code == 2
    try:
        json.loads(text)
    except json.JSONDecodeError:
        return False
    return True


@dataclass
class Pass:
    wall: float  # seconds, calibration included
    times: list[float]  # each operation's measured seconds
    scaled: list[float]  # the same in reference seconds (calibrate.py)
    outcomes: list[tuple[int, str]]


def op_times(passes: list[Pass]) -> list[float]:
    """Each operation's median scaled time over the passes."""
    return [statistics.median(t) for t in zip(*(p.scaled for p in passes))]


def timed_pass(ops, problems, tracer: Tracer | None) -> Pass:
    """Runs the list once, with a calibration block before each operation and after the last."""
    if tracer is not None:
        tracer.install()
    gc.collect()
    times, outcomes, blocks = [], [], [calibrate.block()]
    began = perf_counter()
    for i, (op, problem) in enumerate(zip(ops, problems)):
        if tracer is not None:
            tracer.op_id = i
            tracer.enter("op")
        start = perf_counter()
        outcomes.append(execute(op, problem))
        times.append(perf_counter() - start)
        if tracer is not None:
            tracer.exit()
        blocks.append(calibrate.block())
    wall = perf_counter() - began
    if tracer is not None:
        tracer.uninstall()
    scaled = [t * calibrate.scale(blocks[i] + blocks[i + 1]) for i, t in enumerate(times)]
    return Pass(wall, times, scaled, outcomes)


# -- the certified cross-check ------------------------------------------------


def certified_rank_mismatches(ops, problems, outcomes, workdir: Path) -> tuple[set[str], int]:
    """Problem files whose certified classify rank differs from sympy's.

    Every distinct problem of the workload gets a ``classify`` verdict: the
    reference pass's, where the workload classifies it, or else from an extra
    untimed ``classify``.  For each certified one,
    rank(T_lambda C + sharp N*_lambda C) is recomputed from the problem file
    and the model's structure constants alone: the rows are a basis of
    ann(h) and coad_v(lambda) for each h basis vector v.  Returns the
    mismatched files and the number of certified verdicts checked.
    """
    verdicts = {op.problem: outcome for op, outcome in zip(ops, outcomes) if op.command == "classify"}
    for op, problem in zip(ops, problems):
        if op.problem not in verdicts:
            verdicts[op.problem] = execute(workloads.Op("classify", op.problem), problem)
    mismatched, checked = set(), 0
    for name, (code, text) in verdicts.items():
        if code != 0:
            continue
        verdict = json.loads(text)["pre_poisson"]
        if verdict["provenance"] == "certified":
            checked += 1
            if verdict["rank"] != _sympy_rank(workdir / name):
                mismatched.add(name)
    return mismatched, checked


def _sympy_rank(path: Path) -> int:
    import sympy  # the independent oracle; imported only when a verdict needs it

    problem = json.loads(path.read_text())
    model = problem["model"]
    if not isinstance(model, dict):
        local = path.parent / model
        model = json.loads((local if local.is_file() else cli.FIXTURES_DIR / model).read_text())
    n = model["dim"]
    table = {}
    for entry in model["brackets"]:
        for term in entry["terms"]:
            c = sympy.Rational(term["coefficient"])
            table[(entry["i"], entry["j"], term["k"])] = c
            table[(entry["j"], entry["i"], term["k"])] = -c
    lam = [sympy.Rational(x) for x in problem.get("lambda", ["0"] * n)]
    h = [[sympy.Rational(x) for x in v] for v in problem["h_basis"]]
    rows = [list(u) for u in sympy.Matrix(h).nullspace()] if h else [[int(a == b) for b in range(n)] for a in range(n)]
    for v in h:
        # coad_v(lambda)_j = <lambda, [v, e_j]> = sum_{i,k} v_i lambda_k c_ij^k
        rows.append([sum(v[i] * lam[k] * c for (i, jj, k), c in table.items() if jj == j) for j in range(n)])
    return sympy.Matrix(rows).rank() if rows else 0


# -- per-layer metrics ----------------------------------------------------------


def layer_metrics(workload, seed, ops, workdir, traces, untraced_s) -> dict:
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        parse_all(ops, workdir)
    finally:
        setup_tracer.uninstall()
    traces[0][1].write_spans(OUT / f"{workload}-s{seed}.spans.jsonl", ops)
    per_pass = [_pass_metrics(t) for _, t in traces]
    # median_low: each value is one traced pass's own, so counts stay whole numbers.
    metrics = {
        name: (statistics.median_low(m[name][0] for m in per_pass), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    metrics["lie.validate_jacobi.ms"] = (setup_tracer.total_s["lie.validate_jacobi"] * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (sum(op_times([p for p, _ in traces])) / untraced_s, "ratio")
    return metrics


def _pass_metrics(t: Tracer) -> dict:
    ms = lambda seconds: seconds * 1e3  # noqa: E731
    op_ms = ms(t.total_s["op"])
    return {
        "trace.op_ms": (op_ms, "ms"),
        "lie.bracket.calls": (t.calls["lie.bracket"], "count"),
        "lie.bracket.self_ms": (ms(t.self_s["lie.bracket"]), "ms"),
        "lie.coad_apply.calls": (t.calls["lie.coad_apply"], "count"),
        "lie.coad_apply.self_ms": (ms(t.self_s["lie.coad_apply"]), "ms"),
        "lie.kernel_share": (ms(t.self_s["lie.bracket"] + t.self_s["lie.coad_apply"]) / op_ms, "ratio"),
        "lie.is_subalgebra.calls": (t.calls["lie.is_subalgebra"], "count"),
        "linalg.rref.calls": (t.calls["linalg.rref"], "count"),
        "linalg.rref.self_ms": (ms(t.self_s["linalg.rref"]), "ms"),
        "linalg.rref.cells": (t.counts["linalg.rref.cells"], "count"),
        "linalg.rref.max_bits": (t.counts["linalg.rref.max_bits"], "bits"),
        "linalg.nullspace.self_ms": (ms(t.self_s["linalg.nullspace"]), "ms"),
        "linalg.solve.self_ms": (ms(t.self_s["linalg.solve"]), "ms"),
        "linalg.subspace.calls": (t.calls["linalg.subspace"], "count"),
        "lie_poisson.bivector_at.calls": (t.calls["lie_poisson.bivector_at"], "count"),
        "lie_poisson.bivector_at.self_ms": (ms(t.self_s["lie_poisson.bivector_at"]), "ms"),
        "lie_poisson.poly_arith.calls": (t.calls["lie_poisson.poly_arith"], "count"),
        "lie_poisson.poly_arith.self_ms": (ms(t.self_s["lie_poisson.poly_arith"]), "ms"),
        "submanifold.pre_poisson_check.ms": (ms(t.total_s["submanifold.pre_poisson_check"]), "ms"),
        "submanifold.sample_points.count": (t.counts["submanifold.sample_points.count"], "count"),
        "submanifold.is_coisotropic.ms": (ms(t.total_s["submanifold.is_coisotropic"]), "ms"),
        "submanifold.pointwise_flags.ms": (ms(t.total_s["submanifold.pointwise_flags"]), "ms"),
        "submanifold.certified_verdicts": (t.counts["submanifold.certified_verdicts"], "count"),
        "embedding.extend.ms": (ms(t.total_s["embedding.extend"]), "ms"),
        "embedding.cosymplectic_locus.ms": (ms(t.total_s["embedding.cosymplectic_locus"]), "ms"),
        "embedding.coisotropy_in_extension.ms": (ms(t.total_s["embedding.coisotropy_in_extension"]), "ms"),
        "embedding.constant_sharp_conormal.ms": (ms(t.total_s["embedding.constant_sharp_conormal"]), "ms"),
        "embedding.induced_structure.ms": (ms(t.total_s["embedding.induced_structure"]), "ms"),
        "embedding.is_cosymplectic_at.calls": (t.calls["embedding.is_cosymplectic_at"], "count"),
        "algebroid.transversal_orbit_report.ms": (ms(t.total_s["algebroid.transversal_orbit_report"]), "ms"),
        "algebroid.orbit_tangent.calls": (t.calls["algebroid.orbit_tangent"], "count"),
        "algebroid.orbit_tangent.self_ms": (ms(t.self_s["algebroid.orbit_tangent"]), "ms"),
        "cli.report.self_ms": (ms(t.self_s["cli.report"]), "ms"),
        "cli.render_json.ms": (ms(t.total_s["cli.render_json"]), "ms"),
    }
