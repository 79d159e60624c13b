"""Model/problem file parsing and the ``lpl`` command line tool.

Models and problems are JSON; all rationals travel as strings ``p`` or
``p/q`` so no decimal rounding can occur.  Reports are deterministic: JSON
output is key-sorted and byte-stable for a fixed seed.

Exit codes: 0 success, 1 input error, 2 mathematical refusal (for example a
non-constant rank where the extension construction needs a constant one, or
an extension that fails its own coisotropy check), 3 internal error (an
identity that an exact construction guarantees did not hold: a defect in lpl).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import algebroid as algebroid_mod
from . import embedding as embedding_mod
from .lie import LieAlgebra, NotASubalgebra, validate_jacobi
from .lie_poisson import Polynomial, casimir_check, parse_polynomial, poisson_bracket_poly
from .linalg import MAX_RATIONAL_CHARS, DimensionMismatch, InvariantViolation, Subspace, Vector
from .linalg import parse_fraction
from .submanifold import NOT_CONSTANT, AffineSubspace, SampleSpec, classify

FIXTURES_DIR = Path(__file__).parent / "fixtures"

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_REFUSED = 2
EXIT_INTERNAL = 3

# The mathematical refusals ``main`` reports with EXIT_REFUSED.
REFUSALS = (
    embedding_mod.RankNotConstant,
    embedding_mod.ConstancyNotCertified,
    embedding_mod.NotComplementary,
    NotASubalgebra,
)

# Largest accepted model dimension: a model may carry up to dim**3 structure constants.
MAX_DIM = 64
# Most sample points per problem: each sample draws up to dim rationals.
MAX_SAMPLES = 100_000
# str() refuses an integer of more than MAX_RATIONAL_CHARS digits.
_PRINT_LIMIT = 10**MAX_RATIONAL_CHARS


class InputError(ValueError):
    """Malformed model or problem input."""


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 1); argparse's own exit 2 means a refusal here."""

    def error(self, message):
        raise InputError(f"{message} (a polynomial that starts with '-' goes after '--')")


def _json_object(data, what: str, allowed: set) -> dict:
    """``data`` (a dict, JSON text, or bytes) as a dict; a key outside ``allowed`` is an error."""
    if isinstance(data, (bytes, str)):
        try:
            data = json.loads(data)
        except ValueError as exc:  # also an integer literal over the digit limit
            raise InputError(f"malformed {what} JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{what} must be a JSON object")
    if unknown := sorted(set(data) - allowed):
        raise InputError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")
    return data


def parse_rational(text) -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def parse_int(data, key: str, what: str, default=None) -> int:
    """data[key] as a JSON integer (an int that is not a bool); anything else is an InputError."""
    value = data.get(key, default) if isinstance(data, dict) else None
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(what)
    return value


def parse_list(data: dict, key: str, what: str, default=None) -> list:
    """data[key] as a JSON list; anything else is an InputError."""
    value = data.get(key, default)
    if not isinstance(value, list):
        raise InputError(what)
    return value


def _check_digits(numbers, what: str) -> None:
    """Every number a report prints passes here: str() refuses over MAX_RATIONAL_CHARS digits."""
    if any(abs(x.numerator) >= _PRINT_LIMIT or x.denominator >= _PRINT_LIMIT for x in numbers):
        raise InputError(f"{what} has more than {MAX_RATIONAL_CHARS} digits")


def vector_strs(v) -> list[str]:
    _check_digits(v, "a vector entry")
    return [str(e) for e in v]


def polynomial_str(p: Polynomial) -> str:
    _check_digits(p.terms.values(), "a coefficient")
    _check_digits([max(map(max, p.terms), default=0)], "an exponent")
    return str(p)


def subspace_dict(s: Subspace) -> dict:
    return {"ambient_dim": s.ambient_dim, "basis": [vector_strs(row) for row in s.basis]}


def parse_model(data) -> LieAlgebra:
    """Validated Lie algebra from a ModelFile (dict, JSON text, or bytes)."""
    data = _json_object(data, "model", {"name", "dim", "basis", "brackets"})
    dim = parse_int(data, "dim", "model needs an integer 'dim'")
    if dim <= 0:
        raise InputError("model dimension must be positive")
    if dim > MAX_DIM:
        raise InputError(f"model dimension {dim} exceeds the maximum {MAX_DIM}")
    labels = data.get("basis")
    if labels is None:
        labels = [f"e{i + 1}" for i in range(dim)]
    if not isinstance(labels, list) or len(labels) != dim:
        raise InputError("'basis' must be a list of one label per dimension")
    if not all(isinstance(x, str) for x in labels):
        raise InputError("'basis' labels must be strings")
    brackets: dict[tuple[int, int], Vector] = {}
    for entry in parse_list(data, "brackets", "'brackets' must be a list", []):
        i = parse_int(entry, "i", "each bracket needs an integer 'i'")
        j = parse_int(entry, "j", "each bracket needs an integer 'j'")
        _json_object(entry, "bracket", {"i", "j", "terms"})
        if not 0 <= i < j < dim:
            raise InputError(f"bracket indices ({i}, {j}) must satisfy 0 <= i < j < dim")
        if (i, j) in brackets:
            raise InputError(f"bracket ({i}, {j}) is given more than once")
        coords = [Fraction(0)] * dim
        for term in parse_list(entry, "terms", "a bracket's 'terms' must be a list", []):
            k = parse_int(term, "k", "each term needs an integer 'k'")
            _json_object(term, "term", {"k", "coefficient"})
            if not 0 <= k < dim:
                raise InputError(f"term index {k} out of range")
            coords[k] += parse_rational(term.get("coefficient"))
        brackets[(i, j)] = tuple(coords)
    algebra = LieAlgebra.from_brackets(dim, brackets, labels)
    report = validate_jacobi(algebra)
    if not report.ok:
        raise InputError(
            f"Jacobi identity fails on basis triple {report.triple}, "
            f"residual {vector_strs(report.residual)}"
        )
    return algebra


def serialize_model(algebra: LieAlgebra, name: str = "model") -> dict:
    _check_digits((c for row in algebra.structure for _, t in row for _, c in t), "a coefficient")
    brackets = [
        {"i": i, "j": j, "terms": [{"k": k, "coefficient": str(c)} for k, c in terms]}
        for i, row in enumerate(algebra.structure)
        for j, terms in row
        if i < j
    ]
    return {
        "name": name,
        "dim": algebra.dim,
        "basis": list(algebra.labels),
        "brackets": brackets,
    }


@dataclass
class Problem:
    algebra: LieAlgebra
    h: Subspace
    base: Vector
    r: Optional[Subspace]
    sampling: SampleSpec

    @property
    def affine(self) -> AffineSubspace:
        return AffineSubspace(self.algebra, self.h, self.base)


def _find_file(name: str, what: str, base_dir: Optional[Path] = None) -> Path:
    """``name`` in ``base_dir`` if given, else as given, else the bundled fixture."""
    for folder in ([] if base_dir is None else [base_dir]) + [Path(), FIXTURES_DIR]:
        if (folder / name).is_file():
            return folder / name
    raise InputError(f"{what} file {name!r} not found")


def _resolve_model(ref, base_dir: Optional[Path]) -> LieAlgebra:
    if isinstance(ref, dict):
        return parse_model(ref)
    if isinstance(ref, str):
        return parse_model(_find_file(ref, "model", base_dir).read_text())
    raise InputError("'model' must be a path or an inline model object")


def _parse_vector(raw, dim: int, what: str) -> Vector:
    if not isinstance(raw, list) or len(raw) != dim:
        raise InputError(f"{what} must be a list of {dim} rationals")
    return tuple(parse_rational(x) for x in raw)


def parse_problem(
    data,
    base_dir: Optional[Path] = None,
    model_override: Optional[LieAlgebra] = None,
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> Problem:
    keys = {"model", "h_basis", "lambda", "R_basis", "samples", "seed"}
    data = _json_object(data, "problem", keys)
    if model_override is not None:
        algebra = model_override
    else:
        if "model" not in data:
            raise InputError("problem needs a 'model' (path or inline)")
        algebra = _resolve_model(data["model"], base_dir)
    n = algebra.dim
    raw_h = parse_list(data, "h_basis", "problem needs an 'h_basis' list of vectors")
    try:
        h = Subspace.span(n, [_parse_vector(v, n, "h_basis vector") for v in raw_h])
    except DimensionMismatch as exc:
        raise InputError(str(exc)) from exc
    base = _parse_vector(data.get("lambda", ["0"] * n), n, "'lambda'")
    r = None
    if data.get("R_basis") is not None:
        raw_r = parse_list(data, "R_basis", "'R_basis' must be a list of vectors")
        r = Subspace.span(n, [_parse_vector(v, n, "R_basis vector") for v in raw_r])
    if samples is None:
        samples = parse_int(data, "samples", "'samples' must be an integer", SampleSpec.count)
    if seed is None:
        seed = parse_int(data, "seed", "'seed' must be an integer", SampleSpec.seed)
    return Problem(algebra, h, base, r, _sampling(samples, seed))


def _sampling(count: int, seed: int) -> SampleSpec:
    """The problem's sampling; no negative seed, as Random(-n) draws the stream of Random(n)."""
    if not 0 <= count <= MAX_SAMPLES:
        raise InputError(f"'samples' must be between 0 and {MAX_SAMPLES}, got {count}")
    if seed < 0:
        raise InputError(f"'seed' must be at least 0, got {seed}")
    return SampleSpec(count, seed)


# -- report builders --------------------------------------------------------


def _provenance(sampling: Optional[SampleSpec]) -> str:
    """A result's provenance: the sample points it rests on, or none when it is certified."""
    if sampling is None:
        return "certified"
    return f"sampled({sampling.count}, seed={sampling.seed})"


def _coisotropy_dict(result) -> dict:
    out = {"verdict": result.coisotropic, "provenance": _provenance(None)}
    if result.witness is not None:
        kind = result.witness[0]
        if kind == "bracket_escapes":
            _, u, v, w = result.witness
            out["witness"] = {
                "kind": kind,
                "u": vector_strs(u),
                "v": vector_strs(v),
                "bracket": vector_strs(w),
            }
        else:
            out["witness"] = {"kind": kind, "vector": vector_strs(result.witness[1])}
    return out


def _pre_poisson_dict(verdict) -> dict:
    out = {"verdict": verdict.kind, "provenance": _provenance(verdict.sampling)}
    if verdict.rank is not None:
        out["rank"] = verdict.rank
    if verdict.space is not None:
        out["constant_space"] = subspace_dict(verdict.space)
    if verdict.counterexample is not None:
        (x1, r1), (x2, r2) = verdict.counterexample
        out["counterexample"] = [
            {"point": vector_strs(x1), "rank": r1},
            {"point": vector_strs(x2), "rank": r2},
        ]
    return out


def report_validate(algebra: LieAlgebra) -> dict:
    report = validate_jacobi(algebra)
    out = {"command": "validate", "jacobi_ok": report.ok, "dim": algebra.dim}
    if not report.ok:
        out["triple"] = list(report.triple)
        out["residual"] = vector_strs(report.residual)
    return out


def report_classify(problem: Problem) -> dict:
    c = problem.affine
    rep = classify(c, problem.sampling)
    return {
        "command": "classify",
        "affine_dim": c.dim,
        "direction": subspace_dict(c.direction),
        "coisotropic": _coisotropy_dict(rep.coisotropic),
        "pre_poisson": _pre_poisson_dict(rep.pre_poisson),
        "generic_rank": rep.generic_rank,
        "characteristic_rank_at_base": rep.characteristic_rank_at_base,
        "poisson_dirac_at_base": rep.poisson_dirac_at_base,
        "cosymplectic_at_base": rep.cosymplectic_at_base,
    }


def _extension_dict(ext, locus, constancy) -> dict:
    conormal = {"verdict": "certified" if constancy.certified else NOT_CONSTANT}
    out = {
        "R": subspace_dict(ext.r),
        "P_tilde_direction": subspace_dict(ext.p_tilde.direction),
        "p": subspace_dict(ext.p),
        "evidence": "certified" if ext.sampling is None else "sampled",
        "cosymplectic_locus": {
            "never_cosymplectic": locus.never_cosymplectic,
            "cosymplectic_at_base": locus.cosymplectic_at_base,
            "failing_points": [vector_strs(x) for x in locus.failing_points],
            "checked": locus.checked,
            "provenance": _provenance(locus.sampling),
        },
        "constant_sharp_conormal": conormal,
    }
    if constancy.certified:
        conormal["k_ann"] = subspace_dict(constancy.k_ann)
        conormal["provenance"] = _provenance(None)
    else:
        v, u, image = constancy.witness
        conormal["witness"] = {
            "p_vector": vector_strs(v),
            "direction": vector_strs(u),
            "image": vector_strs(image),
        }
    return out


def _build_extension(problem: Problem):
    ext = embedding_mod.extend(problem.affine, problem.r, problem.sampling)
    locus = embedding_mod.cosymplectic_locus(ext, problem.sampling)
    constancy = embedding_mod.constant_sharp_conormal(ext)
    return ext, locus, constancy


def report_extend(problem: Problem) -> dict:
    ext, locus, constancy = _build_extension(problem)
    out = _extension_dict(ext, locus, constancy)
    out["command"] = "extend"
    return out


def report_pair(problem: Problem) -> dict:
    ext, locus, constancy = _build_extension(problem)
    pair = embedding_mod.symmetric_pair_analysis(ext, constancy)
    out = _extension_dict(ext, locus, constancy)
    out["command"] = "pair"
    out["k"] = subspace_dict(pair.k)
    out["symmetric_pair"] = {
        "decomposition": pair.decomposition,
        "k_subalgebra": pair.k_subalgebra,
        "kp_in_p": pair.kp_in_p,
        "pp_in_k": pair.pp_in_k,
        "symmetric_pair": pair.symmetric_pair,
    }
    if pair.k_subalgebra and pair.decomposition:
        induced = embedding_mod.induced_structure(ext.algebra, pair)
        out["induced_structure"] = serialize_model(induced, name="induced")
    else:
        out["induced_structure"] = None
    return out


def report_algebroid(problem: Problem) -> dict:
    rep = algebroid_mod.transversal_orbit_report(problem.affine, problem.sampling)
    return {
        "command": "algebroid",
        "d": subspace_dict(rep.d) if rep.d is not None else None,
        "d_is_subalgebra": rep.d_is_subalgebra,
        "orbit_dims": [
            {"point": vector_strs(x), "dim": d} for x, d in rep.orbit_dims
        ],
        "transversal_everywhere": all(ok for _, ok in rep.transversal),
        "constant_orbit_dim": rep.constant_orbit_dim,
        "provenance": _provenance(rep.sampling),
    }


def report_bracket(algebra: LieAlgebra, f_text: str, g_text: str) -> dict:
    try:
        f = parse_polynomial(f_text, algebra.dim)
        g = parse_polynomial(g_text, algebra.dim)
        bracket = poisson_bracket_poly(algebra, f, g)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    f_str, g_str = polynomial_str(f), polynomial_str(g)
    return {"command": "bracket", "f": f_str, "g": g_str, "bracket": polynomial_str(bracket)}


def report_casimir(algebra: LieAlgebra, f_text: str) -> dict:
    try:
        f = parse_polynomial(f_text, algebra.dim)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return {"command": "casimir", "f": polynomial_str(f), "casimir": casimir_check(algebra, f)}


# -- rendering and dispatch -------------------------------------------------


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_human(report: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_human(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(render_human(item, indent + 1).rstrip())
                lines.append(f"{pad}  --")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(line for line in lines if line) + ("\n" if indent == 0 else "")


def run(command: str, problem: Problem, poly_args: tuple[str, ...] = ()) -> dict:
    """Dispatch one command on a parsed problem; returns the report dict."""
    if poly_args and command not in ("bracket", "casimir"):
        raise InputError(f"command {command!r} takes no polynomial arguments")
    if command == "validate":
        return report_validate(problem.algebra)
    if command == "classify":
        return report_classify(problem)
    if command == "extend":
        return report_extend(problem)
    if command == "pair":
        return report_pair(problem)
    if command == "algebroid":
        return report_algebroid(problem)
    if command == "bracket":
        if len(poly_args) != 2:
            raise InputError("bracket needs exactly two polynomial arguments")
        return report_bracket(problem.algebra, *poly_args)
    if command == "casimir":
        if len(poly_args) != 1:
            raise InputError("casimir needs exactly one polynomial argument")
        return report_casimir(problem.algebra, poly_args[0])
    raise InputError(f"unknown command {command!r}")


COMMANDS = ("validate", "classify", "extend", "pair", "algebroid", "bracket", "casimir")
_NEEDS_PROBLEM = {"classify", "extend", "pair", "algebroid"}


def _load_problem(args) -> Problem:
    model_override = None
    if args.model:
        model_override = parse_model(_find_file(args.model, "model").read_text())
    if args.problem:
        path = _find_file(args.problem, "problem")
        return parse_problem(
            path.read_text(),
            base_dir=path.parent,
            model_override=model_override,
            samples=args.samples,
            seed=args.seed,
        )
    if model_override is None:
        raise InputError("either --problem or --model is required")
    if args.command in _NEEDS_PROBLEM:
        raise InputError(f"command {args.command!r} needs --problem")
    n = model_override.dim
    return Problem(
        model_override,
        Subspace.zero(n),
        tuple(Fraction(0) for _ in range(n)),
        None,
        _sampling(args.samples or SampleSpec.count, args.seed or SampleSpec.seed),
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = _Parser(
        prog="lpl",
        description="Exact classification of affine subspaces of Lie-Poisson duals",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("polys", nargs="*", help="polynomial arguments (bracket, casimir)")
    parser.add_argument("--problem", help="problem JSON file")
    parser.add_argument("--model", help="model JSON file (overrides the problem's)")
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--json", action="store_true", dest="as_json")
    try:
        args = parser.parse_intermixed_args(argv)
        problem = _load_problem(args)
        report = run(args.command, problem, tuple(args.polys))
    except (InputError, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except REFUSALS as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(render_json(report) if args.as_json else render_human(report))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
