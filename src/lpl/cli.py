"""Model/problem file parsing and the ``lpl`` command line tool.

Models and problems are JSON; all rationals travel as strings ``p`` or
``p/q`` so no decimal rounding can occur.  Reports are deterministic: JSON
output is key-sorted and byte-stable for a fixed seed.

Exit codes: 0 success, 1 input error, 2 mathematical refusal (``REFUSALS``:
for example a non-constant rank where the extension needs a constant one, or
an R that does not complement TC + sharp N*C), 3 internal error (an identity
that an exact construction guarantees did not hold: a defect in lpl).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from pathlib import Path
from typing import Optional

from . import algebroid as algebroid_mod
from . import embedding as embedding_mod
from .lie import LieAlgebra, NotASubalgebra, validate_jacobi
from .lie_poisson import Polynomial, casimir_check, parse_polynomial, poisson_bracket_poly
from .linalg import DimensionMismatch, InputError, InvariantViolation, Subspace, Vector
from .linalg import _PRINT_LIMIT, _check_digits, parse_fraction, vector_strs
from .submanifold import CERTIFIED_CONSTANT, NOT_CONSTANT, AffineSubspace, SampleSpec, classify

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


def _check_ratio_digits(den: int, nums, what: str) -> None:
    """``_check_digits`` on the entries n/den, den > 0, each printed as n/g
    over den/g with g = gcd(n, den).

    Neither part exceeds |n| or den, so below the limit they pass unreduced;
    only past it is each entry reduced and checked.
    """
    if den >= _PRINT_LIMIT or max(map(abs, nums), default=0) >= _PRINT_LIMIT:
        _check_digits([Fraction(n, den) for n in nums], what)


def polynomial_str(p: Polynomial) -> str:
    # Exponents need no check: both commands bound their inputs' degree by MAX_DEGREE.
    _check_ratio_digits(p.den, p.nums.values(), "a coefficient")
    return str(p)


def subspace_dict(s: Subspace) -> dict:
    """The canonical basis R / d printed from (d, R): one gcd per entry, none when d = 1."""
    d, rows = s.integer_echelon
    _check_ratio_digits(d, [x for row in rows for x in row], "a vector entry")
    text = str if d == 1 else lambda x: _ratio_str(x, d)
    return {"ambient_dim": s.ambient_dim, "basis": [list(map(text, row)) for row in rows]}


def _ratio_str(n: int, d: int) -> str:
    """n/d, d > 0, as ``str(Fraction(n, d))`` writes it."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


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
    d, rows = algebra.integer_structure
    _check_ratio_digits(d, [c for row in rows for _, t in row for _, c in t], "a coefficient")
    text = str if d == 1 else lambda c: _ratio_str(c, d)
    brackets = [
        {"i": i, "j": j, "terms": [{"k": k, "coefficient": text(c)} for k, c in terms]}
        for i, row in enumerate(rows)
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
    h = Subspace.span(n, [_parse_vector(v, n, "h_basis vector") for v in raw_h])
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


def _witness_data(witness) -> dict | list:
    """A witness's named parts in their order, each vector through ``vector_strs`` and a
    kind or rank as it is; a pre-Poisson counterexample, a pair of them, as a list."""
    if not isinstance(witness, dict):
        return [_witness_data(part) for part in witness]
    return {
        key: part if isinstance(part, (str, int)) else vector_strs(part)
        for key, part in witness.items()
    }


def _coisotropy_dict(result) -> dict:
    out = {"verdict": result.coisotropic, "provenance": _provenance(None)}
    if result.witness is not None:
        out["witness"] = _witness_data(result.witness)
    return out


def _pre_poisson_dict(verdict, c: AffineSubspace) -> dict:
    out = {"verdict": verdict.kind, "provenance": _provenance(verdict.sampling)}
    if verdict.rank is not None:
        out["rank"] = verdict.rank
    if verdict.kind == CERTIFIED_CONSTANT:
        out["constant_space"] = subspace_dict(c.span_at_base)
    if verdict.counterexample is not None:
        out["counterexample"] = _witness_data(verdict.counterexample)
    return out


def report_validate(problem: Problem) -> dict:
    # parse_model refuses a model that fails the Jacobi identity (exit 1).
    return {"command": "validate", "jacobi_ok": True, "dim": problem.algebra.dim}


def report_classify(problem: Problem) -> dict:
    c = problem.affine
    rep = classify(c, problem.sampling)
    return {
        "command": "classify",
        "affine_dim": c.dim,
        "direction": subspace_dict(c.direction),
        "coisotropic": _coisotropy_dict(rep.coisotropic),
        "pre_poisson": _pre_poisson_dict(rep.pre_poisson, c),
        "generic_rank": rep.generic_rank,
        "characteristic_rank_at_base": rep.characteristic_rank_at_base,
        "poisson_dirac_at_base": rep.poisson_dirac_at_base,
        "cosymplectic_at_base": rep.cosymplectic_at_base,
    }


def _extension_dict(ext, locus) -> dict:
    constancy = ext.constancy
    conormal = {"verdict": "certified" if constancy.certified else NOT_CONSTANT}
    out = {
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
        conormal["witness"] = _witness_data(constancy.witness)
    return out


def _build_extension(problem: Problem):
    ext = embedding_mod.extend(problem.affine, problem.r, problem.sampling)
    return ext, embedding_mod.cosymplectic_locus(ext, problem.sampling)


def report_extend(problem: Problem) -> dict:
    out = _extension_dict(*_build_extension(problem))
    out["command"] = "extend"
    return out


def report_pair(problem: Problem) -> dict:
    ext, locus = _build_extension(problem)
    pair = embedding_mod.symmetric_pair_analysis(ext)
    out = _extension_dict(ext, locus)
    out["command"] = "pair"
    out["k"] = subspace_dict(pair.k)
    out["symmetric_pair"] = {
        "decomposition": pair.decomposition,
        "k_subalgebra": pair.k_subalgebra,
        "kp_in_p": pair.kp_in_p,
        "pp_in_k": pair.pp_in_k,
        "symmetric_pair": pair.symmetric_pair,
    }
    # Certified constancy makes k + p = g direct and k closed (README, "The induced structure").
    induced = embedding_mod.induced_structure(ext.algebra, pair)
    out["induced_structure"] = serialize_model(induced, name="induced")
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


def report_bracket(problem: Problem, f_text: str, g_text: str) -> dict:
    algebra = problem.algebra
    try:
        f = parse_polynomial(f_text, algebra.dim)
        g = parse_polynomial(g_text, algebra.dim)
        bracket = poisson_bracket_poly(algebra, f, g)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    f_str, g_str = polynomial_str(f), polynomial_str(g)
    return {"command": "bracket", "f": f_str, "g": g_str, "bracket": polynomial_str(bracket)}


def report_casimir(problem: Problem, f_text: str) -> dict:
    try:
        f = parse_polynomial(f_text, problem.algebra.dim)
        casimir = casimir_check(problem.algebra, f)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return {"command": "casimir", "f": polynomial_str(f), "casimir": casimir}


# -- rendering and dispatch -------------------------------------------------


def render_json(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    A report holds dicts with str keys, lists, tuples, str, int, bool and
    None; any other key or value raises TypeError.  With an indent,
    ``json.dumps`` runs its pure-Python encoder, which took 12-16 % of an
    operation's time in the benchmark (CPython 3.11); this writer escapes
    strings with the C function ``json.dumps`` uses.
    """
    return _json_text(report, "\n") + "\n"


# The JSON text of a scalar, by its exact type: a container writes its scalar entries with it.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.get,
    type(None): lambda _: "null",
}


def _json_text(value, pad: str) -> str:
    """``value`` as indented JSON; ``pad`` is the newline and indent of its own line."""
    kind = type(value)
    inner = pad + "  "
    if kind is dict:
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str.
        items = []
        for key in sorted(value):
            text = _SCALAR_TEXT.get(type(entry := value[key]))
            entry = text(entry) if text else _json_text(entry, inner)
            items.append(f"{encode_basestring_ascii(key)}: {entry}")
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        separator = "," + inner
        try:  # most lists are vectors of rational strings
            body = separator.join(map(encode_basestring_ascii, value))
        except TypeError:
            texts = zip(value, map(_SCALAR_TEXT.get, map(type, value)))
            body = separator.join([t(e) if t else _json_text(e, inner) for e, t in texts])
        return "[" + inner + body + pad + "]"
    if kind in _SCALAR_TEXT:
        return _SCALAR_TEXT[kind](value)
    if isinstance(value, (str, int)):  # a subclass, written as json.dumps writes its base
        return encode_basestring_ascii(value) if isinstance(value, str) else int.__repr__(value)
    if isinstance(value, (dict, list, tuple)):
        return _json_text(dict(value) if isinstance(value, dict) else list(value), pad)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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


# name: (report builder, polynomial argument count, needs a problem file)
COMMANDS = {
    "validate": (report_validate, 0, False),
    "classify": (report_classify, 0, True),
    "extend": (report_extend, 0, True),
    "pair": (report_pair, 0, True),
    "algebroid": (report_algebroid, 0, True),
    "bracket": (report_bracket, 2, False),
    "casimir": (report_casimir, 1, False),
}
_COUNTS = ("no polynomial arguments", "one polynomial argument", "two polynomial arguments")


def run(command: str, problem: Problem, poly_args: tuple[str, ...] = ()) -> dict:
    """The report of ``COMMANDS[command]``; a wrong polynomial argument count is an InputError."""
    if command not in COMMANDS:
        raise InputError(f"unknown command {command!r}")
    build, count, _ = COMMANDS[command]
    if len(poly_args) != count:
        raise InputError(f"command {command!r} takes {_COUNTS[count]}")
    return build(problem, *poly_args)


def _load_problem(args) -> Problem:
    """The --problem file, or for a command that needs none, the --model with h = 0."""
    model_override = None
    if args.model:
        model_override = parse_model(_find_file(args.model, "model").read_text())
    if args.problem:
        path = _find_file(args.problem, "problem")
        data, base_dir = path.read_text(), path.parent
    elif model_override is None:
        raise InputError("either --problem or --model is required")
    elif COMMANDS[args.command][2]:
        raise InputError(f"command {args.command!r} needs --problem")
    else:
        data, base_dir = {"h_basis": []}, None
    return parse_problem(
        data, base_dir, model_override=model_override, samples=args.samples, seed=args.seed
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
