import io
import json
import os
import random
import subprocess
import sys
from collections import OrderedDict
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpl import cli, embedding
from lpl.cli import (
    EXIT_INPUT_ERROR,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_REFUSED,
    MAX_DIM,
    MAX_SAMPLES,
    InputError,
    main,
    parse_model,
    parse_problem,
    parse_rational,
    polynomial_str,
    render_human,
    render_json,
    run,
    serialize_model,
    subspace_dict,
)
from lpl.embedding import induced_structure
from lpl.lie import LieAlgebra, validate_jacobi
from lpl.lie_poisson import MAX_DEGREE, Polynomial, parse_polynomial
from lpl.linalg import MAX_RATIONAL_CHARS, Subspace, vec
from lpl.submanifold import AffineSubspace

from conftest import (
    FIXTURES,
    bracket_tables,
    fraction_creations,
    fraction_serialize_model,
    random_subspace,
)


# ---------------------------------------------------------------------------
# rationals


def test_parse_rational():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational("+2/4") == Fraction(1, 2)


def test_parse_rational_rejects_bad_input():
    for bad in ["1/0", "0.5", "1e3", "a", "1/ 2", "", "--3", None, 2.5, True, False]:
        with pytest.raises(InputError):
            parse_rational(bad)


def test_parse_rational_bounds_the_length():
    longest = "1" * MAX_RATIONAL_CHARS
    assert parse_rational(longest) == Fraction(int(longest))
    for text in ["1" * (MAX_RATIONAL_CHARS + 1), "1/" + "3" * MAX_RATIONAL_CHARS]:
        with pytest.raises(InputError, match="maximum"):
            parse_rational(text)


# ---------------------------------------------------------------------------
# model files


def test_parse_model_round_trip(sl2, gl2, heisenberg):
    for algebra in (sl2, gl2, heisenberg):
        again = parse_model(serialize_model(algebra))
        assert again == algebra


@settings(max_examples=100, deadline=None)
@given(bracket_tables())
def test_serialize_model_matches_the_fraction_oracle(table):
    # Each constant prints from the integer form over d, with str alone when
    # d = 1; the oracle prints the Fraction constants.  A model file that
    # parses to an algebra prints back as itself.
    algebra = LieAlgebra.from_brackets(*table)
    printed = serialize_model(algebra, name="drawn")
    assert printed == fraction_serialize_model(algebra, name="drawn")
    if validate_jacobi(algebra).ok:
        assert parse_model(printed) == algebra


def test_pair_prints_the_induced_structure_from_integers(monkeypatch):
    # sl2 in the basis (H, E, F/2) has the constants 2, -2 and 1/2, so the
    # induced structure of its certified pair, sl2 itself, is held over d = 2.
    # It is built, checked and printed with no Fraction, and its Fraction
    # view, like the model's, is never built.
    problem = parse_problem((FIXTURES / "sl2half_cartan.json").read_text(), base_dir=FIXTURES)
    built = []

    def recorded(algebra, pair):
        built.append(induced_structure(algebra, pair))
        return built[-1]

    monkeypatch.setattr(embedding, "induced_structure", recorded)
    report = run("pair", problem)
    (induced,) = built
    assert induced == problem.algebra and induced.integer_structure == (2, (
        ((1, ((1, 4),)), (2, ((2, -4),))),
        ((0, ((1, -4),)), (2, ((0, 1),))),
        ((0, ((2, 4),)), (1, ((0, -1),))),
    ))
    terms = [t["coefficient"] for b in report["induced_structure"]["brackets"] for t in b["terms"]]
    assert terms == ["2", "-2", "1/2"]
    assert "structure" not in vars(induced) and "structure" not in vars(problem.algebra)
    pair = embedding.symmetric_pair_analysis(embedding.extend(problem.affine))
    calls = fraction_creations(monkeypatch)
    printed = serialize_model(induced_structure(problem.algebra, pair), name="induced")
    assert calls == [] and printed == report["induced_structure"]


def test_parse_model_errors():
    cases = [
        ("not json", "malformed"),
        # An integer literal over Python's digit limit fails in the JSON parser.
        ('{"dim": %s}' % ("1" * (MAX_RATIONAL_CHARS + 1)), "malformed"),
        (json.dumps([1, 2]), "object"),
        (json.dumps({"dim": 0}), "positive"),
        # One label only: code that built the labels or the dim**3 table
        # before checking the bound would stop at the label count instead.
        (json.dumps({"dim": 10**9, "basis": ["e1"]}), f"exceeds the maximum {MAX_DIM}"),
        (json.dumps({"dim": MAX_DIM + 1, "basis": ["e1"]}), "exceeds the maximum"),
        (json.dumps({"dim": 2, "basis": ["x"]}), "label"),
        (json.dumps({"dim": 2, "brackets": [{"i": 1, "j": 0}]}), "indices"),
        # Read with int(), these parse as dim 2 with [e1, e2] = e2.
        (
            '{"dim": 2.9, "brackets": [{"i": 0.5, "j": true, '
            '"terms": [{"k": 1, "coefficient": true}]}]}',
            "integer 'dim'",
        ),
        (
            json.dumps({"dim": 2, "brackets": [{"i": 0, "j": 1, "terms": [{"k": 1}]}]}),
            "bad rational",
        ),
        (
            json.dumps(
                {
                    "dim": 2,
                    "brackets": [
                        {"i": 0, "j": 1, "terms": [{"k": 0, "coefficient": "1/0"}]}
                    ],
                }
            ),
            "denominator",
        ),
        (
            json.dumps(
                {
                    "dim": 2,
                    "brackets": [
                        {"i": 0, "j": 1, "terms": [{"k": 5, "coefficient": "1"}]}
                    ],
                }
            ),
            "range",
        ),
    ]
    for text, needle in cases:
        with pytest.raises(InputError, match=needle):
            parse_model(text)


def test_parse_model_rejects_jacobi_failure():
    broken = {
        "dim": 3,
        "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 2, "coefficient": "-1"}]},
            {"i": 0, "j": 2, "terms": [{"k": 1, "coefficient": "-1"}]},
            {"i": 1, "j": 2, "terms": [{"k": 1, "coefficient": "1"}]},
        ],
    }
    with pytest.raises(InputError, match="Jacobi"):
        parse_model(json.dumps(broken))


# ---------------------------------------------------------------------------
# problem files


def test_parse_problem_fixture():
    text = (FIXTURES / "gl2_alt_slice.json").read_text()
    problem = parse_problem(text, base_dir=FIXTURES)
    assert problem.algebra.dim == 4
    assert problem.h == Subspace.span(
        4, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    assert problem.base == vec([1, 0, 0, 0])
    assert problem.r == Subspace.span(4, [[0, 0, 1, 1]])


def test_parse_problem_defaults_and_overrides(sl2):
    data = {"h_basis": [["1", "0", "0"]]}
    problem = parse_problem(data, model_override=sl2, samples=7, seed=3)
    assert problem.base == vec([0, 0, 0])
    assert problem.r is None
    assert problem.sampling.count == 7 and problem.sampling.seed == 3
    # The bounds on `samples` are inclusive; --samples overrides the file.
    data["samples"] = MAX_SAMPLES
    assert parse_problem(data, model_override=sl2).sampling.count == MAX_SAMPLES
    assert parse_problem(data, model_override=sl2, samples=0).sampling.count == 0
    data["samples"] = MAX_SAMPLES + 1
    assert parse_problem(data, model_override=sl2, samples=MAX_SAMPLES).sampling.count == MAX_SAMPLES


@pytest.mark.parametrize("seed", [-1, -5])
def test_parse_problem_refuses_a_negative_seed_key(sl2, seed):
    # Random(-n) draws the stream of Random(n): a negative seed would name
    # other evidence for the same points.
    data = {"h_basis": [["1", "0", "0"]], "seed": seed}
    with pytest.raises(InputError, match=f"'seed' must be at least 0, got {seed}"):
        parse_problem(data, model_override=sl2)
    assert parse_problem(data, model_override=sl2, seed=0).sampling.seed == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--problem", "sl2_transverse.json", "--seed", "-5"],
        ["validate", "--model", "sl2.json", "--seed", "-5"],
    ],
)
def test_main_refuses_a_negative_seed_flag(capsys, argv):
    assert main(argv) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: 'seed' must be at least 0, got -5\n"


def test_parse_problem_errors(sl2):
    with pytest.raises(InputError, match="model"):
        parse_problem({"h_basis": []})
    with pytest.raises(InputError, match="h_basis"):
        parse_problem({}, model_override=sl2)
    with pytest.raises(InputError, match="rationals"):
        parse_problem({"h_basis": [["1", "0"]]}, model_override=sl2)


# ---------------------------------------------------------------------------
# command dispatch


def load_fixture_problem(name):
    text = (FIXTURES / name).read_text()
    return parse_problem(text, base_dir=FIXTURES)


def test_run_classify_sl2_transverse():
    report = run("classify", load_fixture_problem("sl2_transverse.json"))
    assert report["coisotropic"]["verdict"] is False
    assert report["pre_poisson"]["verdict"] == "certified_constant"
    assert report["pre_poisson"]["rank"] == 3
    assert report["cosymplectic_at_base"] is True


def test_run_classify_sl2_coisotropic():
    report = run("classify", load_fixture_problem("sl2_coisotropic.json"))
    assert report["coisotropic"]["verdict"] is True
    report = run("classify", load_fixture_problem("sl2_character.json"))
    assert report["coisotropic"]["verdict"] is True


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP Open item 2: the sampled pre-Poisson verdict depends on how C is written",
)
def test_run_classify_verdict_depends_only_on_the_line():
    # All three describe the line through 0 with direction e1 (lambda = 0 or e1).
    names = ("gl2_line.json", "gl2_prepoisson.json", "gl2_alt_slice.json")
    verdicts = {run("classify", load_fixture_problem(n))["pre_poisson"]["verdict"] for n in names}
    assert len(verdicts) == 1


def test_run_pair_gl2():
    report = run("pair", load_fixture_problem("gl2_prepoisson.json"))
    assert report["k"] == {
        "ambient_dim": 4,
        "basis": [["1", "0", "0", "0"], ["0", "0", "0", "1"]],
    }
    assert report["symmetric_pair"]["symmetric_pair"] is True
    assert report["induced_structure"]["brackets"] == []


def test_run_pair_tests_k_for_closure_once(monkeypatch):
    # The induced structure reads the pair report's k_subalgebra instead of
    # testing k again.
    tested = []
    is_subalgebra = embedding.is_subalgebra

    def counted(algebra, u):
        tested.append(u)
        return is_subalgebra(algebra, u)

    monkeypatch.setattr(embedding, "is_subalgebra", counted)
    report = run("pair", load_fixture_problem("gl2_prepoisson.json"))
    assert report["induced_structure"] is not None
    assert tested.count(Subspace.span(4, [[1, 0, 0, 0], [0, 0, 0, 1]])) == 1


@pytest.mark.parametrize("command", ["extend", "pair"])
def test_run_extend_and_pair_never_form_the_span_at_base(monkeypatch, command):
    # On a certified C, extend needs the verdict's rank and d = ker B_h(base);
    # T_base C + sharp N*_base C is formed for the classify report alone.
    formed = []
    span_at_base = AffineSubspace.span_at_base.func
    monkeypatch.setattr(
        AffineSubspace, "span_at_base", property(lambda c: formed.append(c) or span_at_base(c))
    )
    names = ("heisenberg_center", "sl2_character", "sl2_coisotropic", "sl2_transverse")
    refused = []
    for name in names:
        try:
            run(command, load_fixture_problem(f"{name}.json"))
        except embedding.ConstancyNotCertified:
            refused.append(name)
    assert formed == []
    assert refused == (["sl2_transverse"] if command == "pair" else [])
    report = run("classify", load_fixture_problem("sl2_transverse.json"))
    assert report["pre_poisson"]["constant_space"] == subspace_dict(Subspace.full(3))
    assert len(formed) == 1


def test_run_classify_builds_the_base_coadjoint_rows_once(monkeypatch):
    # A certified classify reads coad_{h_a}(base) twice, for the
    # characteristic rank and for the constant space, and builds it once.
    calls = []
    integer_coad = LieAlgebra.integer_coad
    monkeypatch.setattr(
        LieAlgebra, "integer_coad", lambda *args: calls.append(args[1:]) or integer_coad(*args)
    )
    report = run("classify", load_fixture_problem("sl2_transverse.json"))
    assert report["pre_poisson"]["provenance"] == "certified"
    assert report["pre_poisson"]["constant_space"] == subspace_dict(Subspace.full(3))
    assert len(calls) == 1


def test_run_bracket_and_casimir(sl2):
    from lpl.cli import Problem
    from lpl.submanifold import SampleSpec

    problem = Problem(sl2, Subspace.zero(3), vec([0, 0, 0]), None, SampleSpec())
    rep = run("bracket", problem, ("nu1", "nu2"))
    assert rep["bracket"] == "-nu3"
    rep = run("casimir", problem, ("nu1^2 + nu2^2 - nu3^2",))
    assert rep["casimir"] is True
    rep = run("casimir", problem, ("nu1",))
    assert rep["casimir"] is False
    with pytest.raises(InputError):
        run("bracket", problem, ("nu1",))


# ---------------------------------------------------------------------------
# the executable


def test_main_validate_ok(capsys):
    assert main(["validate", "--model", "sl2.json"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "jacobi_ok: True" in out


def test_python_m_lpl_runs_from_a_checkout():
    # `python -m lpl` is the lpl command without an install: src on the path.
    root = Path(__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "lpl", "validate", "--model", "sl2.json", "--json"],
        capture_output=True, text=True, env=env, cwd=root, timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["jacobi_ok"] is True


def test_main_input_error(capsys):
    assert main(["classify", "--problem", "missing.json"]) == EXIT_INPUT_ERROR
    assert "error:" in capsys.readouterr().err


def test_main_refuses_nonconstant_rank(capsys):
    assert main(["extend", "--problem", "gl2_line.json"]) == EXIT_REFUSED
    assert "refused:" in capsys.readouterr().err


def test_main_refuses_pair_for_moving_conormal(capsys):
    assert main(["pair", "--problem", "gl2_alt_slice.json"]) == EXIT_REFUSED
    assert "refused:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["bracket", "--model", "sl2.json", "-nu1", "nu2"], ["validate", "--model", "sl2.json", "--bogus"]],
    ids=["polynomial-before-dashes", "unknown-option"],
)
def test_main_usage_error_is_an_input_error(capsys, argv):
    # Exit 2 is a mathematical refusal; argparse would exit 2 here.
    assert main(argv) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments:") and "after '--'" in err
    assert "Traceback" not in err


def test_main_help_and_dashes_still_work(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert main(["bracket", "--model", "sl2.json", "--", "-nu1", "nu2"]) == EXIT_OK
    assert "bracket: nu3" in capsys.readouterr().out


# aff(1): [x, y] = y.  Its coadjoint orbit through (0, 1) is open.
AFF1 = {
    "dim": 2,
    "basis": ["x", "y"],
    "brackets": [{"i": 0, "j": 1, "terms": [{"k": 1, "coefficient": "1"}]}],
}


def _point_problem(tmp_path, model, base):
    """A problem file with h = g, so that C is the point lambda."""
    n = len(base)
    h = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"model": model, "h_basis": h, "lambda": base}))
    return str(path)


@pytest.mark.parametrize(
    "model, base", [(AFF1, ["0", "1"]), ("sl2.json", ["0", "0", "1"])], ids=["aff1", "sl2"]
)
def test_main_algebroid_on_a_point_reads_its_base_once(capsys, tmp_path, model, base):
    argv = ["algebroid", "--problem", _point_problem(tmp_path, model, base), "--json"]
    assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert [entry["point"] for entry in report["orbit_dims"]] == [base]
    assert report["provenance"] == "certified"


def test_main_extend_to_a_point_is_decided_at_its_base(capsys, tmp_path):
    # The orbit through lambda is open, so R = 0 and P is the point lambda,
    # where <lambda, [x, y]> = 1 is nondegenerate.
    argv = ["extend", "--problem", _point_problem(tmp_path, AFF1, ["0", "1"]), "--json"]
    assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["P_tilde_direction"]["basis"] == []
    assert report["cosymplectic_locus"] == {
        "never_cosymplectic": False,
        "cosymplectic_at_base": True,
        "failing_points": [],
        "checked": 0,
        "provenance": "certified",
    }


@pytest.mark.parametrize("samples", ["0", "3"])
def test_main_refuses_a_rank_jump_below_eight_samples(capsys, samples):
    # extend's verdict walks at least 8 samples; on gl2_line the first one
    # already has another rank than the base, as with the default 64.
    assert main(["extend", "--problem", "gl2_line.json"]) == EXIT_REFUSED
    default = capsys.readouterr().err
    assert main(["extend", "--problem", "gl2_line.json", "--samples", samples]) == EXIT_REFUSED
    err = capsys.readouterr().err
    assert err == default
    # Points and ranks print as the reports print them, not as Python reprs.
    assert err == (
        "refused: rank differs between sampled points: "
        "rank 1 at (0, 0, 0, 0), rank 3 at (729, 0, 0, 0)\n"
    )


@pytest.mark.parametrize("command", ["extend", "pair"])
@pytest.mark.parametrize(
    "r_basis",
    [
        [["0", "1", "0", "0"]],  # the b axis lies in TC + sharp N*C
        [["0", "0", "1", "1"], ["0", "0", "0", "1"]],  # one vector more than dim d = 1
    ],
)
def test_main_refuses_an_r_that_is_not_a_complement(capsys, tmp_path, command, r_basis):
    problem = json.loads((FIXTURES / "gl2_alt_slice.json").read_text())
    problem["R_basis"] = r_basis
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main([command, "--problem", str(path)]) == EXIT_REFUSED
    err = capsys.readouterr().err
    assert err == "refused: R must complement TC + sharp N*C at the base point\n"


def test_main_reports_internal_error(capsys, monkeypatch):
    monkeypatch.setattr(embedding, "solve", lambda m, ncols, b: None)
    assert main(["pair", "--problem", "gl2_prepoisson.json"]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        # A lambda entry one character over the bound: a ValueError from int() without it.
        '{"model": "gl2.json", "h_basis": [["0", "1", "0", "0"]], "lambda": ["%s", "0", "0", "0"]}'
        % ("1" * (MAX_RATIONAL_CHARS + 1)),
        # An integer literal the JSON parser itself refuses to convert.
        '{"model": "gl2.json", "h_basis": [["0", "1", "0", "0"]], "lambda": [%s, 0, 0, 0]}'
        % ("1" * (MAX_RATIONAL_CHARS + 1)),
        '{"model": "gl2.json", "h_basis": [["0", "1", "0", "0"]], "samples": "many"}',
        '{"model": "gl2.json", "h_basis": [["0", "1", "0", "0"]], "seed": [1]}',
    ],
    ids=["long-rational", "long-int-literal", "samples-many", "seed-list"],
)
def test_main_rejects_oversized_and_non_integer_input(capsys, tmp_path, text):
    path = tmp_path / "problem.json"
    path.write_text(text)
    assert main(["classify", "--problem", str(path)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def _sl2_problem_with(field, value):
    """The sl2 problem with one integer field of the model or the problem replaced."""
    model = json.loads((FIXTURES / "sl2.json").read_text())
    problem = {"model": model, "h_basis": [["1", "0", "0"]], "samples": 64, "seed": 0}
    if field == "dim":
        model["dim"] = value
    elif field in ("i", "j"):
        model["brackets"][0][field] = value
    elif field == "k":
        model["brackets"][0]["terms"][0]["k"] = value
    else:
        problem[field] = value
    return problem


def test_main_accepts_the_integer_fields(capsys, tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_sl2_problem_with("seed", 1)))
    assert main(["classify", "--problem", str(path)]) == EXIT_OK


# sl2's first bracket is [e1, e2] = -e3, so i, j, k are 0, 1, 2; samples is 64
# and seed 0.  Each float truncates and each string converts to that valid
# value, so int() would accept them.
@pytest.mark.parametrize(
    "field, value",
    [
        ("dim", 3.5), ("dim", True), ("dim", "3"),
        ("i", 0.5), ("i", False), ("i", "0"),
        ("j", 1.5), ("j", True), ("j", "1"),
        ("k", 2.5), ("k", True), ("k", "2"),
        ("samples", 64.5), ("samples", True), ("samples", "64"),
        ("seed", 0.5), ("seed", False), ("seed", "0"),
    ],
)
def test_main_rejects_non_integer_fields(capsys, tmp_path, field, value):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(_sl2_problem_with(field, value)))
    assert main(["classify", "--problem", str(path)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "integer" in err and f"'{field}'" in err
    assert "Traceback" not in err


# Each field replaced by a JSON value that is not a list, or by an empty
# basis; iterating the numbers raised a TypeError, the string and the object
# read as labels, and a falsy basis read as absent (default labels).
@pytest.mark.parametrize(
    "field, value",
    [
        ("brackets", 5), ("brackets", None),
        ("terms", 3), ("terms", "k"),
        ("R_basis", 5), ("R_basis", "abc"),
        ("basis", "abc"), ("basis", {"a": 1, "b": 2, "c": 3}),
        ("basis", ""), ("basis", {}), ("basis", 0), ("basis", False), ("basis", []),
    ],
)
def test_main_rejects_non_list_containers(capsys, tmp_path, field, value):
    model = json.loads((FIXTURES / "sl2.json").read_text())
    problem = {"model": model, "h_basis": [["1", "0", "0"]]}
    if field == "terms":
        model["brackets"][0]["terms"] = value
    elif field == "R_basis":
        problem["R_basis"] = value
    else:
        model[field] = value
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["extend", "--problem", str(path)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"'{field}'" in err
    assert "Traceback" not in err


# A misspelt key at each level of the input; "lamda" made lambda default to 0.
@pytest.mark.parametrize("level", ["problem", "model", "bracket", "term"])
def test_main_rejects_unknown_keys(capsys, tmp_path, level):
    model = json.loads((FIXTURES / "sl2.json").read_text())
    problem = {"model": model, "h_basis": [["1", "0", "0"]]}
    where = {
        "problem": problem,
        "model": model,
        "bracket": model["brackets"][0],
        "term": model["brackets"][0]["terms"][0],
    }[level]
    where["lamda"] = ["0", "0", "1"]
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    assert main(["classify", "--problem", str(path)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err == f"error: unknown {level} key(s): 'lamda'\n"


def test_parse_model_requires_a_list_of_labels():
    with pytest.raises(InputError, match="'basis'"):
        parse_model(json.dumps({"dim": 3, "basis": "abc"}))
    with pytest.raises(InputError, match="'basis' labels must be strings"):
        parse_model(json.dumps({"dim": 2, "basis": ["x", 2]}))
    assert parse_model(json.dumps({"dim": 3, "basis": ["a", "b", "c"]})).labels == ("a", "b", "c")
    for model in ({"dim": 2}, {"dim": 2, "basis": None}):
        assert parse_model(json.dumps(model)).labels == ("e1", "e2")


def test_main_rejects_a_repeated_bracket(capsys, tmp_path):
    # The second (0, 1) entry replaced the first: this parsed as [e1, e2] = 5 e1.
    terms = [[{"k": 1, "coefficient": "1"}], [{"k": 0, "coefficient": "5"}]]
    model = {"dim": 2, "brackets": [{"i": 0, "j": 1, "terms": t} for t in terms]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert main(["validate", "--model", str(path)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "(0, 1)" in err
    assert "Traceback" not in err


def test_model_next_to_the_problem_shadows_the_fixture(capsys, tmp_path):
    # A local gl2.json holding sl2 (dimension 3) wins over the bundled gl2 (dimension 4).
    (tmp_path / "gl2.json").write_text((FIXTURES / "sl2.json").read_text())
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"model": "gl2.json", "h_basis": [["1", "0", "0"]]}))
    assert main(["validate", "--problem", str(path), "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["dim"] == 3


def test_main_names_a_missing_model_file(capsys, tmp_path):
    missing = str(tmp_path / "no_such_model.json")
    assert main(["validate", "--model", missing]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "model file" in err and "no_such_model.json" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("model", [5, None, True, ["sl2.json"]])
def test_main_rejects_a_model_that_is_neither_a_path_nor_an_object(capsys, tmp_path, model):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"model": model, "h_basis": [["1", "0", "0"]]}))
    assert main(["classify", "--problem", str(path)]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: 'model' must be a path or an inline model object\n"


def test_an_unknown_command_is_an_input_error(capsys):
    # argparse's choices stop an unknown command before run is reached, and
    # run refuses one on its own with the InputError that main maps to exit 1.
    with pytest.raises(InputError, match="unknown command 'frobnicate'"):
        run("frobnicate", load_fixture_problem("sl2_transverse.json"))
    assert main(["frobnicate", "--problem", "sl2_transverse.json"]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err.startswith("error: argument command: invalid choice: 'frobnicate'")


@pytest.mark.parametrize("count", [MAX_SAMPLES + 1, -1])
@pytest.mark.parametrize("where", ["file", "command-line", "model-only"])
def test_main_rejects_out_of_range_samples(capsys, tmp_path, where, count):
    # `validate` draws no sample, so code without the bound exits 0 at once.
    path = tmp_path / "problem.json"
    problem = {"model": "sl2.json", "h_basis": [["1", "0", "0"]]}
    if where == "file":
        problem["samples"] = count
    path.write_text(json.dumps(problem))
    if where == "model-only":
        argv = ["validate", "--model", "sl2.json", "--samples", str(count)]
    else:
        argv = ["validate", "--problem", str(path)]
        if where == "command-line":
            argv += ["--samples", str(count)]
    assert main(argv) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'samples'" in err
    assert "Traceback" not in err


# name: (polynomial argument count, needs a problem file), as README "Command line" has them.
USAGE = {
    "validate": (0, False),
    "classify": (0, True),
    "extend": (0, True),
    "pair": (0, True),
    "algebroid": (0, True),
    "bracket": (2, False),
    "casimir": (1, False),
}
TAKES = ("no polynomial arguments", "one polynomial argument", "two polynomial arguments")


def test_command_table_gives_each_command_its_usage():
    assert {name: (count, needs) for name, (_, count, needs) in cli.COMMANDS.items()} == USAGE


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_main_names_the_polynomial_argument_count(capsys, command):
    count, needs_problem = USAGE[command]
    source = ["--problem", "sl2_transverse.json"] if needs_problem else ["--model", "sl2.json"]
    for wrong in sorted({0, 1, 2, 3} - {count}):
        assert main([command, *source, *["nu1"] * wrong]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"error: command {command!r} takes {TAKES[count]}\n"


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_main_model_alone_serves_the_commands_without_a_problem(capsys, command):
    # --samples 0 is a valid count; a model-only problem parses it like a file's.
    count, needs_problem = USAGE[command]
    code = main([command, "--model", "sl2.json", "--samples", "0", *["nu1"] * count])
    err = capsys.readouterr().err
    if needs_problem:
        assert (code, err) == (EXIT_INPUT_ERROR, f"error: command {command!r} needs --problem\n")
    else:
        assert (code, err) == (EXIT_OK, "")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_main_needs_a_problem_or_a_model(capsys, command):
    assert main([command]) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == "error: either --problem or --model is required\n"


def test_main_json_is_deterministic(capsys):
    args = ["classify", "--problem", "sl2_transverse.json", "--json"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    parsed = json.loads(first)
    assert parsed["command"] == "classify"
    assert first == render_json(parsed)


def test_main_bracket_with_polynomials(capsys):
    assert main(["bracket", "--model", "sl2.json", "nu1", "nu3", "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["bracket"] == "-nu2"


def test_main_bad_polynomial(capsys):
    assert main(["casimir", "--model", "sl2.json", "nu9"]) == EXIT_INPUT_ERROR


def test_main_rejects_an_exponent_coefficient(capsys):
    # As a Fraction, 1e5000 is an integer of 5001 digits that str() refuses
    # to print; a coefficient is a p or p/q, as in the JSON inputs.
    assert main(["bracket", "--model", "sl2.json", "1e5000*nu1", "nu2"]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: bad factor '1e5000' in polynomial")
    assert "Traceback" not in err


def _power_of_ten(digits):
    return "1" + "0" * (digits - 1)


@pytest.mark.parametrize(
    "command, polys",
    [
        ("bracket", lambda a, b: [f"{a}*{b}*nu1", "nu2"]),
        ("bracket", lambda a, b: [f"1/{a}*1/{b}*nu1", "nu2"]),
        ("casimir", lambda a, b: [f"{a}*{b}*nu1^2"]),
        ("bracket", lambda a, b: [f"{a}*nu1", f"{b}*nu2"]),  # only the bracket is that long
    ],
)
@pytest.mark.parametrize("digits", [MAX_RATIONAL_CHARS, MAX_RATIONAL_CHARS + 1])
def test_main_bounds_the_digits_of_a_coefficient(capsys, command, polys, digits):
    # Each factor fits; their product, a coefficient of ``digits`` digits,
    # prints up to the limit and is an input error past it, not a traceback
    # from str().
    a, b = _power_of_ten(2151), _power_of_ten(digits - 2150)
    code = main([command, "--model", "sl2.json", "--json", "--", *polys(a, b)])
    out, err = capsys.readouterr()
    if digits <= MAX_RATIONAL_CHARS:
        assert code == EXIT_OK
        assert _power_of_ten(digits) in out
    else:
        assert code == EXIT_INPUT_ERROR
        assert err == f"error: a coefficient has more than {MAX_RATIONAL_CHARS} digits\n"


def test_printers_reduce_each_entry_over_the_one_denominator(monkeypatch):
    # Subspaces print from (d, R) and polynomials from (den, nums), entry n
    # as n/g over d/g: what str() of the Fraction prints, with no Fraction
    # created on the way.
    rng = random.Random(97)
    cases = [random_subspace(rng, rng.randint(1, 6)) for _ in range(200)]
    expected = [[[str(e) for e in row] for row in s.basis] for s in cases]
    cases = [Subspace.integer_span(s.ambient_dim, s.integer_echelon[1]) for s in cases]
    calls = fraction_creations(monkeypatch)
    printed = [subspace_dict(s) for s in cases]
    assert calls == []
    assert printed == [{"ambient_dim": s.ambient_dim, "basis": b} for s, b in zip(cases, expected)]
    assert sum(s.integer_echelon[0] > 1 for s in cases) > 50


def test_digit_check_reads_each_reduced_entry():
    # Over the one denominator a * b, with a and b coprime, 1/a and 1/b have
    # more than MAX_RATIONAL_CHARS digits; reduced, neither has, so both print.
    a, b = 10**2200, int("7" * 2200)
    p = parse_polynomial(f"1/{a}*nu1 + 1/{b}*nu2", 2)
    s = Subspace.span(3, [[1, Fraction(1, a), Fraction(1, b)]])
    assert p.den == s.integer_echelon[0] == a * b >= 10**MAX_RATIONAL_CHARS
    assert polynomial_str(p) == f"1/{a}*nu1 + 1/{b}*nu2"
    assert subspace_dict(s)["basis"] == [["1", f"1/{a}", f"1/{b}"]]
    # One entry whose reduced part is that long is refused.
    for entry in (Fraction(1, a * b), Fraction(a * b, 3)):
        with pytest.raises(InputError, match="a coefficient has more than"):
            polynomial_str(Polynomial(2, {(1, 0): entry, (0, 1): Fraction(1, 3)}))
        with pytest.raises(InputError, match="a vector entry has more than"):
            subspace_dict(Subspace.span(3, [[1, entry, Fraction(1, 3)]]))


@pytest.mark.parametrize("digits", [MAX_RATIONAL_CHARS + 1])
def test_main_bounds_the_digits_of_an_exponent(capsys, digits):
    # {nu1^N nu2, nu3} on sl2 would have the term nu1^(N + 1), of ``digits``
    # digits with N all nines.  A factor, like any rational, is at most
    # MAX_RATIONAL_CHARS long, so the exponent string is refused before int()
    # reads it, for both commands.
    f = "nu1^" + "9" * (digits - 1) + "*nu2"
    for argv in (["bracket", f, "nu3"], ["casimir", f]):
        code = main([argv[0], "--model", "sl2.json", "--json", *argv[1:]])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR and out == ""
        assert err.startswith("error: bad factor 'nu1^999") and len(err) < 2 * digits


def _long_point_problem(tmp_path, seed):
    """gl2 and a central fifth basis vector z, h = span(a, b, c), lambda's z entry
    MAX_RATIONAL_CHARS nines: the rank of TC + sharp N*C differs between the base and
    some sample, and the z entry of a sample is that entry plus the sample's shift."""
    model = json.loads((FIXTURES / "gl2.json").read_text())
    model.update(dim=5, basis=[*model["basis"], "z"])
    h = [[str(int(i == j)) for j in range(5)] for i in range(3)]
    lam = ["0", "0", "0", "0", "9" * MAX_RATIONAL_CHARS]
    path = tmp_path / "long_point.json"
    path.write_text(json.dumps({"model": model, "h_basis": h, "lambda": lam, "seed": seed}))
    return str(path)


@pytest.mark.parametrize("command", ["classify", "extend", "pair"])
def test_main_bounds_the_digits_of_a_counterexample_point(capsys, tmp_path, command):
    # At seed 1 the counterexample point has a z entry of MAX_RATIONAL_CHARS + 1
    # digits.  classify prints it in its report and extend and pair in their
    # refusal; each is the same input error, not a traceback from str().
    assert main([command, "--problem", _long_point_problem(tmp_path, 1)]) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: a vector entry has more than {MAX_RATIONAL_CHARS} digits\n"


def test_main_prints_a_refusal_point_up_to_the_digit_limit(capsys, tmp_path):
    # At seed 0 the sample's z entry has MAX_RATIONAL_CHARS digits, and the
    # refusal prints it whole.
    assert main(["extend", "--problem", _long_point_problem(tmp_path, 0)]) == EXIT_REFUSED
    err = capsys.readouterr().err
    assert err.startswith("refused: rank differs between sampled points: rank 2 at (0, 0, 0, 0, ")
    z_entries = [part.split(")")[0].split(", ")[-1] for part in err.split("(")[1:]]
    assert z_entries[0] == "9" * MAX_RATIONAL_CHARS
    assert len(z_entries) == 2 and len(z_entries[1]) == MAX_RATIONAL_CHARS


@pytest.mark.parametrize("degree", [MAX_DEGREE, MAX_DEGREE + 1])
def test_main_bounds_the_degree_of_a_term(capsys, degree):
    # A term of degree MAX_DEGREE is taken by both commands; one more is an
    # input error from the bracket and from the Casimir test alike.
    f = f"nu1^{degree - 2}*nu2*nu3"
    for argv in (["bracket", f, "nu3"], ["bracket", "nu3", f], ["casimir", f]):
        code = main([argv[0], "--model", "sl2.json", "--json", "--", *argv[1:]])
        out, err = capsys.readouterr()
        if degree <= MAX_DEGREE:
            assert code == EXIT_OK and err == ""
            assert json.loads(out)["f" if argv[0] == "casimir" else "bracket"]
        else:
            assert code == EXIT_INPUT_ERROR and out == ""
            assert err == f"error: a term has degree over the maximum {MAX_DEGREE}\n"
    if degree <= MAX_DEGREE:
        # {nu1^62 nu2 nu3, nu3} = 62 nu1^61 nu2 nu3 {nu1, nu3} + nu1^62 nu3 {nu2, nu3}, with
        # {nu1, nu3} = -nu2 and {nu2, nu3} = nu1 on sl2: the result has degree MAX_DEGREE.
        assert main(["bracket", "--model", "sl2.json", "--json", f, "nu3"]) == EXIT_OK
        expected = f"nu1^{degree - 1}*nu3 - {degree - 2}*nu1^{degree - 3}*nu2^2*nu3"
        assert json.loads(capsys.readouterr().out)["bracket"] == expected


@pytest.mark.parametrize("str_digits", [0, 640])
def test_check_digits_refuses_exactly_at_the_limit(str_digits):
    # The check takes one max over the numerators' magnitudes and one over
    # the denominators, so an entry reaches the limit iff the largest does,
    # whatever its place, sign or type.  It compares integers only: the
    # interpreter's own digit limit for str() (0 is none) does not move it.
    top = 10**MAX_RATIONAL_CHARS
    fits = [top - 1, 1 - top, Fraction(1, top - 1), Fraction(top - 1, 7), Fraction(-1, 3)]
    over = [top, -top, Fraction(1, top), Fraction(-top, 7)]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(str_digits)
    try:
        for entries in ([], fits, tuple(fits)):
            cli._check_digits(entries, "a vector entry")
            cli._check_digits(iter(entries), "a vector entry")
        for big in over:
            for at in range(3):
                entries = [Fraction(1, 2), 3, Fraction(-5, 7)]
                entries[at] = big
                for numbers in (entries, iter(entries)):
                    with pytest.raises(InputError) as refused:
                        cli._check_digits(numbers, "a vector entry")
                    message = f"a vector entry has more than {MAX_RATIONAL_CHARS} digits"
                    assert refused.value.args == (message,)
    finally:
        sys.set_int_max_str_digits(saved)


def test_vector_strs_reads_all_int_vectors_like_the_digit_check():
    # A vector of ints takes one max of their sizes, any other the full
    # digit check: both give str of each entry, and refuse at the same limit
    # with the same error.
    top = 10**MAX_RATIONAL_CHARS
    for entries in ([], [0], [top - 1, 1 - top, 7], [3, Fraction(1, 2)], [True, 2]):
        for v in (entries, tuple(entries)):
            assert cli.vector_strs(v) == [str(e) for e in v]
    for big in (top, -top, Fraction(top, 3), Fraction(1, top)):
        for v in ([1, big], [big, 0], [Fraction(1, 2), big]):
            with pytest.raises(InputError) as refused:
                cli.vector_strs(v)
            message = f"a vector entry has more than {MAX_RATIONAL_CHARS} digits"
            assert refused.value.args == (message,)


def _with_lambda(tmp_path, fixture, base):
    problem = json.loads((FIXTURES / fixture).read_text())
    problem["lambda"] = base
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    return str(path)


@pytest.mark.parametrize("fixture", ["gl2_line.json", "gl2_prepoisson.json", "sl2_transverse.json"])
def test_main_bounds_the_digits_of_a_report_point(capsys, tmp_path, fixture):
    # Each entry of lambda fits, and entry 0 (gl2) or 2 (sl2) lies on a
    # direction of C: the sample points that the orbit report prints add an
    # integer shift to it, and a positive one crosses the limit.
    n = len(json.loads((FIXTURES / fixture).read_text())["lambda"])
    base = ["9" * MAX_RATIONAL_CHARS if i % 2 == 0 else "1" for i in range(n)]
    argv = ["algebroid", "--problem", _with_lambda(tmp_path, fixture, base), "--json"]
    assert main(argv) == EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        f"error: a vector entry has more than {MAX_RATIONAL_CHARS} digits\n"
    )


def test_main_prints_a_report_point_of_the_longest_length(capsys, tmp_path):
    # On gl2_line the direction of C is the first coordinate, so every point
    # keeps lambda's second entry: a number of exactly the limit's length.
    longest = "9" * MAX_RATIONAL_CHARS
    argv = ["algebroid", "--json", "--problem"]
    argv.append(_with_lambda(tmp_path, "gl2_line.json", ["1", longest, "1", "1"]))
    assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert all(entry["point"][1] == longest for entry in report["orbit_dims"])


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--model", "sl2.json", "nu1", "nu2"],
        ["classify", "--problem", "sl2_transverse.json", "stray"],
        ["algebroid", "--problem", "gl2_line.json", "nu1"],
    ],
)
def test_main_refuses_stray_polynomial_arguments(capsys, argv):
    assert main(argv) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err == f"error: command {argv[0]!r} takes no polynomial arguments\n"


# Terms of the polynomial grammar, with integer factors long enough that a
# product passes the digit limit, and some garbage.
_FACTORS = st.one_of(
    st.integers(1, 3).map("nu{}".format),
    st.tuples(st.integers(1, 3), st.integers(0, 4)).map(lambda t: "nu{}^{}".format(*t)),
    st.integers(0, 10**6).map(str),
    st.tuples(st.integers(0, 99), st.integers(0, 99)).map("{0[0]}/{0[1]}".format),
    st.integers(1500, 3000).map(lambda n: "7" * n),
    st.text(alphabet="nu0123456789^*/+-. e", max_size=8),
)
_TERMS = st.lists(_FACTORS, min_size=1, max_size=4).map("*".join)
_POLYNOMIALS = st.lists(
    st.tuples(st.sampled_from(["", "+", "-", " - "]), _TERMS), min_size=1, max_size=3
).map(lambda terms: "".join(sign + term for sign, term in terms))


@settings(max_examples=40, deadline=None)
@given(f=_POLYNOMIALS, g=_POLYNOMIALS)
def test_main_polynomial_commands_exit_cleanly(f, g):
    # Any exception escaping main fails the test.  The arguments follow "--",
    # so one that starts with "-" is not read as an option.
    for command, polys in (("bracket", [f, g]), ("casimir", [f])):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([command, "--model", "sl2.json", "--", *polys])
        assert code in (EXIT_OK, EXIT_INPUT_ERROR)


# Report-like JSON values: str keys and strings with quotes, backslashes,
# control and non-ASCII characters, ints past 2**64 either side, and
# possibly empty dicts, lists and tuples at any depth.
_JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028\xe9\U0001f600'), st.characters()),
    max_size=5,
)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**64 - 2, 2**80),
    st.integers(-(2**80), -1),
    _JSON_TEXT,
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(_JSON_TEXT, max_size=4),
        st.dictionaries(_JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_render_json_writes_the_bytes_of_json_dumps(value):
    assert render_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


class _Level(IntEnum):
    HIGH = 7


class _Pair(NamedTuple):
    left: object
    right: object


class _Label(str):
    pass


@pytest.mark.parametrize(
    "value",
    [
        _Level.HIGH,
        _Label("a\n"),
        OrderedDict([("b", _Level.HIGH), ("a", [_Label("x"), True])]),
        _Pair(None, {"k": _Pair(1, "2")}),
        [_Label("s"), "t"],
    ],
    ids=["IntEnum", "str", "OrderedDict", "NamedTuple", "str_list"],
)
def test_render_json_writes_a_subclass_as_its_json_type(value):
    assert render_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("bad", [0.5, Fraction(1, 2), {"1"}], ids=["float", "Fraction", "set"])
@pytest.mark.parametrize(
    "place",
    [
        lambda v: v,
        lambda v: {"a": [{"b": v}]},
        lambda v: ["1", "2", v],
        lambda v: ("x", [1, v]),
    ],
    ids=["alone", "nested", "after_strings", "in_a_tuple"],
)
def test_render_json_refuses_a_value_outside_a_report(bad, place):
    # json.dumps writes a float; a report never holds one, so the writer refuses it.
    with pytest.raises(TypeError):
        render_json(place(bad))


@pytest.mark.parametrize("key", [1, 0.5, None, True])
def test_render_json_refuses_a_key_that_is_not_a_str(key):
    with pytest.raises(TypeError):
        render_json({"a": {key: "1"}})


def test_render_human_nested():
    text = render_human({"a": {"b": 1}, "c": [{"d": "x"}], "e": True})
    assert "a:" in text and "b: 1" in text and "e: True" in text
    assert text.endswith("\n")
