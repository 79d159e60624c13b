"""Every bundled fixture and command against a committed report snapshot.

The snapshot holds the exact ``--json`` bytes (or the refusal/error line) of
each case, so a change that moves any report byte fails here.  Regenerate it
deliberately with ``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import json
from pathlib import Path

import pytest

from lpl.cli import Problem, parse_model, parse_problem, render_json, run
from lpl.linalg import Subspace, zero_vector
from lpl.submanifold import SampleSpec

from conftest import FIXTURES

SNAPSHOT = Path(__file__).parent / "golden_reports.json"
PROBLEM_COMMANDS = ("classify", "extend", "pair", "algebroid")


def _model_cases(algebra):
    n = algebra.dim
    quadratic = " + ".join(f"nu{i + 1}^2" for i in range(n))
    yield "validate", ()
    yield "bracket", ("nu1", f"nu{n}")
    yield "casimir", (quadratic,)


def cases():
    """(key, command, problem, polynomial args) for every fixture."""
    for path in sorted(FIXTURES.glob("*.json")):
        data = json.loads(path.read_text())
        if "model" in data:
            problem = parse_problem(data, base_dir=path.parent)
            for command in PROBLEM_COMMANDS:
                yield f"{path.name}::{command}", command, problem, ()
        else:
            algebra = parse_model(data)
            n = algebra.dim
            problem = Problem(algebra, Subspace.zero(n), zero_vector(n), None, SampleSpec())
            for command, polys in _model_cases(algebra):
                yield f"{path.name}::{command}", command, problem, polys


def outcome(command, problem, polys) -> str:
    """The report bytes, or the exception class and message of a refusal."""
    try:
        return render_json(run(command, problem, polys))
    except ValueError as exc:  # input errors and refusals alike
        return f"{type(exc).__name__}: {exc}\n"


def current() -> dict:
    return {key: outcome(command, problem, polys) for key, command, problem, polys in cases()}


@pytest.fixture(scope="module")
def snapshot() -> dict:
    return json.loads(SNAPSHOT.read_text())


@pytest.mark.parametrize(
    "key, command, problem, polys", [pytest.param(*case, id=case[0]) for case in cases()]
)
def test_report_matches_snapshot(snapshot, key, command, problem, polys):
    assert outcome(command, problem, polys) == snapshot[key]


def test_snapshot_covers_every_case(snapshot):
    assert sorted(snapshot) == sorted(key for key, *_ in cases())


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(current(), sort_keys=True, indent=1) + "\n")
