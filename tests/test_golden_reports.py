"""Every bundled fixture and command against a committed report snapshot.

The snapshot holds the exact ``--json`` bytes (or the refusal/error line) of
each case, so a change that moves any report byte fails here.  A second
snapshot holds the human text of the commands that print a witness, on the
fixtures that have one, as its key order comes from the library, and of the
same commands on a fixture whose induced structure has a constant 1/2.  Regenerate
both deliberately with ``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

import json
from pathlib import Path

import pytest

from lpl.cli import COMMANDS, parse_model, parse_problem, render_human, render_json, run

from conftest import FIXTURES

SNAPSHOT = Path(__file__).parent / "golden_reports.json"
HUMAN_SNAPSHOT = Path(__file__).parent / "golden_human.json"
PROBLEM_COMMANDS = [name for name, (_, _, needs_problem) in COMMANDS.items() if needs_problem]
# The fixtures with a coisotropy, pre-Poisson or constancy witness, and the
# commands that print one.
WITNESS_FIXTURES = (
    "gl2_alt_slice.json",
    "gl2_line.json",
    "gl2_prepoisson.json",
    "sl2_transverse.json",
)
WITNESS_COMMANDS = ("classify", "extend", "pair")
# sl2 in the basis (H, E, F/2), constants 2, -2 and 1/2: its certified pair
# prints the induced structure from integer constants over d = 2.
FRACTION_FIXTURES = ("sl2half_cartan.json",)


def _model_cases(algebra):
    """(key suffix, command, polynomial args); the suffix is the command unless it repeats."""
    n = algebra.dim
    quadratic = " + ".join(f"nu{i + 1}^2" for i in range(n))
    quartic = f"-2/3*nu1^3*nu{n} + 1/2*nu{n}^4 - nu1^2 + 7"
    cubic = f"-nu{n}^3 + 5/2*nu1*nu2 - 1/3"
    yield "validate", "validate", ()
    yield "bracket", "bracket", ("nu1", f"nu{n}")
    yield "casimir", "casimir", (quadratic,)
    yield "bracket_quartic", "bracket", (quartic, cubic)
    yield "casimir_quartic", "casimir", (quartic,)


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
            # What the command line builds for --model without --problem.
            problem = parse_problem({"h_basis": []}, model_override=algebra)
            for name, command, polys in _model_cases(algebra):
                yield f"{path.name}::{name}", command, problem, polys


def human_cases():
    """The cases of ``cases`` whose human text prints a witness, or their refusal, and
    the same commands on ``FRACTION_FIXTURES``."""
    for key, command, problem, polys in cases():
        fixture, _ = key.split("::")
        if fixture in WITNESS_FIXTURES + FRACTION_FIXTURES and command in WITNESS_COMMANDS:
            yield key, command, problem, polys


def outcome(command, problem, polys, render=render_json) -> str:
    """The rendered report, or the exception class and message of a refusal."""
    try:
        return render(run(command, problem, polys))
    except ValueError as exc:  # input errors and refusals alike
        return f"{type(exc).__name__}: {exc}\n"


def current() -> dict:
    return {key: outcome(command, problem, polys) for key, command, problem, polys in cases()}


def current_human() -> dict:
    return {
        key: outcome(command, problem, polys, render_human)
        for key, command, problem, polys in human_cases()
    }


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


def test_human_text_matches_snapshot():
    expected = json.loads(HUMAN_SNAPSHOT.read_text())
    assert len(expected) == len(WITNESS_FIXTURES + FRACTION_FIXTURES) * len(WITNESS_COMMANDS)
    assert current_human() == expected


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(current(), sort_keys=True, indent=1) + "\n")
    HUMAN_SNAPSHOT.write_text(json.dumps(current_human(), sort_keys=True, indent=1) + "\n")
