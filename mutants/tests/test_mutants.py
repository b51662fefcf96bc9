"""Tests of the mutation check `run.py`, on a toy project and on its own catalog.

Run from the repository root:  python3 -m pytest -q mutants/tests
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "mutants_run", Path(__file__).resolve().parents[1] / "run.py"
)
runner = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = runner
_spec.loader.exec_module(runner)

Mutant = runner.Mutant
ADD = "tests/test_toy.py::test_add"
OTHER = "tests/test_toy.py::test_other"


@pytest.fixture
def toy(tmp_path):
    """A project laid out like this one: src/, tests/ and pyproject.toml."""
    (tmp_path / "src").mkdir()
    (tmp_path / "tests").mkdir()
    (tmp_path / "pyproject.toml").write_text(
        '[tool.pytest.ini_options]\ntestpaths = ["tests"]\npythonpath = ["src"]\n'
    )
    (tmp_path / "src" / "toy.py").write_text("def add(a, b):\n    return a + b\n")
    (tmp_path / "tests" / "test_toy.py").write_text(
        "import pytest\n"
        "from toy import add\n\n"
        "def test_add():\n    assert add(2, 3) == 5\n\n"
        "def test_other():\n    assert True\n\n"
        "@pytest.mark.parametrize('b', [1, 2])\n"
        "def test_cases(b):\n    assert add(0, b) == b\n"
    )
    return tmp_path


def toy_run(toy, *mutants):
    return runner.run(list(mutants), root=toy)


def test_mutant_that_breaks_a_named_test_is_killed(toy):
    [r] = toy_run(toy, Mutant("minus", "src/toy.py", "a + b", "a - b", (ADD,)))
    assert r.killed and r.name == "minus"
    # a name without a parameter id fails when one of its cases fails
    [r] = toy_run(toy, Mutant("b2", "src/toy.py", "a + b", "a + b - (b == 2)",
                              ("tests/test_toy.py::test_cases",)))
    assert r.killed
    # the repository copy was mutated, never the project itself
    assert "a + b" in (toy / "src" / "toy.py").read_text()


def test_no_op_mutant_survives(toy):
    [r] = toy_run(toy, Mutant("swap", "src/toy.py", "a + b", "b + a", (ADD,)))
    assert not r.killed and ADD in r.detail


def test_mutant_must_fail_every_named_test(toy):
    [r] = toy_run(toy, Mutant("minus", "src/toy.py", "a + b", "a - b", (ADD, OTHER)))
    assert not r.killed and r.detail == f"still passing: {OTHER}"


@pytest.mark.parametrize(
    "mutant, match",
    [
        (Mutant("stale", "src/toy.py", "a * b", "a - b", (ADD,)), "found 0 times"),
        (Mutant("twice", "src/toy.py", "a", "c", (ADD,)), "found 3 times"),
        (Mutant("nofile", "src/gone.py", "a", "c", (ADD,)), "no file"),
        (Mutant("outside", "pyproject.toml", "src", "x", (ADD,)), "not under"),
        (Mutant("same", "src/toy.py", "a + b", "a + b", (ADD,)), "changes nothing"),
        # pytest exit 4: no such test
        (Mutant("badid", "src/toy.py", "a + b", "a - b",
                ("tests/test_toy.py::test_gone",)), "exit 4"),
        # the mutant breaks collection, so the named test is not found
        (Mutant("syntax", "src/toy.py", "a + b", "a +", (ADD,)), "exit 4"),
    ],
)
def test_broken_check_stops_the_run(toy, mutant, match):
    with pytest.raises(runner.BrokenCheck, match=match):
        toy_run(toy, mutant)


def test_failing_baseline_stops_the_run(toy):
    (toy / "tests" / "test_toy.py").write_text(
        "def test_add():\n    assert False\n"
    )
    with pytest.raises(runner.BrokenCheck, match="unmutated tests exit 1"):
        toy_run(toy, Mutant("minus", "src/toy.py", "a + b", "a - b", (ADD,)))


def test_main_exit_codes(monkeypatch, capsys):
    survivor = [runner.Result("m", False, "", 0.1)]
    monkeypatch.setattr(runner, "run", lambda *a, **k: survivor)
    assert runner.main([]) == 1
    assert "SURVIVED" in capsys.readouterr().out

    def broken(*a, **k):
        raise runner.BrokenCheck("stale anchor")

    monkeypatch.setattr(runner, "run", broken)
    assert runner.main([]) == 2
    assert "stale anchor" in capsys.readouterr().err


def test_catalog_anchors_hold_in_this_repository():
    """Every anchor occurs once, so a full run can start; the catalog covers
    each package module but `errors`, and the oracle can still fail through
    its own mutant."""
    runner.check_anchors(runner.MUTANTS)
    assert len(runner.MUTANTS) >= 25
    files = {Path(m.file).stem for m in runner.MUTANTS}
    modules = {p.stem for p in (runner.ROOT / "src" / "ballistic").glob("*.py")}
    assert (modules - {"errors", "__init__"}) | {"graph_oracle"} <= files
    oracle_kills = {m.file for m in runner.MUTANTS if runner.ORACLE_AGREES in m.tests}
    assert {runner.BUILDER, "tests/graph_oracle.py"} <= oracle_kills
