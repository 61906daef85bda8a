import json

import pytest

from schurlie import suites
from schurlie.errors import InternalInvariantError, InvalidArgument
from schurlie.suites import SUITES, make_report


def test_make_report_aggregates_and_sorts():
    report = make_report("demo", {"n": 2}, [
        {"key": "b", "pass": True},
        {"key": "a", "pass": False},
    ])
    assert [inst["key"] for inst in report["instances"]] == ["a", "b"]
    assert report["passed"] == 1 and report["failed"] == 1
    assert not report["ok"]
    assert report["schema"] == 1


def test_all_suites_run_small():
    small = {
        "equivariance": {"n": 2, "max_degree": 2},
        "dimension": {"n": 2, "max_degree": 2},
        "spechtwever": {"n": 2, "max_degree": 3},
        "star-laws": {"n": 2, "max_degree": 3, "trials": 5},
        "operad": {"n": 2, "trials": 5},
        "prop422": {"n": 2, "max_degree": 2},
        "lemma425": {"n": 2, "max_degree": 2},
        "generation": {"n": 2, "max_degree": 3},
        "mccool": {"n": 3},
        "johnson": {"n": 2},
        "pairs": {"n": 3, "depth": 2},
    }
    assert set(small) == set(SUITES)
    for name, kwargs in small.items():
        report = SUITES[name](seed=0, **kwargs)
        assert report["ok"], (name, [i for i in report["instances"] if not i["pass"]][:3])
        json.dumps(report)  # must be serializable


def test_suite_reports_are_deterministic():
    a = SUITES["star-laws"](n=2, max_degree=3, seed=11, trials=10)
    b = SUITES["star-laws"](n=2, max_degree=3, seed=11, trials=10)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = SUITES["star-laws"](n=2, max_degree=3, seed=12, trials=10)
    assert c["ok"]


@pytest.mark.parametrize("max_degree", [0, 1, 2])
def test_star_laws_refuses_max_degree_below_three(max_degree):
    # an associativity trial draws three factors of degree >= 1, which no
    # degree below 3 fits: the draw would loop forever
    with pytest.raises(InvalidArgument, match=f"max_degree >= 3, got {max_degree}"):
        SUITES["star-laws"](n=2, max_degree=max_degree)


def test_generation_refuses_unknown_generator_set():
    with pytest.raises(InvalidArgument, match="unknown generator set 'delta'"):
        SUITES["generation"](n=2, max_degree=3, generators="delta")


def test_lemma425_reports_a_failed_solver_check(monkeypatch):
    # the suite relies on the solver's own checks of its two equations
    def failing(n, i, j, u):
        raise InternalInvariantError("fixing condition violated")
    monkeypatch.setattr(suites, "find_annihilating_schur", failing)
    report = SUITES["lemma425"](n=2, max_degree=2)
    assert not report["ok"] and report["passed"] == 0
    for inst in report["instances"]:
        assert inst["pass"] is False
        assert inst["error"] == "fixing condition violated"
