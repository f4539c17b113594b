"""The record classes' contracts: immutability, equality, hashing, pickling,
and a package import that loads no ``dataclasses``."""

import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import digsym
from digsym.construct import cayley_spec, circuit, cyclic_table, paley_tournament, quotient_digraph
from digsym.digraph import build
from digsym.errors import BadParameter
from digsym.symmetry import TransitivityReport, transitivity_report
from digsym.verify import CheckResult, SurveyConfig, default_config


def frozen_records():
    """One instance of each immutable record class, with one of its fields."""
    g = circuit(6)
    records = [
        (build(3, [(0, 1)]), "arcs"),
        (g, "spec"),
        (g.spec, "conn"),
        (quotient_digraph(g, [(0, 3), (1, 4), (2, 5)]), "block_map"),
        (transitivity_report(g), "orbit_counts"),
        (CheckResult("T1.2", "pass"), "status"),
        (default_config(), "seed"),
    ]
    return [pytest.param(r, f, id=type(r).__name__) for r, f in records]


@pytest.mark.parametrize("record, field", frozen_records())
def test_fields_cannot_be_set_or_deleted(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = None


def test_transitivity_report_equality_ignores_orbit_counts():
    report = transitivity_report(circuit(5))
    fields = report.to_dict()
    recounted = TransitivityReport(**{**fields, "orbit_counts": {}})
    assert report == recounted and not report != recounted
    assert hash(report) == hash(recounted)
    assert report != TransitivityReport(**{**fields, "max_arc_s": 0})


def test_named_report_keeps_every_other_field_and_the_counts():
    g = paley_tournament(7)
    plain, named = transitivity_report(g), transitivity_report(g, name="x")
    assert named.digraph == "x"
    assert {**named.to_dict(), "digraph": plain.digraph} == plain.to_dict()


def test_survey_config_round_trips_through_its_dict():
    config = default_config()
    for data in (config.to_dict(), json.loads(json.dumps(config.to_dict()))):
        back = SurveyConfig.from_dict(data)
        assert back == config and hash(back) == hash(config)
    with pytest.raises(BadParameter, match="unknown survey config keys"):
        SurveyConfig.from_dict({**config.to_dict(), "bogus": 1})


def test_cayley_specs_of_equal_tables_are_equal():
    assert cyclic_table(7) == cyclic_table(7) and hash(cyclic_table(7)) == hash(cyclic_table(7))
    assert cyclic_table(7) != cyclic_table(8)
    spec = cayley_spec(cyclic_table(7), [1])
    assert spec == cayley_spec(cyclic_table(7), [1])
    assert hash(spec) == hash(cayley_spec(cyclic_table(7), [1]))
    assert spec != cayley_spec(cyclic_table(7), [2])
    assert spec != cayley_spec(cyclic_table(8), [1])


@pytest.mark.parametrize(
    "record",
    [
        default_config(),
        CheckResult("L4.1", "fail", witness={"arc": [0, 1]}, notes="x"),
        transitivity_report(paley_tournament(7)),
    ],
    ids=lambda r: type(r).__name__,
)
def test_values_survive_a_pickle_round_trip(record):
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is type(record) and repr(copy) == repr(record)


def test_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, tokenize, ast and dis: 10 ms or more of
    # start-up for every command.  -S keeps site's own imports out.
    src = str(Path(digsym.__file__).resolve().parent.parent)
    heavy = {"dataclasses", "inspect", "tokenize", "ast", "typing"}
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import digsym; "
        f"print(sorted({heavy!r} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
