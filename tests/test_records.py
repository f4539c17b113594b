"""The record classes' contracts: immutability, equality, hashing, pickling
and copying, and a package import that loads no ``dataclasses``."""

import copy
import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import digsym
from digsym.construct import (
    CayleyDigraph,
    CayleySpec,
    cayley_spec,
    circuit,
    cyclic_table,
    dihedral_table,
    paley_tournament,
    quotient_digraph,
)
from digsym.digraph import Digraph, Frozen, build
from digsym.errors import BadParameter
from digsym.groups import GroupTable, PermGroup
from digsym.perm import Permutation, parse_cycles
from digsym.symmetry import TransitivityReport, automorphism_group, transitivity_report
from digsym.verify import CheckResult, SurveyConfig, default_config


def round_trips(value):
    """``value`` through a pickle, a shallow copy and a deep copy."""
    return [pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)]


def frozen_records():
    """One instance of each immutable record class, with one of its fields."""
    g = circuit(6)
    records = [
        (parse_cycles("(0 1 2)", 4), "images"),
        (dihedral_table(3), "mul_table"),
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


@pytest.mark.parametrize("cls", [Permutation, Digraph, CayleyDigraph, CayleySpec, GroupTable])
def test_values_take_guards_equality_and_hash_from_frozen(cls):
    for name in ("__setattr__", "__delattr__", "__eq__", "__hash__"):
        assert getattr(cls, name) is getattr(Frozen, name), name


def test_cayley_specs_of_equal_tables_are_equal():
    assert cyclic_table(7) == cyclic_table(7) and hash(cyclic_table(7)) == hash(cyclic_table(7))
    assert cyclic_table(7) != cyclic_table(8)
    spec = cayley_spec(cyclic_table(7), [1])
    assert spec == cayley_spec(cyclic_table(7), [1])
    assert hash(spec) == hash(cayley_spec(cyclic_table(7), [1]))
    assert spec != cayley_spec(cyclic_table(7), [2])
    assert spec != cayley_spec(cyclic_table(8), [1])


def searched_cayley_digraph():
    """Paley 7 after its search, so that its spec holds R(T) with a chain."""
    g = paley_tournament(7)
    assert automorphism_group(g).order() == 21 and g.spec.translations.order() == 7
    return g


@pytest.mark.parametrize(
    "record",
    [
        default_config(),
        CheckResult("L4.1", "fail", witness={"arc": [0, 1]}, notes="x"),
        transitivity_report(paley_tournament(7)),
        parse_cycles("(0 3)(1 4)(2 5)", 7),
        dihedral_table(4),
        searched_cayley_digraph().spec,
        searched_cayley_digraph(),
    ],
    ids=lambda r: type(r).__name__,
)
def test_values_survive_a_pickle_round_trip(record):
    """And a shallow and a deep copy."""
    for back in round_trips(record):
        assert back == record and type(back) is type(record) and repr(back) == repr(record)


@pytest.mark.parametrize("built", [True, False], ids=["chain", "no-chain"])
def test_perm_groups_survive_pickling_and_copying(built):
    group = PermGroup(automorphism_group(paley_tournament(7)).generators)
    if built:
        assert group.order() == 21
    inside, outside = group.generators[0].inverse(), parse_cycles("(0 1)", 7)
    for back in round_trips(group):
        assert back.generators == group.generators and back.degree == group.degree == 7
        assert back.order() == 21 and back.contains(inside) and not back.contains(outside)


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
