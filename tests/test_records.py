"""The public result types are plain records built on ``core.Record``.

One sample of each of the 19 types, built through the library, pins the
record contract: construction by position and keyword from every field,
the ``TypeError`` of a bad call, ``repr``, same-class equality and hashing
over every field, frozen assignment and deletion (``SolverRun`` too), and
pickle and copy round trips.  Importing the CLI loads neither
``dataclasses`` nor ``inspect``.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import kantgap as kg
from kantgap import core, dual, flow, kellerer, primal, scenarios
from kantgap.errors import InputError


def _samples() -> dict:
    c, mu, nu = kg.example_diagonal(3)
    run = flow._run_ssp(c, mu, nu)
    profile = kg.solve_profile(c, mu, nu)
    report = kg.dual_value(c, mu, nu)
    L = kg.cellset_from_pairs(3, 3, [(0, 0), (1, 2)])
    # row 0 and column 0 carry all the mass and their cell is forbidden
    blocked = kg.make_cost_matrix([["inf", 0], [0, 0]])
    point = kg.make_marginal(kg.DiscreteSpace(2), [1, 0])
    rows = primal.refinement_study(scenarios.family("diagonal"), [2], ["1/n"], [1])
    return {
        "DiscreteSpace": kg.DiscreteSpace(3),
        "Marginal": mu,
        "CostMatrix": c,
        "Coupling": kg.optimal_coupling_at(c, mu, nu, 1),
        "PotentialPair": profile.potentials[-1],
        "TransportProfile": profile,
        "SolverRun": run,
        "LadderStep": flow.truncation_ladder(c, mu, nu, [1])[0],
        "DualPair": report.pair,
        "FeasibilityCheck": kg.verify_feasible(report.pair, c),
        "ImprovingRay": kg.dual_value(blocked, point, point).ray,
        "DualReport": report,
        "RelaxedDualReport": kg.relaxed_dual_value(c, mu, nu),
        "AttainmentReport": kg.attainment_check(c, mu, nu, [1, 2]),
        "CellSet": L,
        "CoverCertificate": kg.cover_value(L, mu, nu)[1],
        "Decomposition": kg.kellerer_decompose(L, mu, nu),
        "PrimalReport": kg.primal_report(c, mu, nu),
        "StudyRow": rows[0],
    }


SAMPLES = _samples()
TYPES = {
    cls.__name__: cls
    for module in (core, flow, dual, kellerer, primal)
    for cls in vars(module).values()
    if isinstance(cls, type) and issubclass(cls, core.Record) and cls is not core.Record
}


def _fields(x) -> dict:
    return {n: getattr(x, n) for n in type(x).__match_args__}


def test_every_record_type_has_a_sample():
    assert len(TYPES) == 19
    assert set(SAMPLES) == set(TYPES)
    assert all(type(x) is TYPES[name] for name, x in SAMPLES.items())


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_record_is_built_from_its_fields_by_position_or_keyword(name):
    x = SAMPLES[name]
    cls, fields = type(x), _fields(x)
    assert cls.__match_args__ == tuple(cls.__annotations__)
    assert cls(**fields) == x
    assert cls(*fields.values()) == x
    # keywords in another order, and a mix of both
    assert cls(**dict(reversed(fields.items()))) == x
    first, *rest = cls.__match_args__
    assert cls(fields[first], **{n: fields[n] for n in rest}) == x
    assert list(vars(cls(**dict(reversed(fields.items()))))) == list(fields)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_bad_call_raises_type_error(name):
    x = SAMPLES[name]
    cls, fields = type(x), _fields(x)
    last = cls.__match_args__[-1]
    with pytest.raises(TypeError, match=f"missing arguments: {last}$"):
        cls(**dict(list(fields.items())[:-1]))
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(**fields, extra=1)
    with pytest.raises(TypeError, match=f"multiple values for argument '{cls.__match_args__[0]}'"):
        cls(*fields.values(), **{cls.__match_args__[0]: fields[cls.__match_args__[0]]})
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*fields.values(), fields[last])


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_repr_lists_every_field(name):
    x = SAMPLES[name]
    shown = ", ".join(f"{n}={v!r}" for n, v in _fields(x).items())
    assert repr(x) == f"{name}({shown})"


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equality_compares_the_fields_of_one_class(name):
    x = SAMPLES[name]
    twin = copy.copy(x)
    assert twin == x and not twin != x
    for n in type(x).__match_args__:
        other = copy.copy(x)
        other.__dict__[n] = object()
        assert other != x, n
    # a record of another class with the same name and fields is not equal
    lookalike = type(name, (core.Record,), {"__annotations__": type(x).__annotations__})
    stranger = lookalike(**_fields(x))
    assert x != stranger and x.__eq__(stranger) is NotImplemented


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_frozen_record_hashes_its_compared_fields(name):
    x = SAMPLES[name]
    key = tuple(_fields(x).values())
    try:
        expected = hash(key)
    except TypeError:  # a field such as a coupling's entries is unhashable
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == expected == hash(copy.copy(x))


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_a_frozen_record_refuses_assignment_and_deletion(name):
    x = SAMPLES[name]
    before = _fields(x)
    for n in list(before) + ["new_attribute"]:
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(x, n, 0)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(x, n)
    assert _fields(x) == before and not hasattr(x, "new_attribute")


def test_a_solver_run_is_rebuilt_not_changed():
    run = SAMPLES["SolverRun"]
    # its list and dict fields are unhashable, so the run is too
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        hash(run)
    changed = flow.SolverRun(**{**vars(run), "shipped": 0})
    assert changed.shipped == 0 and changed != run and run.shipped == 1


def test_a_marginal_compares_its_mass():
    mu = kg.uniform_marginal(2)
    assert kg.Marginal(space=mu.space, weights=mu.weights, mass=1) == mu
    assert kg.Marginal(space=mu.space, weights=mu.weights, mass=F(7)) != mu
    # the library derives the mass from the weights, so its marginals agree
    pi = kg.Coupling(mu.space, mu.space, {(0, 0): F(1, 2), (1, 1): F(1, 2)})
    assert pi.row_sums == mu and hash(pi.row_sums) == hash(mu)


def test_a_record_takes_no_options():
    with pytest.raises(TypeError):
        type("Mutable", (core.Record,), {"__annotations__": {"x": int}}, frozen=False)


def test_post_init_checks_still_run():
    with pytest.raises(InputError, match="positive integer"):
        kg.DiscreteSpace(0)
    with pytest.raises(InputError, match="positive integer"):
        kg.DiscreteSpace(size=True)
    pair = kg.PotentialPair(u=(0,), v=(0,))
    with pytest.raises(InputError, match="must start at"):
        kg.TransportProfile(breakpoints=((1, 0),), potentials=(pair,))


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_pickle_and_copy_round_trips_are_equal(name):
    x = SAMPLES[name]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(x, protocol))
        assert type(back) is type(x) and back == x and _fields(back) == _fields(x)
    assert copy.copy(x) == x and copy.deepcopy(x) == x


def test_a_record_matches_by_position():
    match SAMPLES["Marginal"]:
        case kg.Marginal(space, weights, mass):
            assert (space.size, weights, mass) == (3, (F(1, 3),) * 3, 1)
        case _:
            pytest.fail("no match")


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import kantgap.cli, sys; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
