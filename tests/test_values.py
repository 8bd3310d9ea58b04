"""The library's value objects: slotted, one object per group and per
parameter, and rebuilt equal by copy, deepcopy and pickle."""

import copy
import dataclasses
import pickle

import pytest

import qwitt
import qwitt.qform as qf
from qwitt import cli, formparam, witt
from qwitt.abelian import Z, AbHom, FinAbGroup
from qwitt.formparam import (
    FormParameter, FPMorphism, classify, maximal_splitting, quasi_wu, split_sum,
    standard
)
from qwitt.qtensor import present

QP = standard("Q^+")
QM = standard("Q-")


def unit_form():
    return qf.QForm(QP, [[1]], [QP.carrier.element((1,))])


def round_trip_values():
    """One value of each type that the copy and pickle tests cover."""
    q = split_sum(QP, FinAbGroup((3, 0)))
    g = q.carrier
    f = unit_form()
    hyp = qf.hyperbolic(QP, 1)
    return [
        g,
        g.element((1, 2, -5)),
        AbHom(g, FinAbGroup((6,)), [[0, 2, 1]]),
        q,
        FPMorphism.identity(q),
        f,
        qf.metabolic_search(hyp, 1),
        qf.SearchOutcome("unknown", None, qf.BUDGET_EXHAUSTED, 2, 7),
        witt.witt_class(f),
        witt.gw_class(qf.direct_sum(f, hyp)),
    ]


def slotted_values():
    """One value of each slotted class of the library."""
    f = unit_form()
    return round_trip_values() + [
        qf.Embedding(f, f, ((1,),)),
        quasi_wu(QP),
        quasi_wu(QM),
        classify(QP),
        maximal_splitting(QP),
        present(FinAbGroup((2, 4)), QP),
        witt.sigma_subgroup(quasi_wu(split_sum(QP, FinAbGroup((2,))))),
        witt.lambda_quotient(quasi_wu(split_sum(QM, FinAbGroup((2,))))),
        witt.witt_group(QP),
    ]


def library_dataclasses():
    return {
        obj
        for module in (qwitt.abelian, qwitt.formparam, qwitt.qform, qwitt.qtensor, qwitt.witt)
        for obj in vars(module).values()
        if isinstance(obj, type)
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
    }


@pytest.mark.parametrize(
    "rebuild",
    [
        copy.copy,
        copy.deepcopy,
        lambda x: pickle.loads(pickle.dumps(x, protocol=2)),
        lambda x: pickle.loads(pickle.dumps(x, protocol=5)),
    ],
    ids=["copy", "deepcopy", "pickle2", "pickle5"],
)
def test_values_survive_copy_and_pickle(rebuild):
    for x in round_trip_values():
        y = rebuild(x)
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x) and repr(y) == repr(x), x
    # a group comes back as the interned object, with or without its value
    g = FinAbGroup((3, 0, 4))
    assert rebuild(g) is g
    assert rebuild(g.gen(1)).group is g
    assert rebuild(QP).symmetry == 1 and rebuild(QM).symmetry == -1
    # and so does a parameter, with its symmetry
    q = split_sum(QM, FinAbGroup((4, 0)))
    assert rebuild(q) is q and rebuild(q).symmetry == -1
    assert rebuild(QP) is QP
    assert rebuild(FPMorphism.identity(q)).source is q
    # a presentation comes back holding its shape's one symbol table
    pres = present(FinAbGroup((2, 4)), QP)
    copied = rebuild(pres)
    assert copied == pres
    assert copied.symbols is pres.symbols and copied._position is pres._position


def test_one_object_per_parameter():
    payload = {"carrier": [0, 6, 2], "h": [2, 0, 0], "pOne": [1, 3, 0]}
    p = cli.parse_parameter(payload)
    assert cli.parse_parameter(dict(payload)) is p
    g = FinAbGroup((0, 6, 2))
    # built again from equal, separately built parts
    assert FormParameter(g, AbHom(g, Z, [[2, 0, 0]]), g.element((1, 3, 0))) is p
    assert FormParameter(carrier=g, h=p.h, p_one=p.p_one) is p
    assert dataclasses.replace(p) is p
    assert dataclasses.replace(p, p_one=g.element((1, 0, 0))) is cli.parse_parameter(
        {"carrier": [0, 6, 2], "h": [2, 0, 0], "pOne": [1, 0, 0]}
    )
    assert p.symmetry == 1


def test_an_invalid_parameter_is_not_kept():
    g = FinAbGroup((0, 4))
    size = len(formparam._PARAMETERS)
    # h(p(1)) = 1, h != 0 on an anti-symmetric parameter, p h p != 2p, and
    # each again: a value that failed is checked again, not found
    for h, p1 in [([1, 0], (1, 0)), ([0, 1], (0, 0)), ([0, 0], (0, 1))] * 2:
        with pytest.raises(ValueError):
            FormParameter(g, AbHom(g, Z, [h]), g.element(p1))
        assert len(formparam._PARAMETERS) == size


def test_presentations_of_one_shape_share_their_symbols():
    # (2 generators of G, 1 of Q_e), over two groups and two parameters
    a = present(FinAbGroup((2, 4)), QP)
    b = present(FinAbGroup((0, 3)), QM)
    assert a.symbols is b.symbols
    assert a._position is b._position
    assert a.symbols == (("s", 0, 0), ("s", 1, 0), ("b", 0, 0), ("b", 0, 1), ("b", 1, 1))
    c = present(FinAbGroup((2,)), split_sum(QP, FinAbGroup((2,))))
    assert c.symbols is not a.symbols and len(c.symbols) == 3
    assert all(a.index(*sym) == i for i, sym in enumerate(a.symbols))


def test_slotted_values_have_no_instance_dict():
    values = slotted_values()
    # every dataclass of the library
    assert {type(x) for x in values} == library_dataclasses()
    for x in values:
        assert not hasattr(x, "__dict__"), type(x).__name__
        with pytest.raises(AttributeError):
            object.__setattr__(x, "extra", 1)
