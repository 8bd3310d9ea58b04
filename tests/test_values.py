"""The library's value objects: slotted, one object per group, and rebuilt
equal by copy, deepcopy and pickle."""

import copy
import dataclasses
import pickle

import pytest

import qwitt
import qwitt.qform as qf
from qwitt import witt
from qwitt.abelian import AbHom, FinAbGroup
from qwitt.formparam import (
    FPMorphism, classify, maximal_splitting, quasi_wu, split_sum, standard
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


def test_slotted_values_have_no_instance_dict():
    values = slotted_values()
    # every dataclass of the library
    assert {type(x) for x in values} == library_dataclasses()
    for x in values:
        assert not hasattr(x, "__dict__"), type(x).__name__
        with pytest.raises(AttributeError):
            object.__setattr__(x, "extra", 1)
