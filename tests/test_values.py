"""The value types are named tuples: one contract for all eleven.

Each repr below is frozen from the frozen-dataclass code these types
replaced, so printing a value is unchanged.
"""

import pickle

import pytest

from ncat.axioms import AxiomEntry, AxiomFailure, AxiomReport
from ncat.flowdata import ValidationCheck, ValidationReport
from ncat.torus import TorusExpected, torus_flow_data
from ncat.vcat import VCell
from ncat.wcat import w_make
from ncat.xcat import Atom, XCell

FD = torus_flow_data()
FAILURE = AxiomFailure("assoc", "l=1 p=0: x != y")
ENTRY = AxiomEntry("assoc", 3, (FAILURE,))
CHECK = ValidationCheck("dim", "(w,x)", True)
W = w_make(0, [(2, 1)])

VALUES = [
    (FAILURE, "AxiomFailure(axiom='assoc', detail='l=1 p=0: x != y')"),
    (ENTRY, "AxiomEntry(axiom='assoc', checked=3, failures=(AxiomFailure(axiom='assoc', detail='l=1 p=0: x != y'),))"),
    (
        AxiomReport((ENTRY,)),
        "AxiomReport(entries=(AxiomEntry(axiom='assoc', checked=3, "
        "failures=(AxiomFailure(axiom='assoc', detail='l=1 p=0: x != y'),)),))",
    ),
    (FD.point("wx_d"), "CritPoint(id='wx_d', index=0, level=1, home=('w', 'x'), component='d')"),
    (
        FD.space(("w", "x")),
        "ModuliSpace(source='w', target='x', level=1, dim=0, components=('d', 's'), "
        "boundary=(), points=('wx_d', 'wx_s'))",
    ),
    (CHECK, "ValidationCheck(check='dim', subject='(w,x)', passed=True, detail='')"),
    (
        ValidationReport((CHECK,)),
        "ValidationReport(checks=(ValidationCheck(check='dim', subject='(w,x)', passed=True, detail=''),))",
    ),
    (W, "WCell(0, [(2, 1)])"),
    (VCell(W), "VCell(dims=WCell(0, [(2, 1)]))"),
    (
        TorusExpected({0: 4}, {"w": "2"}, {(1, 0): 8}, (("a", "b"),)),
        "TorusExpected(counts={0: 4}, g_table={'w': '2'}, pair_counts={(1, 0): 8}, "
        "listed_x0_pairs=(('a', 'b'),))",
    ),
    (
        XCell(Atom("wx_d"), ((Atom("w"), Atom("x")),)),
        "XCell(head=Atom(id='wx_d'), spine=((Atom(id='w'), Atom(id='x')),))",
    ),
]


def _hash(value):
    try:
        return hash(value)
    except TypeError as e:  # TorusExpected holds dicts
        return str(e)


@pytest.mark.parametrize("value, text", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_value_contract(value, text):
    assert repr(value) == text
    assert pickle.loads(pickle.dumps(value)) == value
    assert isinstance(value, tuple)
    fields = tuple(getattr(value, name) for name in value._fields)
    assert fields == value and _hash(value) == _hash(fields)
    # a frozen dataclass with slots raised TypeError on a name that is no field
    for name in (value._fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_vcell_is_not_its_dims():
    assert VCell(W) != W and VCell(W) == (W,)
    assert VCell(2) != 2 and VCell(2) == (2,)
