import itertools

import pytest
from hypothesis import given, strategies as st

from watlab.lattice import HalfSpace, LatticeError


def window(dim, w):
    return itertools.product(range(-w, w + 1), repeat=dim)


def check_axioms(hs, dim, w):
    assert not hs.contains((0,) * dim)
    pts = [p for p in window(dim, w) if any(p)]
    for p in pts:
        neg = tuple(-v for v in p)
        assert hs.contains(p) != hs.contains(neg)
    members = [p for p in pts if hs.contains(p)]
    for a in members:
        for b in members:
            s = tuple(x + y for x, y in zip(a, b))
            if any(s) and all(abs(v) <= w for v in s):
                assert hs.contains(s)


@pytest.mark.parametrize(
    "dim,w", [(1, 6), (2, 4), (3, 2)]
)
def test_axioms_on_windows(dim, w):
    check_axioms(HalfSpace.standard(dim), dim, w)
    check_axioms(HalfSpace.standard(dim).reflect(), dim, w)


def test_contains_examples():
    hs = HalfSpace.standard(2)
    assert not hs.contains((0, 0))
    assert hs.contains((0, 1))
    assert not hs.contains((0, -1))
    assert not hs.contains((-1, 5))


def test_dimension_mismatch_rejected():
    with pytest.raises(LatticeError):
        HalfSpace.standard(2).contains((1,))


def test_invalid_construction_rejected():
    with pytest.raises(LatticeError):
        HalfSpace(2, (0, 0), (1, 1))
    with pytest.raises(LatticeError):
        HalfSpace(2, (0, 1), (1, 2))
    with pytest.raises(LatticeError):
        HalfSpace(0, (), ())


def test_reflect():
    neg = HalfSpace.standard(1).reflect()
    assert neg.contains((-3,))
    hs = HalfSpace(2, (1, 0), (1, -1))
    assert hs.contains((1, 0)) == hs.reflect().contains((-1, 0))
    back = hs.reflect().reflect()
    for p in window(2, 4):
        assert hs.contains(p) == back.contains(p)


perm2 = st.permutations(range(2))
signs2 = st.tuples(st.sampled_from((-1, 1)), st.sampled_from((-1, 1)))


@given(perm2, signs2, st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
def test_exactly_one_of_pm(order, sign, p):
    hs = HalfSpace(2, tuple(order), sign)
    if any(p):
        assert hs.contains(p) != hs.contains((-p[0], -p[1]))
    else:
        assert not hs.contains(p)


@given(
    perm2,
    signs2,
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
def test_closed_under_addition(order, sign, a, b):
    hs = HalfSpace(2, tuple(order), sign)
    s = (a[0] + b[0], a[1] + b[1])
    if any(a) and any(b) and any(s) and hs.contains(a) and hs.contains(b):
        assert hs.contains(s)
