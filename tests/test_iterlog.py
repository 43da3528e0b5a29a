import math

import pytest

from watlab.iterlog import (
    DomainError,
    a_of_lq,
    big_l,
    find_constants,
    log_iter,
    positivity_threshold,
)


def test_log_iter_basics():
    assert log_iter(1, math.e) == pytest.approx(1.0)
    assert log_iter(2, math.exp(math.e)) == pytest.approx(1.0)
    assert big_l(1, math.e) == pytest.approx(1.0)
    assert big_l(2, 100.0) == pytest.approx(math.log(100) * math.log(math.log(100)))


def test_a_closed_form():
    assert a_of_lq(1, 3.0) == pytest.approx(1 / math.log(3))
    x = 50.0
    assert a_of_lq(2, x) == pytest.approx(
        (1 / math.log(x)) * (1 + 1 / math.log(math.log(x)))
    )


def test_a_increases_with_q():
    for x in (20.0, 100.0, 1e6):
        assert a_of_lq(2, x) > a_of_lq(1, x)


def test_domain_thresholds():
    assert positivity_threshold(1) == 1.0
    assert positivity_threshold(2) == pytest.approx(math.e)
    assert positivity_threshold(3) == pytest.approx(math.exp(math.e))
    with pytest.raises(DomainError):
        log_iter(2, 2.0)
    with pytest.raises(DomainError):
        big_l(1, 0.5)
    with pytest.raises(DomainError):
        a_of_lq(2, 2.0)


def test_constants_q1_exact():
    params = find_constants(1)
    assert params.gamma == 3.0
    assert params.alpha == 1 / math.log(3)


def test_constants_q2():
    params = find_constants(2)
    # smallest integer above e^e ~ 15.15 with a(gamma; L_2) < 1
    assert params.gamma == 16.0
    assert params.alpha == pytest.approx(a_of_lq(2, 16.0))
    assert 0 < params.alpha < 1


@pytest.mark.parametrize("q", [1, 2, 3])
def test_constants_satisfy_invariants(q):
    params = find_constants(q)
    assert log_iter(q + 1, params.gamma * 1.0000001) > 0
    xs = [params.gamma * 10**i for i in range(5)]
    vals = [a_of_lq(q, x) for x in xs]
    assert all(v < params.alpha + 1e-15 for v in vals)
    assert vals == sorted(vals, reverse=True)


def test_bad_q_rejected():
    with pytest.raises(DomainError):
        find_constants(0)
    # log_5 is positive only above exp(exp(exp(e))), beyond the float range
    with pytest.raises(DomainError):
        positivity_threshold(5)
    with pytest.raises(DomainError):
        find_constants(4)


def test_constants_cached():
    assert find_constants(2) is find_constants(2)
