import numpy as np
import pytest

from watlab.accum import log_quad
from watlab.bounds import cauchy_mvt_bound_check, check_mean_bound_iii
from watlab.coeffs import NUFFT_HALF_WIDTH, _es_kernel, _es_quadrature, compute_b_table
from watlab.iterlog import big_l, find_constants, sample_ladder
from watlab.symbols import TrigSymbol, unit_modulus_set

# log_quad against scipy's adaptive quad run to near rounding
QUAD_RELTOL = 1e-14


def _quad(f, a, b):
    from scipy.integrate import quad  # the reference only; no run imports scipy

    return quad(f, a, b, epsrel=1e-13, epsabs=0, limit=1000)[0]


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 10, 100, 10**3, 10**5, 2**24])
def test_log_quad_mean_iii_integrand(q, p):
    """check_mean_bound_iii's integral_1^{p+1} dt / (t L_q(t + gamma))."""
    gamma = find_constants(q).gamma

    def f(t):
        return 1.0 / (t * big_l(q, t + gamma))

    integral, abserr = log_quad(f, 1.0, p + 1.0)
    assert type(integral) is float and type(abserr) is float
    reference = _quad(f, 1.0, p + 1.0)
    assert abs(integral - reference) <= QUAD_RELTOL * reference
    assert abserr <= QUAD_RELTOL * reference


@pytest.mark.parametrize("q", [1, 2, 3])
def test_log_quad_cauchy_lemma_integrand(q):
    """cauchy_mvt_bound_check's integral_gamma^x ds / L_q(s) on its ladder."""
    gamma = find_constants(q).gamma

    def f(s):
        return 1.0 / big_l(q, s)

    for x in sample_ladder(gamma)[1:]:
        integral, _ = log_quad(f, gamma, x)
        reference = _quad(f, gamma, x)
        assert abs(integral - reference) <= QUAD_RELTOL * reference, x


@pytest.mark.parametrize("q", [1, 2, 3])
def test_bounds_integrals_match_scipy(q):
    """The integrals that mean_iii reports and that the Cauchy lemma adds are
    the ones tested above."""
    gamma = find_constants(q).gamma
    f = TrigSymbol.constant(1j)
    table = compute_b_table(f, unit_modulus_set(f.evaluate_on_grid(4096)), (1,), (1, 1001), 0)
    for p in (10, 1000):
        integral = check_mean_bound_iii(table, q, 1, p, 0, 1.0).details["integral"]
        reference = _quad(lambda t: 1.0 / (t * big_l(q, t + gamma)), 1.0, p + 1.0)
        assert abs(integral - reference) <= QUAD_RELTOL * reference
    for row in cauchy_mvt_bound_check(q).details["samples"]:
        reference = 1.0 / big_l(q, gamma) + _quad(lambda s: 1.0 / big_l(q, s), gamma, row["x"])
        assert abs(row["lhs"] - reference) <= QUAD_RELTOL * reference


def _es_quadrature_reference(width):
    """The ES kernel's quadrature as coeffs computed it with its own Newton
    iteration, frozen: the shared Legendre nodes must keep its bits."""
    count = 4 * width + 4
    x = np.cos(np.pi * (np.arange(count) + 0.75) / (count + 0.5))
    for _ in range(8):
        p_prev, p = np.ones(count), x
        for j in range(2, count + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = count * (x * p - p_prev) / (x * x - 1)
        x = x - p / dp
    z = (1 + x) / 2
    return z, _es_kernel(z.copy(), width) / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("width", [3, 5, NUFFT_HALF_WIDTH])
def test_es_quadrature_bits(width):
    z, weights = _es_quadrature(width)
    ref_z, ref_weights = _es_quadrature_reference(width)
    assert np.array_equal(z, ref_z) and np.array_equal(weights, ref_weights)
    assert not z.flags.writeable and not weights.flags.writeable
