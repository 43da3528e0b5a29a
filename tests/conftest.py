import math

import pytest

from watlab.lattice import HalfSpace
from watlab.symbols import TrigSymbol


@pytest.fixture(scope="session")
def neg_halfline():
    return HalfSpace.standard(1).reflect()


@pytest.fixture(scope="session")
def blaschke_half():
    return TrigSymbol.blaschke([0.5])


@pytest.fixture(scope="session")
def torus2_degenerate():
    return TrigSymbol.trig_polynomial(2, {(0, 0): 0.5, (1, 1): 0.5})


@pytest.fixture(scope="session")
def closed_form_rhs_q1():
    """check_mean_bound_iv's q = 1 right-hand side in its explicit shape,
    gamma = 3 and alpha = 1/log 3."""
    def rhs(p, C):
        return (C / (1.0 - 1.0 / math.log(3.0))) / (
            math.log(p + 3.0) * (math.log(math.log(p + 4.0)) - math.log(math.log(4.0)))
        )
    return rhs
