import math
import os

import numpy as np
import pytest
from hypothesis import settings

from pdwg.mesh import build_uniform_unit_square, classify_boundary
from pdwg.problems import get_case

# A larger budget for the property tests that take theirs from the profile,
# such as test_harness.py::test_e12_text_matches_percent_format; select it
# with HYPOTHESIS_PROFILE=large.
settings.register_profile("large", max_examples=5000)
# The budget of every property in tests/test_properties.py, which runs 15
# examples of each otherwise; select it with HYPOTHESIS_PROFILE=properties.
settings.register_profile("properties", max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def exact_ref_monomial(a: int, b: int) -> float:
    # int over the reference triangle of x^a y^b
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def monomial_exponents(degree: int) -> np.ndarray:
    """Graded exponent table [(0,0),(1,0),(0,1),(2,0),(1,1),(0,2),...]."""
    return np.asarray(
        [(d - b, b) for d in range(degree + 1) for b in range(d + 1)], dtype=np.int64
    )


def monomial_values(exps: np.ndarray, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Vandermonde of local monomials at local coordinates; (..., m)."""
    return np.stack([xi**a * eta**b for a, b in exps], axis=-1)


def quad_integral(rule, tri, f):
    pts = rule.physical_points(tri[None])[0]
    area = 0.5 * abs(
        (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1])
        - (tri[1, 1] - tri[0, 1]) * (tri[2, 0] - tri[0, 0])
    )
    return float(rule.physical_weights(np.array([area]))[0] @ f(pts[:, 0], pts[:, 1]))


def tags_for(mesh, case_name):
    return classify_boundary(mesh, list(get_case(case_name).segments))


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(12345))


@pytest.fixture
def mesh2():
    return build_uniform_unit_square(2)


@pytest.fixture
def mesh4():
    return build_uniform_unit_square(4)
