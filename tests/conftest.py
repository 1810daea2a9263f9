import numpy as np
import pytest

from plapeig.mesh import Mesh


@pytest.fixture
def ref_triangle() -> Mesh:
    """Single reference triangle (0,0), (1,0), (0,1)."""
    return Mesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
