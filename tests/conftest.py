"""Fixtures shared by the test modules."""

import numpy as np
import pytest
from hypothesis import settings

# Every property test draws the same examples on every run and has no
# per-example deadline; each test keeps its own example count.
settings.register_profile("oscent", derandomize=True, deadline=None)
settings.load_profile("oscent")


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """Shapes of the arguments of every np.linalg.eigvalsh call, in order."""
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes
