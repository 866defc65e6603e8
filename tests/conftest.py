"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """Shapes of the arguments of every np.linalg.eigvalsh call, in order."""
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return shapes
