"""Shared instance generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from idemx.campaign import _random_preorder_space as random_space  # noqa: F401
from idemx.spaces import FiniteTopSpace, discrete, from_minimal_basis, sierpinski


def small_space_library() -> list[FiniteTopSpace]:
    """Hand-picked spaces covering discrete, chain, wedge, and mixed cases."""
    return [
        discrete(["a"]),
        discrete(["a", "b"]),
        discrete(["a", "b", "c"]),
        sierpinski(),
        from_minimal_basis({"p": ["p", "w"], "q": ["q", "w"], "w": ["w"]}),
        from_minimal_basis({"0": ["0", "1"], "1": ["1"], "2": ["2"]}),
        from_minimal_basis({"a": ["a", "b", "c"], "b": ["b"], "c": ["c"]}),
        from_minimal_basis(
            {"a": ["a", "c"], "b": ["b", "c"], "c": ["c"], "d": ["d"]}
        ),
    ]


@pytest.fixture
def spaces():
    return small_space_library()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
