import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cloudcolor.core import ColorPointCloud


def random_cloud(n, seed, extent=10.0):
    """Fully colored random cloud with float32-exact coordinates."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, extent, size=(n, 3)).astype(np.float32)
    colors = rng.integers(0, 256, size=(n, 3))
    return ColorPointCloud(pos, colors)


@pytest.fixture
def small_cloud():
    return random_cloud(20, seed=1)
