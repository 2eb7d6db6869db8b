import numpy as np
import pytest

from nltgcr import kernels


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestBackendAgreement:
    def test_min_pair_distance_paths_agree(self, rng):
        pos = rng.standard_normal((20, 3))
        diffs = pos[:, None, :] - pos[None, :, :]
        d = np.sqrt((diffs**2).sum(-1))
        np.fill_diagonal(d, np.inf)
        assert kernels.lj_min_pair_distance(pos) == pytest.approx(float(d.min()), rel=1e-14)


class TestEnvFlag:
    def test_default_backend_reported(self):
        assert kernels.active_backend() == "numpy"
