import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nltgcr import kernels
from nltgcr.problems import LennardJonesProblem
from oracles import (
    bratu_jv_2d,
    bratu_residual_2d,
    lj_energy_pairs,
    lj_gradient_pairs,
    min_pair_distance_pairs,
    pair_r2_outer,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestMinPairDistanceReference:
    def test_min_pair_distance_paths_agree(self, rng):
        pos = rng.standard_normal((20, 3))
        diffs = pos[:, None, :] - pos[None, :, :]
        d = np.sqrt((diffs**2).sum(-1))
        np.fill_diagonal(d, np.inf)
        assert kernels.lj_min_pair_distance(pos) == pytest.approx(float(d.min()), rel=1e-14)


def _sprinkle_signed_zeros(a, rng, frac):
    a[rng.random(a.shape) < frac] = 0.0
    a[rng.random(a.shape) < frac] = -0.0
    return a


@st.composite
def bratu_grids(draw):
    """An (n, n) grid u and direction p for n in 1..40, with lam and h.

    u is all +0.0, or normal, or normal with +-0.0 sprinkled in (p too), or
    u and p are all +-0.0 at random: there the sign of a zero sum depends on
    which additions a cell gets, so an added 0.0 at a row end shows.
    """
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["zeros", "normal", "sprinkled", "signed-zeros"]))
    u = draw(st.floats(1e-3, 5.0)) * rng.standard_normal((n, n))
    p = rng.standard_normal((n, n))
    if kind == "zeros":
        u = np.zeros((n, n))
    elif kind == "sprinkled":
        u, p = (_sprinkle_signed_zeros(a, rng, 0.3) for a in (u, p))
    elif kind == "signed-zeros":
        u, p = (np.where(rng.random((n, n)) < 0.5, -0.0, 0.0) for _ in range(2))
    lam = draw(st.one_of(st.just(0.0), st.just(-0.0), st.floats(-10.0, 10.0)))
    h = draw(st.floats(1e-3, 1.0))
    return u, p, lam, h


class TestBratuStencil:
    """The flat-array stencil against the 2-D shifted-slice reference."""

    @settings(max_examples=200, deadline=None)
    @given(case=bratu_grids())
    def test_matches_2d_reference_byte_for_byte(self, case):
        u, p, lam, h = case
        out = kernels.bratu_residual(u, lam, h)
        assert out.shape == u.shape
        assert out.tobytes() == bratu_residual_2d(u, lam, h).tobytes()
        jv = kernels.bratu_jv(u, p, lam, h)
        assert jv.shape == u.shape
        assert jv.tobytes() == bratu_jv_2d(u, p, lam, h).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_grids_and_inputs_untouched(self, n, rng):
        u = rng.standard_normal((n, n))
        p = rng.standard_normal((n, n))
        saved = u.copy(), p.copy()
        assert kernels.bratu_residual(u, 0.5, 0.1).tobytes() == bratu_residual_2d(u, 0.5, 0.1).tobytes()
        assert kernels.bratu_jv(u, p, 0.5, 0.1).tobytes() == bratu_jv_2d(u, p, 0.5, 0.1).tobytes()
        np.testing.assert_array_equal(u, saved[0])
        np.testing.assert_array_equal(p, saved[1])


class TestActiveBackend:
    def test_default_backend_reported(self):
        assert kernels.active_backend() == "numpy"


@st.composite
def clusters(draw):
    """2 to 40 atoms on distinct sites of a 4x4x4 cubic lattice with spacing
    at least 1.2, each moved by under 0.19 per axis, so every pair distance
    is above 0.8; the whole cluster is shifted by up to 1e3 per axis."""
    n = draw(st.integers(2, 40))
    sites = np.array(draw(st.permutations(range(64)))[:n])
    spacing = draw(st.floats(1.2, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = np.array(draw(st.tuples(*[st.floats(-1e3, 1e3)] * 3)))
    lattice = np.stack([sites // 16, sites // 4 % 4, sites % 4], axis=1) * spacing
    return lattice + rng.uniform(-0.19, 0.19, (n, 3)) + offset


def _far_cluster():
    """A 32-atom draw of clusters() 1e3 from the origin on which the
    uncentred gradient sum left |sum_i g_i| at 1.07e-12 of the force scale."""
    rng = np.random.default_rng(126)
    sites = rng.permutation(64)[:32]
    lattice = np.stack([sites // 16, sites // 4 % 4, sites % 4], axis=1) * 1.2
    return lattice + rng.uniform(-0.19, 0.19, (32, 3)) + 1e3


def _pair_magnitudes(pos):
    """Sum over pairs of |pair energy|, and the largest per-atom sum of
    |pair force|: the sizes that any summation order's rounding scales with."""
    d = pos[:, None, :] - pos[None, :, :]
    r2 = (d * d).sum(-1)
    np.fill_diagonal(r2, np.inf)
    inv6 = 1.0 / r2**3
    energy = 0.5 * np.abs(4.0 * (inv6 * inv6 - inv6)).sum()
    force = np.abs(24.0 * inv6 - 48.0 * inv6 * inv6) / np.sqrt(r2)
    return energy, force.sum(1).max()


@settings(max_examples=100, deadline=None)
@given(pos=clusters())
@example(pos=_far_cluster())
def test_lj_kernels_match_the_pair_loop_oracle(pos):
    energy_scale, force_scale = _pair_magnitudes(pos)
    assert abs(kernels.lj_energy(pos) - lj_energy_pairs(pos)) <= 1e-12 * energy_scale
    g = kernels.lj_gradient(pos)
    assert np.abs(g - lj_gradient_pairs(pos)).max() <= 1e-12 * force_scale
    assert np.abs(g.sum(axis=0)).max() <= 1e-12 * force_scale
    d_min = min_pair_distance_pairs(pos)
    assert kernels.lj_min_pair_distance(pos) == pytest.approx(d_min, rel=1e-15)


class TestGuardAtLargeCoordinates:
    """The pair distances come from coordinate differences, so the 1e-8
    guard keeps its meaning 1e3 from the origin. There the expansion
    |x|^2 + |y|^2 - 2 x.y is off in r2 by up to about 1e-9, far above the
    guard's r2 of 1e-16."""

    @staticmethod
    def _cluster(gap):
        pos = LennardJonesProblem(cells_per_side=1).initial_positions().reshape(-1, 3) + 1e3
        pos[1] = pos[0]
        pos[1, 0] += gap
        return pos

    @pytest.mark.parametrize("kernel", ["lj_energy", "lj_gradient"])
    @pytest.mark.parametrize("gap", [0.0, 0.5e-8])
    def test_coincident_atoms_rejected(self, kernel, gap):
        with pytest.raises(ValueError, match="^coincident "):
            getattr(kernels, kernel)(self._cluster(gap))

    @pytest.mark.parametrize("kernel", ["lj_energy", "lj_gradient"])
    def test_gap_above_limit_accepted(self, kernel):
        assert np.all(np.isfinite(getattr(kernels, kernel)(self._cluster(2e-8))))

    def test_min_pair_distance_of_coincident_atoms_is_zero(self):
        assert kernels.lj_min_pair_distance(self._cluster(0.0)) == 0.0


@st.composite
def touching_clusters(draw):
    """A cluster from clusters() with some atoms moved onto others and some
    coordinates set to +0.0 or -0.0."""
    pos = draw(clusters())
    n = len(pos)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    moved = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5]))
    pos[moved] = pos[rng.integers(0, n, int(moved.sum()))]
    return _sprinkle_signed_zeros(pos, rng, draw(st.sampled_from([0.0, 0.1, 0.4])))


class TestPairPass:
    """The rank-2 product planes against the np.subtract.outer planes."""

    @settings(max_examples=200, deadline=None)
    @given(pos=touching_clusters())
    def test_matches_the_ufunc_outer_pass_byte_for_byte(self, pos):
        assert kernels._pair_r2(pos, guard=False).tobytes() == pair_r2_outer(pos).tobytes()

    def test_non_finite_coordinates_give_the_same_inf_and_nan(self, rng):
        # Values only: the sign bit of a NaN may differ between the two passes.
        pos = rng.standard_normal((6, 3))
        pos[1, 0] = pos[4, 0] = np.inf
        pos[2, 1] = -np.inf
        pos[3, 2] = np.nan
        with np.errstate(invalid="ignore"):
            np.testing.assert_array_equal(kernels._pair_r2(pos, guard=False), pair_r2_outer(pos))


def test_gradient_peak_memory_below_three_pair_matrices():
    # One (n, n, 3) difference tensor alone is 3 n^2 doubles. The pair pass
    # peaks at its two n x n buffers plus two (n, 2) product operands, and
    # lj_gradient at c and one n x n temporary: 2.1 n^2 at n = 108.
    pos = LennardJonesProblem(
        cells_per_side=3, perturbation_scale=0.05, rng_seed=7
    ).initial_positions().reshape(-1, 3)
    n = pos.shape[0]
    kernels.lj_gradient(pos)
    tracemalloc.start()
    try:
        kernels.lj_gradient(pos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n * 8
