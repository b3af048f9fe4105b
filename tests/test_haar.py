import numpy as np
import pytest

from lsrmt.haar import (
    WEYL_CHUNK,
    MCEstimate,
    PoleProximityError,
    _char_batch,
    _haar_batch,
    _logder_batch,
    _logder_inv_batch,
    _weyl_on_grid,
    make_estimator,
    mc_average,
    weyl_quadrature,
)
from lsrmt.partitions import partitions_up_to
from lsrmt.rmt import MAX_GRID_POINTS, QuadratureError, moment_unitary
from lsrmt.symfunc import schur_comb
from util import rel_err


def test_sample_haar_unit_modulus_and_det():
    eigs = _haar_batch(np.random.default_rng(42), 8, 6)
    assert eigs.shape == (8, 6)
    assert np.all(np.abs(np.abs(eigs) - 1) < 1e-10)
    assert np.all(np.abs(np.abs(np.prod(eigs, axis=1)) - 1) < 1e-10)


def test_sample_haar_deterministic():
    a = _haar_batch(np.random.default_rng(7), 3, 4)
    b = _haar_batch(np.random.default_rng(7), 3, 4)
    assert np.array_equal(a, b)


def test_char_poly_at_zero():
    eigs = _haar_batch(np.random.default_rng(1), 4, 5)
    assert _char_batch(eigs, 0) == pytest.approx(np.ones(4))


def test_log_deriv_series_identity():
    # chi'/chi(eps) = -sum_m eps^{m-1} conj(p_m) for |eps| < 1
    eigs = _haar_batch(np.random.default_rng(3), 4, 6)
    eps = 0.3 + 0.05j
    direct = _logder_batch(eigs, eps)
    series = np.zeros(4, dtype=complex)
    for m in range(1, 200):
        pm = np.sum(eigs ** m, axis=1)
        series += -(eps ** (m - 1)) * np.conj(pm)
    assert np.max(np.abs(direct - series)) < 1e-10


def test_log_deriv_pole_guard():
    # a point on an eigenvalue marks that sample NaN, leaving the others finite
    eigs = _haar_batch(np.random.default_rng(9), 3, 4)
    for vals in (
        _logder_batch(eigs, eigs[0, 0]),
        _logder_inv_batch(eigs, np.conj(eigs[0, 0])),
    ):
        assert np.isnan(vals[0].real) and np.isnan(vals[0].imag)
        assert np.all(np.isfinite(vals[1:]))


def test_functional_equation():
    # -N/2 + z chi'/chi(z) = -(-N/2 + w chi'/chi(w) for g^{-1}), w = 1/z
    big_n = 7
    eigs = _haar_batch(np.random.default_rng(11), 4, big_n)
    for z in (0.4 + 0.2j, 1.7 - 0.3j, 0.9j):
        w = 1 / z
        lhs = -big_n / 2 + z * _logder_batch(eigs, z)
        rhs = -(-big_n / 2 + w * _logder_inv_batch(eigs, w))
        assert np.all(np.abs(lhs - rhs) < 1e-9 * np.maximum(1, np.abs(lhs)))


def test_mc_average_constant():
    est = mc_average("one", big_n=3, samples=500, seed=5)
    assert est.mean == pytest.approx(1)
    assert est.stderr == 0
    assert est.samples == 500


def test_mc_average_rejects_small_m():
    with pytest.raises(ValueError):
        mc_average("one", big_n=2, samples=10, seed=0)


def test_mc_average_all_rejected_raises_pole_error():
    def all_nan(e):
        return np.full(e.shape[0], np.nan + 1j * np.nan)

    with pytest.raises(PoleProximityError, match="all samples rejected"):
        mc_average(all_nan, big_n=2, samples=100, seed=0)


def test_mc_average_deterministic_across_workers():
    a = mc_average("trace", big_n=3, samples=2000, seed=13, workers=1)
    b = mc_average("trace", big_n=3, samples=2000, seed=13, workers=4)
    assert a == b


def test_mc_trace_zero():
    est = mc_average("trace", big_n=5, samples=20000, seed=21)
    assert abs(est.mean) < 4 * est.stderr


def test_mc_abs_trace_sq_one():
    est = mc_average("abs_trace_sq", big_n=4, samples=20000, seed=22)
    assert abs(est.mean - 1) < 4 * est.stderr


def test_mc_abs_char_sq():
    est = make_estimator("abs_char_sq", big_n=3, z=1.0)
    assert est.prediction == pytest.approx(complex(moment_unitary(1, 3)))
    out = mc_average(est, big_n=3, samples=20000, seed=23)
    assert abs(out.mean - 4) < 4 * out.stderr


def test_mc_eigenangle_density_uniform():
    # marginal eigenangle density is uniform: bin counts match N/bins
    big_n, bins, samples = 5, 16, 20000
    rng = np.random.default_rng(31)
    from lsrmt.haar import _haar_batch

    counts = np.zeros((samples, bins))
    done = 0
    while done < samples:
        batch = min(4096, samples - done)
        eigs = _haar_batch(rng, batch, big_n)
        angles = np.angle(eigs)  # in (-pi, pi]
        idx = np.floor((angles + np.pi) / (2 * np.pi) * bins).astype(int)
        idx = np.clip(idx, 0, bins - 1)
        for b in range(bins):
            counts[done:done + batch, b] = np.sum(idx == b, axis=1)
        done += batch
    expected = big_n / bins
    for b in range(bins):
        mean = counts[:, b].mean()
        stderr = counts[:, b].std(ddof=1) / np.sqrt(samples)
        assert abs(mean - expected) < 4 * stderr


def test_weyl_constant_and_moment():
    assert weyl_quadrature(lambda e: np.ones(e.shape[0]), 1, grid=8) == pytest.approx(1)
    val = weyl_quadrature(
        lambda e: np.abs(np.prod(1 - np.conj(e), axis=1)) ** 2, 2, grid=16
    )
    assert rel_err(val, complex(moment_unitary(1, 2))) < 1e-8


def test_weyl_quadrature_unconverged_raises():
    # one estimate leaves nothing to compare against
    with pytest.raises(QuadratureError):
        weyl_quadrature(lambda e: np.ones(e.shape[0]), 1, grid=8, max_refine=1)


def test_weyl_quadrature_mesh_cap_raises_before_building():
    assert 128 ** 3 > MAX_GRID_POINTS

    def functional(e):
        raise AssertionError("no mesh may be built")

    with pytest.raises(QuadratureError):
        weyl_quadrature(functional, 3, grid=128)


def test_weyl_mesh_is_evaluated_in_chunks():
    rows = []

    def one(eigs):
        rows.append(eigs.shape[0])
        return np.ones(eigs.shape[0], dtype=complex)

    # the Weyl density integrates to 1; 32**3 points span two chunks
    assert abs(_weyl_on_grid(one, 3, 32) - 1) < 1e-12
    assert sum(rows) == 32 ** 3
    assert len(rows) > 1 and max(rows) <= WEYL_CHUNK


def test_weyl_schur_orthogonality_small():
    big_n = 2
    for mu in partitions_up_to(2):
        for nu in partitions_up_to(2):
            est = make_estimator("schur_pair", big_n, mu=mu, nu=nu)
            val = weyl_quadrature(est, big_n, grid=16)
            want = 1.0 if (mu == nu and len(mu) <= big_n) else 0.0
            assert abs(val - want) < 1e-6, (mu, nu)


def test_schur_pair_estimator_matches_weyl():
    est = make_estimator("schur_pair", big_n=2, mu=(1,), nu=(1,))
    out = mc_average(est, big_n=2, samples=20000, seed=33)
    assert abs(out.mean - 1) < 4 * out.stderr


def test_schur_pair_matches_branching_rule_at_n20():
    # Kostka expansion over 20 variables: the factorial loop could not run it
    mu, nu = (3, 1), (2, 1, 1)
    eigs = _haar_batch(np.random.default_rng(19), 64, 20)
    got = make_estimator("schur_pair", 20, mu=mu, nu=nu)(eigs)
    for value, row in zip(got, eigs):
        want = schur_comb(mu, tuple(row)) * np.conj(schur_comb(nu, tuple(row)))
        assert abs(value - want) <= 1e-10 * max(abs(value), abs(want))


def test_mc_estimate_json():
    e = MCEstimate(1 + 2j, 0.5, 100, 7, 1)
    assert e.to_json() == {
        "mean_re": 1.0,
        "mean_im": 2.0,
        "stderr": 0.5,
        "samples": 100,
        "seed": 7,
        "rejected": 1,
    }
