import functools
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from lsrmt import haar
from lsrmt.haar import (
    WEYL_CHUNK,
    MCEstimate,
    PoleProximityError,
    _haar_batch,
    _logder_from_char,
    _spectral_char,
    _szego_batch,
    _tilted_char_batch,
    _verblunsky_batch,
    _weyl_on_grid,
    make_estimator,
    mc_average,
    weyl_quadrature,
)
from lsrmt.partitions import partitions_up_to
from lsrmt.rmt import MAX_GRID_POINTS, QuadratureError, logders_main, moment_unitary, ratio_avg
from lsrmt.symfunc import schur_comb
from util import loop_tilted_char, random_points, rel_err, two_array_szego


def test_sample_haar_unit_modulus_and_det():
    eigs = _haar_batch(np.random.default_rng(42), 8, 6)
    assert eigs.shape == (8, 6)
    assert np.all(np.abs(np.abs(eigs) - 1) < 1e-10)
    assert np.all(np.abs(np.abs(np.prod(eigs, axis=1)) - 1) < 1e-10)


def test_sample_haar_deterministic():
    a = _haar_batch(np.random.default_rng(7), 3, 4)
    b = _haar_batch(np.random.default_rng(7), 3, 4)
    assert np.array_equal(a, b)


def _logder(eigs, z):
    """chi'/chi at z for each spectrum, through the estimators' pole guard."""
    return _logder_from_char(*_spectral_char(eigs, (z,)))[:, 0]


def test_char_poly_at_zero():
    eigs = _haar_batch(np.random.default_rng(1), 4, 5)
    chi, dchi = _spectral_char(eigs, (0, 0.5))
    assert chi.shape == dchi.shape == (4, 2)
    assert chi[:, 0] == pytest.approx(np.ones(4))
    # chi'(0) = -conj(p_1)
    assert dchi[:, 0] == pytest.approx(-np.conj(np.sum(eigs, axis=1)))


def test_log_deriv_series_identity():
    # chi'/chi(eps) = -sum_m eps^{m-1} conj(p_m) for |eps| < 1
    eigs = _haar_batch(np.random.default_rng(3), 4, 6)
    eps = 0.3 + 0.05j
    direct = _logder(eigs, eps)
    series = np.zeros(4, dtype=complex)
    for m in range(1, 200):
        pm = np.sum(eigs ** m, axis=1)
        series += -(eps ** (m - 1)) * np.conj(pm)
    assert np.max(np.abs(direct - series)) < 1e-10


def test_log_deriv_pole_guard():
    # a point on an eigenvalue marks that sample NaN, leaving the others finite;
    # the spectrum of g^{-1} is conj(eigs)
    eigs = _haar_batch(np.random.default_rng(9), 3, 4)
    for vals in (
        _logder(eigs, eigs[0, 0]),
        _logder(np.conj(eigs), np.conj(eigs[0, 0])),
    ):
        assert np.isnan(vals[0].real) and np.isnan(vals[0].imag)
        assert np.all(np.isfinite(vals[1:]))


def test_functional_equation():
    # -N/2 + z chi'/chi(z) = -(-N/2 + w chi'/chi(w) for g^{-1}), w = 1/z
    big_n = 7
    eigs = _haar_batch(np.random.default_rng(11), 4, big_n)
    for z in (0.4 + 0.2j, 1.7 - 0.3j, 0.9j):
        w = 1 / z
        lhs = -big_n / 2 + z * _logder(eigs, z)
        rhs = -(-big_n / 2 + w * _logder(np.conj(eigs), w))
        assert np.all(np.abs(lhs - rhs) < 1e-9 * np.maximum(1, np.abs(lhs)))


def test_mc_average_constant():
    est = mc_average(make_estimator("one", 3), big_n=3, samples=500, seed=5)
    assert est.mean == pytest.approx(1)
    assert est.stderr == 0
    assert est.samples == 500


def test_mc_average_rejects_small_m():
    with pytest.raises(ValueError):
        mc_average(make_estimator("one", 2), big_n=2, samples=10, seed=0)


def test_mc_average_all_rejected_raises_pole_error():
    def all_nan(e):
        return np.full(e.shape[0], np.nan + 1j * np.nan)

    with pytest.raises(PoleProximityError, match="all samples rejected"):
        mc_average(all_nan, big_n=2, samples=100, seed=0)


def test_mc_average_deterministic_across_workers():
    est = make_estimator("trace", 3)
    a = mc_average(est, big_n=3, samples=2000, seed=13, workers=1)
    b = mc_average(est, big_n=3, samples=2000, seed=13, workers=4)
    assert a == b


def test_mc_trace_zero():
    est = mc_average(make_estimator("trace", 5), big_n=5, samples=20000, seed=21)
    assert abs(est.mean) < 4 * est.stderr


def test_mc_abs_trace_sq_one():
    est = mc_average(make_estimator("abs_trace_sq", 4), big_n=4, samples=20000, seed=22)
    assert abs(est.mean - 1) < 4 * est.stderr


def test_mc_abs_char_sq():
    est = make_estimator("abs_char_sq", big_n=3, z=1.0)
    assert est.prediction == pytest.approx(complex(moment_unitary(1, 3)))
    out = mc_average(est, big_n=3, samples=20000, seed=23)
    assert abs(out.mean - 4) < 4 * out.stderr


# the parameters each named estimator reads
ESTIMATOR_PARAMS = {
    "one": (), "trace": (), "abs_trace_sq": (), "abs_char_sq": ("z",),
    "ratio": ("a", "b", "c", "d"), "logder_pair": ("eps", "phi"),
    "completed_logder_pair": ("eps", "phi"), "explicit_sum": ("h",), "schur_pair": ("mu", "nu"),
}


@pytest.mark.parametrize("name", sorted(ESTIMATOR_PARAMS))
def test_make_estimator_refuses_parameters_it_does_not_read(name):
    make_estimator(name, 2)
    keys = set().union(*ESTIMATOR_PARAMS.values()) - set(ESTIMATOR_PARAMS[name])
    for key in sorted(keys):
        with pytest.raises(ValueError) as exc:
            make_estimator(name, 2, **{key: 0.5})
        assert str(exc.value) == f"estimator {name!r} does not read {key}"
    with pytest.raises(ValueError) as exc:
        make_estimator(name, 2, zeta=0.5, omega=1)
    assert str(exc.value).endswith("does not read omega, zeta")


def test_mc_eigenangle_density_uniform():
    # marginal eigenangle density is uniform: bin counts match N/bins
    big_n, bins, samples = 5, 16, 20000
    rng = np.random.default_rng(31)
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


def test_weyl_constant_and_moment(monkeypatch):
    monkeypatch.setattr(haar, "WEYL_GRID", 8)
    assert weyl_quadrature(lambda e: np.ones(e.shape[0]), 1) == pytest.approx(1)
    monkeypatch.setattr(haar, "WEYL_GRID", 16)
    val = weyl_quadrature(lambda e: np.abs(np.prod(1 - np.conj(e), axis=1)) ** 2, 2)
    assert rel_err(val, complex(moment_unitary(1, 2))) < 1e-8


def test_weyl_quadrature_unconverged_raises(monkeypatch):
    monkeypatch.setattr(haar, "WEYL_GRID", 8)
    monkeypatch.setattr(haar, "WEYL_MAX_REFINE", 1)
    # one estimate leaves nothing to compare against
    with pytest.raises(QuadratureError):
        weyl_quadrature(lambda e: np.ones(e.shape[0]), 1)


def test_weyl_quadrature_mesh_cap_raises_before_building(monkeypatch):
    monkeypatch.setattr(haar, "WEYL_GRID", 128)
    assert 128 ** 3 > MAX_GRID_POINTS

    def functional(e):
        raise AssertionError("no mesh may be built")

    with pytest.raises(QuadratureError):
        weyl_quadrature(functional, 3)


def test_weyl_mesh_is_evaluated_in_chunks():
    rows = []

    def one(eigs):
        rows.append(eigs.shape[0])
        return np.ones(eigs.shape[0], dtype=complex)

    # the Weyl density integrates to 1; 32**3 points span two chunks
    assert abs(_weyl_on_grid(one, 3, 32) - 1) < 1e-12
    assert sum(rows) == 32 ** 3
    assert len(rows) > 1 and max(rows) <= WEYL_CHUNK


def test_weyl_schur_orthogonality_small(monkeypatch):
    monkeypatch.setattr(haar, "WEYL_GRID", 16)
    big_n = 2
    for mu in partitions_up_to(2):
        for nu in partitions_up_to(2):
            est = make_estimator("schur_pair", big_n, mu=mu, nu=nu)
            val = weyl_quadrature(est, big_n)
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


# -- predictions ------------------------------------------------------------------

LOGDER_NAMES = ("logder_pair", "completed_logder_pair")


def _haar_mean(est, big_n):
    """The U(N) mean of est by Weyl quadrature; U(0) is one point, the empty spectrum."""
    if big_n == 0:
        return complex(est(np.empty((1, 0), dtype=complex))[0])
    return weyl_quadrature(est, big_n)


def _min_series(x: Fraction, big_n: int) -> Fraction:
    """sum_{k>=1} min(k, N) x^k in exact arithmetic, to a tail below 1e-18 |x|."""
    total, power, k = Fraction(0), Fraction(1), 0
    while True:
        k += 1
        power *= x
        total += min(k, big_n) * power
        # the terms past k are bounded by N |x|^j, a geometric tail
        if k >= big_n and big_n * abs(power * x) / (1 - abs(x)) < abs(x) / 10 ** 18:
            return total


@pytest.mark.parametrize("big_n", [0, 1, 2, 3])
@pytest.mark.parametrize("name", LOGDER_NAMES)
def test_logder_predictions_equal_weyl_quadrature(name, big_n):
    for eps, phi in ((0.3, 0.3), (0.5 + 0.2j, 0.4 - 0.1j), (-0.4j, 0.45)):
        est = make_estimator(name, big_n, eps=eps, phi=phi)
        assert abs(est.prediction - _haar_mean(est, big_n)) < 1e-12, (eps, phi)


@pytest.mark.parametrize("big_n", [0, 1, 2, 5, 20, 50])
def test_logder_predictions_equal_the_exact_series(big_n):
    # sum_k min(k, N) (eps phi)^k at rational points, |eps phi| up to 0.9
    pairs = [(Fraction(3, 10), Fraction(3, 10)), (Fraction(19, 20), Fraction(18, 19)),
             (Fraction(-7, 10), Fraction(9, 10)), (Fraction(1, 2), Fraction(-4, 5))]
    for eps, phi in pairs:
        pair = _min_series(eps * phi, big_n)
        for name, want in (("logder_pair", pair),
                           ("completed_logder_pair", Fraction(big_n ** 2, 4) + pair)):
            got = make_estimator(name, big_n, eps=float(eps), phi=float(phi)).prediction
            assert abs(got - float(want)) <= 1e-13 * abs(float(want)), (name, eps, phi)


@pytest.mark.parametrize("big_n", [0, 1, 2, 5, 20, 50])
def test_logder_predictions_are_main_terms_times_one_minus_x_to_the_n(big_n):
    # rmt.logders_main is the N -> infinity limit; |eps phi| < 0.57 keeps its tail bound
    rng = np.random.default_rng(29)
    for eps, phi in zip(random_points(rng, 12, rmin=0.05, rmax=0.75),
                        random_points(rng, 12, rmin=0.05, rmax=0.75)):
        x = eps * phi
        pair = x * logders_main((eps,), (phi,)) * (1 - x ** big_n)
        for name, want in (("logder_pair", pair), ("completed_logder_pair",
                                                   big_n ** 2 / 4 + pair)):
            got = make_estimator(name, big_n, eps=eps, phi=phi).prediction
            assert abs(got - want) <= 1e-13 * abs(want), (name, eps, phi)


@pytest.mark.parametrize("name", LOGDER_NAMES)
def test_logder_predictions_need_the_open_unit_disc(name):
    # the series behind both predictions converges for |eps|, |phi| < 1 only
    for eps, phi in ((1.5, 0.3), (0.3, 1.5), (1.0, 0.3), (0.3, -1j), (0.99, 0.99), (0.8, 0.8)):
        pred = make_estimator(name, 20, eps=eps, phi=phi).prediction
        assert (pred is None) == (max(abs(eps), abs(phi)) >= 1), (eps, phi)


def test_abs_char_sq_prediction_is_the_first_moment_bitwise():
    for big_n in range(201):
        pred = make_estimator("abs_char_sq", big_n, z=1j).prediction
        want = complex(moment_unitary(1, big_n))
        assert (pred.real.hex(), pred.imag.hex()) == (want.real.hex(), want.imag.hex())
    assert make_estimator("abs_char_sq", 5, z=0.5).prediction is None


# -- Verblunsky sampler ----------------------------------------------------------

CHAR_ESTIMATORS = {
    "abs_char_sq": {"z": 0.6 + 0.8j},
    "ratio": {"a": (0.7,), "b": (0.8 - 0.1j,), "c": (0.3,), "d": (0.2 + 0.1j,)},
    "logder_pair": {"eps": 0.4, "phi": 0.2 + 0.1j},
    "completed_logder_pair": {"eps": 0.4, "phi": 0.2 + 0.1j},
}


def _paraorthogonal_zeros(alpha):
    """Zeros of Phi_N from the coefficient form of the Szegő recursion."""
    phi = np.array([1 + 0j])  # coefficients, highest degree first
    for a in alpha:
        star = np.conj(phi[::-1])
        phi = np.append(phi, 0) - np.conj(a) * np.append(0, star)
    return np.roots(phi)


def test_verblunsky_shapes_and_moduli():
    for big_n in (0, 1, 2, 7):
        alpha = _verblunsky_batch(np.random.default_rng(4), 5, big_n)
        assert alpha.shape == (5, big_n)
        if big_n:
            assert np.all(np.abs(alpha[:, :-1]) < 1)
            assert np.allclose(np.abs(alpha[:, -1]), 1)


def test_szego_chi_matches_the_spectrum_of_its_zeros():
    # chi_g(z) = prod (1 - z conj(rho)) over the zeros rho of Phi_N, which lie on
    # the unit circle; chi'/chi is the spectral log-derivative
    big_n = 6
    alpha = _verblunsky_batch(np.random.default_rng(8), 4, big_n)
    points = (0.3 + 0.2j, 1.4 - 0.5j, -0.7j)
    chi, dchi = _szego_batch(alpha, points, True)
    assert chi.shape == dchi.shape == (4, len(points))
    for row, coeffs in enumerate(alpha):
        eigs = _paraorthogonal_zeros(coeffs)[None, :]
        assert np.allclose(np.abs(eigs), 1, atol=1e-10)
        spectral, dspectral = _spectral_char(eigs, points)
        assert np.max(np.abs(chi[row] - spectral[0])) < 1e-10
        assert np.max(np.abs(dchi[row] / chi[row] - dspectral[0] / spectral[0])) < 1e-9


def test_szego_derivative_matches_finite_difference():
    alpha = _verblunsky_batch(np.random.default_rng(6), 3, 9)
    z, h = np.array([0.5 - 0.3j, 1.2 + 0.1j]), 1e-6
    _, dchi = _szego_batch(alpha, z, True)
    ahead, _ = _szego_batch(alpha, z + h, False)
    behind, _ = _szego_batch(alpha, z - h, False)
    assert np.max(np.abs((ahead - behind) / (2 * h) - dchi)) < 1e-7


@pytest.mark.parametrize("big_n", [0, 1, 2, 3, 10, 50])
def test_stacked_szego_equals_two_array_recursion_bitwise(big_n):
    # z = 0 and a point outside the disc among them
    points = (0j, 1.7 - 0.4j, 0.3 + 0.2j, -0.9j)
    rng = np.random.default_rng(60 + big_n)
    for count in range(1, len(points) + 1):
        alpha = _verblunsky_batch(rng, 7, big_n)
        chi, dchi = _szego_batch(alpha, points[:count], True)
        want_chi, want_dchi = two_array_szego(alpha, points[:count])
        assert chi.shape == dchi.shape == (7, count)
        assert np.array_equal(chi, want_chi) and np.array_equal(dchi, want_dchi)
        # the chi-only recursion skips the derivative layer and nothing else
        chi_only, none = _szego_batch(alpha, points[:count], False)
        assert none is None
        assert chi_only.shape == (7, count) and np.array_equal(chi_only, want_chi)


@pytest.mark.parametrize("big_n", [1, 2, 10, 50])
def test_verblunsky_abs_char_sq_mean(big_n):
    samples = 20000
    out = mc_average(make_estimator("abs_char_sq", big_n), big_n, samples, seed=40 + big_n)
    # exact sigma: the sample stderr of |chi|^2 underestimates its heavy tail
    var = float(moment_unitary(2, big_n) - moment_unitary(1, big_n) ** 2)
    assert abs(out.mean - (big_n + 1)) < 4 * sqrt(var / samples)


def test_verblunsky_abs_char_sq_at_n0_is_exactly_one():
    out = mc_average(make_estimator("abs_char_sq", 0), 0, 500, seed=1)
    assert out.mean == 1 and out.stderr == 0 and out.samples == 500


def test_char_estimators_skip_the_spectral_sampler(monkeypatch):
    def refuse(*args):
        raise AssertionError("no QR sample may be drawn")

    monkeypatch.setattr(haar, "_haar_batch", refuse)
    for name, params in CHAR_ESTIMATORS.items():
        mc_average(make_estimator(name, 4, **params), 4, 200, seed=3)
    with pytest.raises(AssertionError):
        mc_average(make_estimator("trace", 4), 4, 200, seed=3)


@pytest.mark.parametrize("name", sorted(CHAR_ESTIMATORS))
def test_verblunsky_agrees_with_qr(name):
    # two-sample z-test; a plain lambda carries no char_func, so it takes the QR
    # route and the estimator reads chi off the spectra
    big_n, samples = 6, 20000
    est = make_estimator(name, big_n, **CHAR_ESTIMATORS[name])
    fast = mc_average(est, big_n, samples, seed=50)
    spectral = mc_average(lambda e: est(e), big_n, samples, seed=51)
    z = abs(fast.mean - spectral.mean) / np.hypot(fast.stderr, spectral.stderr)
    assert z < 4, (name, fast, spectral)


@pytest.mark.parametrize("name", sorted(CHAR_ESTIMATORS))
def test_verblunsky_deterministic_across_workers_and_wrapping(name, monkeypatch):
    monkeypatch.setattr(haar, "CHUNK", 700)
    est = make_estimator(name, 5, **CHAR_ESTIMATORS[name])
    base = mc_average(est, 5, 3000, seed=13, workers=1)
    assert mc_average(est, 5, 3000, seed=13, workers=4) == base
    wrapped = functools.wraps(est)(lambda e: est(e))
    assert mc_average(wrapped, 5, 3000, seed=13, workers=1) == base


def _direct_char_values(name, params, eigs):
    """Each char estimator's value straight from its definition on spectra."""
    big_n = eigs.shape[1]
    conj = np.conj(eigs)

    def chi(z):  # chi_g(z) = det(I - z g^{-1})
        return np.prod(1 - z * conj, axis=1)

    def chi_inv(w):  # chi_{g^{-1}}(w) = det(I - w g)
        return np.prod(1 - w * eigs, axis=1)

    if name == "abs_char_sq":
        return np.abs(chi(params["z"])) ** 2
    if name == "ratio":
        out = np.ones(eigs.shape[0], dtype=complex)
        for a in params["a"]:
            out *= chi(a)
        for b in params["b"]:
            out *= chi_inv(b)
        for d in params["d"]:
            out /= chi(d)
        for c in params["c"]:
            out /= chi_inv(c)
        return out
    eps, phi = params["eps"], params["phi"]
    lhs = eps * np.sum(-conj / (1 - eps * conj), axis=1)
    rhs = phi * np.sum(-eigs / (1 - phi * eigs), axis=1)
    if name == "logder_pair":
        return lhs * rhs
    return (-big_n / 2 + lhs) * (-big_n / 2 + rhs)


@pytest.mark.parametrize("name", sorted(CHAR_ESTIMATORS))
def test_char_estimators_on_spectra_match_their_definitions(name):
    # several points per set in ratio, so the split bookkeeping is exercised
    params = dict(CHAR_ESTIMATORS[name])
    if name == "ratio":
        params = {"a": (0.7, 0.5j), "b": (0.8 - 0.1j, -0.4), "c": (0.3, 0.2j), "d": (0.2 + 0.1j,)}
    eigs = _haar_batch(np.random.default_rng(12), 32, 7)
    got = make_estimator(name, 7, **params)(eigs)
    want = _direct_char_values(name, params, eigs)
    assert got.shape == want.shape == (32,)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_verblunsky_pole_guard():
    # at N = 1, chi(z) = 1 - alpha_0 z, so z = 1/alpha_0 is a zero of chi
    alpha0 = np.exp(0.7j)
    alpha = np.array([[alpha0], [np.exp(2.1j)]])
    assert abs(_szego_batch(alpha, (1 / alpha0,), False)[0][0, 0]) < 1e-15
    for name in ("logder_pair", "completed_logder_pair"):
        for eps, phi in ((1 / alpha0, 0.3), (0.3, np.conj(1 / alpha0))):
            est = make_estimator(name, 1, eps=eps, phi=phi)
            vals = est.char_func(*_szego_batch(alpha, est.points, est.reads_dchi))
            assert np.isnan(vals[0].real) and np.isnan(vals[0].imag)
            assert np.isfinite(vals[1])



# -- tilted Verblunsky draws (ratio) -----------------------------------------------

def _untilted(est):
    """The same estimator on the plain Verblunsky route."""
    plain = functools.wraps(est)(lambda e: est(e))
    plain.tilt = None
    return plain


# z = 0, a point outside the disc and one on the circle; then ratio's points at
# a = d and b = c, where E_k = 0 at every step and no point needs reflecting
TILTED_CASES = [
    ((0j, 1.7 - 0.4j, 0.6 + 0.8j, 0.3 + 0.2j), (1, 1, -1, -1)),
    ((0j, 1.7 - 0.4j), (1, -1)),
    ((0j, 1.7 - 0.4j, 0.6 + 0.8j, 0.3 + 0.2j), (1, 1, -1, 1)),
    ((0.6, -0.5j, 0.6, -0.5j), (1, 1, -1, -1)),
]


@pytest.mark.parametrize("big_n", [0, 1, 2, 3, 10, 50])
@pytest.mark.parametrize("case", range(len(TILTED_CASES)))
def test_tilted_draw_equals_step_by_step_loop_bitwise(big_n, case):
    points, tilt = TILTED_CASES[case]
    for count in (1, 7, 300):
        seed = (big_n, count, case)
        chi, weight = _tilted_char_batch(np.random.default_rng(seed), count, big_n, points, tilt)
        want_chi, want_weight = loop_tilted_char(
            np.random.default_rng(seed), count, big_n, points, tilt
        )
        assert chi.shape == (count, len(tilt)) and weight.shape == (count,)
        assert np.array_equal(chi, want_chi) and np.array_equal(weight, want_weight)


@pytest.mark.parametrize("name", sorted(CHAR_ESTIMATORS))
def test_char_estimators_equal_the_oracle_kernels_end_to_end(name, monkeypatch):
    # several chunks with a short last one; ratio with a point outside the disc
    params = CHAR_ESTIMATORS[name]
    if name == "ratio":
        params = {"a": (1.2 + 0.1j, 0.5j), "b": (0.8,), "c": (0.3,), "d": (0.2 - 0.1j,)}
    monkeypatch.setattr(haar, "CHUNK", 700)
    est = make_estimator(name, 9, **params)
    got = mc_average(est, 9, 2500, seed=17)
    monkeypatch.setattr(haar, "_tilted_char_batch", loop_tilted_char)
    monkeypatch.setattr(
        haar, "_szego_batch", lambda alpha, points, derivative: two_array_szego(alpha, points)
    )
    assert mc_average(est, 9, 2500, seed=17) == got


def test_tilted_weights_average_to_one():
    # the likelihood ratio of the Haar law to the tilted one has Haar mean 1
    points, tilt = (0.8 + 0.1j, 0.7 - 0.3j, 0.2j, 1.4), (1, 1, -1, 1)
    chi, weight = _tilted_char_batch(np.random.default_rng(9), 40000, 8, points, tilt)
    assert chi.shape == (40000, 4) and weight.shape == (40000,)
    assert np.all(weight > 0)
    assert abs(weight.mean() - 1) < 4 * weight.std() / sqrt(weight.size)


def test_tilted_product_average_is_exact_on_average():
    # E chi_g(a) chi_{g^{-1}}(b) = sum_{k <= N} (ab)^k, under the tilted draw as well
    big_n, a, b = 7, 0.8 + 0.2j, 0.75 - 0.1j
    chi, weight = _tilted_char_batch(
        np.random.default_rng(10), 40000, big_n, (a, np.conj(b)), (1, 1)
    )
    vals = weight * chi[:, 0] * np.conj(chi[:, 1])
    want = sum((a * b) ** k for k in range(big_n + 1))
    stderr = max(vals.real.std(), vals.imag.std()) / sqrt(vals.size)
    assert abs(vals.mean() - want) < 4 * stderr


def test_tilted_draw_without_tilt_direction_keeps_weight_one():
    # a = d and b = c: E_k = 0 at every step, so the draw is the Haar law itself
    est = make_estimator("ratio", 6, a=(0.6,), b=(0.5j,), c=(0.5j,), d=(0.6,))
    chi, weight = _tilted_char_batch(np.random.default_rng(2), 50, 6, est.points, est.tilt)
    assert np.all(weight == 1)
    assert np.all(np.abs(chi) <= 2 ** 6) and np.all(np.isfinite(chi))


@pytest.mark.parametrize("params", [
    {"a": (0.85 + 0.1j,), "b": (0.8 - 0.15j,), "c": (0.3,), "d": (0.4,)},
    {"a": (1.1 + 0.2j,), "b": (0.8 - 0.3j,), "c": (0.3 + 0.1j,), "d": (0.4 - 0.2j,)},
    {"a": (0.5, 0.6j), "b": (0.7,), "c": (0.2,), "d": (0.3, -0.1)},
    {"a": (1.5,), "b": (0.2,), "c": (0.1,), "d": (0.1,)},
])
def test_tilted_ratio_is_unbiased_and_lighter(params):
    big_n, samples = 8, 40000
    est = make_estimator("ratio", big_n, **params)
    pred = ratio_avg(params["a"], params["b"], params["c"], params["d"], big_n)
    tilted = mc_average(est, big_n, samples, seed=21)
    plain = mc_average(_untilted(est), big_n, samples, seed=21)
    assert abs(tilted.mean - pred) < 4 * tilted.stderr
    assert tilted.stderr < plain.stderr


def test_tilt_divides_out_the_heavy_tail():
    # near-conjugate numerator points make |chi_g(a) chi_{g^-1}(b)| log-normal
    # with a heavy tail; the tilted draw cuts the standard error several-fold
    est = make_estimator("ratio", 10, a=(0.85 + 0.1j,), b=(0.8 - 0.15j,), c=(0.3,), d=(0.4,))
    tilted = mc_average(est, 10, 40000, seed=22)
    plain = mc_average(_untilted(est), 10, 40000, seed=22)
    assert tilted.stderr < plain.stderr / 3


def test_tilted_ratio_at_n0_is_exactly_one():
    est = make_estimator("ratio", 0, a=(0.5,), b=(0.4,), c=(0.3,), d=(0.2,))
    out = mc_average(est, 0, 200, seed=1)
    assert out.mean == 1 and out.stderr == 0

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
