"""Haar-random unitary sampling, spectral functionals, and Monte Carlo.

There are two samplers of the Haar measure on U(N).  The spectral one draws a
complex Ginibre matrix, orthonormalizes by QR and fixes the phases so the
triangular factor has positive real diagonal, which yields the exact Haar
distribution; only spectra are retained.  Monte Carlo of an estimator that
reads the characteristic polynomial at a few points uses the second: independent
Verblunsky coefficients (Killip & Nenciu, IMRN 2004) and the Szegő recursion
give chi_g and chi_g' there in O(N) per point, with no matrix; `ratio`
draws them from a tilted law and weights each value by the likelihood ratio,
which divides out the heavy tail of a ratio of characteristic polynomials.
Each such estimator is written once, on (chi_g, chi_g'); called on spectra
(QR samples, a Weyl mesh) it reads that pair off the eigenvalues instead.
Monte Carlo estimates are chunked with per-chunk seeded generators and a
fixed-order reduction, so results depend only on (seed, M), never on
scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import factorial, sqrt

import numpy as np

from .rmt import _refine_grid, catalog_function, ratio_avg
from .symfunc import monomial_on_arrays, schur_in_monomials

POLE_EPS = 1e-9
# largest |E_k| of a tilted Verblunsky draw; bounds each likelihood-ratio factor
TILT_MAX = 0.9
CHUNK = 4096
# mesh points handed to a Weyl functional at once; bounds the mesh-sized temporaries
WEYL_CHUNK = 1 << 14
# Weyl quadrature: starting grid per angle, grid-doubling agreement, doublings allowed
WEYL_GRID = 32
WEYL_TOL = 1e-8
WEYL_MAX_REFINE = 6


class PoleProximityError(ValueError):
    """Evaluation point too close to an eigenvalue."""


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with componentwise standard error."""

    mean: complex
    stderr: float
    samples: int
    seed: int
    rejected: int = 0

    def to_json(self):
        return {
            "mean_re": self.mean.real,
            "mean_im": self.mean.imag,
            "stderr": self.stderr,
            "samples": self.samples,
            "seed": self.seed,
            "rejected": self.rejected,
        }


def _haar_batch(rng, count: int, big_n: int) -> np.ndarray:
    """Eigenvalue arrays of `count` Haar unitaries, shape (count, N)."""
    z = rng.standard_normal((count, big_n, big_n)) + 1j * rng.standard_normal(
        (count, big_n, big_n)
    )
    q, r = np.linalg.qr(z / sqrt(2.0))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (diag / np.abs(diag))[:, None, :]
    return np.linalg.eigvals(q)


def _verblunsky_batch(rng, count: int, big_n: int) -> np.ndarray:
    """Verblunsky coefficients of `count` Haar unitaries, shape (count, N).

    Killip-Nenciu: alpha_0 .. alpha_{N-1} are independent with uniform phase,
    |alpha_k|^2 ~ Beta(1, N-k-1) for k < N-1, drawn as 1 - U^{1/(N-k-1)},
    and |alpha_{N-1}| = 1.
    """
    free = max(big_n - 1, 0)
    mod_sq = np.ones((count, big_n))
    mod_sq[:, :free] = 1 - rng.random((count, free)) ** (1.0 / np.arange(free, 0, -1))
    phase = np.exp(2j * np.pi * rng.random((count, big_n)))
    return np.sqrt(mod_sq) * phase


def _szego_batch(alpha: np.ndarray, points, derivative: bool):
    """chi_g at each point and, if `derivative`, chi_g' (else None), each (count, len(points)).

    The Szegő recursion Phi_{k+1} = z Phi_k - conj(alpha_k) Phi*_k,
    Phi*_{k+1} = Phi*_k - alpha_k z Phi_k from Phi_0 = Phi*_0 = 1, with its
    derivative when asked; chi_g(z) = det(I - z g^{-1}) = Phi*_N(z).  (Phi, Phi')
    and (Phi*, Phi*') are each held in one (2, len(points), count) array (one
    layer without the derivative), samples innermost, so a step is a few
    array operations over long rows; (z Phi)' = z Phi' + Phi.  The results
    are transposed views.
    """
    z = np.asarray(points, dtype=complex)[:, None]
    alpha_t = np.ascontiguousarray(alpha.T)
    alpha_bar = np.conj(alpha_t)
    phi = np.zeros((2 if derivative else 1, z.shape[0], alpha.shape[0]), dtype=complex)
    phi[0] = 1
    star = phi.copy()
    for k in range(alpha_t.shape[0]):
        z_phi = z * phi
        if derivative:
            z_phi[1] += phi[0]
        phi, star = z_phi - alpha_bar[k] * star, star - alpha_t[k] * z_phi
    return star[0].T, star[1].T if derivative else None


def _tilted_char_batch(rng, count: int, big_n: int, points, tilt):
    """chi_g at each point and each sample's likelihood ratio, from a tilted law.

    chi_g(z) = prod_k (1 - alpha_k b_k(z)) with b_k = z Phi_k / Phi*_k, which
    depends on alpha_0 .. alpha_{k-1} only, so log|prod_j chi_g(z_j)^tilt_j|
    is to first order sum_k -2 Re(alpha_k E_k), E_k = sum_j tilt_j b_k(z_j) / 2.
    Each alpha_k is drawn from its Haar law times |1 - alpha_k E_k|^2 / Z_k,
    Z_k = 1 + |E_k|^2 E|alpha_k|^2, and the ratio prod_k Z_k / |1 - alpha_k E_k|^2
    of the Haar density to the drawn one is returned: the mean of weight *
    f(chi) is the Haar mean of f(chi) for any f, and for f close to
    prod_j chi_g(z_j)^tilt_j its heavy tail is divided out.  E_k is clipped to
    |E_k| <= TILT_MAX (0 where b_k is not finite), which bounds each factor.

    Given |alpha|^2 = s the tilted phase has density (1 - kappa cos theta) / 2pi
    in theta = arg(alpha E), kappa = 2w / (1 + w^2), w = sqrt(s) |E|: a mixture
    of the uniform law and (1 - cos theta) / 2pi, which is the law of
    2 arccos(x) for x the abscissa of a uniform point of the unit disc.  The
    tilted law of s mixes Beta(1, m) = 1 - U^{1/m} and Beta(2, m) =
    1 - U^{1/m} V^{1/(m+1)}, m = N - k - 1, in proportions 1 : |E|^2 / (m + 1);
    |alpha_{N-1}| = 1.
    """
    z = np.asarray(points, dtype=complex)
    half_tilt = np.asarray(tilt, dtype=float) / 2  # exact: a power of two
    # the draws of every step at once; E_k only picks between them (column 4 is
    # the uniform angle or the disc point's radius, whichever branch is taken)
    u = rng.random((count, big_n, 6))
    m = np.arange(big_n - 1, -1, -1)  # |alpha_k|^2 ~ Beta(1, m_k) under Haar
    free = m > 0
    first = np.ones((count, big_n))
    first[:, free] = u[:, free, 0] ** (1.0 / m[free])
    s_one = 1 - first
    s_two = 1 - first * u[:, :, 1] ** (1.0 / (m + 1))
    s_one[:, ~free] = s_two[:, ~free] = 1
    # 2i theta for each branch of the tilted phase; a step exponentiates the chosen one
    dip = 2j * np.arccos(np.sqrt(u[:, :, 4]) * np.cos(2 * np.pi * u[:, :, 5]))
    flat = 2j * np.pi * u[:, :, 4]
    # one contiguous row over the samples per step
    root_one, root_two, dip, flat, pick_s, pick_phase = (
        np.ascontiguousarray(a.T)
        for a in (np.sqrt(s_one), np.sqrt(s_two), dip, flat, u[:, :, 2], u[:, :, 3])
    )
    tiny = np.finfo(float).tiny
    # |chi_g(z)| = |z|^N |chi_g(1 / conj(z))| and b_k(1 / conj(z)) = 1 / conj(b_k(z)):
    # a point outside the disc tilts through its reflection
    outside = np.abs(z) > 1
    reflect = outside.any()
    shape = (count, z.size)
    phi, star = np.ones(shape, dtype=complex), np.ones(shape, dtype=complex)
    weight = np.ones(count)
    # a zero Phi*_k makes b_k infinite or NaN; E_k is then 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(big_n):
            z_phi = z * phi
            b = z_phi / star
            if reflect:
                b[:, outside] = 1 / np.conj(b[:, outside])
            # b stays C-contiguous (count, points): a (points, count) copy rounds differently
            e = b @ half_tilt
            e = np.where(np.isfinite(e), e, 0)
            size = np.abs(e)
            unit = np.where(size > 0, np.conj(e) / np.maximum(size, tiny), 1)
            size = np.minimum(size, TILT_MAX)
            z_k = 1 + size ** 2 / (m[k] + 1)  # E|alpha_k|^2 = 1 / (m_k + 1)
            root_s = np.where(pick_s[k] * z_k < z_k - 1, root_two[k], root_one[k])
            w = root_s * size
            one_w2, two_w = 1 + w * w, 2 * w
            cis = np.exp(np.where(pick_phase[k] * one_w2 < two_w, dip[k], flat[k]))
            weight *= z_k / (one_w2 - two_w * cis.real)
            # alpha E = w e^{i theta} for the clipped E
            alpha = (root_s * cis * unit)[:, None]
            phi, star = z_phi - np.conj(alpha) * star, star - alpha * z_phi
    return star, weight


# -- batched estimators ---------------------------------------------------------

def _spectral_char(eigs: np.ndarray, points) -> tuple[np.ndarray, np.ndarray]:
    """chi_g and chi_g' at each point from spectra, each of shape (count, len(points)).

    chi_g(z) = det(I - z g^{-1}) = prod_j (1 - z conj(rho_j)) and
    chi_g'(z) = chi_g(z) sum_j -conj(rho_j) / (1 - z conj(rho_j)): the pair
    _szego_batch gives from Verblunsky coefficients.
    """
    conj = np.conj(eigs)[:, None, :]
    factors = 1 - np.asarray(points, dtype=complex)[None, :, None] * conj
    chi = np.prod(factors, axis=2)
    # a point on an eigenvalue gives a zero factor and chi = 0; the pole rule rejects it
    with np.errstate(divide="ignore", invalid="ignore"):
        return chi, chi * np.sum(-conj / factors, axis=2)


def _logder_from_char(chi: np.ndarray, dchi: np.ndarray) -> np.ndarray:
    """chi'/chi with NaN where |chi| < POLE_EPS.

    This is the one pole rule, on spectra and on Verblunsky draws alike.
    Since |chi_g(z)| = prod_j |rho_j - z|, it rejects a sample when the
    product of the distances from z to the eigenvalues is below POLE_EPS, a
    neighbourhood of the pole set of chi'/chi.
    """
    vals = dchi / chi
    return np.where(np.abs(chi) < POLE_EPS, np.nan + 1j * np.nan, vals)


class Estimator:
    """Batch functional over spectra, optionally with a predicted mean.

    Called on a (count, N) array of spectra it returns one value per row.  An
    estimator that reads the characteristic polynomial only at a few points
    is defined by those `points` and a `char_func` in place of a `func`:
    char_func(chi, dchi) maps chi_g and chi_g' at the points, arrays of shape
    (count, len(points)), to the values.  A call reads them off the spectra
    (_spectral_char); mc_average draws them from Verblunsky coefficients, and
    carries chi_g' only when `reads_dchi` is set (else dchi is None).
    chi_{g^{-1}}(w) = conj(chi_g(conj(w))), so points for g^{-1} enter
    conjugated.  One whose values grow like prod_j |chi_g(z_j)|^tilt_j also
    carries that `tilt`; mc_average then draws from the tilted law of
    _tilted_char_batch and weights each value, and its char_func reads chi
    only (dchi is None).  These are plain instance attributes, so a wrapper
    made with functools.wraps carries them too, and mc_average evaluates such
    a wrapper through the copied char_func alone: the wrapper's own body never
    runs.
    """

    def __init__(self, func, prediction=None, points=None, char_func=None, tilt=None):
        self.func = func
        self.prediction = prediction
        self.points = points
        self.char_func = char_func
        self.tilt = tilt
        self.reads_dchi = False

    def __call__(self, eigs: np.ndarray) -> np.ndarray:
        if self.char_func is None:
            return self.func(eigs)
        return self.char_func(*_spectral_char(eigs, self.points))


def _logder_pair_mean(eps: complex, phi: complex, big_n: int) -> complex | None:
    """Exact U(N) mean of eps chi_g'/chi_g(eps) * phi chi_{g^-1}'/chi_{g^-1}(phi).

    For |eps|, |phi| < 1 the factors are -sum_k tr(g^-k) eps^k and
    -sum_k tr(g^k) phi^k, and E[tr g^-j tr g^k] = delta_jk min(k, N)
    (Diaconis & Shahshahani, J. Appl. Probab. 31A, 1994), so with x = eps phi
    the mean is sum_{k>=1} min(k, N) x^k = x (1 - x^N) / (1 - x)^2.  None
    outside the disc, where the expansion fails, and for N < 0.
    """
    if big_n < 0 or abs(eps) >= 1 or abs(phi) >= 1:
        return None
    x = eps * phi
    return x * (1 - x ** big_n) / (1 - x) ** 2


def make_estimator(name: str, big_n: int, **params) -> Estimator:
    """Build a named estimator; its prediction is the exact U(N) mean, or None.

    Names: one, trace, abs_trace_sq, abs_char_sq, ratio, logder_pair,
    completed_logder_pair, explicit_sum, schur_pair.  logder_pair predicts
    x (1 - x^N) / (1 - x)^2 with x = eps phi and completed_logder_pair N^2/4
    plus that, both in O(1) and for |eps|, |phi| < 1 only (rmt.logders_main
    and completed_logders_main are their large-N limits); abs_char_sq
    predicts N + 1 on the unit circle only, ratio predicts ratio_avg where
    its conditions hold, and explicit_sum predicts nothing.  A parameter that
    the named estimator does not read raises ValueError.
    """
    if name == "one":
        est = Estimator(lambda e: np.ones(e.shape[0], dtype=complex), 1.0 + 0j)
    elif name == "trace":
        est = Estimator(lambda e: np.sum(e, axis=1), 0j)
    elif name == "abs_trace_sq":
        est = Estimator(lambda e: np.abs(np.sum(e, axis=1)).astype(complex) ** 2, 1.0 + 0j)
    elif name == "abs_char_sq":
        z = complex(params.pop("z", 1.0))
        # E|chi_g(z)|^2 = N + 1 on the unit circle (moment_unitary(1, N))
        pred = complex(big_n + 1) if abs(abs(z) - 1) < 1e-12 else None
        est = Estimator(
            None, pred, (z,), lambda chi, dchi: np.abs(chi[:, 0]).astype(complex) ** 2
        )
    elif name == "ratio":
        a = tuple(params.pop("a", ()))
        b = tuple(params.pop("b", ()))
        c = tuple(params.pop("c", ()))
        d = tuple(params.pop("d", ()))
        # chi_g at a and d, chi_{g^{-1}} at b and c
        points = (*a, *np.conj(b), *d, *np.conj(c))
        cut_b, cut_d, cut_c = np.cumsum([len(a), len(b), len(d)])

        def ratio_char(chi, dchi):
            at_a, at_b, at_d, at_c = (
                chi[:, :cut_b], chi[:, cut_b:cut_d], chi[:, cut_d:cut_c], chi[:, cut_c:]
            )
            return (
                np.prod(at_a, axis=1) * np.prod(np.conj(at_b), axis=1)
                / np.prod(at_d, axis=1) / np.prod(np.conj(at_c), axis=1)
            )

        pred = None
        try:
            pred = ratio_avg(a, b, c, d, big_n)
        except ValueError:
            pass
        # |chi_g| at a and conj(b) up, at d and conj(c) down
        tilt = (1,) * (len(a) + len(b)) + (-1,) * (len(d) + len(c))
        est = Estimator(None, pred, points, ratio_char, tilt)
    elif name == "logder_pair":
        eps = complex(params.pop("eps", 0.3))
        phi = complex(params.pop("phi", 0.3))
        pred = _logder_pair_mean(eps, phi, big_n)

        def pair_char(chi, dchi):
            logder = _logder_from_char(chi, dchi)
            return eps * logder[:, 0] * phi * np.conj(logder[:, 1])

        est = Estimator(None, pred, (eps, phi.conjugate()), pair_char)
        est.reads_dchi = True
    elif name == "completed_logder_pair":
        eps = complex(params.pop("eps", 0.3))
        phi = complex(params.pop("phi", 0.3))
        pair = _logder_pair_mean(eps, phi, big_n)
        pred = None if pair is None else big_n ** 2 / 4 + pair

        def completed_char(chi, dchi):
            logder = _logder_from_char(chi, dchi)
            lhs = -big_n / 2 + eps * logder[:, 0]
            rhs = -big_n / 2 + phi * np.conj(logder[:, 1])
            return lhs * rhs

        est = Estimator(None, pred, (eps, phi.conjugate()), completed_char)
        est.reads_dchi = True
    elif name == "explicit_sum":
        h = catalog_function(params.pop("h", "one"))

        def explicit_func(e):
            return np.sum(h(e), axis=1)

        est = Estimator(explicit_func)
    elif name == "schur_pair":
        mu = tuple(params.pop("mu", ()))
        nu = tuple(params.pop("nu", ()))
        mu_expansion = schur_in_monomials(mu, big_n)
        nu_expansion = schur_in_monomials(nu, big_n)

        def schur_func(e):
            s_mu = _monomial_batch_sum(mu_expansion, e)
            s_nu = _monomial_batch_sum(nu_expansion, e)
            return s_mu * np.conj(s_nu)

        pred = (1.0 + 0j) if (mu == nu and len(mu) <= big_n) else 0j
        est = Estimator(schur_func, pred)
    else:
        raise ValueError(f"unknown estimator {name!r}")
    if params:
        raise ValueError(f"estimator {name!r} does not read {', '.join(sorted(params))}")
    return est


def _monomial_batch_sum(expansion, eigs: np.ndarray) -> np.ndarray:
    """sum_lam coeff_lam m_lam over each spectrum, for a monomial expansion."""
    count, big_n = eigs.shape
    columns = [eigs[:, j] for j in range(big_n)]
    out = np.zeros(count, dtype=complex)
    for lam, coeff in expansion.items():
        out += coeff * monomial_on_arrays(lam, columns, count)
    return out


def mc_average(functional, big_n: int, samples: int, seed: int, workers: int = 1) -> MCEstimate:
    """Monte Carlo average of a callable functional over Haar samples.

    A functional with a `char_func` (see Estimator) is evaluated only through
    that char_func, on chi_g from Verblunsky coefficients and on chi_g' only
    if it `reads_dchi` (else dchi is None); when it carries a `tilt` they are
    drawn from the tilted law, with dchi None, and each value is weighted.
    Its own call is never made, so the body of a functools.wraps wrapper
    around an Estimator does not run.  Any other callable gets spectra from
    QR.  The sample stream is split into chunks of CHUNK samples; chunk i
    uses the generator seeded by SeedSequence((seed, i)).  Rejected (NaN)
    evaluations are dropped and counted.  N < 0, M < 100 and workers < 1 are
    refused.
    """
    if big_n < 0:
        raise ValueError(f"N must be non-negative, got {big_n}")
    if samples < 100:
        raise ValueError("need at least 100 samples")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if getattr(functional, "tilt", None) is not None:
        def evaluate(rng, count):
            chi, weight = _tilted_char_batch(
                rng, count, big_n, functional.points, functional.tilt
            )
            return weight * functional.char_func(chi, None)
    elif getattr(functional, "char_func", None) is not None:
        def evaluate(rng, count):
            alpha = _verblunsky_batch(rng, count, big_n)
            return functional.char_func(
                *_szego_batch(alpha, functional.points, functional.reads_dchi)
            )
    else:
        def evaluate(rng, count):
            return functional(_haar_batch(rng, count, big_n))

    bounds = [(i, min(CHUNK, samples - i * CHUNK)) for i in range((samples + CHUNK - 1) // CHUNK)]

    def run_chunk(args):
        index, count = args
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        v = np.asarray(evaluate(rng, count), dtype=complex)
        nan = np.isnan(v)  # NaN in either part
        if nan.any():
            v = v[~nan]
        return (
            np.sum(v),
            np.sum(v.real ** 2),
            np.sum(v.imag ** 2),
            int(v.size),
            int(count - v.size),
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_chunk, bounds))
    else:
        results = [run_chunk(b) for b in bounds]

    total = 0j
    sq_re = sq_im = 0.0
    kept = rejected = 0
    for s, re2, im2, n_good, n_bad in results:
        total += s
        sq_re += re2
        sq_im += im2
        kept += n_good
        rejected += n_bad
    if kept < 2:
        raise PoleProximityError("all samples rejected")
    mean = total / kept
    var_re = max(0.0, (sq_re - kept * mean.real ** 2) / (kept - 1))
    var_im = max(0.0, (sq_im - kept * mean.imag ** 2) / (kept - 1))
    stderr = sqrt(max(var_re, var_im) / kept)
    return MCEstimate(complex(mean), stderr, kept, seed, rejected)


# -- small-N Weyl quadrature -----------------------------------------------------

def weyl_quadrature(functional, big_n: int) -> complex:
    """Average over U(N) by torus quadrature against the Weyl density.

    functional maps an eigenvalue array of shape (points, N) to values; the
    integrand is multiplied by |Delta(e^{i theta})|^2 / (N! (2 pi)^N).  The
    trapezoid rule on the torus is spectrally accurate; the grid is doubled
    until successive estimates agree.
    """
    if big_n > 3:
        raise ValueError("Weyl quadrature oracle is restricted to N <= 3")
    return _refine_grid(
        lambda g: _weyl_on_grid(functional, big_n, g),
        WEYL_GRID, big_n, WEYL_TOL, WEYL_MAX_REFINE,
    )


def _weyl_on_grid(functional, big_n: int, grid: int) -> complex:
    theta = 2.0 * np.pi * np.arange(grid) / grid
    npoints = grid ** big_n
    total = 0j
    for start in range(0, npoints, WEYL_CHUNK):
        index = np.arange(start, min(start + WEYL_CHUNK, npoints))
        axes = np.unravel_index(index, (grid,) * big_n)
        eigs = np.exp(1j * np.stack([theta[a] for a in axes], axis=-1))
        weight = np.ones(eigs.shape[0])
        for i in range(big_n):
            for j in range(i + 1, big_n):
                weight = weight * np.abs(eigs[:, i] - eigs[:, j]) ** 2
        vals = np.asarray(functional(eigs), dtype=complex)
        total += np.sum(vals * weight)
    return complex(total / (npoints * factorial(big_n)))
