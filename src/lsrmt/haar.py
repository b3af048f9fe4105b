"""Haar-random unitary sampling, spectral functionals, and Monte Carlo.

Sampling draws a complex Ginibre matrix, orthonormalizes by QR and fixes the
phases so the triangular factor has positive real diagonal, which yields the
exact Haar distribution.  Only spectra are retained.  Monte Carlo estimates
are chunked with per-chunk seeded generators and a fixed-order reduction, so
results depend only on (seed, M), never on scheduling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import factorial, sqrt

import numpy as np

from .rmt import _refine_grid
from .symfunc import monomial_on_arrays

POLE_EPS = 1e-9
CHUNK = 4096
# mesh points handed to a Weyl functional at once; bounds the mesh-sized temporaries
WEYL_CHUNK = 1 << 14


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


# -- batched estimators ---------------------------------------------------------

def _char_batch(eigs: np.ndarray, z: complex) -> np.ndarray:
    """chi_g(z) = det(I - z g^{-1}) = prod (1 - z conj(rho)), one per spectrum."""
    return np.prod(1 - z * np.conj(eigs), axis=1)


def _logder_batch(eigs: np.ndarray, z: complex) -> np.ndarray:
    """Vectorized chi'/chi with NaN marking pole-adjacent samples."""
    conj = np.conj(eigs)
    denom = 1 - z * conj
    vals = np.sum(-conj / denom, axis=1)
    bad = np.min(np.abs(eigs - z), axis=1) < POLE_EPS
    vals = np.where(bad, np.nan + 1j * np.nan, vals)
    return vals


def _logder_inv_batch(eigs: np.ndarray, z: complex) -> np.ndarray:
    """chi'_{g^{-1}} / chi_{g^{-1}} evaluated on the spectrum of g."""
    return _logder_batch(np.conj(eigs), z)


class Estimator:
    """Named batch functional over spectra, optionally with a predicted mean."""

    def __init__(self, name, func, prediction=None):
        self.name = name
        self.func = func
        self.prediction = prediction

    def __call__(self, eigs: np.ndarray) -> np.ndarray:
        return self.func(eigs)


def make_estimator(name: str, big_n: int, **params) -> Estimator:
    """Build a named estimator; prediction is attached when a closed form exists.

    Names: one, trace, abs_trace_sq, abs_char_sq, ratio, logder_pair,
    completed_logder_pair, explicit_sum, schur_pair.
    """
    from .rmt import (
        completed_logders_main,
        logders_main,
        moment_unitary,
        ratio_avg,
    )

    if name == "one":
        return Estimator(name, lambda e: np.ones(e.shape[0], dtype=complex), 1.0 + 0j)
    if name == "trace":
        return Estimator(name, lambda e: np.sum(e, axis=1), 0j)
    if name == "abs_trace_sq":
        return Estimator(
            name, lambda e: np.abs(np.sum(e, axis=1)).astype(complex) ** 2, 1.0 + 0j
        )
    if name == "abs_char_sq":
        z = complex(params.get("z", 1.0))
        pred = complex(moment_unitary(1, big_n)) if abs(abs(z) - 1) < 1e-12 else None
        return Estimator(
            name, lambda e: np.abs(_char_batch(e, z)).astype(complex) ** 2, pred
        )
    if name == "ratio":
        a = tuple(params.get("a", ()))
        b = tuple(params.get("b", ()))
        c = tuple(params.get("c", ()))
        d = tuple(params.get("d", ()))

        def ratio_func(e):
            out = np.ones(e.shape[0], dtype=complex)
            for alpha in a:
                out = out * _char_batch(e, alpha)
            for beta in b:
                out = out * _char_batch(np.conj(e), beta)
            for delta_ in d:
                out = out / _char_batch(e, delta_)
            for gamma in c:
                out = out / _char_batch(np.conj(e), gamma)
            return out

        pred = None
        try:
            pred = ratio_avg(a, b, c, d, big_n)
        except ValueError:
            pass
        return Estimator(name, ratio_func, pred)
    if name == "logder_pair":
        eps = complex(params.get("eps", 0.3))
        phi = complex(params.get("phi", 0.3))
        pred = eps * phi * logders_main((eps,), (phi,))

        def pair_func(e):
            return eps * _logder_batch(e, eps) * phi * _logder_inv_batch(e, phi)

        return Estimator(name, pair_func, pred)
    if name == "completed_logder_pair":
        eps = complex(params.get("eps", 0.3))
        phi = complex(params.get("phi", 0.3))
        pred = completed_logders_main((eps,), (phi,), big_n)

        def completed_func(e):
            lhs = -big_n / 2 + eps * _logder_batch(e, eps)
            rhs = -big_n / 2 + phi * _logder_inv_batch(e, phi)
            return lhs * rhs

        return Estimator(name, completed_func, pred)
    if name == "explicit_sum":
        from .rmt import catalog_function

        h = catalog_function(params.get("h", "one"))

        def explicit_func(e):
            return np.sum(h(e), axis=1)

        return Estimator(name, explicit_func, None)
    if name == "schur_pair":
        from .symfunc import schur_in_monomials

        mu = tuple(params.get("mu", ()))
        nu = tuple(params.get("nu", ()))
        mu_expansion = schur_in_monomials(mu, big_n)
        nu_expansion = schur_in_monomials(nu, big_n)

        def schur_func(e):
            s_mu = _monomial_batch_sum(mu_expansion, e)
            s_nu = _monomial_batch_sum(nu_expansion, e)
            return s_mu * np.conj(s_nu)

        pred = (1.0 + 0j) if (mu == nu and len(mu) <= big_n) else 0j
        return Estimator(name, schur_func, pred)
    raise ValueError(f"unknown estimator {name!r}")


def _monomial_batch_sum(expansion, eigs: np.ndarray) -> np.ndarray:
    """sum_lam coeff_lam m_lam over each spectrum, for a monomial expansion."""
    count, big_n = eigs.shape
    columns = [eigs[:, j] for j in range(big_n)]
    out = np.zeros(count, dtype=complex)
    for lam, coeff in expansion.items():
        out += coeff * monomial_on_arrays(lam, columns, count)
    return out


def mc_average(
    functional,
    big_n: int,
    samples: int,
    seed: int,
    workers: int = 1,
    chunk: int = CHUNK,
) -> MCEstimate:
    """Monte Carlo average of a named or callable functional over Haar spectra.

    The sample stream is split into fixed chunks; chunk i uses the generator
    seeded by SeedSequence((seed, i)).  Rejected (NaN) evaluations are dropped
    and counted.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    est = (
        functional
        if callable(functional)
        else make_estimator(functional, big_n)
    )
    bounds = [(i, min(chunk, samples - i * chunk)) for i in range((samples + chunk - 1) // chunk)]

    def run_chunk(args):
        index, count = args
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        eigs = _haar_batch(rng, count, big_n)
        vals = np.asarray(est(eigs), dtype=complex)
        good = ~np.isnan(vals.real) & ~np.isnan(vals.imag)
        v = vals[good]
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

def weyl_quadrature(
    functional,
    big_n: int,
    grid: int = 32,
    tol: float = 1e-8,
    max_refine: int = 6,
) -> complex:
    """Average over U(N) by torus quadrature against the Weyl density.

    functional maps an eigenvalue array of shape (points, N) to values; the
    integrand is multiplied by |Delta(e^{i theta})|^2 / (N! (2 pi)^N).  The
    trapezoid rule on the torus is spectrally accurate; the grid is doubled
    until successive estimates agree.
    """
    if big_n > 3:
        raise ValueError("Weyl quadrature oracle is restricted to N <= 3")
    return _refine_grid(
        lambda g: _weyl_on_grid(functional, big_n, g), grid, big_n, tol, max_refine
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
