"""Privacy-utility sweep: relative error of the private statistics vs epsilon.

For every (epsilon, eta) cell the protocol's two private statistics are
drawn `replications` times with fresh seeds against fixed (X, Y); each
trial's private statistic, denominator and numerator are compared to the
non-private values on the same data as percent relative error, and the cell
reports mean and standard deviation of each.  Cells whose non-private
reference is zero are marked degenerate with NaN entries.

A trial draws ``(omega_bar_sq, s_bar)`` from the exact joint law of what
``bob_evaluate(alice_prepare(X, p, seed), Y)`` reports, not by releasing and
reducing a package: the two releases are independent, ``sx`` is drawn by
the code behind ``private_centered_sq_norm`` from the trial's ``X`` seed,
as the package draws it, so ``s_bar`` has the package's bits, and the
analyst's answer ``||R Q||_F^2`` by the code behind
``private_projected_sq_norm`` from its ``B`` seed, a new draw of the same
law.  What the two laws need of the data (``B^T Q``, ``Q^T Q``, the
spectrum of ``Xc``) is computed once per sweep, and the laws once per cell,
so a trial is a few chi-square draws, and nothing of size r is drawn or
held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .estimators import (
    _paired_matrices,
    dcov_sq_closed_form,
    rejection_threshold,
    s_hat,
    test_statistic,
)
from .privacy import (
    PrivacyParams,
    _centered_spectrum,
    _centered_sq_norm_law,
    _ChiSquareMix,
    _projected_sq_norm_law,
)
from .protocol import (
    _check_sx,
    _private_statistics,
    _query_matrix,
    _release_seeds,
    _yc_sq,
    factor_W,
)

__all__ = ["SweepConfig", "SweepRow", "SWEEP_HEADER", "run_sweep", "sweep_rows_to_csv"]


@dataclass(frozen=True)
class SweepConfig:
    """A sweep's grid and settings, each checked by the owner of its rule.

    ``PrivacyParams`` checks epsilon, eta, delta and nu, as it builds
    ``cells``, and ``rejection_threshold`` checks alpha; ``replications``
    and ``master_seed`` must be integers.  ``alpha`` has no effect on the
    rows, which hold no test decision.
    """

    epsilons: tuple[float, ...]
    replications: int = 50
    eta_values: tuple[float, ...] = (0.05, 0.1)
    delta: float = 2e-4
    nu: float = 0.05
    alpha: float = 0.05
    master_seed: int = 0

    def __post_init__(self) -> None:
        if not self.cells:
            raise InvalidInputError("epsilons and eta_values must be non-empty")
        if list(self.epsilons) != sorted(set(self.epsilons)):
            raise InvalidInputError(f"epsilons must be strictly increasing, got {self.epsilons}")
        for name in ("replications", "master_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        if self.replications < 1:
            raise InvalidInputError(f"replications must be >= 1, got {self.replications}")
        rejection_threshold(self.alpha)
        if self.master_seed < 0:
            raise InvalidInputError(f"master_seed must be >= 0, got {self.master_seed}")

    @property
    def cells(self) -> tuple[PrivacyParams, ...]:
        """The ``PrivacyParams`` of every (epsilon, eta), in row order."""
        return tuple(PrivacyParams(e, self.delta, eta, self.nu)
                     for e, eta in product(self.epsilons, self.eta_values))


class SweepRow(NamedTuple):
    epsilon: float
    eta: float
    mean_rel_err_gamma: float
    sd_gamma: float
    mean_rel_err_s: float
    sd_s: float
    mean_rel_err_omega: float
    sd_omega: float


SWEEP_HEADER = ",".join(SweepRow._fields)


def _rel_err_pct(private: float, reference: float) -> float:
    if reference == 0.0:
        return float("nan")  # degenerate reference; cell is marked, not crashed
    return abs(private - reference) / abs(reference) * 100.0


def _mean_sd(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, sd


def _trial(n: int, yc_sq: float, sx_law: _ChiSquareMix, answer_law: _ChiSquareMix,
           seed: int) -> tuple[float, float]:
    """One trial's ``(omega_bar_sq, s_bar)``, from the trial seed as ``alice_prepare`` splits it.

    Raises InvalidInputError when ``sx`` is not finite, as ``AlicePackage``
    refuses it, or when ``omega_bar_sq`` is not finite.
    """
    seed_B, seed_X = _release_seeds(seed)
    sx = sx_law.draw(seed_X)
    _check_sx(sx)
    omega_bar_sq, s_bar = _private_statistics(n, answer_law.draw(seed_B), sx, yc_sq)
    if not math.isfinite(omega_bar_sq):
        raise InvalidInputError(f"omega_bar_sq must be a finite number, got {omega_bar_sq!r}")
    return omega_bar_sq, s_bar


def run_sweep(cfg: SweepConfig, X, Y) -> list[SweepRow]:
    """Run the sweep; one row per (epsilon, eta) in configuration order.

    Trials run one after another in the calling thread.  Each trial's seed is
    derived from (master_seed, epsilon index, eta index, replication index),
    so a row depends only on the configuration and the data.
    """
    A, Ym = _paired_matrices(X, Y)
    n = A.shape[0]

    omega_ref = dcov_sq_closed_form(A, Ym)
    s_ref = s_hat(A, Ym)
    gamma_ref = n * omega_ref / s_ref if s_ref > 0.0 else 0.0

    Q = _query_matrix(Ym)
    BtQ, QtQ = factor_W(A).T @ Q, Q.T @ Q
    spectrum = _centered_spectrum(A)
    yc_sq = _yc_sq(Ym)

    rows: list[SweepRow] = []
    indices = product(range(len(cfg.epsilons)), range(len(cfg.eta_values)))
    for (i_eps, i_eta), p in zip(indices, cfg.cells):
        per_release = p.half_budget()
        sx_law = _centered_sq_norm_law(spectrum, n, per_release)
        answer_law = _projected_sq_norm_law(BtQ, QtQ, per_release)
        gammas, ss, omegas = [], [], []
        for rep in range(cfg.replications):
            seed = int(
                np.random.SeedSequence([cfg.master_seed, i_eps, i_eta, rep]).generate_state(
                    1, np.uint64
                )[0]
            )
            omega_bar_sq, s_bar = _trial(n, yc_sq, sx_law, answer_law, seed)
            gamma_bar = test_statistic(omega_bar_sq, s_bar, n) if s_bar > 0.0 else float("nan")
            gammas.append(_rel_err_pct(gamma_bar, gamma_ref))
            ss.append(_rel_err_pct(s_bar, s_ref))
            omegas.append(_rel_err_pct(omega_bar_sq, omega_ref))
        g_mean, g_sd = _mean_sd(gammas)
        s_mean, s_sd = _mean_sd(ss)
        o_mean, o_sd = _mean_sd(omegas)
        rows.append(
            SweepRow(p.epsilon, p.eta, g_mean, g_sd, s_mean, s_sd, o_mean, o_sd)
        )
    return rows


def sweep_rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
