"""Privacy-utility sweep: relative error of the private statistics vs epsilon.

For every (epsilon, eta) cell the protocol is replayed `replications` times
with fresh seeds against fixed (X, Y); each trial's private statistic,
denominator and numerator are compared to the non-private values on the same
data as percent relative error, and the cell reports mean and standard
deviation of each.  Cells whose non-private reference is zero are marked
degenerate with NaN entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .estimators import dcov_sq_closed_form, rejection_threshold, s_hat
from .privacy import PrivacyParams
from .protocol import alice_prepare, bob_evaluate

__all__ = ["SweepConfig", "SweepRow", "SWEEP_HEADER", "run_sweep", "sweep_rows_to_csv"]


@dataclass(frozen=True)
class SweepConfig:
    """A sweep's grid and settings, each checked by the owner of its rule.

    ``PrivacyParams`` checks epsilon, eta, delta and nu, as it builds
    ``cells``, and ``rejection_threshold`` checks alpha; ``replications``
    and ``master_seed`` must be integers.
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


def run_sweep(cfg: SweepConfig, X, Y) -> list[SweepRow]:
    """Run the sweep; one row per (epsilon, eta) in configuration order.

    Trials run one after another in the calling thread.  Each trial's seed is
    derived from (master_seed, epsilon index, eta index, replication index),
    so a row depends only on the configuration and the data.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    n = X.shape[0]

    omega_ref = dcov_sq_closed_form(X, Y)
    s_ref = s_hat(X, Y)
    gamma_ref = n * omega_ref / s_ref if s_ref > 0.0 else 0.0

    rows: list[SweepRow] = []
    indices = product(range(len(cfg.epsilons)), range(len(cfg.eta_values)))
    for (i_eps, i_eta), p in zip(indices, cfg.cells):
        gammas, ss, omegas = [], [], []
        for rep in range(cfg.replications):
            seed = int(
                np.random.SeedSequence([cfg.master_seed, i_eps, i_eta, rep]).generate_state(
                    1, np.uint64
                )[0]
            )
            report = bob_evaluate(alice_prepare(X, p, seed), Y, cfg.alpha)
            gamma_bar = report.statistic if report.statistic is not None else float("nan")
            gammas.append(_rel_err_pct(gamma_bar, gamma_ref))
            ss.append(_rel_err_pct(report.s_bar, s_ref))
            omegas.append(_rel_err_pct(report.omega_bar_sq, omega_ref))
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
