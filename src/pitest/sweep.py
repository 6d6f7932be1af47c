"""Privacy-utility sweep: relative error of the private statistics vs epsilon.

For every (epsilon, eta) cell the protocol's two private statistics are
drawn `replications` times against fixed (X, Y); each trial's private
statistic, denominator and numerator are compared to the non-private
values on the same data as percent relative error, and the cell reports
mean and standard deviation of each.  Cells whose non-private reference is
zero are marked degenerate with NaN entries, and so are the gamma columns
of a cell with a trial whose ``s_bar`` is not > 0; the table counts those
trials.

A trial's ``(omega_bar_sq, s_bar)`` is a draw of
:func:`pitest.laws.statistics_laws`, the exact joint law of what
``bob_evaluate(alice_stream(X, p, seed), Y)`` reports, with no package
released or reduced.  They are values of that law, not a seed's: the
sweep has one generator, seeded with the master seed, from which the
answers of the whole grid are drawn first and then its values of ``sx``,
one batched law and one chi-square call per term for every cell at once.
So a row depends on the grid it is drawn with, not only on its cell.
What the laws need of the data is computed once per sweep, the answer
weights of every cell in one stacked ``eigvalsh``, and the errors are
array arithmetic over the (cell, replication) grid, so nothing of size r
is drawn or held.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import NamedTuple

import numpy as np

from .data import _as_float, _as_int
from .errors import InvalidInputError
from .estimators import dcov_sq_closed_form, s_hat
from .laws import statistics_laws
from .privacy import PrivacyParams, jl_params

__all__ = ["SweepConfig", "SweepRow", "SweepTable", "SWEEP_HEADER", "run_sweep",
           "sweep_rows_to_csv"]


@dataclass(frozen=True)
class SweepConfig:
    """A sweep's grid and settings, each checked by the owner of its rule.

    ``epsilons`` and ``eta_values`` must be non-empty sequences of numbers,
    and ``PrivacyParams`` checks epsilon, eta, delta and nu, as it builds
    ``cells``; ``replications`` and ``master_seed`` must be integers.
    ``master_seed`` seeds the sweep's one generator.
    The rows hold no test decision, so there is no significance level.
    """

    epsilons: tuple[float, ...]
    replications: int = 50
    eta_values: tuple[float, ...] = (0.05, 0.1)
    delta: float = 2e-4
    nu: float = 0.05
    master_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("epsilons", "eta_values"):  # a string is a Sequence, but no grid
            grid = getattr(self, name)
            if isinstance(grid, (str, bytes)) or not isinstance(grid, Sequence) or not grid:
                raise InvalidInputError(f"{name} must be a non-empty sequence of numbers, got {grid!r}")
            for value in grid:
                _as_float(value, f"each of {name}")
        self.cells  # built here: PrivacyParams checks each cell's numbers
        if list(self.epsilons) != sorted(set(self.epsilons)):
            raise InvalidInputError(f"epsilons must be strictly increasing, got {self.epsilons}")
        for name in ("replications", "master_seed"):
            _as_int(getattr(self, name), name)
        if self.replications < 1:
            raise InvalidInputError(f"replications must be >= 1, got {self.replications}")
        if self.master_seed < 0:
            raise InvalidInputError(f"master_seed must be >= 0, got {self.master_seed}")

    @cached_property
    def cells(self) -> tuple[PrivacyParams, ...]:
        """The ``PrivacyParams`` of every (epsilon, eta), in row order, built once."""
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


class SweepTable(list):
    """A sweep's rows, one per (epsilon, eta) in configuration order, and its degenerate count.

    ``degenerate_trials`` is the number of trials whose ``s_bar`` was not
    > 0: each leaves its statistic undefined, so its cell's gamma columns
    are NaN.
    """

    def __init__(self, rows, degenerate_trials: int):
        super().__init__(rows)
        self.degenerate_trials = degenerate_trials


def run_sweep(cfg: SweepConfig, X, Y) -> SweepTable:
    """Run the sweep; one row per (epsilon, eta) in configuration order.

    Everything runs in the calling thread.  The table depends only on the
    configuration and the data: the answers of every cell and then their
    values of ``sx`` come from one generator seeded with ``master_seed``,
    so a row depends on the whole grid, not only on its own cell.
    """
    law = statistics_laws(X, Y, [jl_params(p.half_budget()) for p in cfg.cells])
    n = law.n

    omega_ref = dcov_sq_closed_form(X, Y)
    s_ref = s_hat(X, Y)
    gamma_ref = n * omega_ref / s_ref if s_ref > 0.0 else 0.0

    # cell x replication: every cell's answers, then every cell's values of sx
    omega_bar_sq, s_bar = law.draws(np.random.default_rng(cfg.master_seed), cfg.replications)

    # Float arithmetic as on Python floats: every quotient that is not
    # defined is replaced by NaN, unwarned.
    with np.errstate(all="ignore"):
        degenerate = ~(s_bar > 0.0)
        gamma_bar = np.where(degenerate, math.nan, n * omega_bar_sq / s_bar)
        private = np.stack([gamma_bar, s_bar, omega_bar_sq])  # statistic, cell, replication
        reference = np.array([gamma_ref, s_ref, omega_ref])[:, None, None]
        errors = np.where(reference == 0.0, math.nan,
                          np.abs(private - reference) / np.abs(reference) * 100.0)
        means = errors.mean(axis=-1)
        sds = errors.std(axis=-1, ddof=1) if cfg.replications > 1 else np.zeros_like(means)
    columns = np.stack([means, sds], axis=1).reshape(6, -1).T.tolist()
    rows = [SweepRow(p.epsilon, p.eta, *values) for p, values in zip(cfg.cells, columns)]
    return SweepTable(rows, int(np.count_nonzero(degenerate)))


def sweep_rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [SWEEP_HEADER]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"
