"""Which program names the traced run wraps, and the per-layer metrics.

Names are wrapped where the calling module binds them (``pitest.cli``,
``pitest.protocol``, ``pitest.sweep``), so a span measures the call the way
the program makes it.  Span names are ``<layer module>.<function>``.
"""

from __future__ import annotations

from statistics import median

import numpy as np

from spans import self_times

MIB = 1024.0 * 1024.0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _projection_counts(span, args, kwargs, result):
    """Computed Gaussian draws r(k+n) and matmul GFLOP 2 r (k+n) n of a release."""
    r, n = result.values.shape
    k = int(np.size(_arg(args, kwargs, 0, "F")) // n)
    span.attrs["gaussian_draws"] = r * (k + n)
    span.attrs["gflop"] = 2.0 * r * (k + n) * n / 1e9


def _directional_gflop(span, args, kwargs, result):
    """Computed GFLOP of the r x n by n x q product behind s_hat_directional."""
    first = _arg(args, kwargs, 0, "X_or_proj")
    r, n = np.shape(getattr(first, "values", first))
    span.attrs["gflop"] = 2.0 * r * n * np.shape(_arg(args, kwargs, 1, "G"))[1] / 1e9


def _bytes_written(span, args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs.get("data", kwargs.get("text"))
    span.attrs["bytes"] = len(data.encode("utf-8") if isinstance(data, str) else data)


def _degenerate(span, args, kwargs, result):
    span.attrs["degenerate"] = int(bool(result.degenerate))


def wraps(prog) -> list[tuple]:
    """``(module, attr, span name, observer)`` for every wrapped binding."""
    cli, protocol, sweep = prog.cli, prog.protocol, prog.sweep
    return [
        (cli, "load_csv", "data.load_csv", None),
        (cli, "alice_prepare", "protocol.alice_prepare", None),
        (cli, "bob_evaluate", "protocol.bob_evaluate", None),
        (cli, "serialize_package", "protocol.serialize_package", None),
        (cli, "deserialize_package", "protocol.deserialize_package", None),
        (cli, "atomic_write_bytes", "ioutil.atomic_write_bytes", _bytes_written),
        (cli, "atomic_write_text", "ioutil.atomic_write_text", _bytes_written),
        (cli, "run_sweep", "sweep.run_sweep", None),
        (protocol, "laplacian_W", "matrices.laplacian_W", None),
        (protocol, "factor_W", "matrices.factor_W", None),
        (protocol, "factor_S", "matrices.factor_S", None),
        (protocol, "privatize_covariance", "privacy.privatize_covariance", _projection_counts),
        (protocol, "private_sum_directional_variances", "privacy.private_sum_directional_variances", None),
        (protocol, "s_hat_directional", "estimators.s_hat_directional", _directional_gflop),
        (protocol, "lower_bound_ratio", "bounds.lower_bound_ratio", None),
        (protocol, "upper_bound_ratio", "bounds.upper_bound_ratio", None),
        (protocol, "aggregate_coverage_probability", "bounds.aggregate_coverage_probability", None),
        (sweep, "alice_prepare", "protocol.alice_prepare", None),
        (sweep, "bob_evaluate", "protocol.bob_evaluate", _degenerate),
        (sweep, "dcov_sq_direct", "estimators.dcov_sq_direct", None),
        (sweep, "s_hat", "estimators.s_hat", None),
    ]


class _Op:
    """The spans of one traced op, with lookups that return None when absent."""

    def __init__(self, spans, pool_size):
        self.spans = spans
        self.selft = self_times(spans)
        self.pool_size = pool_size

    def _named(self, names, site=None):
        return [s for s in self.spans if s.name in names and (site is None or s.site == site)]

    def total(self, *names):
        found = self._named(names)
        return sum(s.end - s.start for s in found) if found else None

    def self_total(self, name):
        found = self._named((name,))
        return sum(self.selft[s.id] for s in found) if found else None

    def calls(self, name):
        return len(self._named((name,))) or None

    def peak_mb(self, name):
        peaks = [s.peak_bytes for s in self._named((name,)) if s.peak_bytes is not None]
        return max(peaks) / MIB if peaks else None

    def attr_sum(self, names, key, site=None):
        values = [s.attrs[key] for s in self._named(names, site) if key in s.attrs]
        return sum(values) if values else None

    def trials(self):
        return len(self._named(("protocol.bob_evaluate",), "pitest.sweep")) or None

    def worker_busy_frac(self):
        busy = self._named(("protocol.alice_prepare", "protocol.bob_evaluate"), "pitest.sweep")
        pools = self._named(("sweep.run_sweep",))
        if not busy or not pools or not self.pool_size:
            return None
        wall = sum(s.end - s.start for s in pools)
        return sum(s.end - s.start for s in busy) / (wall * self.pool_size)


# name, unit, better, value for one op (None = absent)
PER_LAYER = [
    ("data.load_csv.s", "s", "lower", lambda o: o.total("data.load_csv")),
    ("matrices.laplacian_W.s", "s", "lower", lambda o: o.total("matrices.laplacian_W")),
    ("matrices.laplacian_W.peak_mb", "MiB", "lower", lambda o: o.peak_mb("matrices.laplacian_W")),
    ("matrices.factor_W.s", "s", "lower", lambda o: o.total("matrices.factor_W")),
    ("matrices.factor_S.s", "s", "lower", lambda o: o.total("matrices.factor_S")),
    ("matrices.factor_S.peak_mb", "MiB", "lower", lambda o: o.peak_mb("matrices.factor_S")),
    ("privacy.privatize_covariance.s", "s", "lower", lambda o: o.total("privacy.privatize_covariance")),
    ("privacy.privatize_covariance.calls", "count", "lower", lambda o: o.calls("privacy.privatize_covariance")),
    ("privacy.privatize_covariance.peak_mb", "MiB", "lower",
     lambda o: o.peak_mb("privacy.privatize_covariance")),
    ("privacy.gaussian_draws", "count", "lower",
     lambda o: o.attr_sum(("privacy.privatize_covariance",), "gaussian_draws")),
    ("privacy.projection_gflop", "GFLOP", "lower",
     lambda o: o.attr_sum(("privacy.privatize_covariance",), "gflop")),
    ("privacy.private_sum_directional_variances.s", "s", "lower",
     lambda o: o.total("privacy.private_sum_directional_variances")),
    ("estimators.s_hat_directional.s", "s", "lower", lambda o: o.total("estimators.s_hat_directional")),
    ("estimators.s_hat_directional.gflop", "GFLOP", "lower",
     lambda o: o.attr_sum(("estimators.s_hat_directional",), "gflop")),
    ("estimators.reference.s", "s", "lower", lambda o: o.total("estimators.dcov_sq_direct", "estimators.s_hat")),
    ("bounds.s", "s", "lower", lambda o: o.total(
        "bounds.lower_bound_ratio", "bounds.upper_bound_ratio", "bounds.aggregate_coverage_probability")),
    ("protocol.alice_prepare.self_s", "s", "lower", lambda o: o.self_total("protocol.alice_prepare")),
    ("protocol.bob_evaluate.self_s", "s", "lower", lambda o: o.self_total("protocol.bob_evaluate")),
    ("protocol.serialize_package.s", "s", "lower", lambda o: o.total("protocol.serialize_package")),
    ("protocol.deserialize_package.s", "s", "lower", lambda o: o.total("protocol.deserialize_package")),
    ("ioutil.atomic_write_bytes.s", "s", "lower", lambda o: o.total("ioutil.atomic_write_bytes")),
    ("ioutil.bytes_written", "B", "lower",
     lambda o: o.attr_sum(("ioutil.atomic_write_bytes", "ioutil.atomic_write_text"), "bytes")),
    ("sweep.run_sweep.self_s", "s", "lower", lambda o: o.self_total("sweep.run_sweep")),
    ("sweep.trials", "count", "higher", lambda o: o.trials()),
    ("sweep.worker_busy_frac", "ratio", "higher", lambda o: o.worker_busy_frac()),
    ("sweep.degenerate_trials", "count", "lower",
     lambda o: o.attr_sum(("protocol.bob_evaluate",), "degenerate", site="pitest.sweep")),
    ("cli.main.self_s", "s", "lower", lambda o: o.self_total("cli.main")),
]


def layer_metrics(spans, pool_size) -> dict[str, tuple[float | None, str]]:
    """Median over traced ops of each per-layer metric; None where absent."""
    by_op: dict[int, list] = {}
    for sp in spans:
        by_op.setdefault(sp.op, []).append(sp)
    ops = [_Op(group, pool_size) for _, group in sorted(by_op.items())]
    out = {}
    for name, unit, _, fn in PER_LAYER:
        values = [v for v in (fn(o) for o in ops) if v is not None]
        out[name] = (float(median(values)) if values else None, unit)
    return out
