"""Command-line interface: the two protocol roles, a local run, and sweeps.

Subcommands:

- ``pi-test alice``: build and write a release package from X.
- ``pi-test bob``: evaluate a package against Y and write the test report.
- ``pi-test run``: both roles in one process, with the non-private test
  reported side by side.
- ``pi-test sweep``: privacy-utility table over a grid of (epsilon, eta),
  each trial drawn from the exact law of the two private statistics.

Exit status: 0 on success (degenerate reports included), 1 on runtime
errors (bad files, mismatched shapes, ...), 2 on usage errors.  Every
parameter rule is checked by its library owner before any file is read.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .data import load_csv
from .errors import InvalidInputError, PiTestError
from .estimators import dcov_sq_closed_form, decide, rejection_threshold, s_hat
from .ioutil import atomic_write_bytes, atomic_write_text
from .privacy import PrivacyParams, jl_params, tau_mechanism
from .laws import query_matrix
from .protocol import _package_bytes, _privacy_section, alice_stream, bob_evaluate
from .protocol import package_parts, read_package, report_to_dict
from .sweep import SweepConfig, run_sweep, sweep_rows_to_csv


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (value > 0.0) or not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _seed_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {value}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}") from None
    return values


def _add_privacy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epsilon", type=float, required=True,
                        help="total privacy budget epsilon (split over the two releases)")
    parser.add_argument("--delta", type=float, default=2e-4,
                        help="total privacy budget delta (default 2e-4)")
    parser.add_argument("--eta", type=float, default=0.1,
                        help="multiplicative accuracy in (0,1) (default 0.1)")
    parser.add_argument("--nu", type=float, default=0.05,
                        help="per-query failure probability in (0,1) (default 0.05)")
    parser.add_argument("--seed", type=_seed_int, default=None,
                        help="master seed for the release randomness, for reproducible tests "
                             "only: it lets anyone regenerate the release and recover X "
                             "(default: fresh OS entropy)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pi-test",
        description="One-way private independence testing from released covariance projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alice = sub.add_parser("alice", help="build a release package from the data holder's X")
    p_alice.add_argument("--input", required=True, help="CSV file with X (rows = samples)")
    p_alice.add_argument("--header", action="store_true", help="skip the first CSV line")
    _add_privacy_flags(p_alice)
    p_alice.add_argument("--out", required=True,
                         help="package file to write (a JSON header line, then binary payloads)")
    p_alice.set_defaults(func=_cmd_alice, parser=p_alice)

    p_bob = sub.add_parser("bob", help="evaluate a package against the analyst's Y")
    p_bob.add_argument("--package", required=True,
                       help="package file written by 'pi-test alice'")
    p_bob.add_argument("--input", required=True, help="CSV file with Y (rows = samples)")
    p_bob.add_argument("--header", action="store_true", help="skip the first CSV line")
    p_bob.add_argument("--alpha", type=float, default=0.05,
                       help="significance level (default 0.05)")
    p_bob.add_argument("--s-param", type=_positive_float, default=None,
                       help="scale parameter for the upper ratio bound (default: s_bar/n)")
    p_bob.add_argument("--report", required=True, help="report file to write (JSON)")
    p_bob.set_defaults(func=_cmd_bob, parser=p_bob)

    p_run = sub.add_parser("run", help="run both roles locally, with a non-private comparison")
    p_run.add_argument("--input-x", required=True, help="CSV file with X")
    p_run.add_argument("--input-y", required=True, help="CSV file with Y")
    p_run.add_argument("--header", action="store_true", help="skip the first CSV line of both")
    _add_privacy_flags(p_run)
    p_run.add_argument("--alpha", type=float, default=0.05)
    p_run.add_argument("--s-param", type=_positive_float, default=None)
    p_run.add_argument("--report", required=True, help="report file to write (JSON)")
    p_run.set_defaults(func=_cmd_run, parser=p_run)

    p_sweep = sub.add_parser(
        "sweep", help="privacy-utility sweep over (epsilon, eta)",
        description="Privacy-utility sweep over (epsilon, eta). Each trial draws the two private "
                    "statistics from the exact law of what alice then bob would report, without "
                    "releasing a package; every column comes from one stream per cell, keyed "
                    "by --seed and the cell's indices. "
                    "The closing line counts the trials whose s_bar was not > 0; each makes its "
                    "cell's gamma columns NaN.")
    p_sweep.add_argument("--input-x", required=True, help="CSV file with X")
    p_sweep.add_argument("--input-y", required=True, help="CSV file with Y")
    p_sweep.add_argument("--header", action="store_true", help="skip the first CSV line of both")
    p_sweep.add_argument("--epsilons", type=_float_list, default=(0.5, 1.0, 2.0, 4.0, 8.0),
                         help="comma-separated increasing epsilon grid (default 0.5,1,2,4,8)")
    p_sweep.add_argument("--etas", type=_float_list, default=(0.05, 0.1),
                         help="comma-separated eta grid, each in (0,1) (default 0.05,0.1)")
    p_sweep.add_argument("--replications", type=int, default=50,
                         help="trials per cell, each drawn from the exact law of the private "
                              "statistics (default 50)")
    p_sweep.add_argument("--delta", type=float, default=2e-4)
    p_sweep.add_argument("--nu", type=float, default=0.05)
    p_sweep.add_argument("--alpha", type=float, default=0.05,
                         help="checked to lie in (0,1), but it has no effect on the table, "
                              "which holds no test decision (default 0.05)")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", required=True, help="CSV table to write")
    p_sweep.set_defaults(func=_cmd_sweep, parser=p_sweep)

    return parser


def _checked_inputs(args) -> tuple:
    """The command's typed inputs, built before any file is opened.

    Each rule has one owner, whose InvalidInputError ``main`` reports as a
    usage error: PrivacyParams for alice and run, rejection_threshold for
    the alpha of bob, run and sweep, and SweepConfig for sweep.
    """
    if args.command != "alice":
        rejection_threshold(args.alpha)
    if args.command == "sweep":
        return (SweepConfig(epsilons=args.epsilons, replications=args.replications,
                            eta_values=args.etas, delta=args.delta, nu=args.nu,
                            master_seed=args.seed),)
    if args.command == "bob":
        return ()
    return (PrivacyParams(args.epsilon, args.delta, args.eta, args.nu),)


def _warn_if_seeded(args) -> None:
    if args.seed is not None:
        print("warning: --seed lets anyone who knows it regenerate the release and recover X; "
              "use it for reproducible tests only", file=sys.stderr)


def _cmd_alice(args, params: PrivacyParams) -> int:
    _warn_if_seeded(args)
    X = load_csv(args.input, has_header=args.header)
    package = alice_stream(X, params, args.seed)
    size = atomic_write_bytes(args.out, package_parts(package), _package_bytes(package))

    per_release = params.half_budget()
    r, w = jl_params(per_release)
    n, rows = package.n, package.proj_B.rows
    print(f"wrote package: {args.out} ({size} bytes; n = {n}, "
          f"release factor {rows} x {n} packed as {package.entries} entries, "
          f"scalar sx = {package.sx:.6g})")
    print(f"per-release budget: epsilon = {per_release.epsilon:g}, delta = {per_release.delta:g}")
    print(f"projection rows r = {r}, spectral floor w = {w:.6g}")
    print(f"tau_mech (mechanism additive constant) = {tau_mechanism(per_release):.6g}")
    return 0


def _cmd_bob(args) -> int:
    with open(args.package, "rb") as handle:
        package = read_package(handle)  # the header and the length, checked
        Y = load_csv(args.input, has_header=args.header)
        # The factor is read and checked one panel at a time: a bad panel
        # raises before any statistic exists.
        report = bob_evaluate(package, Y, alpha=args.alpha, s_param=args.s_param)
    doc = report_to_dict(report)
    doc["privacy"] = _privacy_section(package.params)
    doc.update(_release_sections(package, Y, report))
    atomic_write_text(args.report, json.dumps(doc, indent=2) + "\n")
    _print_decision(report)
    print(f"wrote report: {args.report}")
    return 0


def _release_sections(package, Y, report) -> dict:
    """The ``release`` and ``floor`` sections of a report, from the package and Y.

    ``release`` is the row count ``r`` and floor ``w`` of one release, the
    factor's ``rows`` and ``package_bytes``, the length of the package's
    encoding (for ``bob``, the package file's checked length).  ``floor``
    has the spectral floor's share of each private statistic:
    ``omega_share`` is w^2 ||Q||_F^2 over
    ``||R Q||_F^2 = (n^2 / 2) omega_bar_sq``, for the matrix ``Q`` that Bob
    queries (``laws.query_matrix``: ``Y``, uncentred), and
    ``s_share`` is w^2 (n - 1) / sx.
    A share near 1 means that statistic is mostly floor; either is null
    when its denominator is 0.  ``s_param_min`` is tau_mech / (1 - eta): an
    ``s_param`` not above it clamps the upper bound.
    """
    per_release = package.params.half_budget()
    r, w = jl_params(per_release)
    w2, n = w * w, package.n
    answers = n * n / 2.0 * report.omega_bar_sq
    Q = query_matrix(Y)
    return {
        "release": {"r": r, "w": w, "rows": package.proj_B.rows,
                    "package_bytes": _package_bytes(package)},
        "floor": {
            "omega_share": w2 * float((Q * Q).sum()) / answers if answers > 0.0 else None,
            "s_share": w2 * (n - 1) / package.sx if package.sx > 0.0 else None,
            "s_param_min": tau_mechanism(per_release) / (1.0 - per_release.eta),
        },
    }


def _print_decision(report) -> None:
    if report.degenerate:
        print("degenerate: private denominator statistic is zero; no decision")
    else:
        verdict = "reject independence" if report.reject else "fail to reject independence"
        print(
            f"Gamma = {report.statistic:.6g}, threshold = {report.threshold:.6g} "
            f"(alpha = {report.alpha:g}) -> {verdict}"
        )


def _cmd_run(args, params: PrivacyParams) -> int:
    _warn_if_seeded(args)
    X = load_csv(args.input_x, has_header=args.header)
    Y = load_csv(args.input_y, has_header=args.header)
    # Bob's sum reads each panel of the factor as Alice releases it, so the
    # run holds one panel, and no encoded package, at a time.
    package = alice_stream(X, params, args.seed)
    report = bob_evaluate(package, Y, alpha=args.alpha, s_param=args.s_param)

    n = X.shape[0]
    omega_ref = dcov_sq_closed_form(X, Y)
    s_ref = s_hat(X, Y)
    nonprivate = {"omega_sq": omega_ref, "s_hat": s_ref, "statistic": None,
                  "threshold": None, "reject": None, "degenerate": True}
    np_line = "non-private: degenerate (constant dataset)"
    if s_ref > 0.0:
        verdict = decide(n * omega_ref / s_ref, args.alpha)
        nonprivate.update(statistic=verdict.statistic, threshold=verdict.threshold,
                          reject=verdict.reject, degenerate=False)
        np_line = (
            f"non-private: Gamma = {verdict.statistic:.6g}, threshold = {verdict.threshold:.6g}"
            f" -> {'reject' if verdict.reject else 'fail to reject'}"
        )

    doc = {"private": report_to_dict(report), "nonprivate": nonprivate,
           **_release_sections(package, Y, report)}
    atomic_write_text(args.report, json.dumps(doc, indent=2) + "\n")
    _print_decision(report)
    print(np_line)
    print(f"wrote report: {args.report}")
    return 0


def _cmd_sweep(args, cfg: SweepConfig) -> int:
    X = load_csv(args.input_x, has_header=args.header)
    Y = load_csv(args.input_y, has_header=args.header)
    table = run_sweep(cfg, X, Y)
    atomic_write_text(args.out, sweep_rows_to_csv(table))
    trials = len(table) * cfg.replications
    print(f"wrote sweep table: {args.out} ({len(table)} rows; "
          f"{table.degenerate_trials} of {trials} trials had s_bar <= 0)")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing leaves it unchanged, and every default is immutable."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        inputs = _checked_inputs(args)
    except InvalidInputError as exc:
        args.parser.error(str(exc))
    try:
        return args.func(args, *inputs)
    except (PiTestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
