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
from dataclasses import asdict

from .data import load_csv
from .errors import InvalidInputError, PiTestError
from .bounds import check_s_param
from .estimators import dcov_sq_closed_form, decide, rejection_threshold, s_hat
from .ioutil import atomic_write_bytes, atomic_write_text
from .privacy import PrivacyParams, jl_params, tau_mechanism
from .protocol import _package_bytes, _release_seeds, alice_stream, bob_evaluate
from .protocol import package_parts, read_package
from .sweep import SweepConfig, run_sweep, sweep_rows_to_csv


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
    parser.add_argument("--seed", type=int, default=None,
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
    p_bob.add_argument("--s-param", type=float, default=None,
                       help="scale parameter for the upper ratio bound (default: s_bar/n)")
    p_bob.add_argument("--report", required=True, help="report file to write (JSON)")
    p_bob.set_defaults(func=_cmd_bob, parser=p_bob)

    p_run = sub.add_parser("run", help="run both roles locally, with a non-private comparison")
    p_run.add_argument("--input-x", required=True, help="CSV file with X")
    p_run.add_argument("--input-y", required=True, help="CSV file with Y")
    p_run.add_argument("--header", action="store_true", help="skip the first CSV line of both")
    _add_privacy_flags(p_run)
    p_run.add_argument("--alpha", type=float, default=0.05)
    p_run.add_argument("--s-param", type=float, default=None)
    p_run.add_argument("--report", required=True, help="report file to write (JSON)")
    p_run.set_defaults(func=_cmd_run, parser=p_run)

    p_sweep = sub.add_parser(
        "sweep", help="privacy-utility sweep over (epsilon, eta)",
        description="Privacy-utility sweep over (epsilon, eta). Each trial draws the two private "
                    "statistics from the exact law of what alice then bob would report, without "
                    "releasing a package; the whole grid comes from one stream seeded with "
                    "--seed, so a row depends on the grid it is drawn with. "
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
    usage error: rejection_threshold for the alpha of bob, run and sweep,
    SweepConfig for sweep, check_s_param for the s_param of bob and run,
    and the release seeds and PrivacyParams for alice and run.
    """
    if args.command != "alice":
        rejection_threshold(args.alpha)
    if args.command == "sweep":
        return (SweepConfig(epsilons=args.epsilons, replications=args.replications,
                            eta_values=args.etas, delta=args.delta, nu=args.nu,
                            master_seed=args.seed),)
    if args.command != "alice" and args.s_param is not None:
        check_s_param(args.s_param)
    if args.command == "bob":
        return ()
    _release_seeds(args.seed)  # refuses a seed that the release could not expand
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
    _write_report(args.report, asdict(report))
    _print_decision(report)
    print(f"wrote report: {args.report}")
    return 0


def _json_safe(value):
    """``value`` with every non-finite float in it, at any depth of dicts, as None."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _write_report(path: str, doc: dict) -> None:
    """Write a report as strict JSON: JSON has no NaN or Infinity, so each is written as null."""
    atomic_write_text(path, json.dumps(_json_safe(doc), indent=2, allow_nan=False) + "\n")


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

    omega_ref, s_ref = dcov_sq_closed_form(X, Y), s_hat(X, Y)
    verdict = decide(omega_ref, s_ref, X.shape[0], args.alpha)
    nonprivate = {"omega_sq": omega_ref, "s_hat": s_ref, "statistic": verdict.statistic,
                  "threshold": verdict.threshold, "reject": verdict.reject,
                  "degenerate": verdict.statistic is None}
    np_line = "non-private: degenerate (constant dataset)" if verdict.statistic is None else (
        f"non-private: Gamma = {verdict.statistic:.6g}, threshold = {verdict.threshold:.6g}"
        f" -> {'reject' if verdict.reject else 'fail to reject'}"
    )

    _write_report(args.report, {"private": asdict(report), "nonprivate": nonprivate})
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
