"""Deliberate defects that tier-1 must catch: one text replacement in one source file each.

Each mutant is a file under the repository root, a text that occurs there
exactly once, the text that replaces it and a one-line reason: the defect
it stands for.  ``scripts/mutants.py`` applies each to a copy of the tree
and runs tier-1 there; its output is committed as ``MUTANTS.json``.  A
mutant that tier-1 does not catch is a finding, not an entry to weaken or
drop.  ``tests/test_suite.py`` checks that every old text is still there
once, so a rename updates this list instead of silently dropping a mutant.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    reason: str


_PROTOCOL = "src/pitest/protocol.py"
_PRIVACY = "src/pitest/privacy.py"
_LAWS = "src/pitest/laws.py"
_ESTIMATORS = "src/pitest/estimators.py"

MUTANTS = [
    Mutant("one-seed", _PROTOCOL,
           "return int(seeds[0]), int(seeds[1])",
           "return int(seeds[0]), int(seeds[0])",
           "both releases are drawn from one seed, so their noise is shared"),
    Mutant("w-halved", _PRIVACY,
           "w = 16.0 * math.sqrt(",
           "w = 8.0 * math.sqrt(",
           "jl_params gives half the spectral floor the privacy proof needs"),
    Mutant("w-over-1e3", _PRIVACY,
           "w = 16.0 * math.sqrt(",
           "w = 0.016 * math.sqrt(",
           "jl_params gives a thousandth of the spectral floor the privacy proof needs"),
    Mutant("full-budget-each", _PRIVACY,
           "return PrivacyParams(self.epsilon / 2.0, self.delta / 2.0, self.eta, self.nu)",
           "return PrivacyParams(self.epsilon, self.delta, self.eta, self.nu)",
           "each of the two releases spends the whole budget, so the package spends it twice"),
    Mutant("no-panel-check-on-read", _PROTOCOL,
           "_check_panel(segment, b - a)",
           "pass",
           "a stored panel with a non-finite entry or a diagonal entry not > 0 is summed"),
    Mutant("sx-floor-dof-plus-1", _LAWS,
           "w2, n - 1 - lam.size)",
           "w2, n - lam.size)",
           "the law of sx counts one floor degree of freedom too many"),
    Mutant("threshold-one-sided", _ESTIMATORS,
           "p = 1.0 - alpha / 2.0",
           "p = 1.0 - alpha",
           "the rejection threshold is the 1 - alpha quantile, not the 1 - alpha/2 one"),
    Mutant("uncentred-factor", _LAWS,
           "return np.sqrt(2.0) * _centered(A)",
           "return np.sqrt(2.0) * A",
           "the Laplacian factor B is not column-centred, so L = B B^T is not the Laplacian"),
    Mutant("centred-query", _LAWS,
           "for ``bob_evaluate``, the law of\n    the same answer and the report's floor share.\n    \"\"\"\n    return Y",
           "for ``bob_evaluate``, the law of\n    the same answer and the report's floor share.\n    \"\"\"\n    return _centered(Y)",
           "Bob queries the centred Yc (ROADMAP item 1) while the benchmark and pins expect Y"),
    Mutant("b-release-w-halved", _PRIVACY,
           "    r, w = jl_params(p)\n    k1, rows = min(r, k), min(r, n)",
           "    r, w = jl_params(p)\n    w = w / 2\n    k1, rows = min(r, k), min(r, n)",
           "the B release adds half its floor while the header and jl_params claim the full one"),
    Mutant("sx-release-w-halved", _PRIVACY,
           "law = centered_sq_norm_law(centered_spectrum(A), A.shape[0], r, w)",
           "law = centered_sq_norm_law(centered_spectrum(A), A.shape[0], r, w / 2)",
           "the X release adds half its floor to sx"),
    Mutant("s-bar-n-minus-1", _LAWS,
           "4.0 / n**3 * sx * (n * yc)",
           "4.0 / n**3 * sx * ((n - 1) * yc)",
           "s_bar is formed with (n - 1) ||Yc||^2 in place of n ||Yc||^2"),
    Mutant("decide-at-threshold", _ESTIMATORS,
           "bool(statistic > threshold)",
           "bool(statistic >= threshold)",
           "a statistic exactly at the threshold rejects"),
    Mutant("reader-no-n-check", _PROTOCOL,
           "        if n < 2:\n            raise PackageFormatError(f\"n must be an integer >= 2, got {n!r}\")\n",
           "",
           "the reader takes a package of one sample"),
    Mutant("reader-no-canonical-line", _PROTOCOL,
           "if data[:offset] != _header_line(n, params, sx):",
           "if False:",
           "the reader takes any spelling of a header, so one package has many encodings"),
    Mutant("reader-no-length-check", _PROTOCOL,
           "if length != expected:",
           "if False:",
           "read_package takes a package of the wrong length, the factor's end unchecked"),
]
