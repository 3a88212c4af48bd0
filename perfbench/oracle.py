"""Known answers and the checks that hold every verdict against them.

``answers.json`` holds the verdicts ``hopfexact`` gave when the benchmark was
written: exactness per input, the fusion fingerprint (with the dimensions of
the simple modules) of each catalog entry, which catalog pairs are colinearly
isomorphic and which fingerprints tell them apart.  Each check returns
``None`` for a right verdict and a one-line reason otherwise.  Checks run
outside the timed region and with tracing off.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

ANSWERS = json.loads((Path(__file__).parent / "answers.json").read_text())


def pair_key(a: str, b: str) -> str:
    return "|".join(sorted((a, b)))


def known_fingerprint(hx, name: str):
    fp = ANSWERS["fingerprints"][name]
    return hx.morita.FusionFingerprint(
        tuple(fp["row_names"]), tuple(fp["simple_dims"]),
        tuple(tuple(tuple(cell) for cell in row) for row in fp["table"]))


def check_axioms(problems) -> Optional[str]:
    return f"axiom failures: {problems}" if problems else None


def check_exactness(name: str, a, verdict) -> Optional[str]:
    method, am_exact, coinv = ANSWERS["exactness"][name]
    got = (verdict.method, verdict.am_exact, verdict.coinvariants_dim)
    if got != (method, am_exact, coinv):
        return f"exactness {got}, expected {(method, am_exact, coinv)}"
    if verdict.right_h_simple != (method == "burnside"):
        return "right_h_simple disagrees with the method"
    if method == "witness" and not (
            verdict.witness is not None and 0 < verdict.witness.dim < a.dim):
        return "witness is not a proper nonzero subspace"
    return None


def check_fusion(hx, name: str, fp) -> Optional[str]:
    """The split has the known simple dimensions (fusion_fingerprint only
    returns for a split decomposition, where multiplicity equals dimension),
    and no relabelling tells the table from the as-built entry's."""
    dims = sorted(ANSWERS["fingerprints"][name]["simple_dims"])
    if sorted(fp.simple_dims) != dims:
        return f"simple dimensions {sorted(fp.simple_dims)}, expected {dims}"
    if hx.morita.fingerprint_distinguishes(fp, known_fingerprint(hx, name)):
        return "fusion table differs from the as-built entry's"
    return None


def check_distinguishes(a: str, b: str, answer) -> Optional[str]:
    want = ANSWERS["distinguishes"][pair_key(a, b)]
    if answer is want:
        return None
    return f"distinguishes={answer}, expected {want}"


def check_iso(hx, src, dst, isomorphic: bool, t) -> Optional[str]:
    """A returned map must be a colinear algebra isomorphism; ``None`` is
    right only where no isomorphism exists."""
    if t is None:
        return "no map returned for isomorphic inputs" if isomorphic else None
    if not hx.algebra.is_algebra_isomorphism(src, dst, t):
        return "returned map is not an algebra isomorphism"
    ident = hx.linalg.Mat.identity(src.ctx, src.hopf.dim)
    if dst.coaction @ t != hx.linalg.kron(ident, t) @ src.coaction:
        return "returned map is not colinear"
    return None


def check_replay(hx, report) -> Optional[str]:
    """The replay passed, and every certificate in it checks again."""
    if not report.passed:
        return "replay did not pass"
    MultiPoly = hx.poly.MultiPoly
    for case in report.cases:
        constraints = list(case.constraints)
        checked = False
        if case.report is not None:
            if not case.report.verify(constraints):
                return f"vanishing certificate fails in case {case.signs}"
            checked = True
        if case.elimination is not None:
            elim = case.elimination
            for var, value in elim.pins.items():
                target = MultiPoly.var(constraints[0].ctx, var) - value
                if not hx.replay.verify_combination(
                        constraints, elim.certificates[var], target):
                    return f"pin certificate for {var} fails"
            checked = True
        if not checked:
            return f"case {case.signs} carries no certificate"
    return None


def check_classification(families) -> Optional[str]:
    matches = sorted(f.catalog_match for f in families)
    want = sorted(ANSWERS["classified"])
    if matches != want:
        return f"families match {matches}, expected {want}"
    return None
