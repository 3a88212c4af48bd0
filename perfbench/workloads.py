"""The three workloads: the inputs each one builds and the verdicts it asks
for.

Each workload is a fixed list of verdicts (``Op``), run in order by one
single-threaded pass.  ``build`` is the set-up a command-line user would pay
for: building the catalog, the workload's inputs and, on small-mixed, the
seeded basis changes.  The seed only varies small-mixed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import oracle
from transport import transport

STAGES = ("axioms", "exactness", "compare", "replay")

# catalog entries of dimension <= 4
SMALL = ("k", "ga_x", "ga_y", "ga_xy", "ga_k", "a_i_xy", "kpsi")
# inputs that are not exact, each refuted by a costable-subspace witness
NON_EXACT = ("matrix2_trivial", "ga_x+ga_y", "ga_k+ga_k", "kpsi+ga_k")
FULL_EXTENSION = "group-full-extension"

# the counters (see tracer.py) that must be nonzero after a traced pass
EXPECTED_LAYERS = {
    "kp-dim8": (
        "field.mul", "field.inv", "linalg.rref", "linalg.matmul",
        "algebra.closure", "hopf.check", "comodule.check",
        "exactness.burnside", "morita.split", "morita.intertwiners",
        "morita.fusion", "morita.iso", "poly.mul", "replay.constraints",
        "replay.eliminate", "replay.verify", "constructions.catalog"),
    "small-mixed": (
        "field.mul", "field.inv", "field.layer_mul", "linalg.rref",
        "linalg.matmul", "linalg.spin", "algebra.closure", "comodule.check",
        "exactness.burnside", "exactness.witness", "morita.split",
        "morita.intertwiners", "morita.fusion", "morita.iso", "poly.mul",
        "poly.solve", "constructions.catalog"),
    "replay-symbolic": (
        "field.mul", "poly.mul", "poly.solve", "replay.constraints",
        "replay.eliminate", "replay.verify", "morita.iso",
        "exactness.burnside", "constructions.catalog"),
}


@dataclass
class Op:
    """One verdict: ``run(results)`` computes it (``results`` holds the
    verdicts already computed in this pass), ``check(value)`` holds it
    against the known answer."""

    name: str
    stage: str
    run: Callable[[dict], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Workload:
    ops: list[Op]
    # algebras the pass reads; none may carry cached products at its start
    inputs: list = field(default_factory=list)
    # basis-changed inputs, whose axioms are checked before timing
    transported: dict = field(default_factory=dict)


def build(hx, name: str, seed: int) -> Workload:
    ctx = hx.field.FieldContext(4)
    cat = hx.constructions.catalog(ctx)
    if name == "kp-dim8":
        return _kp_dim8(hx, cat)
    if name == "small-mixed":
        return _small_mixed(hx, cat, ctx, seed)
    if name == "replay-symbolic":
        return _replay_symbolic(hx)
    raise ValueError(f"unknown workload {name!r}")


def _axioms(label: str, module, fn_name: str, arg) -> Op:
    return Op(f"{fn_name}({label})", "axioms",
              lambda r: getattr(module, fn_name)(arg), oracle.check_axioms)


def _exactness(hx, label: str, answer: str, a) -> Op:
    return Op(f"check_exactness({label})", "exactness",
              lambda r: hx.exactness.check_exactness(a),
              lambda v: oracle.check_exactness(answer, a, v))


def _fusion(hx, label: str, answer: str, a) -> Op:
    return Op(f"fusion_fingerprint({label})", "compare",
              lambda r: hx.morita.fusion_fingerprint(a),
              lambda fp: oracle.check_fusion(hx, answer, fp))


def _iso(hx, src_label: str, src, dst_label: str, dst, isomorphic: bool
         ) -> Op:
    return Op(f"colinear_iso_search({src_label}, {dst_label})", "compare",
              lambda r: hx.morita.colinear_iso_search(src, dst),
              lambda t: oracle.check_iso(hx, src, dst, isomorphic, t))


def _distinguishes(hx, a: str, b: str) -> Op:
    def run(results: dict):
        fps = [results.get(f"fusion_fingerprint({x})") for x in (a, b)]
        if None in fps:
            raise hx.errors.HopfExactError(
                "a fingerprint this comparison needs was refused")
        return hx.morita.fingerprint_distinguishes(*fps)
    return Op(f"fingerprint_distinguishes({a}, {b})", "compare", run,
              lambda v: oracle.check_distinguishes(a, b, v))


def _replay(hx, name: str) -> Op:
    return Op(f"replay_lemma({name})", "replay",
              lambda r: hx.replay.replay_lemma(name),
              lambda rep: oracle.check_replay(hx, rep))


def _kp_dim8(hx, cat) -> Workload:
    kp = cat["kp"]
    ops = [
        _axioms("kp", hx.hopf, "check_hopf", kp.hopf),
        _axioms("kp", hx.comodule, "check_comodule_algebra", kp),
        _exactness(hx, "kp", "kp", kp),
        _fusion(hx, "kp", "kp", kp),
        _iso(hx, "kp", kp, "kp", kp, True),
        _replay(hx, FULL_EXTENSION),
    ]
    return Workload(ops, inputs=[kp, kp.hopf])


def _small_mixed(hx, cat, ctx, seed: int) -> Workload:
    built = {name: cat[name] for name in SMALL}
    moved = {name: transport(hx, a, random.Random(f"{seed}:{name}"))
             for name, a in built.items()}
    cons = hx.constructions
    plain = {
        "matrix2_trivial": cons.build_matrix2_trivial(ctx),
        "ga_x+ga_y": cons.comodule_direct_sum(cat["ga_x"], cat["ga_y"]),
        "ga_k+ga_k": cons.comodule_direct_sum(cat["ga_k"], cat["ga_k"]),
        "kpsi+ga_k": cons.comodule_direct_sum(cat["kpsi"], cat["ga_k"]),
    }
    ops = []
    for name in SMALL:
        for label, a in ((name, built[name]), (name + "'", moved[name])):
            ops += [_axioms(label, hx.comodule, "check_comodule_algebra", a),
                    _exactness(hx, label, name, a),
                    _fusion(hx, label, name, a)]
    for name in SMALL:
        ops.append(_iso(hx, name + "'", moved[name], name, built[name], True))
    for a, b in itertools.combinations_with_replacement(SMALL, 2):
        if built[a].dim == built[b].dim:
            isomorphic = oracle.ANSWERS["isomorphic"][oracle.pair_key(a, b)]
            ops += [_iso(hx, a, built[a], b, built[b], isomorphic),
                    _distinguishes(hx, a, b)]
    for name in NON_EXACT:
        ops.append(_exactness(hx, name, name, plain[name]))
    inputs = [*built.values(), *moved.values(), *plain.values(),
              built["k"].hopf]
    return Workload(ops, inputs=inputs, transported=moved)


def _replay_symbolic(hx) -> Workload:
    ops = [_replay(hx, name) for name in oracle.ANSWERS["replays"]
           if name != FULL_EXTENSION]
    ops.append(Op("classify_n2_le_1()", "replay",
                  lambda r: hx.replay.classify_n2_le_1(),
                  oracle.check_classification))
    return Workload(ops)
