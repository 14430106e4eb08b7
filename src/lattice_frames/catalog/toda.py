"""Toda-type lattice: L = ln|(u_{1,0}-u_{0,1})/(u_{1,1}-u_{0,0})| on Z^2.

The Lagrangian is invariant under u -> b u + a, the frame action, and
under the alternating translation u -> u + c (-1)^(n^1+n^2), a plain
generator v4 with an original-form law only; v3 = u^2 d/du is no symmetry.
The frame normalizes u_{0,0} -> 0, u_{1,1} -> 1 on the half-space
u_{1,1} > u_{0,0}; the generating invariants are kappa = iota(u_{1,0}) and
lambda = iota(u_{0,1}).
"""

from __future__ import annotations

from itertools import product

from ..actions import Generator, GroupAction
from ..calculus import LinDiffOp
from ..expr import Alt, Const, Param, ProblemSignature, ln_abs, neg, shift
from ..frames import Frame, InvariantSet
from ..sampling import Guard
from . import AFFINE_GROUP, ExampleBundle, coordinates, register_example


sig = ProblemSignature(("u", "u_t"), 2, variations={"u": "u_t"})
kappa_sig = ProblemSignature(
    ("kappa", "lambda", "sigma", "kappa_t", "lambda_t"), 2,
    variations={"kappa": "kappa_t", "lambda": "lambda_t"})

U, UT = coordinates(sig, "u", "u_t")
KP, LM, SG = coordinates(kappa_sig, "kappa", "lambda", "sigma")

L = ln_abs((U(1, 0) - U(0, 1)) / (U(1, 1) - U(0, 0)))

affine = GroupAction(
    name="affine-u",
    sig=sig,
    u_maps={"u": Param("b") * U(0, 0) + Param("a")},
    generators=(
        Generator({"u": Const(1)}, name="v1"),
        Generator({"u": U(0, 0)}, name="v2"),
    ),
    **AFFINE_GROUP,
)

frame = Frame(
    name="toda-affine",
    action=affine,
    normalization=((U(0, 0), 0.0), (U(1, 1), 1.0)),
    param_exprs=(neg(U(0, 0)) / (U(1, 1) - U(0, 0)), Const(1) / (U(1, 1) - U(0, 0))),
)

_RECURRENCE_BASE = {
    (0, 0): Const(0),
    (1, 1): Const(1),
    (1, 0): KP(0, 0),
    (0, 1): LM(0, 0),
}


def _iota_u(i, j):
    if (i, j) in _RECURRENCE_BASE:
        return _RECURRENCE_BASE[(i, j)]
    if i > 0:
        prev = _iota_u(i - 1, j)
        return KP(0, 0) + (1 - KP(0, 0)) / LM(1, 0) * shift(prev, (1, 0), kappa_sig)
    if i < 0:
        nxt = _iota_u(i + 1, j)
        return shift((nxt - KP(0, 0)) * LM(1, 0) / (1 - KP(0, 0)), (-1, 0), kappa_sig)
    if j > 0:
        prev = _iota_u(i, j - 1)
        return LM(0, 0) + (1 - LM(0, 0)) / KP(0, 1) * shift(prev, (0, 1), kappa_sig)
    nxt = _iota_u(i, j + 1)
    return shift((nxt - LM(0, 0)) * KP(0, 1) / (1 - LM(0, 0)), (0, -1), kappa_sig)


def recurrence(fv):
    if fv.deriv != 0:
        return None
    i, j = fv.shift
    if max(abs(i), abs(j)) > 6:
        return None
    if fv.name == "u":
        return _iota_u(i, j)
    if fv.name == "u_t":
        return (_iota_u(i + 1, j + 1) - _iota_u(i, j)) * SG(i, j)
    return None


H_kappa = LinDiffOp.from_terms([
    ((1 - KP(0, 0)) / LM(1, 0), (1, 0), 0),
    (neg(KP(0, 0) * (KP(0, 0) - 1) * (LM(1, 0) - 1) / (LM(1, 0) * KP(1, 1))), (1, 1), 0),
    (KP(0, 0) - 1, (0, 0), 0),
])
H_lambda = LinDiffOp.from_terms([
    ((1 - LM(0, 0)) / KP(0, 1), (0, 1), 0),
    (neg(LM(0, 0) * (KP(0, 0) - 1) * (LM(1, 0) - 1) / (LM(1, 0) * KP(1, 1))), (1, 1), 0),
    (LM(0, 0) - 1, (0, 0), 0),
])

invset = InvariantSet(
    frame=frame,
    kappa_sig=kappa_sig,
    kappa_defs={
        "kappa": (U(1, 0) - U(0, 0)) / (U(1, 1) - U(0, 0)),
        "lambda": (U(0, 1) - U(0, 0)) / (U(1, 1) - U(0, 0)),
    },
    sigma_defs={"sigma": UT(0, 0) / (U(1, 1) - U(0, 0))},
    sigma_fields={"sigma": "u"},
    recurrence=recurrence,
    syzygies=(
        ("kappa-lambda",
         (LM(0, 0) - 1) * (KP(0, 1) - 1) / (KP(0, 1) * LM(1, 1)),
         (KP(0, 0) - 1) * (LM(1, 0) - 1) / (LM(1, 0) * KP(1, 1))),
    ),
    H={"kappa": {"sigma": H_kappa}, "lambda": {"sigma": H_lambda}},
)

L_kappa = ln_abs(KP(0, 0) - LM(0, 0))


def _guards():
    # neighbouring cells share edges: each (difference, kind) is guarded once
    pairs = dict.fromkeys(
        pair for i, j in product(range(-2, 3), repeat=2)
        for pair in ((U(1 + i, 1 + j) - U(i, j), "pos"),
                     (U(1 + i, j) - U(i, 1 + j), "abs"),
                     (U(1 + i, j) - U(i, j), "abs"),
                     (U(i, 1 + j) - U(i, j), "abs"),
                     (U(1 + i, 1 + j) - U(1 + i, j), "abs"),
                     (U(1 + i, 1 + j) - U(i, 1 + j), "abs")))
    return tuple(Guard(diff, kind) for diff, kind in pairs)


def _offsets(fv):
    if fv.name == "u":
        i, j = fv.shift
        return 1.35 * i + 0.65 * j
    return 0.0


EXPECTED = {
    "lagrangian": "ln(abs((u[1,0]-u[0,1])/(u[1,1]-u[0,0])))",
    "el_original": {"u": ("1/(u[1,1]-u[0,0]) - 1/(u[-1,1]-u[0,0]) "
                          "- 1/(u[1,-1]-u[0,0]) + 1/(u[-1,-1]-u[0,0])")},
    "euler_kappa": {
        "kappa": "1/(kappa[0,0]-lambda[0,0])",
        "lambda": "-1/(kappa[0,0]-lambda[0,0])",
    },
    "el_invariant": {"u": (
        "(1-kappa[-1,0])/(lambda[0,0]*(kappa[-1,0]-lambda[-1,0]))"
        " - (1-lambda[0,-1])/(kappa[0,0]*(kappa[0,-1]-lambda[0,-1]))"
        " - ((kappa[-1,-1]-1)*(lambda[0,-1]-1))/(kappa[0,0]*lambda[0,-1]) + 1")},
    "H_adjoint_kappa": [
        ("(1-kappa[-1,0])/lambda[0,0]", (-1, 0), 0),
        ("-(kappa[-1,-1]*(kappa[-1,-1]-1)*(lambda[0,-1]-1))/(kappa[0,0]*lambda[0,-1])",
         (-1, -1), 0),
        ("kappa[0,0]-1", (0, 0), 0),
    ],
    "recurrences": {
        "u[2,1]": "kappa[0,0] + (1-kappa[0,0])/lambda[1,0]",
        "u[1,1]": "1",
    },
    # equivariant-law baselines: invariant coefficient of each adjoint component
    "equivariant_coeffs": {
        1: {"A1": {"adj1": ("(1-kappa[-1,0])/(lambda[0,0]*(kappa[-1,0]-lambda[-1,0]))"
                            " + (kappa[-1,0]-1)/lambda[0,0]")},
            "A2": {"adj1": ("(lambda[0,-1]-1)/(kappa[0,0]*(kappa[0,-1]-lambda[0,-1]))"
                            " - ((kappa[-1,-1]-1)*(lambda[0,-1]-1))/(kappa[0,0]*lambda[0,-1])")}},
        2: {"A1": {"adj1": ("(1-kappa[-1,0])/(lambda[0,0]*(kappa[-1,0]-lambda[-1,0]))"
                            " + (kappa[-1,0]-1)/lambda[0,0]"),
                   "adj2": "kappa[-1,0]-1"},
            "A2": {"adj1": ("(lambda[0,-1]-1)/(kappa[0,0]*(kappa[0,-1]-lambda[0,-1]))"
                            " - ((kappa[-1,-1]-1)*(lambda[0,-1]-1))/(kappa[0,0]*lambda[0,-1])")}},
    },
}

bundle = register_example(ExampleBundle(
    name="toda",
    L=L,
    invset=invset,
    L_kappa=L_kappa,
    other_generators=(
        Generator({"u": U(0, 0) ** 2}, name="v3", note="not a variational symmetry of L"),
        Generator({"u": Alt()}, name="v4",
                  note="alternating translation; original-form law only"),
    ),
    expected=EXPECTED,
    plan_kw={"guards": _guards(), "offsets": _offsets, "value_range": (-0.3, 0.3)},
))
