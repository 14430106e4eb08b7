"""Differential-difference example: L dx = (u_{1;0})^2/(u_{0;1}-u_{0;0}) dx.

Invariant under (x, u) -> (b x, b u + a).  The normalization iota(x) = 1,
iota(u_{0;0}) = 0 gives a projectable frame with invariant derivative x D,
generating invariants k1 = u_{1;0} and k2 = (u_{0;1}-u_{0;0})/x, and a
conservation law pair in which the second law carries the L * xi term.
"""

from __future__ import annotations

from ..actions import Generator, GroupAction
from ..calculus import LinDiffOp
from ..expr import Const, Param, ProblemSignature, XVar, neg
from ..frames import Frame, InvariantSet
from ..sampling import Guard
from . import AFFINE_GROUP, ExampleBundle, coordinates, register_example


X = XVar()

sig = ProblemSignature(("u", "u_t"), 1, differential=True, has_x=True,
                       variations={"u": "u_t"})
kappa_sig = ProblemSignature(
    ("k1", "k2", "sigma", "k1_t", "k2_t"), 1, differential=True,
    variations={"k1": "k1_t", "k2": "k2_t"})

U, UT = coordinates(sig, "u", "u_t")
K1, K2, SG = coordinates(kappa_sig, "k1", "k2", "sigma")

L = U(1, 0) ** 2 / (U(0, 1) - U(0, 0))

scaling = GroupAction(
    name="scale-x-affine-u",
    sig=sig,
    u_maps={"u": Param("b") * U(0, 0) + Param("a")},
    x_map=Param("b") * X,
    generators=(
        Generator({"u": Const(1)}, name="v1"),
        Generator({"u": U(0, 0) - X * U(1, 0)}, xi=X, name="v2"),
    ),
    **AFFINE_GROUP,
)

frame = Frame(
    name="ex81-scale",
    action=scaling,
    normalization=((X, 1.0), (U(0, 0), 0.0)),
    param_exprs=(neg(U(0, 0)) / X, Const(1) / X),
    dcal_inv=X,
)


def _iota_u0(k):
    """iota(u_{0;k}) as a telescoping sum of shifted k2."""
    if k == 0:
        return Const(0)
    if k > 0:
        parts = [K2(0, l) for l in range(k)]
    else:
        parts = [neg(K2(0, l)) for l in range(k, 0)]
    out = parts[0]
    for p in parts[1:]:
        out = out + p
    return out


def recurrence(fv):
    j, k = fv.deriv, fv.shift[0]
    if abs(k) > 6:
        return None
    if fv.name == "u":
        if j == 0:
            return _iota_u0(k)
        if j == 1:
            return K1(0, k)
        if j == 2:
            return K1(1, k)
        return None
    if fv.name == "u_t":
        if j == 0:
            return SG(0, k)
        if j <= 2:
            return SG(j, k) + SG(j - 1, k)
        return None
    return None


H_k1 = LinDiffOp.from_terms([(Const(1), (0,), 1), (Const(1), (0,), 0)])      # Dcal + id
H_k2 = LinDiffOp.from_terms([(Const(1), (1,), 0), (Const(-1), (0,), 0)])     # S - id

invset = InvariantSet(
    frame=frame,
    kappa_sig=kappa_sig,
    kappa_defs={
        "k1": U(1, 0),
        "k2": (U(0, 1) - U(0, 0)) / X,
    },
    sigma_defs={"sigma": UT(0, 0) / X},
    sigma_fields={"sigma": "u"},
    recurrence=recurrence,
    syzygies=(
        ("shifted-k1", K1(0, 1), K1(0, 0) + K2(1, 0) + K2(0, 0)),
    ),
    H={"k1": {"sigma": H_k1}, "k2": {"sigma": H_k2}},
)

L_kappa = K1(0, 0) ** 2 / K2(0, 0)


def _guards():
    out = []
    for k in range(-3, 3):
        out.append(Guard(U(0, k + 1) - U(0, k), "abs"))
    return tuple(out)


def _offsets(fv):
    if fv.name == "u" and fv.deriv == 0:
        return 0.9 * fv.shift[0]
    return 0.0


EXPECTED = {
    "lagrangian": "(d1 u[;0])^2/(u[;1]-u[;0])",
    "el_original": {"u": ("-2*u[2;0]/(u[1]-u[0]) + (2*u[1;0]*u[1;1] - u[1;0]^2)/(u[1]-u[0])^2"
                          " - u[1;-1]^2/(u[0]-u[-1])^2")},
    "euler_kappa": {
        "k1": "2*k1[0;0]/k2[0;0]",
        "k2": "-(k1[0;0]/k2[0;0])^2",
    },
    "el_invariant": {"u": ("2*(k1[0;0]-k1[1;0])/k2[0;0]"
                           " + k1[0;0]*(k1[0;0]+2*k2[1;0])/k2[0;0]^2"
                           " - (k1[0;-1]/k2[0;-1])^2")},
    "recurrences": {
        "u[2;0]": "k1[1;0]",
        "u[1;-1]": "k1[0;-1]",
        "u[-1]": "-k2[0;-1]",
    },
    # conservation laws in the original variables (dx measure)
    "laws_original": {
        1: {"A0": "2*u[1;0]/(u[1]-u[0])",
            "A1": "-u[1;-1]^2/(u[0]-u[-1])^2"},
        2: {"A0": "u[1;0]*(2*u[0]-x*u[1;0])/(u[1]-u[0])",
            "A1": "u[1;-1]^2*(x*u[1;0]-u[0])/(u[0]-u[-1])^2"},
    },
}

bundle = register_example(ExampleBundle(
    name="ex81",
    L=L,
    invset=invset,
    L_kappa=L_kappa,
    expected=EXPECTED,
    plan_kw={"guards": _guards(), "offsets": _offsets, "value_range": (-0.35, 0.35)},
))
