"""Method-of-lines semi-discrete nonlinear Schroedinger equation.

Fields (u, v) on a one-dimensional lattice with uniform step h, invariant
under x-translation and simultaneous rotation of (u, v).  The rotation is
parametrized by (cos b, sin b) so that every map stays inside the
expression grammar; the frame normalizes iota(x) = 0, iota(v) = 0 on the
patch u_{0;0} > 0, with the sign convention iota(v_{0;1}) >= 0 enforced by
the chart guards.
"""

from __future__ import annotations

import numpy as np

from ..actions import Generator, GroupAction
from ..calculus import LinDiffOp
from ..expr import Const, Param, ProblemSignature, XVar, neg, shift, sqrt
from ..flows import LatticeState
from ..frames import Frame, InvariantSet
from ..sampling import Guard
from . import ExampleBundle, coordinates, register_example


X = XVar()
H = Param("h")

sig = ProblemSignature(("u", "v", "u_t", "v_t"), 1, differential=True, has_x=True,
                       params=("h",), variations={"u": "u_t", "v": "v_t"})
kappa_sig = ProblemSignature(
    ("k1", "k2", "k3", "sigma_u", "sigma_v", "k1_t", "k2_t", "k3_t"), 1,
    differential=True, params=("h",),
    variations={"k1": "k1_t", "k2": "k2_t", "k3": "k3_t"})

U, VV, UT, VT = coordinates(sig, "u", "v", "u_t", "v_t")
K1, K2, K3, SU, SV = coordinates(kappa_sig, "k1", "k2", "k3", "sigma_u", "sigma_v")

L = ((VV(0, 0) * U(1, 0) - U(0, 0) * VV(1, 0)) / 2
     + (U(0, 0) ** 2 + VV(0, 0) ** 2) ** 2 / 4
     - ((U(0, 1) - U(0, 0)) ** 2 + (VV(0, 1) - VV(0, 0)) ** 2) / (2 * H ** 2))

rotation = GroupAction(
    name="translate-x-rotate-uv",
    sig=sig,
    param_names=("a", "c", "s"),  # c = cos b, s = sin b
    identity_values=(0.0, 1.0, 0.0),
    u_maps={
        "u": Param("c") * U(0, 0) + Param("s") * VV(0, 0),
        "v": neg(Param("s")) * U(0, 0) + Param("c") * VV(0, 0),
    },
    x_map=X + Param("a"),
    compose_fn=lambda g1, g2: (g1[0] + g2[0],
                               g1[1] * g2[1] - g1[2] * g2[2],
                               g1[2] * g2[1] + g1[1] * g2[2]),
    inverse_fn=lambda g: (-g[0], g[1], -g[2]),
    generators=(
        Generator({"u": neg(U(1, 0)), "v": neg(VV(1, 0))}, xi=Const(1), name="v1"),
        Generator({"u": VV(0, 0), "v": neg(U(0, 0))}, name="v2"),
    ),
    adjoint_rep=((Const(1), Const(0)), (Const(0), Const(1))),  # abelian group
    sample_fn=lambda rng: (float(rng.uniform(-1, 1)),) + (
        lambda t: (float(np.cos(t)), float(np.sin(t))))(rng.uniform(-1, 1)),
)

_norm = sqrt(U(0, 0) ** 2 + VV(0, 0) ** 2)

frame = Frame(
    name="nls-rotation",
    action=rotation,
    normalization=((X, 0.0), (VV(0, 0), 0.0)),
    param_exprs=(neg(X), U(0, 0) / _norm, VV(0, 0) / _norm),
)

PHI = sqrt((K1(0, 0) * K1(0, 1)) ** 2 - K3(0, 0) ** 2)


def phi_at(k):
    """S^k phi as a kappa-space expression (sign fixed by the chart)."""
    return shift(PHI, (k,), kappa_sig)


def recurrence(fv):
    j, k = fv.deriv, fv.shift[0]
    name = fv.name
    if name == "u":
        if (j, k) == (0, 0):
            return K1(0, 0)
        if j == 0 and k == 1:
            return K3(0, 0) / K1(0, 0)
        if j == 0 and k == -1:
            return K3(0, -1) / K1(0, 0)
        if (j, k) == (1, 0):
            return K1(1, 0)
        return None
    if name == "v":
        if (j, k) == (0, 0):
            return Const(0)
        if j == 0 and k == 1:
            return PHI / K1(0, 0)
        if j == 0 and k == -1:
            return neg(phi_at(-1)) / K1(0, 0)
        if (j, k) == (1, 0):
            return K2(0, 0) / K1(0, 0)
        return None
    if name == "u_t":
        if (j, k) == (0, 0):
            return SU(0, 0)
        if j == 0 and k == 1:
            return (K3(0, 0) * SU(0, 1) - PHI * SV(0, 1)) / (K1(0, 0) * K1(0, 1))
        return None
    if name == "v_t":
        if (j, k) == (0, 0):
            return SV(0, 0)
        if j == 0 and k == 1:
            return (PHI * SU(0, 1) + K3(0, 0) * SV(0, 1)) / (K1(0, 0) * K1(0, 1))
        return None
    return None


H_ops = {
    "k1": {"sigma_u": LinDiffOp.from_terms([(Const(1), (0,), 0)]), "sigma_v": None},
    "k2": {
        "sigma_u": LinDiffOp.from_terms([(2 * K2(0, 0) / K1(0, 0), (0,), 0)]),
        "sigma_v": LinDiffOp.from_terms([(K1(0, 0), (0,), 1),
                                         (neg(K1(1, 0)), (0,), 0)]),
    },
    "k3": {
        "sigma_u": LinDiffOp.from_terms([(K3(0, 0) / K1(0, 0), (0,), 0),
                                         (K3(0, 0) / K1(0, 1), (1,), 0)]),
        "sigma_v": LinDiffOp.from_terms([(PHI / K1(0, 0), (0,), 0),
                                         (neg(PHI) / K1(0, 1), (1,), 0)]),
    },
}

# syzygy from computing the derivative of k3 two ways (real part of the
# complexified product rule):
# k3 k1_{1;1}/k1_{0;1} - k3_{1;0} + k3 k1_{1;0}/k1 + phi k2/k1^2
#   - phi k2_{0;1}/k1_{0;1}^2 = 0
_syzygy_lhs = (K3(0, 0) * K1(1, 1) / K1(0, 1)
               - K3(1, 0)
               + K3(0, 0) * K1(1, 0) / K1(0, 0)
               + PHI * K2(0, 0) / K1(0, 0) ** 2
               - PHI * K2(0, 1) / K1(0, 1) ** 2)

invset = InvariantSet(
    frame=frame,
    kappa_sig=kappa_sig,
    kappa_defs={
        "k1": _norm,
        "k2": U(0, 0) * VV(1, 0) - VV(0, 0) * U(1, 0),
        "k3": U(0, 0) * U(0, 1) + VV(0, 0) * VV(0, 1),
    },
    sigma_defs={
        "sigma_u": (U(0, 0) * UT(0, 0) + VV(0, 0) * VT(0, 0)) / _norm,
        "sigma_v": (U(0, 0) * VT(0, 0) - VV(0, 0) * UT(0, 0)) / _norm,
    },
    sigma_fields={"sigma_u": "u", "sigma_v": "v"},
    recurrence=recurrence,
    syzygies=(("nls-syzygy", _syzygy_lhs, Const(0)),),
    H=H_ops,
)

L_kappa = (neg(K2(0, 0)) / 2 + K1(0, 0) ** 4 / 4
           - (K1(0, 1) ** 2 - 2 * K3(0, 0) + K1(0, 0) ** 2) / (2 * H ** 2))


def _guards():
    out = []
    for k in range(-2, 3):
        out.append(Guard(U(0, k), "pos"))
    for k in range(-2, 2):
        out.append(Guard(U(0, k) * VV(0, k + 1) - VV(0, k) * U(0, k + 1), "pos"))
    return tuple(out)


def _offsets(fv):
    if fv.name == "u" and fv.deriv == 0:
        return 1.4
    if fv.name == "v" and fv.deriv == 0:
        return 0.45 * fv.shift[0]
    return 0.0


EXPECTED = {
    "el_original": {
        "u": "-v[1;0] + u[0]*(u[0]^2+v[0]^2) + (u[-1] - 2*u[0] + u[1])/h^2",
        "v": "u[1;0] + v[0]*(u[0]^2+v[0]^2) + (v[-1] - 2*v[0] + v[1])/h^2",
    },
    "euler_kappa": {
        "k1": "k1[0;0]^3 - 2*k1[0;0]/h^2",
        "k2": "-1/2",
        "k3": "1/h^2",
    },
    "el_invariant": {
        "u": ("k1[0;0]^3 - 2*k1[0;0]/h^2 - k2[0;0]/k1[0;0]"
              " + k3[0;0]/(h^2*k1[0;0]) + k3[0;-1]/(h^2*k1[0;0])"),
        # the phi shorthand is spelled out through its kappa definition
    },
    "laws_invariant": {
        1: {"A0": ("k1[0;0]^4/4 - k1[0;1]^2/(2*h^2) + k3[0;0]/h^2"
                   " - k1[0;0]^2/(2*h^2)")},
        2: {"A0": "k1[0;0]^2/2"},
    },
}

def _initial_state(n_sites, h):
    n = np.arange(n_sites)
    return LatticeState(
        {"u": np.cos(2 * np.pi * n / n_sites) / np.sqrt(n_sites),
         "v": np.sin(2 * np.pi * n / n_sites) / np.sqrt(n_sites)},
        x=0.0, params={"h": h})


_cube = U(0, 0) ** 2 + VV(0, 0) ** 2
_H2 = H ** 2
RHS = {
    "u": VV(0, 0) * _cube + (VV(0, -1) - 2 * VV(0, 0) + VV(0, 1)) / _H2,
    "v": neg(U(0, 0) * _cube) - (U(0, -1) - 2 * U(0, 0) + U(0, 1)) / _H2,
}

MONITORS = {
    "norm": (U(0, 0) ** 2 + VV(0, 0) ** 2) / 2,
    "energy": (_cube ** 2 / 4
               - ((U(0, 1) - U(0, 0)) ** 2 + (VV(0, 1) - VV(0, 0)) ** 2) / (2 * _H2)),
}

bundle = register_example(ExampleBundle(
    name="nls",
    L=L,
    invset=invset,
    L_kappa=L_kappa,
    expected=EXPECTED,
    plan_kw={"guards": _guards(), "offsets": _offsets, "value_range": (-0.35, 0.35),
             "param_ranges": {"h": (0.5, 1.2)}},
    integrate_config={
        "rhs": RHS,
        "monitors": MONITORS,
        "initial_state": _initial_state,
        "defaults": {"n_sites": 16, "h": 0.5, "dt": 1e-3, "x_span": (0.0, 1.0)},
        "note": ("initial data and lattice size are an artifact choice; "
                 "the source examples state none"),
    },
))
