"""Test-only oracles: the finite-lattice adjoint pairing, random operators, SymPy,
a frame that is not projectable, the JSON text of an operator and summation
by parts of a product.

:func:`finite_lattice_pairing` checks <f, H g> = <H^dagger f, g> numerically,
by summing over a finite box with compactly supported fields;
:func:`random_lindiffop` draws the operators it is checked on, and
:func:`op_radius` is the shift radius that sets the box's margins.
:func:`op_compose` composes two operators, for the composition law of the
formal adjoint and its test against applying them in turn.
:func:`to_sympy` and :func:`sympy_values` give a second way to compute
derivatives, by SymPy's own differentiation; they import SymPy when called.
:func:`non_projectable_frame` is a negative control for the checks that a
frame's invariant derivative commutes with the shifts.
:func:`op_json` writes an operator's terms as JSON.
:func:`sum_by_parts` is a second by-parts boundary builder, for one product
``f * S_K g``, beside ``calculus.linear_by_parts``.
:func:`reference_rebuild` is the builders' walker without pruning, and
:func:`reference_partial`, :func:`reference_shift` and
:func:`reference_substitute` the builders on it; :func:`expr_trees` is a
Hypothesis strategy for grammar-valid trees over a signature.
:func:`compile_exprs` lowers a list of expressions by
:meth:`Lowering.compile` into one function of the inputs, so that the
lowered lines the flow prints are compared with ``evaluate`` bit for bit.
"""

import functools
import json
from math import comb

import numpy as np
from numpy.polynomial import Polynomial

from lattice_frames.calculus import (
    DivergenceTuple,
    LinDiffOp,
    deriv_op,
    op_adjoint,
    staircase_components,
)
from lattice_frames.expr import (
    Alt,
    Assignment,
    Const,
    ExprError,
    FieldVar,
    LnAbs,
    Lowering,
    MissingVariableError,
    Neg,
    Param,
    Pow,
    Prod,
    Quot,
    Sqrt,
    Sum,
    Var,
    XVar,
    _RULES,
    _quiet_overflow,
    add,
    children,
    evaluate,
    ln_abs,
    mul,
    neg,
    power,
    quot,
    shift,
    sqrt,
    to_string,
)
from lattice_frames.frames import Frame
from lattice_frames.sampling import CheckReport


def _rel_residual(lv, rv):
    scale = max(1.0, abs(lv), abs(rv))
    return abs(lv - rv) / scale


def _support_mask(shape, margin):
    mask = np.zeros(shape, dtype=bool)
    inner = tuple(slice(margin, s - margin) for s in shape)
    mask[inner] = True
    return mask


def _random_supported_field(rng, shape, margin):
    field = rng.uniform(-1.0, 1.0, size=shape)
    field[~_support_mask(shape, margin)] = 0.0
    return field


def _coeff_grid(coeff, shape, x, params):
    """Evaluate a field-free coefficient at every lattice point of the box."""
    out = np.empty(shape + np.shape(x), dtype=float)
    for idx in np.ndindex(shape):
        a = Assignment({}, x=x, params=params, base=idx)
        out[idx] = evaluate(coeff, a)
    return out


def _bump_poly(a, b, order=4):
    """((x-a)(b-x))^order as a numpy Polynomial: C^{order-1} with compact support."""
    return (Polynomial([-a, 1.0]) * Polynomial([b, -1.0])) ** order


def finite_lattice_pairing(op, sig, seed=0, box=20, support=(0.3, 1.7),
                           tol=None, check_id="adjoint-pairing"):
    """Check <f, H g> = <H^dagger f, g> on a finite box with compact support.

    Discrete directions are summed exactly; for differential-difference
    operators the x-integrals use a composite trapezoid rule on the support
    interval, refined until the pairing residual stabilizes.  Coefficients
    must not involve field variables.
    """
    m = sig.lattice_dim
    shape = (box,) * m
    margin = op_radius(op) + 1
    max_deriv = max((j for _, _, j in op.terms), default=0)
    if 2 * margin >= box:
        raise ExprError(f"box {box} too small for operator radius {op_radius(op)}: "
                        "compact supports need margin on both sides")
    rng = np.random.default_rng(np.random.PCG64(seed))
    fr = _random_supported_field(rng, shape, margin)
    gr = _random_supported_field(rng, shape, margin)
    params = {p: rng.uniform(0.5, 1.5) for p in sig.params}
    adj = op_adjoint(op, sig)

    def discrete_pair(terms, left, right):
        # sum_n left(n) * sum_t c_t(n) right(n+K): wraparound from np.roll only
        # touches the zeroed margins, so the box sums equal the Z^m sums.
        total = 0.0
        for coeff, K, j in terms:
            if j:
                raise ExprError("difference pairing hit a derivative term")
            cg = _coeff_grid(coeff, shape, 0.0, params)
            total += float(np.sum(left * cg * np.roll(right, tuple(-k for k in K),
                                                      axis=tuple(range(m)))))
        return total

    if max_deriv == 0 and not sig.differential:
        p1 = discrete_pair(op.terms, fr, gr)
        p2 = discrete_pair(adj.terms, gr, fr)
        worst = _rel_residual(p1, p2)
        tol = 1e-12 if tol is None else tol
        return CheckReport.from_residual(check_id, worst, tol, 1, seed,
                                         note="pure-difference, exact sums")

    # differential-difference: fields r_n * phi(x) with polynomial bumps
    a, b = support
    order = max(4, max_deriv + 1)
    phi_f = _bump_poly(a, b, order)
    phi_g = _bump_poly(a, b, order)
    scale = max(abs(phi_f(0.5 * (a + b))), 1e-30)
    tol = 1e-6 if tol is None else tol

    def mixed_pair(terms, left, lpoly, right, rpoly, npts):
        x = np.linspace(a, b, npts)
        lvals = lpoly(x) / scale
        total = 0.0
        for coeff, K, j in terms:
            rvals = rpoly.deriv(j)(x) / scale if j else rpoly(x) / scale
            rolled = np.roll(right, tuple(-k for k in K), axis=tuple(range(m)))
            for idx in np.ndindex(shape):
                if left[idx] == 0.0 or rolled[idx] == 0.0:
                    continue
                cvals = evaluate(coeff, Assignment({}, x=x, params=params, base=idx))
                total += left[idx] * rolled[idx] * np.trapezoid(lvals * cvals * rvals, x)
        return total

    worst = None
    npts = 257
    while True:
        p1 = mixed_pair(op.terms, fr, phi_f, gr, phi_g, npts)
        p2 = mixed_pair(adj.terms, gr, phi_g, fr, phi_f, npts)
        res = _rel_residual(p1, p2)
        if worst is not None and (res <= tol / 10 or abs(res - worst) <= 0.05 * max(res, 1e-300)):
            worst = res
            break
        worst = res
        if npts >= 4097:
            break
        npts = 2 * (npts - 1) + 1
    return CheckReport.from_residual(check_id, worst, tol, 1, seed,
                                     note=f"trapezoid refined to {npts} points")


def op_radius(op):
    """The largest |K_i| over the terms of the operator ``op``: 0 for no terms."""
    return max((max(abs(k) for k in K) if K else 0 for _, K, _ in op.terms), default=0)


def op_compose(op1, op2, sig):
    """The operator op1 . op2 in normal form.

    Moving the derivatives of op1 across the coefficients of op2 uses the
    Leibniz rule, so each term pair contributes j1+1 terms.
    """
    out = []
    for c1, K1, j1 in op1.terms:
        for c2, K2, j2 in op2.terms:
            K = tuple(a + b for a, b in zip(K1, K2))
            sc2 = shift(c2, K1, sig)
            for l in range(j1 + 1):
                dc2 = deriv_op(sc2, sig, times=l)
                out.append((mul(comb(j1, l), c1, dc2), K, j1 - l + j2))
    return LinDiffOp.from_terms(out)


def random_lindiffop(rng, sig, radius=2, n_terms=3, max_deriv=0, with_x_coeff=False):
    """A random operator with field-free coefficients (constants, alt, a + b x)."""
    m = sig.lattice_dim
    terms = []
    for _ in range(n_terms):
        K = tuple(int(rng.integers(-radius, radius + 1)) for _ in range(m))
        j = int(rng.integers(0, max_deriv + 1)) if max_deriv else 0
        coeff = Const(round(float(rng.uniform(-2, 2)), 3))
        if rng.random() < 0.3:
            coeff = mul(coeff, Alt())
        if with_x_coeff and rng.random() < 0.5:
            coeff = add(coeff, mul(Const(round(float(rng.uniform(-1, 1)), 3)), XVar()))
        terms.append((coeff, K, j))
    return LinDiffOp.from_terms(terms)


# Each node class as SymPy, from the node and its children's SymPy images.
# Every symbol is real, so that ln|a| differentiates to 1/a.
_SYMPY_NODES = {
    Const: lambda sp, node: sp.sympify(node.value),
    Param: lambda sp, node: sp.Symbol(node.name, real=True),
    XVar: lambda sp, node: sp.Symbol("x", real=True),
    Alt: lambda sp, node: sp.Symbol("alt", real=True),
    Var: lambda sp, node: sp.Symbol(str(node.fv), real=True),
    Sum: lambda sp, node, *terms: sp.Add(*terms),
    Prod: lambda sp, node, *factors: sp.Mul(*factors),
    Pow: lambda sp, node, base: base ** node.exponent,
    Quot: lambda sp, node, num, den: num / den,
    Neg: lambda sp, node, arg: -arg,
    LnAbs: lambda sp, node, arg: sp.log(sp.Abs(arg)),
    Sqrt: lambda sp, node, arg: sp.sqrt(arg),
}


def to_sympy(e):
    """``e`` as a SymPy expression: a field variable is the symbol named as it prints."""
    import sympy

    memo = {}

    def rec(node):
        if id(node) not in memo:
            memo[id(node)] = _SYMPY_NODES[type(node)](sympy, node, *map(rec, children(node)))
        return memo[id(node)]

    return rec(e)


def sympy_symbol(fv):
    """The symbol :func:`to_sympy` gives the field variable ``fv``."""
    import sympy

    return sympy.Symbol(str(fv), real=True)


def sympy_values(s, points, fvs):
    """The SymPy expression ``s`` at every point of the :class:`PointSet` ``points``.

    ``fvs`` are the field variables whose symbols ``s`` may hold.
    """
    import sympy

    inputs = {"x": points.x, "alt": points.alt, **points.params,
              **{str(fv): points.values[fv] for fv in fvs}}
    free = sorted(s.free_symbols, key=lambda sym: sym.name)
    fn = sympy.lambdify(free, s, modules="numpy")
    return np.broadcast_to(fn(*[inputs[sym.name] for sym in free]), np.shape(points.x))


def non_projectable_frame(action):
    """A frame for ex81's or nls's action that is not projectable.

    For ex81's (x, u) -> (b x, b u + a) it normalizes u_{0;0} to 0 and
    u_{0;1} - u_{0;0} to 1.  With d = u_{0;1} - u_{0;0} that gives
    (a, b) = (-u_{0;0}/d, 1/d) on the chart |d| > 0, and the
    frozen-parameter invariant derivative (1/b) D = d D.  Its b, which
    scales x, depends on u, and d is moved by the shift in n, so d D does
    not commute with that shift.

    For nls's (x, u, v) -> (x + a, c u + s v, c v - s u) it normalizes
    x - u_{0;0} and v_{0;0} to 0.  With r = sqrt(u_{0;0}^2 + v_{0;0}^2) that
    gives (a, c, s) = (r - x, u_{0;0}/r, v_{0;0}/r) on the chart
    u_{0;0} > 0.  Its a, which moves x, depends on u and v, so the frozen
    derivative D is not the invariant one: that is D/D(x + a) = D/D r =
    (r / (u_{0;0} u_{1;0} + v_{0;0} v_{1;0})) D, whose factor the shift in n
    moves.
    """
    u0 = Var(FieldVar("u", 0, (0,)))
    if len(action.param_names) == 3:
        v0 = Var(FieldVar("v", 0, (0,)))
        r = sqrt(u0 * u0 + v0 * v0)
        ux, vx = (Var(FieldVar(name, 1, (0,))) for name in ("u", "v"))
        return Frame(
            name="nls-non-projectable",
            action=action,
            normalization=((XVar() - u0, 0.0), (v0, 0.0)),
            param_exprs=(r - XVar(), u0 / r, v0 / r),
            dcal_inv=r / (u0 * ux + v0 * vx),
        )
    d = Var(FieldVar("u", 0, (1,))) - u0
    return Frame(
        name="ex81-non-projectable",
        action=action,
        normalization=((u0, 0.0), (d, 1.0)),
        param_exprs=(-u0 / d, Const(1) / d),
        dcal_inv=d,
    )


def op_json(op):
    """The JSON text of a :class:`LinDiffOp`: one ``{coeff, K, j}`` object per term."""
    return json.dumps([{"coeff": to_string(c), "K": list(K), "j": j} for c, K, j in op.terms])


def sum_by_parts(f, g, K, sig):
    """Boundary B with f * S_K g - (S_{-K} f) * g = Div(B), along the staircase path."""
    inner = mul(shift(f, tuple(-k for k in K), sig), g)
    return DivergenceTuple(None, tuple(staircase_components(inner, K, sig)))


def reference_rebuild(e, leaf, memo, derive=False):
    """``expr._rebuild`` without pruning: every node is visited, and rebuilt through its row."""

    def rec(node):
        hit = memo.get(id(node))
        if hit is not None:
            return hit[1]
        out = leaf(node)
        if out is None:
            rule = _RULES[type(node)]
            out = (rule.derive(node, rec) if derive
                   else rule.build(node, *[rec(c) for c in rule.children(node)]))
        memo[id(node)] = node, out
        return out

    return rec(e)


def reference_partial(e, fv):
    """d e / d fv by the walk of every node: a field variable other than ``fv`` derives to 0."""

    def leaf(node):
        if isinstance(node, Var):
            return Const(1) if node.fv == fv else Const(0)
        return None

    return reference_rebuild(e, leaf, {}, derive=True)


def reference_shift(e, offset, sig):
    """S_offset e by the walk of every node, raising where a shifted field leaves the radius."""
    flip = sum(offset) % 2

    def leaf(node):
        if isinstance(node, Var):
            fv = node.fv.shifted(offset)
            sig.check_var(fv)
            return Var(fv)
        if isinstance(node, Alt):
            return neg(node) if flip else node
        return None

    return reference_rebuild(e, leaf, {})


def reference_substitute(e, rules, x_repl=None, param_rules=None):
    """Simultaneous substitution by the walk of every node, identity rules kept."""
    param_rules = param_rules or {}

    def leaf(node):
        if isinstance(node, Var):
            return rules.get(node.fv)
        if x_repl is not None and isinstance(node, XVar):
            return x_repl
        if isinstance(node, Param):
            return param_rules.get(node.name)
        return None

    return reference_rebuild(e, leaf, {})


def _unfolded(build, *args):
    """``build(*args)``, or its first argument where a constant operand would be folded.

    A folded constant may be a float of integer value, which prints as an
    integer and parses back as an int: a different node.
    """
    if any(isinstance(a, Const) for a in args[1 if build is quot else 0:]):
        return args[0]
    return build(*args)


def expr_trees(sig, max_leaves=25):
    """A Hypothesis strategy for trees over ``sig`` built by the smart constructors.

    The leaves are small integer constants, the parameters of ``sig``,
    ``alt``, ``x`` where ``sig`` has it, and field variables of its fields
    with shifts in [-2, 2]^m and, on a differential-difference signature,
    derivative orders up to 2.  Every tree prints in the input grammar, and
    :func:`lattice_frames.parser.parse` gives the same node back.
    """
    from hypothesis import strategies as st

    m = sig.lattice_dim
    fvs = st.builds(FieldVar, st.sampled_from(sig.fields),
                    st.integers(0, 2 if sig.differential else 0),
                    st.tuples(*[st.integers(-2, 2)] * m))
    leaves = [st.integers(0, 5).map(Const), st.just(Alt()), fvs.map(Var), fvs.map(Var)]
    if sig.params:
        leaves.append(st.sampled_from(sig.params).map(Param))
    if sig.has_x:
        leaves.append(st.just(XVar()))

    def extend(sub):
        return st.one_of(
            st.lists(sub, min_size=2, max_size=3).map(lambda ts: add(*ts)),
            st.lists(sub, min_size=2, max_size=3).map(lambda fs: mul(*fs)),
            sub.map(neg),
            st.tuples(sub, sub).map(lambda nd: _unfolded(quot, *nd)),
            st.tuples(sub, st.sampled_from([-2, 2, 3])).map(lambda bn: _unfolded(power, *bn)),
            sub.map(lambda a: _unfolded(sqrt, a)),
            sub.map(ln_abs),
        )

    return st.recursive(st.one_of(leaves), extend, max_leaves=max_leaves)


def compile_exprs(exprs):
    """Lower a list of expressions once into straight-line numpy functions.

    Returns ``(bind, variables)``.  ``bind(params)`` runs the prelude, the
    nodes of constants and parameters alone, and returns ``fn(values, x,
    alt)``, which computes the other nodes and returns ``(results, bad)``:
    the value of each expression and the mask of the points where a node is
    singular.  ``values`` holds one value per FieldVar of ``variables``, in
    that order.  ``bad`` is ``False`` when nothing is singular in the
    prelude and no other node has a test.  Binding and calls run with
    overflow quiet, as ``evaluate`` does; ``bind`` raises
    :class:`MissingVariableError` when a parameter has no value.
    """
    lowering = Lowering(exprs)
    bind_call = lowering.compile({"_lowered": ("V, x, alt", [
        "m = bad", *lowering.lines(checked=True), f"return [{', '.join(lowering.results)}], m"])})

    def bind(params):
        try:
            fn, = bind_call(params)
        except KeyError as err:
            raise MissingVariableError(f"parameter {err.args[0]!r} has no value") from None
        return functools.partial(_quiet_overflow, fn)

    return bind, lowering.variables
