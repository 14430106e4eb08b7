"""Immutable expression trees over lattice field variables.

An expression lives on the prolongation space over a fixed lattice base
point: its leaves are constants, named parameters, the continuous variable
``x``, the alternating lattice coefficient ``alt`` = (-1)^(n^1+...+n^m),
and field variables ``u^alpha`` carrying a derivative order ``j`` and an
integer shift multi-index ``K``.

There is no general simplification: smart constructors only fold constants
and flatten nested sums/products.  Equality of expressions is decided
numerically elsewhere (see :mod:`lattice_frames.sampling`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ExprError",
    "CapExceededError",
    "MissingVariableError",
    "SingularEvaluationError",
    "FieldVar",
    "ProblemSignature",
    "Expr",
    "Const",
    "Param",
    "XVar",
    "Alt",
    "Var",
    "Sum",
    "Prod",
    "Pow",
    "Quot",
    "Neg",
    "LnAbs",
    "Sqrt",
    "Assignment",
    "stack",
    "add",
    "mul",
    "neg",
    "quot",
    "power",
    "sqrt",
    "ln_abs",
    "as_expr",
    "fieldvars",
    "evaluate",
    "partial",
    "shift",
    "total_derivative",
    "t_derivative",
    "substitute",
    "to_string",
]


class ExprError(Exception):
    """Base class for expression-engine errors."""


class CapExceededError(ExprError):
    """Derivative order or shift radius exceeded the signature caps."""


class MissingVariableError(ExprError):
    """Evaluation hit a variable the assignment does not cover."""


class SingularEvaluationError(ExprError):
    """Division by zero, sqrt of a negative, or ln of zero."""

    def __init__(self, message, subexpr=None):
        super().__init__(message)
        self.subexpr = subexpr


@dataclass(frozen=True, slots=True)
class FieldVar:
    """Reference to u^alpha with derivative order ``deriv`` and shift ``shift``."""

    name: str
    deriv: int
    shift: tuple[int, ...]

    def shifted(self, offset):
        return FieldVar(self.name, self.deriv, tuple(k + o for k, o in zip(self.shift, offset)))

    def __str__(self):
        idx = ",".join(str(k) for k in self.shift)
        if self.deriv:
            return f"{self.name}[{self.deriv};{idx}]"
        return f"{self.name}[{idx}]"


@dataclass(frozen=True)
class ProblemSignature:
    """Declares the variables of one problem.

    ``fields`` are the dependent variable names; ``variations`` maps a field
    name to the name of its reserved variation slot (the field standing for
    d(field)/dt), used by :func:`t_derivative`.  ``differential`` enables the
    derivative index ``j`` (differential-difference flavor); ``has_x`` adds
    the continuous independent variable ``x``.
    """

    fields: tuple[str, ...]
    lattice_dim: int
    differential: bool = False
    has_x: bool = False
    params: tuple[str, ...] = ()
    variations: dict = field(default_factory=dict)
    deriv_cap: int = 4
    shift_radius: int = 8

    def __post_init__(self):
        if self.lattice_dim < 1:
            raise ValueError("lattice dimension must be >= 1")
        dup = set(self.fields) & set(self.params)
        if dup:
            raise ValueError(f"names used both as field and parameter: {sorted(dup)}")

    def __hash__(self):
        return hash((self.fields, self.lattice_dim, self.differential, self.has_x, self.params))

    def var(self, name, *shift, deriv=0):
        """Convenience constructor for a field variable node."""
        if name not in self.fields:
            raise ExprError(f"unknown field {name!r}")
        if len(shift) != self.lattice_dim:
            raise ExprError(f"field {name!r} needs {self.lattice_dim} shift indices, got {len(shift)}")
        self.check_var(FieldVar(name, deriv, tuple(shift)))
        return Var(FieldVar(name, deriv, tuple(shift)))

    def check_var(self, fv):
        if fv.deriv and not self.differential:
            raise CapExceededError(f"{fv}: derivative index in a pure-difference problem")
        if fv.deriv < 0 or fv.deriv > self.deriv_cap:
            raise CapExceededError(f"{fv}: derivative order outside [0, {self.deriv_cap}]")
        if len(fv.shift) != self.lattice_dim:
            raise ExprError(f"{fv}: shift length != lattice dimension {self.lattice_dim}")
        if any(abs(k) > self.shift_radius for k in fv.shift):
            raise CapExceededError(f"{fv}: shift outside radius {self.shift_radius}")

    def with_variations(self, suffix="_t"):
        """Extended signature adding one variation slot field per field."""
        vmap = dict(self.variations)
        new_fields = list(self.fields)
        for f in self.fields:
            if f in vmap or f in vmap.values():
                continue
            w = f + suffix
            vmap[f] = w
            new_fields.append(w)
        return ProblemSignature(
            tuple(new_fields), self.lattice_dim, self.differential, self.has_x,
            self.params, vmap, self.deriv_cap, self.shift_radius,
        )

    @property
    def base_fields(self):
        vnames = set(self.variations.values())
        return tuple(f for f in self.fields if f not in vnames)


class Expr:
    """Base class; all nodes are immutable and hashable."""

    __slots__ = ()

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, neg(as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return quot(self, as_expr(other))

    def __rtruediv__(self, other):
        return quot(as_expr(other), self)

    def __pow__(self, n):
        return power(self, n)

    def __neg__(self):
        return neg(self)

    def __str__(self):
        return to_string(self)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Param(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class XVar(Expr):
    """The continuous independent variable x."""


@dataclass(frozen=True, slots=True)
class Alt(Expr):
    """(-1)^(n^1+...+n^m); shifting by I multiplies by (-1)^(I^1+...+I^m)."""


@dataclass(frozen=True, slots=True)
class Var(Expr):
    fv: FieldVar


@dataclass(frozen=True, slots=True)
class Sum(Expr):
    terms: tuple


@dataclass(frozen=True, slots=True)
class Prod(Expr):
    factors: tuple


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, slots=True)
class Quot(Expr):
    num: Expr
    den: Expr


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class LnAbs(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Sqrt(Expr):
    arg: Expr


ZERO = Const(0)
ONE = Const(1)


def as_expr(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float)):
        return Const(v)
    raise TypeError(f"cannot coerce {v!r} to Expr")


def _is_zero(e):
    return isinstance(e, Const) and e.value == 0


def _is_one(e):
    return isinstance(e, Const) and e.value == 1


def add(*terms):
    flat = []
    const = 0
    for t in terms:
        t = as_expr(t)
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    out = []
    for t in flat:
        if isinstance(t, Const):
            const += t.value
        else:
            out.append(t)
    if const != 0 or not out:
        out.append(Const(const))
    if len(out) == 1:
        return out[0]
    return Sum(tuple(out))


def mul(*factors):
    flat = []
    const = 1
    for f in factors:
        f = as_expr(f)
        if isinstance(f, Prod):
            flat.extend(f.factors)
        else:
            flat.append(f)
    out = []
    for f in flat:
        if isinstance(f, Const):
            const *= f.value
        else:
            out.append(f)
    if const == 0:
        return ZERO
    if not out:
        return Const(const)
    if const == -1:
        return neg(out[0] if len(out) == 1 else Prod(tuple(out)))
    if const != 1:
        out.insert(0, Const(const))
    if len(out) == 1:
        return out[0]
    return Prod(tuple(out))


def neg(e):
    e = as_expr(e)
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


def quot(num, den):
    num, den = as_expr(num), as_expr(den)
    if isinstance(den, Const) and den.value == 0:
        raise SingularEvaluationError("constant division by zero", den)
    if _is_zero(num):
        return ZERO
    if _is_one(den):
        return num
    if isinstance(num, Const) and isinstance(den, Const):
        return Const(num.value / den.value)
    return Quot(num, den)


def power(base, n):
    base = as_expr(base)
    if not isinstance(n, int):
        raise ExprError("exponent must be an integer (use sqrt for half-integer powers)")
    if n == 0:
        return ONE
    if n == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** n)
    return Pow(base, n)


def sqrt(e):
    e = as_expr(e)
    if isinstance(e, Const) and e.value >= 0:
        return Const(math.sqrt(e.value))
    return Sqrt(e)


def ln_abs(e):
    return LnAbs(as_expr(e))


def fieldvars(e):
    """The set of FieldVars reachable in ``e``."""
    out = set()
    seen = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Var):
            out.add(node.fv)
        elif isinstance(node, Sum):
            stack.extend(node.terms)
        elif isinstance(node, Prod):
            stack.extend(node.factors)
        elif isinstance(node, (Pow, Neg, LnAbs, Sqrt)):
            stack.append(node.base if isinstance(node, Pow) else node.arg)
        elif isinstance(node, Quot):
            stack.append(node.num)
            stack.append(node.den)
    return out


@dataclass
class Assignment:
    """A point of the prolongation space: values for every variable in play.

    ``alt`` is the value of (-1)^(n^1+...+n^m) at the lattice base point; it
    defaults to the parity of ``base``.  Every value may also be an array
    with one entry per point (see :func:`stack`).
    """

    values: dict
    x: float = 0.0
    params: dict = field(default_factory=dict)
    base: tuple = (0,)
    alt: object = None

    def __post_init__(self):
        if self.alt is None:
            self.alt = -1.0 if sum(self.base) % 2 else 1.0


def stack(points):
    """One Assignment holding a non-empty point list as arrays, one entry per point.

    Evaluating an expression once at the result gives its value at every
    point, with the same IEEE arithmetic as evaluating point by point.
    """
    first = points[0]
    return Assignment(
        {fv: np.array([p.values[fv] for p in points]) for fv in first.values},
        x=np.array([p.x for p in points]),
        params={k: np.array([p.params[k] for p in points]) for k in first.params},
        base=tuple(np.array(col) for col in zip(*(p.base for p in points))),
        alt=np.array([p.alt for p in points]))


def evaluate(e, a):
    """Evaluate ``e`` at the assignment ``a`` (IEEE double arithmetic).

    Values in ``a`` may be scalars or numpy arrays (all of one shape), so the
    same walker serves pointwise checks and whole-lattice evaluation.  Shared
    subtrees are evaluated once (expressions form DAGs after substitution).
    A power that overflows from a finite base raises
    :class:`SingularEvaluationError`; any other overflow gives inf quietly.
    """
    memo = {}
    checked = False

    def rec(node):
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Const):
            v = node.value
        elif isinstance(node, Param):
            try:
                v = a.params[node.name]
            except KeyError:
                raise MissingVariableError(f"parameter {node.name!r} has no value")
        elif isinstance(node, XVar):
            v = a.x
        elif isinstance(node, Alt):
            v = a.alt
        elif isinstance(node, Var):
            try:
                v = a.values[node.fv]
            except KeyError:
                raise MissingVariableError(f"variable {node.fv} has no value")
        elif isinstance(node, Sum):
            v = rec(node.terms[0])
            for t in node.terms[1:]:
                v = v + rec(t)
        elif isinstance(node, Prod):
            v = rec(node.factors[0])
            for f in node.factors[1:]:
                v = v * rec(f)
        elif isinstance(node, Pow):
            base = rec(node.base)
            if node.exponent < 0 and np.any(base == 0):
                raise SingularEvaluationError("zero base with negative exponent",
                                              node.base)
            # np.power for scalars too: Python's float ** n rounds differently
            # in the last bit and raises OverflowError where arrays give inf
            v = np.power(base, float(node.exponent))
            if checked and (np.isfinite(base) & ~np.isfinite(v)).any():
                raise SingularEvaluationError(
                    f"non-finite value of {to_string(node)}", node)
        elif isinstance(node, Quot):
            den = rec(node.den)
            if np.any(den == 0):
                raise SingularEvaluationError("division by zero", node.den)
            v = rec(node.num) / den
        elif isinstance(node, Neg):
            v = -rec(node.arg)
        elif isinstance(node, LnAbs):
            arg = rec(node.arg)
            if np.any(arg == 0):
                raise SingularEvaluationError("ln of zero", node.arg)
            v = np.log(np.abs(arg))
        elif isinstance(node, Sqrt):
            arg = rec(node.arg)
            if np.any(arg < 0):
                raise SingularEvaluationError("sqrt of a negative value", node.arg)
            v = np.sqrt(arg)
        else:
            raise ExprError(f"unknown node {node!r}")
        memo[key] = v
        return v

    # Overflow is rare, so the first pass only watches for it.  The second
    # pass lets inf through quietly, as Python float arithmetic does, except
    # where a Pow overflows from a finite base; callers fail on inf and NaN.
    try:
        return _raising_overflow(rec, e)
    except FloatingPointError:
        memo.clear()
        checked = True
        return _quiet_overflow(rec, e)


# Decorators, so that each error state is built once rather than per call.
@np.errstate(over="raise", invalid="ignore")
def _raising_overflow(fn, arg):
    return fn(arg)


@np.errstate(over="ignore", invalid="ignore")
def _quiet_overflow(fn, arg):
    return fn(arg)


def _map_nodes(e, fn):
    """Rebuild ``e`` bottom-up through ``fn`` with DAG-preserving memoization.

    ``fn(node, rec)`` returns a replacement Expr or None to fall through to
    structural recursion.
    """
    memo = {}

    def rec(node):
        key = id(node)
        if key in memo:
            return memo[key]
        out = fn(node, rec)
        if out is None:
            if isinstance(node, Sum):
                out = add(*[rec(t) for t in node.terms])
            elif isinstance(node, Prod):
                out = mul(*[rec(f) for f in node.factors])
            elif isinstance(node, Pow):
                out = power(rec(node.base), node.exponent)
            elif isinstance(node, Quot):
                out = quot(rec(node.num), rec(node.den))
            elif isinstance(node, Neg):
                out = neg(rec(node.arg))
            elif isinstance(node, LnAbs):
                out = ln_abs(rec(node.arg))
            elif isinstance(node, Sqrt):
                out = sqrt(rec(node.arg))
            else:
                out = node
        memo[key] = out
        return out

    return rec(e)


def partial(e, fv):
    """Exact partial derivative of ``e`` with respect to the coordinate ``fv``."""
    memo = {}

    def rec(node):
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Var):
            out = ONE if node.fv == fv else ZERO
        elif isinstance(node, (Const, Param, XVar, Alt)):
            out = ZERO
        elif isinstance(node, Sum):
            out = add(*[rec(t) for t in node.terms])
        elif isinstance(node, Prod):
            parts = []
            for i, f in enumerate(node.factors):
                df = rec(f)
                if _is_zero(df):
                    continue
                rest = node.factors[:i] + node.factors[i + 1:]
                parts.append(mul(df, *rest))
            out = add(*parts) if parts else ZERO
        elif isinstance(node, Pow):
            db = rec(node.base)
            out = ZERO if _is_zero(db) else mul(node.exponent, power(node.base, node.exponent - 1), db)
        elif isinstance(node, Quot):
            dn, dd = rec(node.num), rec(node.den)
            if _is_zero(dd):
                out = quot(dn, node.den)
            else:
                out = quot(add(mul(dn, node.den), neg(mul(node.num, dd))), power(node.den, 2))
        elif isinstance(node, Neg):
            out = neg(rec(node.arg))
        elif isinstance(node, LnAbs):
            da = rec(node.arg)
            out = ZERO if _is_zero(da) else quot(da, node.arg)
        elif isinstance(node, Sqrt):
            da = rec(node.arg)
            out = ZERO if _is_zero(da) else quot(da, mul(2, node))
        else:
            raise ExprError(f"unknown node {node!r}")
        memo[key] = out
        return out

    return rec(e)


def shift(e, offset, sig):
    """Apply the shift operator S_I: K -> K + I on every field variable.

    ``x`` is unchanged; ``alt`` picks up (-1)^(I^1+...+I^m).
    """
    offset = tuple(offset)
    if len(offset) != sig.lattice_dim:
        raise ExprError(f"shift offset length {len(offset)} != lattice dimension {sig.lattice_dim}")
    if all(o == 0 for o in offset):
        return e
    flip = sum(offset) % 2

    def fn(node, rec):
        if isinstance(node, Var):
            fv = node.fv.shifted(offset)
            sig.check_var(fv)
            return Var(fv)
        if isinstance(node, Alt):
            return neg(node) if flip else node
        return None

    return _map_nodes(e, fn)


def _derivation(e, leaf_rule):
    """Generic derivation: linear over sums, Leibniz over products."""
    memo = {}

    def rec(node):
        key = id(node)
        if key in memo:
            return memo[key]
        out = leaf_rule(node)
        if out is None:
            if isinstance(node, Sum):
                out = add(*[rec(t) for t in node.terms])
            elif isinstance(node, Prod):
                parts = []
                for i, f in enumerate(node.factors):
                    df = rec(f)
                    if _is_zero(df):
                        continue
                    rest = node.factors[:i] + node.factors[i + 1:]
                    parts.append(mul(df, *rest))
                out = add(*parts) if parts else ZERO
            elif isinstance(node, Pow):
                db = rec(node.base)
                out = ZERO if _is_zero(db) else mul(node.exponent, power(node.base, node.exponent - 1), db)
            elif isinstance(node, Quot):
                dn, dd = rec(node.num), rec(node.den)
                if _is_zero(dd):
                    out = quot(dn, node.den)
                else:
                    out = quot(add(mul(dn, node.den), neg(mul(node.num, dd))), power(node.den, 2))
            elif isinstance(node, Neg):
                out = neg(rec(node.arg))
            elif isinstance(node, LnAbs):
                da = rec(node.arg)
                out = ZERO if _is_zero(da) else quot(da, node.arg)
            elif isinstance(node, Sqrt):
                da = rec(node.arg)
                out = ZERO if _is_zero(da) else quot(da, mul(2, node))
            else:
                raise ExprError(f"unknown node {node!r}")
        memo[key] = out
        return out

    return rec(e)


def total_derivative(e, sig):
    """Total derivative D: x -> 1, u^alpha_{j;K} -> u^alpha_{j+1;K}."""
    if not sig.differential:
        raise ExprError("total derivative on a pure-difference problem")

    def leaf(node):
        if isinstance(node, Var):
            fv = FieldVar(node.fv.name, node.fv.deriv + 1, node.fv.shift)
            sig.check_var(fv)
            return Var(fv)
        if isinstance(node, XVar):
            return ONE
        if isinstance(node, (Const, Param, Alt)):
            return ZERO
        return None

    return _derivation(e, leaf)


def t_derivative(e, sig):
    """Derivative along the auxiliary parameter t: u^alpha_{j;K} -> slot_{j;K}.

    Each field must have a registered variation slot in the signature; the
    slot fields themselves are never differentiated with respect to t.
    """

    def leaf(node):
        if isinstance(node, Var):
            name = node.fv.name
            if name not in sig.variations:
                raise ExprError(f"field {name!r} has no variation slot (t-derivative undefined)")
            return Var(FieldVar(sig.variations[name], node.fv.deriv, node.fv.shift))
        if isinstance(node, (Const, Param, XVar, Alt)):
            return ZERO
        return None

    return _derivation(e, leaf)


def substitute(e, rules, x_repl=None, param_rules=None):
    """Simultaneous substitution of field variables (and optionally x, params)."""
    if not rules and x_repl is None and not param_rules:
        return e

    def fn(node, rec):
        if isinstance(node, Var):
            return rules.get(node.fv)
        if x_repl is not None and isinstance(node, XVar):
            return x_repl
        if param_rules and isinstance(node, Param):
            return param_rules.get(node.name)
        return None

    return _map_nodes(e, fn)


# --- printing -------------------------------------------------------------

_PREC_SUM = 1
_PREC_PROD = 2
_PREC_NEG = 2
_PREC_POW = 3
_PREC_ATOM = 4


def _fmt_number(v):
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer() and abs(v) < 1e15):
        return str(int(v))
    return repr(float(v))


def to_string(e):
    """Render an expression in the input grammar (parse . to_string is identity-preserving)."""

    def rec(node, ctx):
        if isinstance(node, Const):
            s = _fmt_number(node.value)
            return f"({s})" if node.value < 0 and ctx > _PREC_SUM else s
        if isinstance(node, Param):
            return node.name
        if isinstance(node, XVar):
            return "x"
        if isinstance(node, Alt):
            return "alt"
        if isinstance(node, Var):
            return str(node.fv)
        if isinstance(node, Sum):
            parts = [rec(node.terms[0], _PREC_SUM)]
            for t in node.terms[1:]:
                if isinstance(t, Neg):
                    parts.append(" - " + rec(t.arg, _PREC_PROD))
                elif isinstance(t, Const) and t.value < 0:
                    parts.append(" - " + _fmt_number(-t.value))
                else:
                    parts.append(" + " + rec(t, _PREC_SUM))
            s = "".join(parts)
            return f"({s})" if ctx > _PREC_SUM else s
        if isinstance(node, Prod):
            s = "*".join(rec(f, _PREC_PROD + 1) for f in node.factors)
            return f"({s})" if ctx > _PREC_PROD else s
        if isinstance(node, Quot):
            s = rec(node.num, _PREC_PROD + 1) + "/" + rec(node.den, _PREC_PROD + 1)
            return f"({s})" if ctx > _PREC_PROD else s
        if isinstance(node, Neg):
            s = "-" + rec(node.arg, _PREC_POW)
            return f"({s})" if ctx > _PREC_NEG else s
        if isinstance(node, Pow):
            b = rec(node.base, _PREC_ATOM)
            n = node.exponent if node.exponent >= 0 else f"({node.exponent})"
            return f"{b}^{n}"
        if isinstance(node, LnAbs):
            return f"ln({rec(node.arg, _PREC_SUM)})"
        if isinstance(node, Sqrt):
            return f"sqrt({rec(node.arg, _PREC_SUM)})"
        raise ExprError(f"unknown node {node!r}")

    return rec(e, _PREC_SUM)
