import collections
import contextlib
import dataclasses
import gc
import io
import math
import sys
import weakref

import numpy as np
import pytest

import oracles
from lattice_frames import cli, expr, noether, suites
from lattice_frames.actions import transform
from lattice_frames.catalog import EXAMPLES
from lattice_frames.expr import (
    Assignment,
    CapExceededError,
    Const,
    ExprError,
    FieldVar,
    MissingVariableError,
    Param,
    ProblemSignature,
    SingularEvaluationError,
    Var,
    XVar,
    add,
    evaluate,
    fieldvars,
    ln_abs,
    mul,
    partial,
    power,
    shift,
    sqrt,
    substitute,
    t_derivative,
    to_string,
    total_derivative,
)
from lattice_frames.parser import ParseError, parse
from lattice_frames.sampling import SamplePlan, residual_stats


def fv(name, *K, d=0):
    return FieldVar(name, d, tuple(K))


def V(name, *K, d=0):
    return Var(fv(name, *K, d=d))


SIG2 = ProblemSignature(("u",), 2)
SIGD = ProblemSignature(("u", "v"), 1, differential=True, has_x=True, params=("h",))


class TestParse:
    def test_toda_lagrangian(self, toda, toda_plan):
        e = parse("ln(abs((u[1,0]-u[0,1])/(u[1,1]-u[0,0])))", toda.sig)
        res = residual_stats(e, toda.L, toda_plan.assignments([e, toda.L], toda.sig))
        assert res <= 1e-12

    def test_single_atom(self):
        e = parse("u[0,0]", SIG2)
        assert e == V("u", 0, 0)

    def test_ex81_lagrangian(self, ex81, ex81_plan):
        e = parse("(d1 u[;0])^2 / (u[;1]-u[;0])", ex81.sig)
        res = residual_stats(e, ex81.L, ex81_plan.assignments([e, ex81.L], ex81.sig))
        assert res <= 1e-12

    def test_syntax_error_position(self):
        with pytest.raises(ParseError):
            parse("u[0,0] + * 2", SIG2)

    def test_unknown_field(self):
        with pytest.raises(ParseError):
            parse("w[0,0]", SIG2)

    def test_index_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse("u[0]", SIG2)

    def test_alt_and_params(self):
        e = parse("alt*h + u[1;0]", SIGD)
        a = Assignment({fv("u", 0, d=1): 2.0}, params={"h": 3.0}, base=(1,))
        assert evaluate(e, a) == -3.0 + 2.0

    def test_integer_exponents_only(self):
        with pytest.raises(ParseError):
            parse("u[0,0]^u[0,0]", SIG2)


class TestRoundTrip:
    def test_catalog_expressions(self, toda, ex81, nls):
        cases = [(toda, [toda.L, toda.invset.kappa_defs["kappa"]]),
                 (ex81, [ex81.L, ex81.invset.kappa_defs["k2"]]),
                 (nls, [nls.L] + list(nls.invset.kappa_defs.values()))]
        for b, exprs in cases:
            plan = b.plan(n_points=50)
            for e in exprs:
                back = parse(to_string(e), b.sig)
                assert back is e
                for a in plan.assignments([e], b.sig):
                    lv, rv = evaluate(e, a), evaluate(back, a)
                    assert abs(lv - rv) <= 1e-12 * (1 + abs(lv))

    @pytest.mark.parametrize("inner, outer", [(2, 3), (-2, 3), (2, -3), (-1, -2)])
    def test_power_of_a_power(self, inner, outer):
        u = V("u", 0, 0)
        e = power(power(u, inner), outer)
        for tree in (e, mul(3, e, V("u", 1, 0)), -e, power(add(u, power(e, 2)), 2)):
            assert parse(to_string(tree), SIG2) is tree
        assert to_string(e).startswith(f"(u[0,0]^{inner if inner > 0 else f'({inner})'})^")

    def test_substituted_power(self):
        u = V("u", 0, 0)
        e = substitute(power(u, 3), {u.fv: power(u, 2)})
        assert to_string(e) == "(u[0,0]^2)^3"
        assert parse(to_string(e), SIG2) is e


class TestEvaluate:
    def test_toda_point(self, toda):
        a = Assignment({fv("u", 0, 0): 0, fv("u", 1, 0): 1,
                        fv("u", 0, 1): 2, fv("u", 1, 1): 4})
        assert evaluate(toda.L, a) == pytest.approx(math.log(0.25), abs=1e-12)

    def test_constant(self):
        assert evaluate(Const(5), Assignment({})) == 5

    def test_nls_kappa1(self, nls):
        a = Assignment({fv("u", 0): 3.0, fv("v", 0): 4.0})
        assert evaluate(nls.invset.kappa_defs["k1"], a) == pytest.approx(5.0)

    def test_missing_variable(self):
        with pytest.raises(MissingVariableError):
            evaluate(V("u", 0, 0), Assignment({}))

    def test_singular(self):
        e = Const(1) / V("u", 0, 0)
        with pytest.raises(SingularEvaluationError) as err:
            evaluate(e, Assignment({fv("u", 0, 0): 0.0}))
        assert err.value.subexpr is not None

    def test_ln_abs(self):
        e = parse("ln(u[0,0])", SIG2)
        a = Assignment({fv("u", 0, 0): -2.0})
        assert evaluate(e, a) == pytest.approx(math.log(2.0))

    def test_negative_power_of_zero(self):
        e = parse("u[0,0]^(-2)", SIG2)
        with pytest.raises(SingularEvaluationError):
            evaluate(e, Assignment({fv("u", 0, 0): 0.0}))


class TestPartial:
    def test_product_atom(self):
        e = V("u", 0, 0) * V("u", 1, 0)
        assert partial(e, fv("u", 1, 0)) == V("u", 0, 0)

    def test_toda_piece(self, toda, toda_plan):
        d = partial(toda.L, fv("u", 1, 1))
        want = parse("-1/(u[1,1]-u[0,0])", toda.sig)
        res = residual_stats(d, want, toda_plan.assignments([d, want], toda.sig))
        assert res <= 1e-12

    def test_constant_is_zero(self):
        assert partial(Const(3), fv("u", 0, 0)) == Const(0)

    def test_finite_difference_consistency(self, toda, nls):
        rng = np.random.default_rng(42)
        for b in (toda, nls):
            plan = b.plan(n_points=10, seed=5)
            for target in fieldvars(b.L):
                d = partial(b.L, target)
                for a in plan.assignments([b.L, d], b.sig):
                    step = 1e-5
                    up = dict(a.values)
                    dn = dict(a.values)
                    up[target] = a.values[target] + step
                    dn[target] = a.values[target] - step
                    fd = (evaluate(b.L, Assignment(up, a.x, a.params, a.base))
                          - evaluate(b.L, Assignment(dn, a.x, a.params, a.base))) / (2 * step)
                    exact = evaluate(d, a)
                    assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


class TestShift:
    def test_unit(self):
        assert shift(V("u", 0, 0), (1, 0), SIG2) == V("u", 1, 0)

    def test_lambda_shift(self, toda, toda_plan):
        lam = toda.invset.kappa_defs["lambda"]
        got = shift(lam, (1, 0), toda.sig)
        want = parse("(u[1,1]-u[1,0])/(u[2,1]-u[1,0])", toda.sig)
        res = residual_stats(got, want, toda_plan.assignments([got, want], toda.sig))
        assert res <= 1e-12

    def test_composition(self, toda):
        plan = toda.plan(n_points=20, seed=9)
        e = toda.L
        lhs = shift(shift(e, (1, 0), toda.sig), (0, 1), toda.sig)
        rhs = shift(e, (1, 1), toda.sig)
        assert residual_stats(lhs, rhs, plan.assignments([lhs, rhs], toda.sig)) <= 1e-12

    def test_alt_flip(self):
        e = parse("alt", SIG2)
        assert to_string(shift(e, (1, 0), SIG2)) == "-alt"
        assert shift(e, (1, 1), SIG2) == e

    def test_radius_cap(self):
        small = ProblemSignature(("u",), 2, shift_radius=2)
        with pytest.raises(CapExceededError):
            shift(V("u", 2, 0), (1, 0), small)


class TestTotalDerivative:
    def test_x(self):
        from lattice_frames.expr import XVar
        assert total_derivative(XVar(), SIGD) == Const(1)

    def test_jet_coordinate(self):
        assert total_derivative(V("u", 0), SIGD) == V("u", 0, d=1)

    def test_commutes_with_shift(self, nls):
        plan = nls.plan(n_points=20, seed=3)
        e = nls.L
        lhs = total_derivative(shift(e, (1,), nls.sig), nls.sig)
        rhs = shift(total_derivative(e, nls.sig), (1,), nls.sig)
        assert residual_stats(lhs, rhs, plan.assignments([lhs, rhs], nls.sig)) <= 1e-12

    def test_product_rule(self, nls):
        plan = nls.plan(n_points=20, seed=4)
        f = V("u", 0, d=1) + V("v", 1)
        g = nls.L
        lhs = total_derivative(f * g, nls.sig)
        rhs = total_derivative(f, nls.sig) * g + f * total_derivative(g, nls.sig)
        assert residual_stats(lhs, rhs, plan.assignments([lhs, rhs], nls.sig)) <= 1e-12

    def test_deriv_cap(self):
        small = ProblemSignature(("u",), 1, differential=True, has_x=True, deriv_cap=1)
        with pytest.raises(CapExceededError):
            total_derivative(Var(FieldVar("u", 1, (0,))), small)

    def test_pure_difference_rejects(self):
        from lattice_frames.expr import ExprError
        with pytest.raises(ExprError):
            total_derivative(V("u", 0, 0), SIG2)


class TestTDerivative:
    def test_maps_to_slots(self, toda):
        d = t_derivative(V("u", 1, 0), toda.sig)
        assert d == V("u_t", 1, 0)

    def test_linearity_over_sums(self, toda):
        plan = toda.plan(n_points=15, seed=8)
        f = toda.invset.kappa_defs["kappa"]
        g = toda.invset.kappa_defs["lambda"]
        lhs = t_derivative(f + g, toda.sig)
        rhs = t_derivative(f, toda.sig) + t_derivative(g, toda.sig)
        assert residual_stats(lhs, rhs, plan.assignments([lhs, rhs], toda.sig)) <= 1e-12

    def test_declared_slots(self):
        sig = ProblemSignature(("u", "u_t"), 1, variations={"u": "u_t"})
        assert sig.base_fields == ("u",)

    @pytest.mark.parametrize("variations", [{"u": "u_t"}, {"w": "u"}, {"u": "h"}],
                             ids=["slot", "field", "param"])
    def test_undeclared_slot_raises(self, variations):
        # every name of a variation pair must be a field of the signature
        with pytest.raises(ValueError, match="variation names not among the fields"):
            ProblemSignature(("u",), 1, params=("h",), variations=variations)

    @pytest.mark.parametrize("name", ["x", "alt", "ln", "abs", "sqrt"])
    @pytest.mark.parametrize("kind", ["field", "param"])
    def test_grammar_names_are_reserved(self, name, kind):
        # the parser reads these names as x, alt or a function, never as a field or parameter
        fields, params = ((name,), ()) if kind == "field" else (("u",), (name,))
        with pytest.raises(ValueError, match=rf"^names reserved by the expression grammar: "
                                             rf"\['{name}'\]$"):
            ProblemSignature(fields, 1, params=params)


class TestSubstitute:
    def test_kappa_inversion(self, toda, toda_plan):
        # u10 = kappa (u11 - u00) + u00 collapses to u10 when kappa is expanded
        kappa = toda.invset.kappa_defs["kappa"]
        e = kappa * (V("u", 1, 1) - V("u", 0, 0)) + V("u", 0, 0)
        res = residual_stats(e, V("u", 1, 0),
                             toda_plan.assignments([e, V("u", 1, 0)], toda.sig))
        assert res <= 1e-12

    def test_empty_rules(self, toda):
        assert substitute(toda.L, {}) is toda.L

    def test_cross_section(self, toda, toda_plan):
        kappa = toda.invset.kappa_defs["kappa"]
        on_section = substitute(kappa, {fv("u", 0, 0): Const(0), fv("u", 1, 1): Const(1)})
        res = residual_stats(on_section, V("u", 1, 0),
                             toda_plan.assignments([on_section], toda.sig))
        assert res <= 1e-12

    def test_simultaneous_not_sequential(self):
        e = V("u", 0, 0) + V("u", 1, 0)
        out = substitute(e, {fv("u", 0, 0): V("u", 1, 0), fv("u", 1, 0): V("u", 0, 0)})
        assert out == V("u", 1, 0) + V("u", 0, 0)


class TestConcurrencySurface:
    def test_nodes_hashable_and_frozen(self):
        e = V("u", 0, 0) + Const(1)
        with pytest.raises(Exception):
            e.terms = ()
        assert hash(e) == hash(V("u", 0, 0) + Const(1))


class TestInterning:
    def test_equal_structure_is_one_object(self):
        u0 = V("u", 0, 0)
        assert add(u0, 1) is add(u0, 1)
        e = power(add(u0, V("u", 1, 0)), 2) * V("u", 0, 1)
        moved = shift(e, (1, -1), SIG2)
        assert moved is not e and moved == shift(e, (1, -1), SIG2)
        assert shift(moved, (-1, 1), SIG2) is e

    def test_leaf_values_key_on_type_and_bit_pattern(self):
        assert Const(0.0) is not Const(-0.0)
        assert math.copysign(1.0, Const(-0.0).value) == -1.0
        assert Const(2) is not Const(2.0)
        assert type(Const(2).value) is int and type(Const(2.0).value) is float
        # the smart constructors still compare structurally
        assert Const(0.0) == expr.ZERO and Const(-0.0) == expr.ZERO

    @pytest.mark.parametrize("cls", [expr.Sum, expr.Prod], ids=lambda c: c.__name__)
    def test_nodes_but_constants_compare_and_hash_by_identity(self, cls):
        node = cls((V("u", 0, 0), V("u", 1, 0)))
        # a twin made around the intern table: the same fields, another object
        twin = object.__new__(cls)
        for name in cls.__match_args__:
            object.__setattr__(twin, name, getattr(node, name))
        assert twin != node and node == node
        assert hash(twin) == object.__hash__(twin) and hash(node) == object.__hash__(node)

    def test_nan_constant_evaluates_to_nan(self):
        assert math.isnan(evaluate(Const(math.nan), Assignment({})))
        assert math.isnan(evaluate(add(V("u", 0, 0), Const(math.nan)),
                                   Assignment({fv("u", 0, 0): 1.0})))

    def test_table_keeps_no_dropped_node(self):
        # earlier tests' cyclic garbage may hold nodes; a collection in the middle would drop them
        gc.collect()
        before = len(expr._INTERNED)
        e = add(V("u", 7, -7), Const(0.8125)) * V("u", -7, 7)
        ref = weakref.ref(e)
        assert len(expr._INTERNED) > before
        del e
        assert ref() is None
        assert len(expr._INTERNED) <= before

    def test_fields_still_frozen(self):
        e = V("u", 0, 0) + Const(1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.terms = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            Const(1.5).value = 2.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            del V("u", 0, 0).fv


def _catalog_exprs(obj, seen):
    """Every expression reachable from a catalog bundle through fields, dicts and sequences."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, expr.Expr):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _catalog_exprs(v, seen)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _catalog_exprs(v, seen)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _catalog_exprs(getattr(obj, f.name), seen)


def _builder_calls(b):
    """One call of each builder on each catalog expression of ``b``, as a thunk."""
    sig = b.sig
    m = sig.lattice_dim
    # a shifted adjoint symbol, and one also differentiated where the problem has D
    adj = mul(Var(FieldVar("adj1", 0, (1,) * m)),
              Var(FieldVar("adj2", int(sig.differential), (-1,) * m)))
    for e in _catalog_exprs(b, set()):
        for o in (1, -1):
            yield lambda e=e, o=o: shift(e, (o,) * sig.lattice_dim, sig)
        for v in sorted(fieldvars(e), key=str):
            yield lambda e=e, v=v: partial(e, v)
        if sig.differential:
            yield lambda e=e: total_derivative(e, sig)
        yield lambda e=e: t_derivative(e, sig)
        yield lambda e=e: substitute(e, {v: add(Var(v), 1) for v in fieldvars(e)},
                                     x_repl=add(XVar(), 1) if sig.has_x else None,
                                     param_rules={p: Const(2) for p in sig.params})
        yield lambda e=e: transform(e, b.action, [Param(p) for p in b.action.param_names])
        yield lambda e=e: transform(e, b.action, b.frame.param_exprs)
        if sig.differential:
            yield lambda e=e: b.frame.dcal(e, sig)
        yield lambda e=e: b.invset.expand(e)
        for r in range(b.action.group_dim):
            yield lambda e=e, r=r: noether._expand_adj(mul(e, adj), b.frame, r)
    plan = b.plan(n_points=6)
    laws = noether.noether_invariant(b)
    for law in laws:
        yield lambda law=law: _law_exprs(noether.equivariant_form(law, plan))


def _law_exprs(law):
    """The symbolic and the expanded components of a law, in one list."""
    return [c for t in (law.display, law.components) for _, c in t.named()]


def _outcome(call):
    try:
        return call()
    except ExprError as err:
        return type(err), str(err)


# evaluate() itself, for tests that patch the modules' bindings of it
_EVALUATE = evaluate


def _evaluated(e, a):
    """The value of ``evaluate(e, a)`` and its bytes, or None and the type, node and text
    of its error."""
    try:
        v = _EVALUATE(e, a)
    except ExprError as err:
        return None, (type(err), getattr(err, "subexpr", None), str(err))
    return v, np.asarray(v).tobytes()


def _count_steps(monkeypatch):
    """A counter of the node steps of every evaluate() while the test runs."""
    steps = collections.Counter()
    for rule in expr._RULES.values():
        def counted(*args, step=rule.step):
            steps["node"] += 1
            return step(*args)

        monkeypatch.setattr(rule, "step", counted)
    return steps


def _patch_modules(monkeypatch, name, replacement):
    """Bind ``name`` to ``replacement`` in every module of the package that binds expr's own."""
    original = getattr(expr, name)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("lattice_frames")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, replacement)


def _count_walks(monkeypatch):
    """A counter of the nodes each builder walks, by the name of its leaf rule's function."""
    walked = collections.Counter()
    rebuild = expr._rebuild

    def counting(e, leaf, memo, derive=False):
        builder = leaf.__qualname__.split(".")[0]

        def counted(node):
            walked[builder] += 1
            return leaf(node)

        return rebuild(e, counted, memo, derive)

    _patch_modules(monkeypatch, "_rebuild", counting)
    return walked


def _verify(name):
    """``verify <name> --suite all --seed 31337`` in this process; it must pass."""
    with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exit_:
        cli.main(["verify", name, "--suite", "all", "--seed", "31337"])
    assert exit_.value.code == 0


def _same_as_reference(call, reference):
    """``call()``, which must give the node ``reference()`` gives, or raise its error alike."""
    try:
        want = reference()
    except ExprError as err:
        want = err
    try:
        got = call()
    except ExprError as err:
        assert type(err) is type(want) and str(err) == str(want)
        raise
    assert got is want
    return got


def _probe_suite(fail):
    """A suite that builds nodes only the run's memo holds, and keeps weak references to them.

    One node is held by a builder's table; the other, and the point set it is
    evaluated on, by the evaluate table of that set.
    """
    refs = []

    def suite(b, plan, **kw):
        u = Var(FieldVar("u", 0, (0,) * b.sig.lattice_dim))
        refs.append(weakref.ref(shift(u * Param("probe"), (1,) * b.sig.lattice_dim, b.sig)))
        points = plan.assignments([u], b.sig)
        evaluate(add(u, Const(0.123456789)), points)
        refs.extend([weakref.ref(add(u, Const(0.123456789))), weakref.ref(points)])
        assert [k for k in expr._RUN.get() if k[0] == "evaluate"] == [("evaluate", id(points))]
        del points
        gc.collect()
        assert all([r() is not None for r in refs])     # held by the memo while the run lasts
        if fail:
            raise RuntimeError("probe")

    return suite, refs


class TestRunMemo:
    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_every_builder_hands_back_what_it_builds_without_the_memo(self, name):
        calls = list(_builder_calls(EXAMPLES[name]))
        with expr.run_memo():
            memoized = [_outcome(c) for c in calls]
            repeated = [_outcome(c) for c in calls]
            kinds = {key[0] for key in expr._RUN.get()}
        assert expr._RUN.get() is None
        fresh = [_outcome(c) for c in calls]
        for m, r, f in zip(memoized, repeated, fresh, strict=True):
            if isinstance(f, expr.Expr):
                assert m is f and r is f
            elif isinstance(f, list):
                assert all([a is c and b is c for a, b, c in zip(m, r, f, strict=True)])
            else:
                assert m == r == f
        assert {"shift", "partial", "t", "substitute", "transform", "expand", "adj",
                "equivariant"} <= kinds

    def test_a_field_transform_cannot_map_raises_alike_in_a_run(self, toda):
        good = toda.L
        u = Var(FieldVar("nomap", 0, (0,)))
        g = [Param(p) for p in toda.action.param_names]
        fresh = transform(good, toda.action, g)
        with expr.run_memo():
            for bad in (mul(good, u), mul(u, good)):
                with pytest.raises(ExprError, match="no map for field 'nomap'"):
                    transform(bad, toda.action, g)
            assert transform(good, toda.action, g) is fresh
        with pytest.raises(ExprError, match="no map for field 'nomap'"):
            transform(mul(good, u), toda.action, g)

    def test_a_rules_dict_changed_after_a_call_is_read_afresh(self):
        e = power(add(V("u", 0, 0), V("u", 1, 0)), 2) * Param("h")
        before, after = V("u", 2, 0), V("u", 3, 0)
        rules, params = {fv("u", 0, 0): before}, {"h": Const(2)}
        with expr.run_memo():
            first = substitute(e, rules, param_rules=params)
            rules[fv("u", 0, 0)] = after
            params["h"] = Const(3)
            second = substitute(e, rules, param_rules=params)
        assert first is substitute(e, {fv("u", 0, 0): before}, param_rules={"h": Const(2)})
        assert second is substitute(e, {fv("u", 0, 0): after}, param_rules={"h": Const(3)})
        assert second is not first

    def test_substitute_and_transform_walk_few_nodes_per_run(self, monkeypatch):
        # nodes walked per verify toda --suite all --seed 31337: substitute and
        # transform 3,346 with a table per call; with the run's tables, and the
        # field maps of _substitute_fields counted too, 1,163
        walked = _count_walks(monkeypatch)
        _verify("toda")
        maps = ("substitute", "transform", "_substitute_fields")
        assert all([walked[b] > 0 for b in maps])
        assert sum([walked[b] for b in maps]) <= 1600

    def test_nested_entry_reuses_the_outer_memo(self, monkeypatch):
        checked = []
        check_var = ProblemSignature.check_var
        monkeypatch.setattr(ProblemSignature, "check_var",
                            lambda sig, v: checked.append(v) or check_var(sig, v))
        e = power(add(V("u", 0, 0), V("u", 1, 0)), 2) * V("u", 0, 1)
        assert expr._RUN.get() is None
        with expr.run_memo():
            tables = expr._RUN.get()
            with expr.run_memo():
                assert expr._RUN.get() is tables
                moved = shift(e, (1, -1), SIG2)
            n = len(checked)
            assert n == 3 and tables
            assert shift(e, (1, -1), SIG2) is moved and len(checked) == n
        assert expr._RUN.get() is None
        # outside a run every call builds afresh
        assert shift(e, (1, -1), SIG2) is moved and len(checked) == 2 * n

    @pytest.mark.parametrize("fail", [False, True])
    def test_run_suite_keeps_no_node_after_the_run(self, monkeypatch, toda, toda_plan, fail):
        suite, refs = _probe_suite(fail)
        monkeypatch.setitem(suites.SUITES, "syzygy", suite)
        with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
            assert suites.run_suite(toda, "syzygy", toda_plan) == []
        gc.collect()
        assert expr._RUN.get() is None
        assert len(refs) == 3 and all([r() is None for r in refs])

    def test_two_cli_runs_print_the_same_bytes(self):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
                cli.main(["verify", "ex81", "--suite", "all", "--json", "--seed", "7"])
            assert expr._RUN.get() is None
            return exit_.value.code, out.getvalue()

        first = run()
        assert first[1] and first == run()

    @pytest.mark.parametrize("name", sorted(EXAMPLES))
    def test_a_shared_table_gives_the_bytes_of_a_new_one(self, name, monkeypatch):
        held, differ = [], []

        def checking(e, a):
            if a.held:
                v, got = _evaluated(e, a)
                # the same points in a set the run does not hold: a table of its own
                _, fresh = _evaluated(e, dataclasses.replace(a))
                held.append(a)
                if got != fresh:
                    differ.append(to_string(e))
                if v is not None:
                    return v
            return _EVALUATE(e, a)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("lattice_frames")
                    and getattr(module, "evaluate", None) is _EVALUATE):
                monkeypatch.setattr(module, "evaluate", checking)
        b = EXAMPLES[name]
        reports = suites.run_suite(b, "all", b.plan(seed=31337))
        assert reports and all([r.passed for r in reports])
        assert held and differ == []

    @pytest.mark.parametrize("name, bound", [("toda", 2000), ("ex81", 1300)])
    def test_each_node_is_evaluated_once_per_point_set_per_run(self, name, bound, monkeypatch):
        # node steps per verify <ex> --suite all --seed 31337, toda/ex81: 5,559/2,780
        # with a table per call; with one table per point set for the run, 1,825/1,140
        steps = _count_steps(monkeypatch)
        with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exit_:
            cli.main(["verify", name, "--suite", "all", "--seed", "31337"])
        assert exit_.value.code == 0
        assert 0 < steps["node"] <= bound

    def test_a_singular_node_raises_again_in_a_later_call(self):
        u, w = V("u", 0, 0), V("u", 1, 0)
        zero = add(u, mul(-1, u))
        singular = expr.quot(1, zero)
        with expr.run_memo():
            points = SamplePlan(n_points=8, seed=5).assignments([u, w], SIG2)
            assert points.held
            outcomes = [_evaluated(e, points)[1]
                        for e in (singular, add(w, mul(singular, 2)), singular, zero)]
            table = expr._RUN.get()[("evaluate", id(points))][0]
            assert id(zero) in table and id(singular) not in table
        fresh = dataclasses.replace(points)
        assert outcomes == [_evaluated(e, fresh)[1]
                            for e in (singular, add(w, mul(singular, 2)), singular, zero)]
        for error in outcomes[:3]:
            assert error[0] is SingularEvaluationError and error[1] is zero

    def test_an_overflow_leaves_the_values_and_errors_of_a_new_table(self, monkeypatch):
        u, w = V("u", 0, 0), V("u", 1, 0)
        big = mul(1e200, u)
        huge = expr.Prod((big, big))     # a product that overflows: inf, quietly
        exprs = [huge, add(huge, w), power(big, 2), power(huge, 2), add(huge, power(big, 2)),
                 mul(big, w), huge]
        quiet, quiet_overflow = [], expr._quiet_overflow
        monkeypatch.setattr(expr, "_quiet_overflow",
                            lambda *args: quiet.append(1) or quiet_overflow(*args))
        with expr.run_memo():
            points = SamplePlan(n_points=8, seed=5).assignments([u, w], SIG2)
            outcomes = [_evaluated(e, points)[1] for e in exprs]
        assert quiet   # every call computes in the quiet error state
        fresh = dataclasses.replace(points)
        assert outcomes == [_evaluated(e, fresh)[1] for e in exprs]
        assert outcomes[2][0] is SingularEvaluationError and outcomes[2][1] is power(big, 2)
        assert outcomes[4] == outcomes[2]
        assert np.isinf(np.frombuffer(outcomes[0])).all()

    def test_a_derived_point_set_reads_its_own_parameters(self, nls):
        u = Var(FieldVar("u", 0, (0,)))
        e, moved = mul(Param("h"), u), mul(Param("a"), Param("h"), u)
        rng = np.random.default_rng(3)
        with expr.run_memo():
            points = nls.plan(n_points=8).assignments([e], nls.sig)
            base = evaluate(e, points)
            scaled = dataclasses.replace(points, params={"h": 2 * points.params["h"]})
            at = [nls.action.at_elements(points, [nls.action.random_element(rng)])[1]
                  for _ in range(2)]
            got = [evaluate(e, scaled), evaluate(moved, at[0]), evaluate(moved, at[1])]
            assert evaluate(e, points) is base
            assert [k for k in expr._RUN.get() if k[0] == "evaluate"] == [
                ("evaluate", id(points))]
        assert not any([scaled.held, *[a.held for a in at]])
        want = [evaluate(e, Assignment(dict(points.values), params=dict(scaled.params))),
                *[evaluate(moved, Assignment(dict(a.values), params=dict(a.params))) for a in at]]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert got[0].tobytes() != base.tobytes() and got[1].tobytes() != got[2].tobytes()

    def test_outside_a_run_nothing_is_shared(self, toda, monkeypatch):
        steps = _count_steps(monkeypatch)
        drawn = toda.plan(n_points=8).assignments([toda.L], toda.sig)
        with expr.run_memo():
            held = toda.plan(n_points=8).assignments([toda.L], toda.sig)
        assert not drawn.held and held.held
        for points in (drawn, held):    # a held set outlives its run, but not its table
            counts = []
            for _ in range(2):
                before = steps["node"]
                evaluate(toda.L, points)
                counts.append(steps["node"] - before)
            assert counts[0] == counts[1] > 0
        assert expr._RUN.get() is None


# a signature the deep field u[1;2] of _deep_tree breaks for three builders: shift radius 2,
# derivative cap 1, and no variation slot
DEEP_SIG = ProblemSignature(("u",), 1, differential=True, params=("a",), deriv_cap=1,
                            shift_radius=2)


def _deep_tree(leaf):
    """A tree of parameters and constants, 30 levels deep, with ``leaf`` at the bottom."""
    e = add(mul(Param("a"), expr.Alt()), Const(3))
    for _ in range(30):
        e = add(mul(e, Param("a")), ln_abs(e))
    return add(e, mul(e, sqrt(add(e, leaf))))


class TestPruning:
    """Builders skip what they cannot change; the result is the unpruned walk's, bit for bit."""

    @pytest.mark.parametrize("name", ["toda", "ex81", "nls"])
    @pytest.mark.parametrize("memo", [True, False], ids=["run_memo", "no_memo"])
    def test_every_builder_call_of_a_run_is_the_unpruned_walk(self, name, memo, monkeypatch):
        checked = collections.Counter()
        rebuild, partial_, substitute_ = expr._rebuild, expr.partial, expr.substitute

        def checked_rebuild(e, leaf, table, derive=False):
            checked[leaf.__qualname__.split(".")[0]] += 1
            return _same_as_reference(lambda: rebuild(e, leaf, table, derive),
                                      lambda: oracles.reference_rebuild(e, leaf, {}, derive))

        def checked_partial(e, fv):
            checked["reference partial"] += 1
            return _same_as_reference(lambda: partial_(e, fv),
                                      lambda: oracles.reference_partial(e, fv))

        def checked_substitute(e, rules, x_repl=None, param_rules=None):
            checked["reference substitute"] += 1
            return _same_as_reference(
                lambda: substitute_(e, rules, x_repl, param_rules),
                lambda: oracles.reference_substitute(e, rules, x_repl, param_rules))

        _patch_modules(monkeypatch, "_rebuild", checked_rebuild)
        _patch_modules(monkeypatch, "partial", checked_partial)
        _patch_modules(monkeypatch, "substitute", checked_substitute)
        if not memo:   # every builder call then starts a new table
            for module in (cli, suites):
                monkeypatch.setattr(module, "run_memo", contextlib.nullcontext)
        _verify(name)
        builders = {"shift", "partial", "substitute", "t_derivative", "transform",
                    "_substitute_fields", "reference partial", "reference substitute"}
        if EXAMPLES[name].sig.differential:
            builders.add("total_derivative")
        assert builders <= {b for b, n in checked.items() if n}

    @pytest.mark.parametrize("builder, error, message", [
        (lambda e: shift(e, (1,), DEEP_SIG), CapExceededError, "outside radius 2"),
        (lambda e: total_derivative(e, DEEP_SIG), CapExceededError, r"outside \[0, 1\]"),
        (lambda e: t_derivative(e, DEEP_SIG), ExprError, "no variation slot"),
    ], ids=["shift", "total_derivative", "t_derivative"])
    @pytest.mark.parametrize("memo", [True, False], ids=["run_memo", "no_memo"])
    def test_a_raising_leaf_raises_from_deep_in_a_prunable_tree(self, builder, error, message,
                                                                memo):
        e = _deep_tree(Var(FieldVar("u", 1, (2,))))
        # everything above the field is a subtree that partial and substitute skip
        assert partial(e, FieldVar("u", 0, (0,))) is expr.ZERO
        assert substitute(e, {FieldVar("u", 0, (0,)): Const(1)}) is e
        with expr.run_memo() if memo else contextlib.nullcontext():
            for _ in range(2):   # a second call reads the run's table, and raises alike
                with pytest.raises(error, match=message):
                    builder(e)

    def test_an_identity_substitution_is_e_and_walks_nothing(self, toda, monkeypatch):
        action, e = toda.action, toda.L
        identity = {p: Param(p) for p in action.param_names}
        walked = _count_walks(monkeypatch)
        assert substitute(e, {}, param_rules=identity) is e
        assert substitute(e, {v: Var(v) for v in fieldvars(e)}, x_repl=XVar(),
                          param_rules=identity) is e
        assert not walked
        moved = transform(e, action, [Param(p) for p in action.param_names])
        assert walked["transform"] > 0 and walked["substitute"] == 0
        assert moved is oracles.reference_substitute(moved, {}, param_rules=identity)

    @pytest.mark.parametrize("name, walks", [("toda", 1476), ("ex81", 649), ("nls", 1754)])
    def test_nodes_walked_per_run(self, name, walks, monkeypatch):
        # nodes the builders walk per verify <ex> --suite all --seed 31337,
        # toda/ex81/nls: 2,126/870/2,683 when every builder walked every node
        # of its table's first visit; with the pruning, as pinned here.  A
        # bundle keeps nothing a run builds, so every run walks as many.
        walked = _count_walks(monkeypatch)
        for _ in range(2):
            walked.clear()
            _verify(name)
            assert sum(walked.values()) == walks
