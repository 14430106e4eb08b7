"""The parser's results pinned on edge and malformed input.

Each input is parsed on a pure-difference and on a differential-difference
signature; the case records the printed node, or the type and exact text of
the error, whose message carries the position.  A single expected value holds
on both signatures.
"""

import pytest

from lattice_frames.expr import ExprError, ProblemSignature, to_string
from lattice_frames.parser import parse

SIGS = {
    "difference": ProblemSignature(("u", "v"), 1, params=("a",)),
    "differential": ProblemSignature(("u", "v"), 1, differential=True, has_x=True,
                                     params=("h",)),
}

CASES = [
    ('u[0] $ 1', "ParseError: unexpected character '$' at position 4: u[0]>>> $ 1"),
    ('@u[0]', "ParseError: unexpected character '@' at position 0: >>>@u[0]"),
    ('u[0] + é', "ParseError: unexpected character 'é' at position 6: u[0] +>>> é"),
    ('u[0]*.', "ParseError: unexpected character '.' at position 5: u[0]*>>>."),
    ('', "ParseError: unexpected token 'end of input' at position 0: >>>"),
    ('   ', "ParseError: unexpected token 'end of input' at position 3:    >>>"),
    ('u[0] u[1]', "ParseError: trailing input 'u' at position 4: u[0]>>> u[1]"),
    ('u[0]  )', "ParseError: trailing input ')' at position 4: u[0]>>>  )"),
    ('u[0]^2^3', "ParseError: trailing input '^' at position 6: u[0]^2>>>^3"),
    ('u[0] + * 2', "ParseError: unexpected token '*' at position 6: u[0] +>>> * 2"),
    ('(u[0] + 1', "ParseError: expected ')', found 'end of input' at position 9: (u[0] + 1>>>"),
    ('ln(u[0]', "ParseError: expected ')', found 'end of input' at position 7: ln(u[0]>>>"),
    ('u[0]^(2', "ParseError: expected ')', found 'end of input' at position 7: u[0]^(2>>>"),
    ('u[x]', 'ParseError: expected an integer index at position 2: u[>>>x]'),
    ('u[1.5]', 'ParseError: expected an integer index at position 2: u[>>>1.5]'),
    ('u[0', "ParseError: expected ',', found 'end of input' at position 3: u[0>>>"),
    ('u[]', 'ParseError: expected an integer index at position 2: u[>>>]'),
    ('u[0,1]', "ParseError: field 'u' takes 1 shift indices, got 2 at position 6: u[0,1]>>>"),
    ('u[0]^-2', 'u[0]^(-2)'),
    ('u[0]^(-2)', 'u[0]^(-2)'),
    ('u[0]^u[0]', 'ParseError: expected an integer index at position 5: u[0]^>>>u[0]'),
    ('d2 u[1;0]', ('ParseError: u[3;0]: derivative index in a pure-difference problem at position 9: d2 u[1;0]>>>',
     'u[3;0]')),
    ('d1 u[;0]', ('ParseError: u[1;0]: derivative index in a pure-difference problem at position 8: d1 u[;0]>>>',
     'u[1;0]')),
    ('d9 u[0]', ('ParseError: u[9;0]: derivative index in a pure-difference problem at position 7: d9 u[0]>>>',
     'ParseError: u[9;0]: derivative order outside [0, 4] at position 7: d9 u[0]>>>')),
    ('u[9]', 'ParseError: u[9]: shift outside radius 8 at position 4: u[9]>>>'),
    ('1e999', 'ParseError: number is not a finite double at position 0: >>>1e999'),
    ('u[0]*1e300*1e300', 'ParseError: number is not a finite double at position 10: u[0]*1e300>>>*1e300'),
    ('u[0]+1e308+1e308', 'ParseError: number is not a finite double at position 10: u[0]+1e308>>>+1e308'),
    ("u[0]^" + "9" * 400, 'ParseError: number is not a finite double at position 5: u[0]^>>>999999999999'),
    ('2^1100', 'SingularEvaluationError: non-finite value of 2^1100'),
    ('w[0]', "ParseError: unknown name 'w' at position 0: >>>w[0]"),
    ('b', "ParseError: unknown name 'b' at position 0: >>>b"),
    ('x', ('ParseError: this problem has no continuous variable x at position 0: >>>x',
     'x')),
    ('u', "ParseError: field 'u' needs a [shift] index at position 0: >>>u"),
    ('d1', "ParseError: unknown name 'd1' at position 0: >>>d1"),
    ('d1 w[0]', "ParseError: unknown name 'd1' at position 0: >>>d1 w[0]"),
    ('ln u[0]', "ParseError: expected '(', found 'u' at position 2: ln>>> u[0]"),
    ('ln()', "ParseError: unexpected token ')' at position 3: ln(>>>)"),
    ('abs(u[0]-v[1])', 'sqrt((u[0] - v[1])^2)'),
    ('sqrt(u[0])*ln(v[-1])', 'sqrt(u[0])*ln(v[-1])'),
    ('-(-u[0])', 'u[0]'),
    ('u[0]-u[1]*v[0]/a', ('u[0] - (u[1]*v[0])/a',
     "ParseError: unknown name 'a' at position 15: u[0]-u[1]*v[0]/>>>a")),
    ('alt*h + x', ("ParseError: unknown name 'h' at position 4: alt*>>>h + x",
     'alt*h + x')),
    ('1.5e3 + .5 - 3.', '1497.5'),
    ('u[- 1]\t+\n2', 'u[-1] + 2'),
    ("u[0]\xa0+ 1   ", 'u[0] + 1'),
    ('u[0]*٣', "ParseError: unexpected character '٣' at position 5: u[0]*>>>٣"),
    ('u[٣]', "ParseError: unexpected character '٣' at position 2: u[>>>٣]"),
]


def outcome(text, sig):
    try:
        return to_string(parse(text, sig))
    except ExprError as err:
        return f"{type(err).__name__}: {err}"


@pytest.mark.parametrize("text, want", CASES)
@pytest.mark.parametrize("sig_id", list(SIGS))
def test_parse_outcome(sig_id, text, want):
    if isinstance(want, tuple):
        want = want[list(SIGS).index(sig_id)]
    assert outcome(text, SIGS[sig_id]) == want
