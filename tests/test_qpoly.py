import math
from itertools import zip_longest

import pytest
from hypothesis import example, given, strategies as st

from narayana import qpoly
from narayana.qpoly import (
    QPoly,
    narayana,
    q_binomial,
    q_narayana_closed,
    q_narayana_hook,
    ratio_q_int,
)
from narayana import CLOSED_FORM_LIMIT
from oracles import InexactDivisionError, catalan, exact_div, q_factorial, q_int
from oracles import schoolbook_mul as ref_mul

ONE = QPoly((1,))

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=8)
# small and huge coefficients of either sign, well past 2**64
signed = st.integers(min_value=-9, max_value=9) | st.integers(min_value=-(2**80), max_value=2**80)
# nonzero polynomials of 1 to 41 terms, with small and huge coefficients
long_coeff_lists = st.tuples(
    st.lists(signed, max_size=40), signed.filter(bool)
).map(lambda parts: parts[0] + [parts[1]])


def test_canonical_form_trims_trailing_zeros():
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPoly((0, 0, 0)).coeffs == ()
    assert QPoly((0, 1)).degree == 1
    assert QPoly().degree == -1
    assert {QPoly((0, 1)): "q"}[QPoly([0, 1, 0])] == "q"


def test_arithmetic_smoke():
    p = QPoly((1, 1))
    assert p * p == QPoly((1, 2, 1))
    assert QPoly((3,)) * p == QPoly((3, 3))
    assert p * QPoly() == QPoly() * p == QPoly()


def test_str_rendering():
    assert str(QPoly()) == "0"
    assert str(QPoly((1, 1, 2, 1, 1))) == "1 + q + 2q^2 + q^3 + q^4"
    assert str(QPoly((0, -1, 3))) == "-q + 3q^2"
    assert str(QPoly((0,) * 6 + (1,))) == "q^6"


@given(coeff_lists, coeff_lists)
def test_mul_matches_reference(a, b):
    pa, pb = QPoly(a), QPoly(b)
    assert pa * pb == ref_mul(pa, pb)
    assert pa * pb == pb * pa


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(a, b, c):
    # the axioms of the one operation a QPoly has: its product
    pa, pb, pc = QPoly(a), QPoly(b), QPoly(c)
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * pb == pb * pa


@given(long_coeff_lists, long_coeff_lists)
def test_kronecker_mul_matches_reference(a, b):
    pa, pb = QPoly(a), QPoly(b)
    assert pa * pb == ref_mul(pa, pb)
    assert pa * pb == pb * pa


@given(long_coeff_lists, long_coeff_lists, long_coeff_lists)
def test_ring_axioms_on_the_kronecker_path(a, b, c):
    pa, pb, pc = QPoly(a), QPoly(b), QPoly(c)
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * pb == pb * pa


def test_kronecker_mul_at_its_digit_bound():
    # equal coefficients of one size make the middle product coefficient
    # exactly min(len) * max|a| * max|b|, the bound the digit width is sized by
    for top in (1, 127, 128, 255, 256, 2**63, 2**64 - 1, 2**64):
        for length in (1, 9, 19):
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                pa, pb = QPoly([sa * top] * length), QPoly([sb * top] * length)
                assert pa * pb == ref_mul(pa, pb)


q_ints = st.integers(min_value=1, max_value=12)


@given(st.lists(signed, max_size=12), q_ints, q_ints)
@example([3], 4, 1)  # [1] = 1: a product by [a] alone
@example([-1, 2], 1, 5)  # a quotient by [b] alone
def test_ratio_q_int_matches_schoolbook(cs, a, b):
    # p = s * [b] is a multiple of [b], so p * [a] / [b] = s * [a] exactly
    s = QPoly(cs)
    p = ref_mul(s, q_int(b))
    assert ratio_q_int(list(p.coeffs), a, b) == list(ref_mul(s, q_int(a)).coeffs)


def test_ratio_q_int_rejects_a_or_b_below_1():
    # [m] for m < 0 is no polynomial, and [0] is zero
    for a, b in ((0, 1), (-1, 3), (2, 0), (1, -2), (0, 0)):
        with pytest.raises(ValueError, match=f"ratio_q_int needs a, b >= 1, got a = {a}, b = {b}"):
            ratio_q_int([1, 2], a, b)
    assert ratio_q_int([], 1, 1) == ratio_q_int([], 5, 2) == []


@given(
    st.lists(signed, max_size=12),
    q_ints,
    q_ints,
    st.lists(st.integers(min_value=-2, max_value=2), max_size=3),
)
def test_ratio_q_int_matches_long_division(cs, a, b, bump):
    # a multiple of [b], sometimes disturbed, so exact and inexact inputs both
    # occur; the oracle multiplies by [a] by convolution, then divides by [b]
    multiple = ref_mul(QPoly(cs), q_int(b)).coeffs
    p = QPoly(x + y for x, y in zip_longest(multiple, bump, fillvalue=0))
    try:
        expected = exact_div(ref_mul(p, q_int(a)), q_int(b))
    except InexactDivisionError:
        with pytest.raises(ArithmeticError) as info:
            ratio_q_int(list(p.coeffs), a, b)
        assert str(info.value) == f"inexact division: {p} * [{a}] by [{b}]"
    else:
        assert ratio_q_int(list(p.coeffs), a, b) == list(expected.coeffs)
        if not any(bump):
            assert expected == ref_mul(QPoly(cs), q_int(a))


def test_ratio_q_int_errors_match_exact_div():
    # the last is nonzero and shorter than the divisor, so not a multiple of it
    for cs, a, b, text in (
        ([1, 0, 1], 1, 2, "1 + q^2 * [1] by [2]"),
        ([1], 2, 3, "1 * [2] by [3]"),
        ([1, -1], 3, 2, "1 - q * [3] by [2]"),
        ([1, 1], 1, 5, "1 + q * [1] by [5]"),
    ):
        with pytest.raises(InexactDivisionError):
            exact_div(ref_mul(QPoly(cs), q_int(a)), q_int(b))
        with pytest.raises(ArithmeticError) as info:
            ratio_q_int(cs, a, b)
        assert str(info.value) == f"inexact division: {text}"
    # [4] / [2] = 1 + q^2 and [6] / [3] = 1 + q^3
    assert ratio_q_int([1], 4, 2) == [1, 0, 1]
    assert ratio_q_int([1, 1], 6, 3) == list(ref_mul(QPoly((1, 1)), QPoly((1, 0, 0, 1))).coeffs)


def test_q_int_values():
    assert q_int(0) == QPoly()
    assert q_int(1) == ONE
    assert q_int(4) == QPoly((1, 1, 1, 1))
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_factorial_frozen():
    # [3]! = (1+q)(1+q+q^2) expanded by hand
    assert q_factorial(0) == ONE
    assert q_factorial(1) == ONE
    assert q_factorial(3) == QPoly((1, 2, 2, 1))


def test_q_factorial_specializes_to_factorial():
    for n in range(8):
        assert sum(q_factorial(n).coeffs) == math.factorial(n)


def test_q_binomial_frozen():
    assert q_binomial(4, 2) == QPoly((1, 1, 2, 1, 1))
    assert q_binomial(5, 0) == ONE
    assert q_binomial(5, 5) == ONE
    assert q_binomial(3, 4) == QPoly()
    assert q_binomial(3, -1) == QPoly()


def q_pascal_rows(top: int):
    """Rows 0..top of Gaussian binomials by the q-Pascal recurrence
    qbin(m, j) = qbin(m-1, j-1) + q**j * qbin(m-1, j), with no division."""
    row = [ONE]
    yield row
    for m in range(1, top + 1):
        # q**j * qbin(m-1, j) as a shift, so the oracle uses no multiply
        row = [ONE] + [
            QPoly(
                x + y
                for x, y in zip_longest(row[j - 1].coeffs, (0,) * j + row[j].coeffs, fillvalue=0)
            )
            for j in range(1, m)
        ] + [ONE]
        yield row


def test_q_binomial_matches_q_pascal_oracle():
    for n, row in enumerate(q_pascal_rows(20)):
        assert [q_binomial(n, k) for k in range(n + 1)] == row


def test_q_binomial_matches_factorial_quotient():
    # the product route must agree with the defining quotient of q-factorials
    for n in range(9):
        for k in range(n + 1):
            expected = exact_div(q_factorial(n), q_factorial(k) * q_factorial(n - k))
            assert q_binomial(n, k) == expected


def test_q_binomial_symmetry_and_specialization():
    for n in range(10):
        for k in range(n + 1):
            p = q_binomial(n, k)
            assert p == q_binomial(n, n - k)
            assert sum(p.coeffs) == math.comb(n, k)
            assert all(c >= 0 for c in p.coeffs)


def test_exact_div_frozen():
    # (q^2 + q^3 + q^4) / (1 + q + q^2) = q^2
    a = QPoly((0, 0, 1, 1, 1))
    b = QPoly((1, 1, 1))
    assert exact_div(a, b) == QPoly((0, 0, 1))


def test_exact_div_errors():
    with pytest.raises(ZeroDivisionError):
        exact_div(QPoly((1,)), QPoly())
    with pytest.raises(InexactDivisionError) as info:
        exact_div(QPoly((1, 1)), QPoly((0, 0, 1)))
    assert info.value.remainder == QPoly((1, 1))
    with pytest.raises(InexactDivisionError) as info:
        exact_div(QPoly((1, 0, 1)), QPoly((1, 1)))
    assert info.value.remainder.coeffs
    assert exact_div(QPoly(), QPoly((1, 1))) == QPoly()


@given(coeff_lists, coeff_lists)
def test_exact_div_inverts_mul(a, b):
    pa, pb = QPoly(a), QPoly(b)
    if not pb.coeffs:
        with pytest.raises(ZeroDivisionError):
            exact_div(pa * pb, pb)
    else:
        assert exact_div(pa * pb, pb) == pa


def test_narayana_frozen():
    assert narayana(1, 0) == 1
    assert narayana(4, 1) == 6
    assert narayana(4, 2) == 6
    assert narayana(4, 3) == 1
    assert narayana(6, 2) == 50
    assert narayana(3, 5) == 0
    with pytest.raises(ValueError):
        narayana(0, 0)
    with pytest.raises(ValueError):
        narayana(3, -1)


def test_narayana_integrality_check_raises(monkeypatch):
    # a real exception, so the check survives python -O
    monkeypatch.setattr("narayana.qpoly.comb", lambda n, k: 1)
    with pytest.raises(ArithmeticError, match="not integral"):
        narayana(3, 1)


def test_catalan_matches_closed_form():
    for n in range(12):
        assert catalan(n) == math.comb(2 * n, n) // (n + 1)


def test_catalan_past_the_recursion_limit():
    assert catalan(1200) == math.comb(2400, 1200) // 1201


def test_narayana_rows_sum_to_catalan():
    for n in range(1, CLOSED_FORM_LIMIT + 1):
        assert sum(narayana(n, k) for k in range(n)) == catalan(n)


def test_q_narayana_closed_frozen():
    assert q_narayana_closed(3, 0) == ONE
    assert q_narayana_closed(3, 1) == QPoly((0, 0, 1, 1, 1))
    assert q_narayana_closed(3, 2) == QPoly((0,) * 6 + (1,))
    assert q_narayana_closed(5, 7) == QPoly()
    with pytest.raises(ValueError):
        q_narayana_closed(0, 0)
    with pytest.raises(ValueError):
        q_narayana_closed(3, -2)


def test_q_narayana_closed_specializes_to_narayana():
    for n in range(1, 10):
        for k in range(n):
            p = q_narayana_closed(n, k)
            assert sum(p.coeffs) == narayana(n, k)
            assert all(c >= 0 for c in p.coeffs)


@pytest.mark.parametrize("n", [20, 40, 60])
def test_q_narayana_closed_matches_hook_route_at_large_n(n):
    # both routes run ratio_q_int, so each is also checked against binomials
    # by the q-Pascal recurrence and products alone, with no division:
    # [n] * N_q(n, k) = q^(k^2 + k) * qbin(n, k) * qbin(n, k + 1)
    *_, row = q_pascal_rows(n)
    for k in range(n):
        p = q_narayana_closed(n, k)
        assert p == q_narayana_hook(n, k)
        shifted = QPoly([0] * (k * k + k) + list((row[k] * row[k + 1]).coeffs))
        assert p * q_int(n) == shifted, (n, k)
        assert all(c >= 0 for c in p.coeffs)
        assert sum(p.coeffs) == narayana(n, k)


def test_q_narayana_closed_builds_one_gaussian_binomial(monkeypatch):
    # q_binomial builds qbin(n, j), j = min(k, n - 1 - k), and one exact step
    # the other binomial; the result is the closed form with both built,
    # divided by the oracle's long division
    built = []

    def recorded(n, k):
        built.append(k)
        return q_binomial(n, k)

    monkeypatch.setattr(qpoly, "q_binomial", recorded)
    for n in [*range(1, 13), 33, 60]:
        for k in range(n):
            built.clear()
            both = q_binomial(n, k) * q_binomial(n, k + 1)
            expected = QPoly([0] * (k * k + k) + list(exact_div(both, q_int(n)).coeffs))
            assert q_narayana_closed(n, k) == expected, (n, k)
            assert built == [min(k, n - 1 - k)], (n, k)
