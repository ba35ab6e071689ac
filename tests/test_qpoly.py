import math

import pytest
from hypothesis import given, strategies as st

from narayana.qpoly import (
    InexactDivisionError,
    QPoly,
    catalan,
    exact_div,
    narayana,
    q_binomial,
    q_factorial,
    q_int,
    q_narayana_closed,
)

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=8)


def ref_mul(a: QPoly, b: QPoly) -> QPoly:
    # independent convolution, dict-based rather than list-based
    out: dict[int, int] = {}
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] = out.get(i + j, 0) + ca * cb
    if not out:
        return QPoly()
    return QPoly([out.get(d, 0) for d in range(max(out) + 1)])


def test_canonical_form_trims_trailing_zeros():
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPoly((0, 0, 0)).coeffs == ()
    assert QPoly().is_zero
    assert QPoly((0, 1)).degree == 1
    assert QPoly().degree == -1


def test_equality_with_ints():
    assert QPoly((5,)) == 5
    assert QPoly() == 0
    assert QPoly((0, 1)) != 1


def test_hash_agrees_with_int_equality():
    for value in (5, 0, -3, 1):
        assert hash(QPoly((value,))) == hash(value)
        assert len({QPoly((value,)), value}) == 1
    assert {QPoly((0, 1)): "q"}[QPoly([0, 1, 0])] == "q"


def test_arithmetic_smoke():
    p = QPoly((1, 1))
    assert p + p == QPoly((2, 2))
    assert p - p == QPoly()
    assert p * p == QPoly((1, 2, 1))
    assert 3 * p == QPoly((3, 3))
    assert p**3 == QPoly((1, 3, 3, 1))
    assert (-p).coeffs == (-1, -1)
    assert p(10) == 11
    assert QPoly()(7) == 0


def test_str_rendering():
    assert str(QPoly()) == "0"
    assert str(QPoly((1, 1, 2, 1, 1))) == "1 + q + 2q^2 + q^3 + q^4"
    assert str(QPoly((0, -1, 3))) == "-q + 3q^2"
    assert str(QPoly.q_power(6)) == "q^6"


@given(coeff_lists, coeff_lists)
def test_mul_matches_reference(a, b):
    pa, pb = QPoly(a), QPoly(b)
    assert pa * pb == ref_mul(pa, pb)
    assert pa * pb == pb * pa


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(a, b, c):
    pa, pb, pc = QPoly(a), QPoly(b), QPoly(c)
    assert (pa + pb) + pc == pa + (pb + pc)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert (pa * pb) * pc == pa * (pb * pc)


def test_q_int_values():
    assert q_int(0) == QPoly()
    assert q_int(1) == QPoly((1,))
    assert q_int(4) == QPoly((1, 1, 1, 1))
    with pytest.raises(ValueError):
        q_int(-1)


def test_q_factorial_frozen():
    # [3]! = (1+q)(1+q+q^2) expanded by hand
    assert q_factorial(0) == 1
    assert q_factorial(1) == 1
    assert q_factorial(3) == QPoly((1, 2, 2, 1))


def test_q_factorial_specializes_to_factorial():
    for n in range(8):
        assert q_factorial(n)(1) == math.factorial(n)


def test_q_binomial_frozen():
    assert q_binomial(4, 2) == QPoly((1, 1, 2, 1, 1))
    assert q_binomial(5, 0) == 1
    assert q_binomial(5, 5) == 1
    assert q_binomial(3, 4) == 0
    assert q_binomial(3, -1) == 0


def test_q_binomial_matches_factorial_quotient():
    # the recurrence route must agree with the defining quotient of q-factorials
    for n in range(9):
        for k in range(n + 1):
            expected = exact_div(q_factorial(n), q_factorial(k) * q_factorial(n - k))
            assert q_binomial(n, k) == expected


def test_q_binomial_symmetry_and_specialization():
    for n in range(10):
        for k in range(n + 1):
            p = q_binomial(n, k)
            assert p == q_binomial(n, n - k)
            assert p(1) == math.comb(n, k)
            assert all(c >= 0 for c in p.coeffs)


def test_exact_div_frozen():
    # (q^2 + q^3 + q^4) / (1 + q + q^2) = q^2
    a = QPoly((0, 0, 1, 1, 1))
    b = QPoly((1, 1, 1))
    assert exact_div(a, b) == QPoly.q_power(2)


def test_exact_div_errors():
    with pytest.raises(ZeroDivisionError):
        exact_div(QPoly((1,)), QPoly())
    with pytest.raises(InexactDivisionError) as info:
        exact_div(QPoly((1, 1)), QPoly((0, 0, 1)))
    assert info.value.remainder == QPoly((1, 1))
    with pytest.raises(InexactDivisionError) as info:
        exact_div(QPoly((1, 0, 1)), QPoly((1, 1)))
    assert not info.value.remainder.is_zero
    assert exact_div(QPoly(), QPoly((1, 1))) == 0


@given(coeff_lists, coeff_lists)
def test_exact_div_inverts_mul(a, b):
    pa, pb = QPoly(a), QPoly(b)
    if pb.is_zero:
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


def test_narayana_rows_sum_to_catalan():
    for n in range(1, 13):
        assert sum(narayana(n, k) for k in range(n)) == catalan(n)


def test_q_narayana_closed_frozen():
    assert q_narayana_closed(3, 0) == 1
    assert q_narayana_closed(3, 1) == QPoly((0, 0, 1, 1, 1))
    assert q_narayana_closed(3, 2) == QPoly.q_power(6)
    assert q_narayana_closed(5, 7) == 0
    with pytest.raises(ValueError):
        q_narayana_closed(0, 0)
    with pytest.raises(ValueError):
        q_narayana_closed(3, -2)


def test_q_narayana_closed_specializes_to_narayana():
    for n in range(1, 10):
        for k in range(n):
            p = q_narayana_closed(n, k)
            assert p(1) == narayana(n, k)
            assert all(c >= 0 for c in p.coeffs)
