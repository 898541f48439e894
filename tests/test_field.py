import itertools

import numpy as np
import pytest

from distgraphs import field
from distgraphs.errors import (
    DivisionByZero,
    InvalidDegree,
    NotOddPrime,
    SpecMismatch,
    TooLarge,
)
from distgraphs.field import (
    FieldSpec,
    Point,
    _poly_divmod,
    enumerate_field,
    make_field,
)

SMALL_FIELDS = [(3, 1), (3, 2), (5, 2), (3, 3)]  # q = 3, 9, 25, 27


@pytest.fixture(scope="module", params=SMALL_FIELDS, ids=lambda pk: f"F{pk[0]**pk[1]}")
def spec(request):
    return make_field(*request.param)


def test_make_field_prime():
    f3 = make_field(3, 1)
    assert f3.q == 3 and len(f3.modulus) == 2
    assert [e.code for e in enumerate_field(f3)] == [0, 1, 2]


def test_make_field_f9_modulus_is_least_irreducible():
    # Exhaustive scan over all 9 monic quadratics over F_3 by packed code.
    def has_root(c0, c1):
        return any((x * x + c1 * x + c0) % 3 == 0 for x in range(3))

    least = next(
        (c0, c1)
        for code in range(9)
        for c0, c1 in [(code % 3, code // 3)]
        if not has_root(c0, c1)
    )
    f9 = make_field(3, 2)
    assert f9.modulus == (least[0], least[1], 1) == (1, 0, 1)


def test_make_field_rejects_bad_input():
    with pytest.raises(NotOddPrime):
        make_field(2, 1)
    with pytest.raises(NotOddPrime):
        make_field(9, 1)
    with pytest.raises(InvalidDegree):
        make_field(3, 0)


@pytest.mark.parametrize("p, k, error", [(5, True, InvalidDegree), (5, 2.0, InvalidDegree), (3.0, 1, NotOddPrime), (True, 1, NotOddPrime)])
def test_make_field_rejects_a_bool_or_float_before_any_work(monkeypatch, p, k, error):
    for work in ("_is_prime", "_poly_irreducible", "_decode_coeffs"):
        monkeypatch.setattr(field, work, None)  # any work past the check would now fail
    with pytest.raises(error):
        make_field(p, k)


def test_make_field_respects_cap(monkeypatch):
    monkeypatch.setenv("DISTGRAPHS_MAX_Q", "25")
    with pytest.raises(TooLarge):
        make_field(3, 3)
    make_field(5, 2)


def test_field_cap_comes_before_primality(monkeypatch):
    real = field._is_prime

    def guarded(n):
        assert n <= field.max_field_size(), f"primality test of {n}, over the cap"
        return real(n)

    monkeypatch.setattr(field, "_is_prime", guarded)
    for p, k in [(100000000003, 1), (1000003, 1), (3, 4), (3, 100000), (3, 300000000)]:
        with pytest.raises(TooLarge, match=rf"q = {p}\^{k} exceeds the configured cap 49$"):
            make_field(p, k)
        with pytest.raises(TooLarge):  # the cap comes before the modulus checks too
            FieldSpec(p, k, (0, 1))
    assert make_field(7, 2).q == 49
    assert FieldSpec(13, 1, (0, 1)).q == 13


def test_arithmetic_examples():
    f3 = make_field(3, 1)
    assert f3.element(1) + f3.element(2) == f3.zero
    f9 = make_field(3, 2)
    x = f9.element((0, 1))
    assert x * x == f9.element(2)
    f5 = make_field(5, 1)
    assert -f5.element(2) == f5.element(3)


def test_inverse_examples():
    f5 = make_field(5, 1)
    assert f5.element(2).inverse() == f5.element(3)
    f9 = make_field(3, 2)
    x = f9.element((0, 1))
    assert x.inverse() == f9.element((0, 2))
    with pytest.raises(DivisionByZero):
        make_field(7, 1).zero.inverse()


def test_enumeration_contract(spec):
    els = enumerate_field(spec)
    assert len(els) == spec.q == len(set(els))
    assert els[0] == spec.zero and els[1] == spec.one
    assert [e.code for e in els] == list(range(spec.q))


def test_f9_enumeration_prefix():
    f9 = make_field(3, 2)
    prefix = [e.coeffs for e in enumerate_field(f9)[:5]]
    assert prefix == [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)]


def test_field_axioms_exhaustive(spec):
    els = enumerate_field(spec)
    for a, b in itertools.product(els, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    for a, b, c in itertools.product(els, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_inverses_and_frobenius(spec):
    for a in enumerate_field(spec):
        assert a + (-a) == spec.zero
        assert a**spec.q == a
        if not a.is_zero:
            inv = a.inverse()
            assert a * inv == spec.one
            # Extended Euclid agrees with Fermat exponentiation.
            assert inv == a ** (spec.q - 2)


def test_closure(spec):
    els = set(enumerate_field(spec))
    for a, b in itertools.product(els, repeat=2):
        assert a + b in els and a * b in els


def test_spec_mismatch():
    f3, f5 = make_field(3, 1), make_field(5, 1)
    with pytest.raises(SpecMismatch):
        f3.one + f5.one
    with pytest.raises(SpecMismatch):
        f3.one * f5.element(2)


def test_norm_examples():
    f3 = make_field(3, 1)
    zero = Point([f3.zero, f3.zero])
    assert zero.norm() == f3.zero
    assert Point([f3.one, f3.one]).norm() == f3.element(2)
    f5 = make_field(5, 1)
    p = Point([f5.element(1), f5.element(2), f5.element(3)])
    assert p.norm() == f5.element(4)


def test_norm_negation_symmetry(spec):
    els = enumerate_field(spec)
    pairs = list(itertools.product(els[: min(len(els), 6)], repeat=2))
    for a, b in pairs:
        x, y = Point([a, b]), Point([b, a])
        assert (x - y).norm() == (y - x).norm()


# Every field with q <= 49, then moduli that are irreducible but not the
# least ones, which make_field never picks.
TABLE_FIELDS = [
    make_field(p, k) for p, k in [
        (3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1),
        (5, 2), (3, 3), (29, 1), (31, 1), (37, 1), (41, 1), (43, 1), (47, 1), (7, 2),
    ]
] + [FieldSpec(3, 2, (2, 2, 1)), FieldSpec(3, 3, (2, 2, 0, 1)), FieldSpec(5, 2, (2, 1, 1))]


def test_tables_match_scalar_ops():
    for spec in TABLE_FIELDS:
        els = enumerate_field(spec)
        assert spec.digit_table.tolist() == [list(a.coeffs) for a in els]
        assert spec.encode(spec.digit_table).tolist() == list(range(spec.q))
        assert spec.encode(spec.digit_table - spec.p).tolist() == list(range(spec.q))
        assert spec.square_table.tolist() == [(a * a).code for a in els]
        assert spec.add_table.tolist() == [[(a + b).code for b in els] for a in els]
        assert spec.sub_table.tolist() == [[(a - b).code for b in els] for a in els]
        for table in (spec.digit_table, spec.add_table, spec.sub_table, spec.square_table):
            assert table.dtype == np.int32 and not table.flags.writeable


def test_fieldspec_rejects_reducible_modulus():
    with pytest.raises(InvalidDegree):
        FieldSpec(3, 2, (0, 0, 1))  # X^2 has the root 0
    with pytest.raises(InvalidDegree):
        FieldSpec(3, 2, (2, 0, 1))  # X^2 + 2 = X^2 - 1 factors


def test_poly_divmod_roundtrip():
    # (X^2 + 1)(X + 2) + 1 = X^3 + 2X^2 + X over F_3
    quo, rem = _poly_divmod((0, 1, 2, 1), (1, 0, 1), 3)
    assert quo == (2, 1) and rem == (1,)
