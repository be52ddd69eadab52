import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from petersen_alpha import DomainError, best_bounds, exact_closed_form, lower_bounds, upper_bounds
from petersen_alpha.bounds import tiling_size_even_even, tiling_size_odd_even


def _values(bounds, source=None):
    return [b.value for b in bounds if source is None or b.source == source]


@pytest.mark.parametrize(
    "n,k,expected",
    [
        (10, 3, 10),  # k=3, even n
        (11, 2, 8),   # floor(44/5)
        (12, 4, 9),   # n = 3k
        (9, 4, 7),    # k=4, n = 1 mod 8
        (12, 5, 12),  # bipartite
        (15, 5, 12),  # k=5 odd n, also divisor case
        (25, 8, 23),  # even-k residue n = k+1 mod 2k
    ],
)
def test_exact_closed_forms(n, k, expected):
    cf = exact_closed_form(n, k)
    assert cf is not None and cf.value == expected


def test_closed_form_presence():
    # (13,6): no rule applies; (14,6): 14 mod 12 = 2 -> residue rule applies
    assert exact_closed_form(13, 6) is None
    cf = exact_closed_form(14, 6)
    assert cf is not None and cf.value == 11 * 14 // 12


def test_upper_bound_examples():
    assert 14 in _values(upper_bounds(16, 4), "segment-density")
    assert 11 in _values(upper_bounds(13, 4), "segment-density")
    assert 12 in _values(upper_bounds(15, 5), "odd-gcd")  # d=5: 15-3
    assert all(n in _values(upper_bounds(n, k), "spoke-matching") for n, k in [(9, 2), (30, 7)])


def test_lower_bound_examples():
    assert 16 in _values(lower_bounds(20, 4), "even-even-tiling")
    assert 14 in _values(lower_bounds(17, 4), "odd-even-tiling")
    assert 9 in _values(lower_bounds(11, 4), "odd-even-tiling")
    assert 14 in _values(lower_bounds(20, 4), "even-even-gcd")  # 10 + 2*floor(20/8)


def test_gcd_lower_bound_guard():
    # the odd/even gcd formula is only applied from n >= 3k on; below that it
    # can overshoot the optimum (e.g. it would claim 62 > alpha = 61 at (77,38))
    assert _values(lower_bounds(77, 38), "odd-even-gcd") == []
    assert _values(lower_bounds(77, 14), "odd-even-gcd") != []


def test_even_k_ratio_cases():
    # k-1 divides n: n - n/(k-1); here 13 | 39 -> 36 (which is tight)
    assert 36 in _values(lower_bounds(39, 14), "even-k-ratio")
    # otherwise the strict bound rounds up to the next integer
    vals = _values(lower_bounds(26, 10), "even-k-ratio")
    assert vals == [max(0, (26 * 8 - 2 * 10 * 9) // 9 + 1)]


# sha256 over 5 <= n <= 300 and every k (22,348 cells) of
# json.dumps(best_bounds(n, k).to_dict(), sort_keys=True), a line per cell
BOUNDS_DIGEST = "a15f3acfd891d0a1ae0d89e671f3e8a226bf43cfccc48f2c3d3d0bdc1be02872"
BOUNDS_GRID = [(n, k) for n in range(5, 301) for k in range(1, (n - 1) // 2 + 1)]


def test_bounds_digest():
    assert len(BOUNDS_GRID) == 22348
    h = hashlib.sha256()
    for n, k in BOUNDS_GRID:
        h.update((json.dumps(best_bounds(n, k).to_dict(), sort_keys=True) + "\n").encode())
    assert h.hexdigest() == BOUNDS_DIGEST


def test_negative_bounds_clamped():
    # lower_bounds clamps only the strict even-k-ratio bound, which goes
    # negative on 73 of these cells, (10,4) the first; no other formula does
    for n, k in BOUNDS_GRID:
        assert all(b.value >= 0 for b in lower_bounds(n, k)), (n, k)


def test_lower_bounds_never_empty():
    for n, k in [(5, 2), (7, 2), (9, 2), (11, 2)]:
        assert lower_bounds(n, k)


def test_best_bounds_examples():
    r = best_bounds(16, 4)
    assert r.exact == 14 and r.lower.value == 14 and r.upper.value == 14

    r = best_bounds(12, 5)
    assert r.exact == 12  # bipartite parity case; the k=5 rule agrees
    assert "bipartite" in {b.source for b in r.all}

    r = best_bounds(13, 6)
    assert r.exact is None
    assert r.lower.value <= 10 <= r.upper.value  # true alpha sits inside


def test_best_bounds_sandwich_closes_without_closed_form(monkeypatch):
    # no cell with n < 400 closes its sandwich without a closed form, so the
    # closed forms are switched off: (16,4) then closes on the tiling witness
    # and the segment density alone
    import petersen_alpha.bounds as bounds

    monkeypatch.setattr(bounds, "exact_closed_form", lambda n, k: None)
    r = best_bounds(16, 4)
    assert r.exact == 14
    assert (r.lower.source, r.lower.value) == ("even-even-tiling", 14)
    assert (r.upper.source, r.upper.value) == ("segment-density", 14)
    assert all(b.kind != "exact" for b in r.all)


def test_bounds_reject_bad_family():
    with pytest.raises(DomainError):
        lower_bounds(8, 4)
    with pytest.raises(DomainError):
        upper_bounds(8, 4)
    with pytest.raises(DomainError):
        exact_closed_form(8, 4)


def test_sound_against_reference(reference_alpha):
    """Every implemented bound respects every known alpha value."""
    for (n, k), a in reference_alpha.items():
        for b in lower_bounds(n, k):
            assert b.value <= a, (n, k, b)
        for b in upper_bounds(n, k):
            assert b.value >= a, (n, k, b)
        cf = exact_closed_form(n, k)
        if cf is not None:
            assert cf.value == a, (n, k, cf)


@given(st.integers(min_value=2, max_value=10), st.data())
@settings(max_examples=30, deadline=None)
def test_tiling_formulas_match_case_split(half_k, data):
    k = 2 * half_k
    n_even = data.draw(st.integers(min_value=k + 1, max_value=150).map(lambda x: 2 * x))
    q, r = divmod(n_even, 2 * k)
    expect = (2 * k - 1) * q + (r // 2 if r <= k else 3 * r // 2 - k - 1)
    assert tiling_size_even_even(n_even, k) == expect

    n_odd = data.draw(st.integers(min_value=k, max_value=150).map(lambda x: 2 * x + 1))
    q, r = divmod(n_odd, 2 * k)
    if r == 1:
        expect = (2 * k - 1) * q - k // 2 + 2
    elif r < k:
        expect = (2 * k - 1) * q + (3 * r - k - 1) // 2
    else:
        expect = (2 * k - 1) * q + k // 2 + (r - 1) // 2
    assert tiling_size_odd_even(n_odd, k) == expect


def test_odd_odd_divisor_equality(reference_alpha):
    """For odd n, odd k with k | n the odd/odd bound n-(k+1)/2 is attained."""
    for (n, k), a in reference_alpha.items():
        if n <= 40 and n % 2 == 1 and k % 2 == 1 and n % k == 0:
            value = n - (k + 1) // 2
            assert value in _values(lower_bounds(n, k), "odd-odd")
            assert a == value, (n, k)


def test_asymptotic_gap_stays_linear_in_k():
    """Upper minus lower stays within 3k for even k, a finite stand-in for
    the (2k-1)/2k * n + O(k) behavior."""
    for k in (4, 6, 8):
        for n in range(2 * k + 1, 501):
            r = best_bounds(n, k)
            assert r.upper.value - r.lower.value <= 3 * k, (n, k)
