import dataclasses
import random
from collections.abc import Mapping
from itertools import product

import pytest
from hypothesis import given, strategies as st

from friezelotus.contfrac import Rational, continuant, hj_expand
from friezelotus.frieze import MAX_FRIEZE_ENTRIES, _check_quiddity, _embed, frieze_from_quiddity
from friezelotus.lotus import embed_polygon, lotus_of_slope, polygon_of_lotus
from friezelotus.polygon import polygon_from_quiddity, polygon_of_cf, quiddity_of

from conftest import (coprime_pairs, enumerate_triangulations, fan_quiddity, frieze_by_rows,
                      outcome, quiddities, random_triangulation)

RUNNING_QUIDDITY = (1, 2, 2, 3, 2, 1, 3, 4)

# the full fundamental domain of the width-5 frieze with the quiddity above
RUNNING_DOMAIN = {
    (0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 5): 1, (5, 6): 1, (6, 7): 1, (0, 7): 1,
    (0, 2): 2, (1, 3): 2, (2, 4): 3, (3, 5): 2, (4, 6): 1, (5, 7): 3, (0, 6): 4, (1, 7): 1,
    (0, 3): 3, (1, 4): 5, (2, 5): 5, (3, 6): 1, (4, 7): 2, (0, 5): 11, (1, 6): 3, (2, 7): 1,
    (0, 4): 7, (1, 5): 8, (2, 6): 2, (3, 7): 1,
}


def test_running_frieze_fundamental_domain():
    f = frieze_from_quiddity(RUNNING_QUIDDITY)
    assert len(f.entries) == 28
    assert f.entries == RUNNING_DOMAIN


def test_running_frieze_n_q_entries():
    f = frieze_from_quiddity(RUNNING_QUIDDITY)
    assert f.entry(0, 5) == 11
    assert f.entry(1, 5) == 8


def test_entry_normalisation():
    f = frieze_from_quiddity(RUNNING_QUIDDITY)
    assert f.entry(3, 3) == 0
    assert f.entry(3, 3 + f.m) == 0
    assert f.entry(-2, 0) == f.entry(6, 8) == f.entry(0, 6)
    for (i, j), v in RUNNING_DOMAIN.items():
        assert f.entry(i + f.m, j + f.m) == v
        assert f.entry(j, i + f.m) == v  # glide


def test_width_zero_frieze():
    f = frieze_from_quiddity((1, 1, 1))
    assert f.entries == {(0, 1): 1, (1, 2): 1, (0, 2): 1}


def test_fountain_frieze_rows():
    f = frieze_from_quiddity((6, 1, 2, 2, 2, 2, 2, 1))
    assert max(f.entries.values()) == 6
    # cyclic content of the printed rows
    assert [f.entry(i, i + 2) for i in range(f.m)] == [1, 2, 2, 2, 2, 2, 1, 6]
    assert [f.entry(i, i + 3) for i in range(f.m)] == [1, 3, 3, 3, 3, 1, 5, 5]
    assert [f.entry(i, i + 4) for i in range(f.m)] == [1, 4, 4, 4, 1, 4, 4, 4]


def test_rejects_non_quiddity_with_diamond_diagnostic():
    with pytest.raises(ValueError, match="diamond"):
        frieze_from_quiddity((2, 2, 2, 2))
    with pytest.raises(ValueError, match="not positive"):
        frieze_from_quiddity((1, 0, 1))
    with pytest.raises(ValueError):
        frieze_from_quiddity((1, 1))
    with pytest.raises(ValueError, match="diamond"):
        frieze_from_quiddity((1,) * 3162)  # 4 997 541 entries, under the ceiling
    # past the ceiling the gate still refuses first, with the ear cut's text,
    # and only a valid quiddity, such as the fan, meets the ceiling
    with pytest.raises(ValueError) as info:
        frieze_from_quiddity((1,) * 3163)
    assert str(info.value) == "not the quiddity of a triangulated polygon"
    with pytest.raises(ValueError) as info:
        frieze_from_quiddity(fan_quiddity(3163))
    assert str(info.value) == ("the frieze of a 3163-gon has 5000703 entries, "
                               f"over the limit of {MAX_FRIEZE_ENTRIES}")


def test_diamond_rule_exhaustive():
    # diamonds whose four corners stay inside rows 0..m have tops in
    # rows 0..m-2
    for m in range(3, 10):
        for t in enumerate_triangulations(m):
            f = frieze_from_quiddity(quiddity_of(t))
            for i in range(m):
                for d in range(0, m - 1):
                    j = i + d
                    assert (f.entry(i - 1, j) * f.entry(i, j + 1)
                            - f.entry(i, j) * f.entry(i - 1, j + 1)) == 1


def test_entries_are_continuants():
    for m in range(3, 10):
        for t in enumerate_triangulations(m):
            f = frieze_from_quiddity(quiddity_of(t))
            q = f.quiddity
            for i in range(m):
                for j in range(i + 1, i + m + 1):
                    assert f.entry(i, j) == continuant([q[t % m] for t in range(i + 1, j)])


def test_ones_are_exactly_edges_and_diagonals():
    for m in range(4, 9):
        for t in enumerate_triangulations(m):
            f = frieze_from_quiddity(quiddity_of(t))
            ones = {(i, j) for (i, j), v in f.entries.items()
                    if v == 1 and 2 <= j - i <= m - 2}
            expected = {(a - 1, b - 1) for a, b in t.diagonals}
            assert ones == expected


def test_bijection_with_triangulations():
    for m in range(3, 10):
        for t in enumerate_triangulations(m):
            assert polygon_from_quiddity(frieze_from_quiddity(quiddity_of(t)).quiddity) == t


def test_n_q_in_frieze_for_all_small_fractions():
    for n, q in coprime_pairs(60):
        terms = hj_expand(Rational(n, q))
        f = frieze_from_quiddity(quiddity_of(polygon_of_cf(terms)))
        r = len(terms)
        assert f.entry(0, r + 1) == n
        assert f.entry(1, r + 1) == q


def test_complete_quiddity_running():
    # Conway-Coxeter: w+1 consecutive entries of a width-w frieze fix the
    # other two, the continuants of the prefix without its last (first) entry
    p = (2, 2, 3, 2, 1, 3)
    assert (continuant(p[:-1]), continuant(p[1:])) == (4, 1)
    assert embed_polygon(p + (4, 1), 0)[-1] == (1, 0)


def test_complete_quiddity_trivial_and_fan():
    for q in ((1, 1, 1), (6, 1, 2, 2, 2, 2, 2, 1)):
        p = q[:-2]
        assert (continuant(p[:-1]), continuant(p[1:])) == q[-2:]
        assert embed_polygon(q, 0)[-1] == (1, 0)


def test_complete_quiddity_recovers_every_small_frieze():
    # a prefix completes to a quiddity that embeds exactly when it begins a
    # triangulation's quiddity, and then completes to that quiddity
    for m in range(3, 9):
        completed = set()
        for p in product(range(1, m - 1), repeat=m - 2):
            q = p + (continuant(p[:-1]), continuant(p[1:]))
            if accepts(lambda q: embed_polygon(q, 0), q):
                completed.add(q)
        assert completed == {quiddity_of(t) for t in enumerate_triangulations(m)}


def test_complete_quiddity_past_the_frieze_ceiling():
    q = quiddity_of(polygon_of_cf(hj_expand(Rational(3201, 3200))))
    assert len(q) * (len(q) - 1) // 2 > MAX_FRIEZE_ENTRIES
    p = q[:-2]
    assert (continuant(p[:-1]), continuant(p[1:])) == q[-2:]
    assert embed_polygon(q, 0)[-1] == (1, 0)


def diamond_rule_frieze(q):
    """Reference builder: the full m x m row table by the diamond rule
    value(i,j) = (value(i,j-1)*value(i+1,j) - 1) / value(i+1,j-1), with the
    divisibility test and the messages of ``frieze_from_quiddity``."""
    q = tuple(q)
    m = len(q)
    if m < 3:
        raise ValueError("quiddity needs length >= 3")
    for t, a in enumerate(q):
        if a < 1:
            raise ValueError(f"quiddity entry {a} at position {t} is not positive")
    bad = "not a frieze quiddity: the diamond rule at ({},{}) produces {}"
    rows = [[0] * m, [1] * m, [q[(i + 1) % m] for i in range(m)]]
    for d in range(3, m):
        row = []
        for i in range(m):
            num = rows[d - 1][i] * rows[d - 1][(i + 1) % m] - 1
            den = rows[d - 2][(i + 1) % m]
            if num % den != 0:
                raise ValueError(bad.format(i, i + d, "a non-integral entry"))
            val = num // den
            if d <= m - 2 and val < 1:
                raise ValueError(bad.format(i, i + d, f"the non-positive entry {val}"))
            row.append(val)
        rows.append(row)
    for i, val in enumerate(rows[m - 1] if m > 3 else rows[2]):
        if val != 1:
            raise ValueError(bad.format(i, i + m - 1, f"closing value {val} instead of 1"))
    return {(i, i + d): rows[d][i] for d in range(1, m) for i in range(m - d)}


def assert_same_as_diamond_rule(q):
    got = outcome(frieze_from_quiddity, q)
    assert (got if isinstance(got, str) else got.entries) == outcome(diamond_rule_frieze, q)


def test_continuant_rows_match_diamond_rule_exhaustive():
    for m in range(3, 8):
        for q in product(range(5), repeat=m):
            assert_same_as_diamond_rule(q)


@given(quiddities())
def test_continuant_rows_match_diamond_rule(q):
    assert_same_as_diamond_rule(q)


def accepts(build, q) -> bool:
    return not isinstance(outcome(build, q), str)


def test_frieze_and_ear_cut_accept_the_same_quiddities_exhaustive():
    # Conway-Coxeter: frieze quiddities are the quiddities of triangulations
    for m in range(3, 8):
        for q in product(range(1, 5), repeat=m):
            assert accepts(frieze_from_quiddity, q) == accepts(polygon_from_quiddity, q)


@given(quiddities())
def test_frieze_and_ear_cut_accept_the_same_quiddities(q):
    if min(q) >= 1:
        assert accepts(frieze_from_quiddity, q) == accepts(polygon_from_quiddity, q)


def assert_store_is_the_row_frieze(q):
    f = frieze_from_quiddity(q)
    want = frieze_by_rows(q)
    assert f.entries == want
    assert list(f.entries.items()) == list(want.items())  # same row order


def test_store_is_the_row_frieze_on_every_small_triangulation():
    for m in range(3, 11):
        for t in enumerate_triangulations(m):
            assert_store_is_the_row_frieze(quiddity_of(t))


@given(st.integers(3, 60), st.randoms(use_true_random=False))
def test_store_is_the_row_frieze_on_random_triangulations(m, rng):
    assert_store_is_the_row_frieze(quiddity_of(random_triangulation(m, rng)))


def test_store_is_the_row_frieze_past_ninety_bits():
    # a ratio of consecutive Fibonacci numbers embeds at Fibonacci points
    a, b = 1, 1
    while b.bit_length() < 100:
        a, b = b, a + b
    q = quiddity_of(polygon_of_lotus(lotus_of_slope(Rational(b, a)))[0])
    assert max(max(v) for v in embed_polygon(q, 0)).bit_length() >= 90
    assert_store_is_the_row_frieze(q)


def test_entries_are_a_read_only_mapping_over_the_fundamental_domain():
    f = frieze_from_quiddity(RUNNING_QUIDDITY)
    m = f.m
    assert isinstance(f.entries, Mapping)
    assert set(f.entries) == {(i, j) for i in range(m) for j in range(i + 1, m)}
    assert len(f.entries) == m * (m - 1) // 2 == len(list(f.entries))
    for key in ((0, 0), (3, 3), (2, 1), (-1, 2), (0, m), (m, m + 1), (0,), (0, 1, 2), "01", 5):
        assert key not in f.entries
        with pytest.raises(KeyError):
            f.entries[key]
    with pytest.raises(TypeError):
        f.entries[(0, 1)] = 2
    assert f == f._replace(entries=dict(RUNNING_DOMAIN))
    assert f != f._replace(entries={**RUNNING_DOMAIN, (0, 5): 12})


def test_replaced_entries_answer_entry():
    f = frieze_from_quiddity(RUNNING_QUIDDITY)
    g = dataclasses.replace(f, entries={**f.entries, (0, 5): 12})
    assert type(g.entries) is dict
    assert g.entry(0, 5) == g.entry(5, 8) == 12
    assert f.entry(0, 5) == 11
    assert all(g.entry(i, j) == v for (i, j), v in RUNNING_DOMAIN.items() if (i, j) != (0, 5))


def test_refusals_are_the_row_scan_refusals():
    # the gate accepts what a row scan accepts, returning the ear cut's
    # triangulation, and a refusal carries the scan's message
    for m in range(2, 7):
        for q in product(range(-1, 5), repeat=m):
            scan = outcome(diamond_rule_frieze, q)
            gate = outcome(_check_quiddity, q)
            assert gate == (scan if isinstance(scan, str) else polygon_from_quiddity(q))


def test_refusals_before_any_row_keep_their_order():
    # length, then positivity, then the ear cut, and the ceiling on entries
    # only for a quiddity that passes them; the ear cut and the embedding,
    # which build no frieze, refuse the first three alike
    for q, message in (((0, 0), "quiddity needs length >= 3"),
                       ((0,) * 3163, "quiddity entry 0 at position 0 is not positive"),
                       ((1,) * 3162 + (0,), "quiddity entry 0 at position 3162 is not positive"),
                       ((1,) * 3163, "not the quiddity of a triangulated polygon")):
        for build in (frieze_from_quiddity, polygon_from_quiddity, lambda q: embed_polygon(q, 0)):
            assert outcome(build, q) == message
    assert outcome(frieze_from_quiddity, fan_quiddity(3163)) == (
        f"the frieze of a 3163-gon has 5000703 entries, over the limit of {MAX_FRIEZE_ENTRIES}")


def embed_by_index(q, k):
    """The embedding recurrence with each step's quiddity entry and last two
    vertices looked up by index."""
    m = len(q)
    verts = [(0, 1), (1, q[k % m])]
    for step in range(1, m - 1):
        mu = q[(k + step) % m]
        (a, b), (c, d) = verts[-1], verts[-2]
        verts.append((mu * a - c, mu * b - d))
    return verts


def test_embedding_runs_the_indexed_recurrence_at_every_rotation():
    rng = random.Random(26)
    quids = [quiddity_of(random_triangulation(rng.randint(3, 40), rng)) for _ in range(150)]
    quids += [quiddity_of(polygon_of_cf(hj_expand(Rational(987, 610))))]
    for q in quids:
        m = len(q)
        for k in range(-2 * m, 2 * m):
            assert _embed(q, k) == embed_by_index(q, k)
