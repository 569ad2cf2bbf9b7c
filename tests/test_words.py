import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyball.words import (
    MultiWord,
    ShapeMismatchError,
    Word,
    compare,
    identity_multiword,
    lambda_membership,
    lambda_pairs_up_to_total,
    multiword,
    multiwords_up_to_total,
    words_up_to,
)


def test_reverse_examples():
    w = multiword([[1, 2, 3]], [3])
    assert w.reverse() == multiword([[3, 2, 1]], [3])
    g = identity_multiword([2, 2])
    assert g.reverse() == g
    w2 = multiword([[1, 2], [2]], [2, 2])
    assert w2.reverse() == multiword([[2, 1], [2]], [2, 2])
    assert w2.reverse().reverse() == w2


def test_multiword_hash_and_reversal_are_cached_exactly():
    """The cached hash is the generated one, hash((parts,)), so no set or
    dict order moves; the cached reversal is the per-word one, computed once,
    and reversing twice gives the word back."""
    for mw in multiwords_up_to_total((2, 1, 3), 3):
        assert hash(mw) == hash((mw.parts,)) == hash(MultiWord(mw.parts))
        assert mw.reverse() == MultiWord(tuple(w.reverse() for w in mw.parts))
        assert mw.reverse() is mw.reverse()
        assert mw.reverse().reverse() == mw
    with pytest.raises(dataclasses.FrozenInstanceError):
        mw.parts = mw.reverse().parts


@pytest.mark.parametrize("enumeration, args", [
    (words_up_to, (2, 3)),
    (multiwords_up_to_total, ((2, 1), 3)),
    (lambda_pairs_up_to_total, ((2, 1), 3)),
], ids=["words", "multiwords", "lambda_pairs"])
def test_memoized_enumerations_return_fresh_lists(enumeration, args):
    """Each call returns a new list of the shared words: editing one result
    leaves the next call's result as it was."""
    first = enumeration(*args)
    want = list(first)
    first.append(first[0])
    first.reverse()
    del first[1]
    again = enumeration(*args)
    assert again == want and again is not first
    assert all(x is y for x, y in zip(again, enumeration(*args)))


def test_compare_right_examples():
    n = [2, 1]
    r = compare("right", multiword([[1, 2], []], n), multiword([[2], []], n))
    assert r.comparable
    assert r.c_plus == multiword([[1], []], n)
    assert r.c_minus == identity_multiword(n)

    r = compare("right", multiword([[1], []], n), multiword([[2], []], n))
    assert not r.comparable


def test_compare_left_example():
    n = [2, 1]
    r = compare("left", multiword([[1, 2], []], n), multiword([[1], []], n))
    assert r.comparable
    assert r.c_plus == multiword([[2], []], n)
    assert r.c_minus == identity_multiword(n)


def test_compare_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        compare("right", multiword([[1]], [2]), multiword([[1], []], [2, 1]))


@pytest.mark.parametrize("side", ["Left", "lft", "", None])
def test_compare_refuses_unknown_side(side):
    """Only "left" and "right" name a side: a misspelling raises instead of
    being read as the left side."""
    with pytest.raises(ValueError, match="side must be"):
        compare(side, multiword([[1, 2]], [2]), multiword([[1]], [2]))


def test_lambda_membership_examples():
    n = [2, 2]
    assert lambda_membership(multiword([[1], []], n), multiword([[], [2]], n))
    assert not lambda_membership(multiword([[1], []], n), multiword([[1], []], n))
    g = identity_multiword(n)
    assert lambda_membership(g, g)


def test_lambda_reversal_and_fixed_point():
    n = [2, 2]
    for a, b in lambda_pairs_up_to_total(n, 3):
        assert lambda_membership(a.reverse(), b.reverse())
        c = compare("left", a, b)
        assert c.comparable and c.c_plus == a and c.c_minus == b


def _lambda_pairs_by_filter(n, total):
    """Every pair of multiwords, filtered: the definition, in the order the
    enumeration must keep (seeded draws consume pairs in this order)."""
    mws = multiwords_up_to_total(n, total)
    return [
        (a, b)
        for a in mws
        for b in mws
        if a.total_length + b.total_length <= total and lambda_membership(a, b)
    ]


@pytest.mark.parametrize("n, total", [
    ((2, 1), 3), ((2, 1), 6), ((2, 2), 6), ((3,), 6), ((1, 1, 2), 5),
])
def test_lambda_pairs_match_filter(n, total):
    assert lambda_pairs_up_to_total(n, total) == _lambda_pairs_by_filter(n, total)


def _oracle_right_less(v, w):
    # v <_r w iff w = s.v for some nonempty s
    lv, lw = list(v.letters), list(w.letters)
    return len(lv) < len(lw) and lw[len(lw) - len(lv):] == lv


def test_exhaustive_against_oracle():
    """Definition-chasing oracle over all multiwords of total length <= 4."""
    for n in ([2], [2, 2]):
        words = multiwords_up_to_total(n, 4)
        for w, v in itertools.product(words, words):
            if w.total_length + v.total_length > 4:
                continue
            got = compare("right", w, v)
            per_factor = []
            for wi, vi in zip(w.parts, v.parts):
                per_factor.append(
                    wi == vi or _oracle_right_less(wi, vi) or _oracle_right_less(vi, wi)
                )
            assert got.comparable == all(per_factor)
            if got.comparable:
                # quotients reconstruct by concatenation
                for wi, vi, pi, mi in zip(w.parts, v.parts, got.c_plus.parts, got.c_minus.parts):
                    assert pi.letters + vi.letters == wi.letters or \
                        mi.letters + wi.letters == vi.letters
                # reversal intertwines both quotients
                lft = compare("left", w.reverse(), v.reverse())
                assert lft.comparable
                assert lft.c_plus == got.c_plus.reverse()
                assert lft.c_minus == got.c_minus.reverse()


def test_enumeration_order():
    ws = words_up_to(2, 2)
    assert [w.letters for w in ws] == [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
    mws = multiwords_up_to_total([1, 1], 2)
    assert mws[0] == identity_multiword([1, 1])
    assert all(mws[i].total_length <= mws[i + 1].total_length for i in range(len(mws) - 1))


def test_total_length_is_computed_once_and_not_a_field():
    w = multiword([[1, 2], [1]], [2, 1])
    assert "total_length" not in vars(w)
    assert w.total_length == 3
    assert vars(w)["total_length"] == 3
    fresh = multiword([[1, 2], [1]], [2, 1])
    # the cached value takes no part in equality or hashing
    assert w == fresh and hash(w) == hash(fresh)
    assert {w: 0}[fresh] == 0


def test_generator_range_validation():
    with pytest.raises(ValueError):
        Word((3,), 2)
    with pytest.raises(ValueError):
        Word((0,), 2)


@st.composite
def word_pairs(draw):
    n = draw(st.integers(1, 3))
    a = draw(st.lists(st.integers(1, n), max_size=5))
    b = draw(st.lists(st.integers(1, n), max_size=5))
    return Word(tuple(a), n), Word(tuple(b), n)


@given(word_pairs())
@settings(max_examples=200, deadline=None)
def test_single_factor_comparability_is_symmetric(pair):
    a, b = pair
    wa, wb = multiword([a.letters], [a.n]), multiword([b.letters], [b.n])
    assert compare("right", wa, wb).comparable == compare("right", wb, wa).comparable
    assert compare("left", wa, wb).comparable == compare("left", wb, wa).comparable
    r = compare("right", wa, wb)
    if r.comparable:
        s = compare("right", wb, wa)
        assert r.c_plus == s.c_minus and r.c_minus == s.c_plus


@given(word_pairs())
@settings(max_examples=200, deadline=None)
def test_concat_is_comparable(pair):
    a, b = pair
    joined = a.concat(b)
    wa = multiword([joined.letters], [a.n])
    wb = multiword([b.letters], [b.n])
    r = compare("right", wa, wb)
    assert r.comparable
    assert r.c_plus.parts[0] == a or joined == b
