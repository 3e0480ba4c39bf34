import pytest
from hypothesis import given, strategies as st

from colsym.errors import DomainError
from colsym.words import (
    A,
    B,
    C,
    REFLECTIONS,
    ROTATIONS,
    XGEN,
    XINV,
    ZGEN,
    ZINV,
    Alphabet,
)
from oracle import free_reduce, generator_columns, parse_word, sign_parity, word_str

reflection_words = st.lists(st.sampled_from((A, B, C)), max_size=30).map(tuple)
rotation_words = st.lists(
    st.sampled_from((XGEN, XINV, ZGEN, ZINV)), max_size=30
).map(tuple)


def test_free_reduce_examples():
    assert free_reduce((A, A)) == ()
    assert free_reduce((A, B, B, A)) == ()
    assert free_reduce((A, B, A)) == (A, B, A)
    assert free_reduce((B, A, A, C)) == (B, C)
    assert free_reduce((XGEN, XINV), ROTATIONS) == ()
    assert free_reduce((XGEN, ZGEN, ZINV, XGEN), ROTATIONS) == (XGEN, XGEN)


@given(reflection_words)
def test_free_reduce_idempotent(w):
    r = free_reduce(w)
    assert free_reduce(r) == r


@given(rotation_words)
def test_free_reduce_idempotent_rotations(w):
    r = free_reduce(w, ROTATIONS)
    assert free_reduce(r, ROTATIONS) == r


@given(reflection_words)
def test_inverse_word_cancels(w):
    assert free_reduce(w + REFLECTIONS.inverse_word(w)) == ()


@given(rotation_words)
def test_inverse_word_cancels_rotations(w):
    iw = ROTATIONS.inverse_word(w)
    assert free_reduce(w + iw, ROTATIONS) == ()
    assert free_reduce(iw + w, ROTATIONS) == ()


@given(reflection_words)
def test_reduction_preserves_parity(w):
    assert sign_parity(free_reduce(w)) == sign_parity(w)


def test_sign_parity():
    assert sign_parity(()) == 0
    assert sign_parity((A,)) == 1
    assert sign_parity((A, B)) == 0


def test_parse_word_str_round_trip():
    w = (A, B, C, B)
    assert parse_word(REFLECTIONS, word_str(REFLECTIONS, w)) == w
    v = (XGEN, ZINV, XINV)
    assert parse_word(ROTATIONS, word_str(ROTATIONS, v)) == v


def test_parse_rejects_unknown_letter():
    with pytest.raises(DomainError):
        parse_word(REFLECTIONS, "abq")


def test_alphabet_validation():
    with pytest.raises(DomainError):
        Alphabet(("a", "b"), (0,))  # length mismatch
    with pytest.raises(DomainError):
        Alphabet(("a", "b"), (0, 0))  # not an involution pairing


def test_generator_columns():
    assert generator_columns(REFLECTIONS) == (A, B, C)
    assert generator_columns(ROTATIONS) == (XGEN, ZGEN)


def test_alphabet_checks_the_letters_of_a_word():
    REFLECTIONS.check_word(())
    REFLECTIONS.check_word((A, B, C))
    ROTATIONS.check_word((XGEN, XINV, ZGEN, ZINV))
    for w in ((3,), (-1,), (A, 3), (True,), (1.0,), ("a",)):
        with pytest.raises(DomainError, match="outside the alphabet"):
            REFLECTIONS.check_word(w)
    with pytest.raises(DomainError, match="relator"):
        ROTATIONS.check_word((ZINV + 1,), "relator")


def test_letters_outside_the_alphabet_are_refused_at_every_entry_point():
    # a negative letter would alias the last one (-1 reads as c), and one
    # past the end indexed out of a row, or read the next coset's entries
    from colsym.census import Scope, TilingKind, census, colour_permutation
    from colsym.geometry import generate_patch
    from colsym.lowindex import low_index_classes
    from colsym.presentations import Presentation, triangle_group
    from colsym.render import colour_patch, verify_perfect_on_patch

    G = triangle_group(7, 3)
    (entry,) = [e for e in census(7, 3, TilingKind.PQ, Scope.FULL, 8).entries if e.colours == 8]
    t = entry.representatives[0].table
    cp = colour_patch(generate_patch(7, 3, 4), t, TilingKind.PQ)
    for bad in ((3,), (-1,), (A, 5)):
        cases = [
            lambda: low_index_classes(G, 8, seeds=((bad,),)),
            lambda: verify_perfect_on_patch(cp, bad),
            lambda: colour_permutation(t, bad),
            lambda: t.action(bad),
            lambda: REFLECTIONS.inverse_word(bad),
            lambda: cp.patch.image(bad),
            lambda: cp.patch.walk(0, bad),
            lambda: Presentation(REFLECTIONS, ((A, A), bad), "bad-letters"),
        ]
        for case in cases:
            with pytest.raises(DomainError, match="outside the alphabet"):
                case()
    assert verify_perfect_on_patch(cp, (C,))
    assert colour_permutation(t, (C,)) == tuple(t.action((C,)))
    assert REFLECTIONS.inverse_word((A, B, C)) == (C, B, A)


def test_every_word_least_fixed_coset_is_given_is_over_its_alphabet():
    # least_fixed_coset reads its words unchecked, where a letter outside
    # the alphabet reads another coset's entry: census and colour_patch pass
    # it the tile stabilizer words over the reflections, and census the
    # tile rotation over the rotation letters
    from colsym.census import Scope, TilingKind, required_words, rotation_required_word

    for kind in TilingKind:
        for scope in Scope:
            for w in required_words(kind, scope):
                REFLECTIONS.check_word(w, "stabilizer word")
        ROTATIONS.check_word(rotation_required_word(kind), "tile rotation")
