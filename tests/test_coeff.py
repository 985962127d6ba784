"""Letter pools, letter products, involutions, and algebra lookups."""

import copy
import os
import pickle
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from qshuffle import coeff as coeff_module
from qshuffle import (
    CoeffCombination,
    DomainError,
    LawReport,
    LawViolation,
    Letter,
    LetterDomainError,
    MissingInvolutionError,
    algebra_by_name,
    atom_letter,
    builtin_algebras,
    derived_structure,
    gen,
    involute_letter,
    mono_letter,
    multiply_letters,
    pointwise_function_algebra,
    stuffle_y_algebra,
    summation_operator,
    sym_algebra,
    weight_letter,
    word_algebra,
    word_letter,
    zero_algebra,
)

from conftest import letter_product_commutes


class TestLetter:
    def test_degree_by_kind(self):
        assert atom_letter("a").degree == 1
        assert weight_letter(4).degree == 4
        assert mono_letter((2, 1, 1)).degree == 3
        assert word_letter((1, 2, 1)).degree == 3

    def test_mono_payload_is_sorted(self):
        assert mono_letter((2, 1)) == mono_letter((1, 2))
        with pytest.raises(ValueError):
            Letter("mono", (2, 1))

    def test_equal_letters_are_one_object(self, sym2, word2):
        assert mono_letter([2, 1]) is mono_letter((1, 2))
        assert Letter("mono", (1, 2)) is mono_letter((2, 1))
        assert weight_letter(3) is Letter("weight", 3)
        assert word_letter([1, 2]) is word_letter((1, 2))
        assert atom_letter("q") is Letter("atom", "q")
        ((product, _),) = multiply_letters(sym2, mono_letter((2,)), mono_letter((1,))).terms()
        assert product is mono_letter((1, 2))
        assert involute_letter(word2, word_letter((1, 2))) is word_letter((2, 1))

    def test_pickle_and_copy_keep_the_shared_letter(self):
        for letter in (
            atom_letter("q"),
            mono_letter((1, 1, 2)),
            word_letter((2, 1)),
            weight_letter(5),
        ):
            assert pickle.loads(pickle.dumps(letter)) is letter
            for clone in (copy.copy(letter), copy.deepcopy(letter)):
                assert clone == letter
                assert hash(clone) == hash(letter)

    def test_concurrent_first_construction_shares_one_letter(self, monkeypatch):
        # Hold two threads inside the construction of the same new letter,
        # after both have missed the intern table, so both build a copy.
        barrier = threading.Barrier(2, timeout=5)
        derived = coeff_module._derived

        def held(kind, payload):
            barrier.wait()
            return derived(kind, payload)

        monkeypatch.setattr(coeff_module, "_derived", held)
        built = [None, None]

        def build(slot):
            built[slot] = Letter("atom", "letter-built-by-two-threads")

        threads = [threading.Thread(target=build, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert built[0] is not None and built[0] is built[1]
        assert built[0] is atom_letter("letter-built-by-two-threads")

    def test_letters_are_immutable(self):
        letter = weight_letter(2)
        with pytest.raises(AttributeError):
            letter.payload = 3
        with pytest.raises(AttributeError):
            del letter.text
        assert letter.payload == 2 and letter.text == "y2"

    def test_word_payload_keeps_order(self):
        assert word_letter((2, 1)) != word_letter((1, 2))

    def test_nonempty_payload_required(self):
        with pytest.raises(ValueError):
            mono_letter(())
        with pytest.raises(ValueError):
            word_letter(())
        with pytest.raises(ValueError):
            weight_letter(0)

    def test_bools_are_refused_where_a_positive_int_is_required(self):
        """``True == 1``, so an accepted ``True`` would intern the letter x1
        or y1 with the text ``xTrue`` or ``yTrue``. The calls run in a fresh
        interpreter, so that a failure cannot rename x1 for later tests."""
        script = """
from qshuffle import (
    eval_ctd, gen, mono_letter, prec, render_element, sym_algebra, weight_letter,
    word_algebra, word_letter,
)
refused = [
    (mono_letter, (True,), "mono letter needs a nonempty tuple of positive ints"),
    (word_letter, (1, True), "word letter needs a nonempty tuple of positive ints"),
    (weight_letter, True, "weight letter needs a positive integer"),
    (gen, True, "generator leaf needs a positive index and no children"),
    (sym_algebra, True, "sym algebra needs at least one generator"),
    (word_algebra, True, "word algebra needs at least one generator"),
]
for build, arg, message in refused:
    try:
        build(arg)
    except ValueError as exc:
        assert str(exc) == message, (build, exc)
    else:
        raise AssertionError(f"{build.__name__}({arg!r}) was accepted")
assert mono_letter((1,)).text == "x1"
assert weight_letter(1).text == "y1"
assert word_letter((1,)).text == "x1"
assert render_element(eval_ctd(prec(gen(1), gen(2)), 2)) == "x1.x2"
assert sym_algebra(1).name == "sym1" and word_algebra(1).name == "word1"
"""
        src = str(Path(coeff_module.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert mono_letter((1,)).text == "x1" and weight_letter(1).text == "y1"

    def test_order_is_degree_first(self):
        low = weight_letter(1)
        high = weight_letter(3)
        assert low < high
        assert mono_letter((1,)) < mono_letter((1, 1))

    def test_str_forms(self):
        assert str(weight_letter(2)) == "y2"
        assert str(mono_letter((1,))) == "x1"
        assert str(mono_letter((2, 1))) == "[x1 x2]"
        assert str(word_letter((2, 1))) == "(x2 x1)"
        assert str(atom_letter("q")) == "q"


class TestBuiltinPools:
    def test_sym2_low_degrees(self, sym2):
        degree1 = list(sym2.degree_slice(1))
        degree2 = list(sym2.degree_slice(2))
        assert degree1 == [mono_letter((1,)), mono_letter((2,))]
        assert degree2 == [
            mono_letter((1, 1)),
            mono_letter((1, 2)),
            mono_letter((2, 2)),
        ]

    def test_word2_degree2(self, word2):
        assert list(word2.degree_slice(2)) == [
            word_letter((1, 1)),
            word_letter((1, 2)),
            word_letter((2, 1)),
            word_letter((2, 2)),
        ]

    def test_stuffle_one_letter_per_degree(self, stuffle_alg):
        for k in range(1, 7):
            assert list(stuffle_alg.degree_slice(k)) == [weight_letter(k)]

    def test_zero_letters_are_atoms(self, zero_alg):
        pool = zero_alg.degree_slice(1)
        assert atom_letter("a") in pool and atom_letter("z") in pool
        assert len(pool) == 26
        assert list(zero_alg.degree_slice(2)) == []

    def test_degree_slices_are_built_once(self):
        for alg in builtin_algebras():
            for degree in (1, 2):
                assert alg.degree_slice(degree) is alg.degree_slice(degree)

    def test_membership(self, sym2, word2):
        assert mono_letter((1, 2)) in sym2
        assert mono_letter((3,)) not in sym2
        assert word_letter((2, 1)) in word2
        assert mono_letter((1,)) not in word2


class TestProducts:
    def test_zero_product(self, zero_alg):
        result = multiply_letters(zero_alg, atom_letter("a"), atom_letter("b"))
        assert not result

    def test_weight_addition(self, stuffle_alg):
        result = multiply_letters(stuffle_alg, weight_letter(2), weight_letter(3))
        assert result == CoeffCombination.basis(weight_letter(5))

    def test_multiset_union(self, sym2):
        result = multiply_letters(sym2, mono_letter((1,)), mono_letter((2,)))
        assert result == CoeffCombination.basis(mono_letter((1, 2)))

    def test_concatenation(self, word2):
        result = multiply_letters(word2, word_letter((2,)), word_letter((1,)))
        assert result == CoeffCombination.basis(word_letter((2, 1)))

    def test_member_check(self, sym2):
        with pytest.raises(LetterDomainError):
            multiply_letters(sym2, mono_letter((1,)), mono_letter((5,)))

    def test_associativity_exhaustive_small(self):
        for alg in builtin_algebras():
            letters = _letters_up_to(alg, 2)[:6]
            for a in letters:
                for b in letters:
                    for c in letters:
                        left = _combine(alg, multiply_letters(alg, a, b), c, False)
                        right = _combine(alg, multiply_letters(alg, b, c), a, True)
                        assert left == right, (alg.name, a, b, c)

    def test_commutative_flags(self):
        for alg in builtin_algebras():
            assert _flips_equal(alg, 3) == letter_product_commutes(alg), alg.name

    def test_word1_is_commutative(self):
        assert _flips_equal(word_algebra(1), 3) and letter_product_commutes(word_algebra(1))
        assert not _flips_equal(word_algebra(2), 3)
        assert not letter_product_commutes(word_algebra(2))


def _letters_up_to(alg, degree):
    return [letter for d in range(1, degree + 1) for letter in alg.degree_slice(d)]


def _flips_equal(alg, degree):
    """Whether ab = ba for all letters a, b of degree at most ``degree``."""
    letters = _letters_up_to(alg, degree)
    return all(
        multiply_letters(alg, a, b) == multiply_letters(alg, b, a)
        for a in letters
        for b in letters
    )


def _combine(alg, combination, letter, letter_on_left):
    acc = CoeffCombination()
    for mid, c in combination.items():
        if letter_on_left:
            acc = acc + c * multiply_letters(alg, letter, mid)
        else:
            acc = acc + c * multiply_letters(alg, mid, letter)
    return acc


class TestInvolutions:
    def test_reversal(self, word3):
        assert involute_letter(word3, word_letter((1, 2, 3))) == word_letter((3, 2, 1))
        assert involute_letter(word3, word_letter((1,))) == word_letter((1,))

    def test_identity_on_commutative(self, sym2, stuffle_alg):
        for alg in (sym2, stuffle_alg):
            for letter in _letters_up_to(alg, 3):
                assert involute_letter(alg, letter) == letter

    def test_missing_involution(self, zero_alg):
        with pytest.raises(MissingInvolutionError):
            involute_letter(zero_alg, atom_letter("a"))
        assert zero_alg.involution_rule is None

    def test_antimorphism_exhaustive(self, word2):
        letters = _letters_up_to(word2, 3)
        for a in letters:
            for b in letters:
                lhs = CoeffCombination(
                    (involute_letter(word2, letter), c)
                    for letter, c in multiply_letters(word2, a, b).items()
                )
                rhs = multiply_letters(
                    word2, involute_letter(word2, b), involute_letter(word2, a)
                )
                assert lhs == rhs

    def test_involutive_exhaustive(self, word3):
        for letter in _letters_up_to(word3, 3):
            assert involute_letter(word3, involute_letter(word3, letter)) == letter


class TestLookup:
    def test_names(self):
        assert algebra_by_name("zero") is zero_algebra()
        assert algebra_by_name("stuffle-y") is stuffle_y_algebra()
        assert algebra_by_name("sym2") is sym_algebra(2)
        assert algebra_by_name("word3") is word_algebra(3)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            algebra_by_name("sym0")
        with pytest.raises(ValueError):
            algebra_by_name("mystery")

    def test_one_builder_still_refuses_what_equals_a_built_n(self):
        # True == 1 and 2.0 == 2, so a cache keyed on value alone would
        # return the algebras built first
        for n in (1, 2):
            sym_algebra(n), word_algebra(n)
        for build, family in ((sym_algebra, "sym"), (word_algebra, "word")):
            for n in (True, 2.0):
                with pytest.raises(ValueError, match=f"^{family} algebra needs at least one"):
                    build(n)

    def test_generator_bound(self):
        bound = coeff_module.MAX_GENERATORS
        assert algebra_by_name(f"sym{bound}") is sym_algebra(bound)
        assert algebra_by_name(f"word{bound}") is word_algebra(bound)
        for name in (f"sym{bound + 1}", f"word{bound + 1}", "word600"):
            with pytest.raises(ValueError, match=f"at most {bound} are supported"):
                algebra_by_name(name)

    def test_builtins_cover_the_four_families(self):
        names = {alg.name for alg in builtin_algebras()}
        assert {"zero", "stuffle-y", "sym2", "word2"} <= names


@given(k1=st.integers(1, 20), k2=st.integers(1, 20))
def test_weight_product_adds_degrees(k1, k2):
    alg = stuffle_y_algebra()
    result = multiply_letters(alg, weight_letter(k1), weight_letter(k2))
    assert result == CoeffCombination.basis(weight_letter(k1 + k2))


@given(
    payload=st.lists(st.integers(1, 3), min_size=1, max_size=4),
)
def test_word_letter_roundtrip_under_reversal(payload):
    alg = word_algebra(3)
    letter = word_letter(tuple(payload))
    assert involute_letter(alg, involute_letter(alg, letter)) == letter


def _frozen_instances():
    algebra, operator = pointwise_function_algebra(2), summation_operator(2)
    cases = [
        (weight_letter(2), "payload"),
        (gen(1), "index"),
        (LawViolation("law", 0, ("y1",), "y1", "y2"), "lhs"),
        (algebra, "name"),
        (operator, "matrix"),
        (derived_structure(algebra, operator), "operator"),
    ]
    return [pytest.param(obj, name, id=type(obj).__name__) for obj, name in cases]


@pytest.mark.parametrize(("instance", "name"), _frozen_instances())
def test_immutable_classes_refuse_assignment_and_deletion(instance, name):
    before = getattr(instance, name)
    with pytest.raises(AttributeError):
        setattr(instance, name, before)
    with pytest.raises(AttributeError):
        delattr(instance, name)
    with pytest.raises(AttributeError):
        instance.extra = 1
    assert getattr(instance, name) is before


def test_a_law_report_is_slotted_but_assignable():
    report = LawReport("seven", "sym2", 3, 1)
    assert report.violations == [] and report.ok
    report.cases = 4
    assert report.to_json()["cases"] == 4
    with pytest.raises(AttributeError):
        report.extra = 1
