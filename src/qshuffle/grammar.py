"""Shared text grammar: letters, words, elements, free terms.

Letters render as ``y<k>`` (weight), ``[x1 x2]`` (monomial, auto-sorted),
``(x1 x2)`` (word letter), bare lowercase names (atoms); a bare ``x<i>``
abbreviates the singleton monomial or word letter. Words join letters with
``.`` and the empty word prints as ``1``. Elements are signed sums of
optionally weighted words, e.g. ``2*y1.y1 + y2 - 1/2*y3``. Free terms are
fully parenthesized binary expressions over generators ``a``..``z`` or
``g<i>``: ``((a < b) . c)``.

A ``ParseError`` gives the exact position of the fault: the first character
of the offending letter, generator, coefficient or term, or the end of a
blank one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Iterable

from .coeff import (
    CoeffAlgebraSpec,
    Letter,
    atom_letter,
    mono_letter,
    weight_letter,
    word_letter,
)
from .freectd import _OP_SYMBOL, MAX_TERM_DEPTH, FreeTerm, NormalForm, gen
from .lincomb import Scalar
from .tensorq import EMPTY_WORD, TensorElement, TensorSquareElement, Word


class ParseError(ValueError):
    """Syntax or range error in grammar input, with a character position."""

    def __init__(self, message: str, position: int = 0) -> None:
        super().__init__(message)
        self.position = position


# ---------------------------------------------------------------------------
# parsing

_WEIGHT_RE = re.compile(r"y([1-9]\d*)")
_SINGLETON_RE = re.compile(r"x([1-9]\d*)")
_ATOM_RE = re.compile(r"[a-z][a-z0-9]*")
_RATIONAL_RE = re.compile(r"\d+(?:/[1-9]\d*)?")
_GENERATOR_RE = re.compile(r"g([1-9]\d*)")
_TOKEN_RE = re.compile(r"\S+")


def _generator_indices(body: str, position: int) -> tuple[int, ...]:
    """The generators of a bracketed letter whose bracket is at ``position``."""
    indices = []
    for token in _TOKEN_RE.finditer(body):
        m = _SINGLETON_RE.fullmatch(token.group())
        if not m:
            message = f"expected a generator like x1, got {token.group()!r}"
            raise ParseError(message, position + 1 + token.start())
        indices.append(int(m.group(1)))
    if not indices:
        raise ParseError("a bracketed letter needs at least one generator", position)
    return tuple(indices)


def parse_letter(alg: CoeffAlgebraSpec, text: str, position: int = 0) -> Letter:
    """Parse one letter in the algebra's letter style; checks membership."""
    position += len(text) - len(text.lstrip())  # errors point past leading blanks
    text = text.strip()
    style = alg.letter_style
    letter: Letter | None = None
    if style == "weight":
        m = _WEIGHT_RE.fullmatch(text)
        if m:
            letter = weight_letter(int(m.group(1)))
    elif style == "mono":
        m = _SINGLETON_RE.fullmatch(text)
        if m:
            letter = mono_letter((int(m.group(1)),))
        elif text.startswith("[") and text.endswith("]"):
            letter = mono_letter(_generator_indices(text[1:-1], position))
    elif style == "word":
        m = _SINGLETON_RE.fullmatch(text)
        if m:
            letter = word_letter((int(m.group(1)),))
        elif text.startswith("(") and text.endswith(")"):
            letter = word_letter(_generator_indices(text[1:-1], position))
    elif style == "atom":
        if _ATOM_RE.fullmatch(text):
            letter = atom_letter(text)
    if letter is None:
        raise ParseError(
            f"cannot read {text!r} as a letter of {alg.name}", position
        )
    if letter not in alg:
        raise ParseError(f"letter {letter} is not in {alg.name}", position)
    return letter


def _split_top_level(text: str, separators: str, position: int) -> list[tuple[str, int, str]]:
    """Split at any separator outside [] and (): each chunk stripped, with
    the position of its first character (its end, if blank) and the
    separator before it ('' for the first)."""
    cuts = [-1]
    depth = 0
    marks = separators + "()[]"
    for idx, ch in enumerate(text):
        if ch not in marks:
            continue
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced bracket", position + idx)
        elif depth == 0:
            cuts.append(idx)
    if depth != 0:
        raise ParseError("unbalanced bracket", position + len(text))
    chunks = []
    for start, end in zip(cuts, [*cuts[1:], len(text)]):
        rest = text[start + 1 : end].lstrip()
        before = text[start] if start >= 0 else ""
        chunks.append((rest.rstrip(), position + end - len(rest), before))
    return chunks


def parse_word(alg: CoeffAlgebraSpec, text: str, position: int = 0) -> Word:
    """Parse a dot-joined word; ``1`` is the empty word."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty word", position + len(text))
    if stripped == "1":
        return EMPTY_WORD
    letters = []
    for chunk, offset, _ in _split_top_level(text, ".", position):
        if not chunk:
            raise ParseError("empty letter between dots", offset)
        letters.append(parse_letter(alg, chunk, offset))
    return tuple(letters)


def _parse_rational(text: str, position: int) -> Scalar:
    if not _RATIONAL_RE.fullmatch(text):
        raise ParseError(f"expected a rational coefficient, got {text!r}", position)
    return Fraction(text) if "/" in text else int(text)


def parse_element(alg: CoeffAlgebraSpec, text: str) -> TensorElement:
    """Parse a signed sum of optionally weighted words."""
    if not text.strip():
        raise ParseError("empty element", len(text))
    chunks = _split_top_level(text, "+-", 0)
    if not chunks[-1][0]:
        raise ParseError("element ends with a dangling sign or is empty", len(text))
    terms: list[tuple[Word, Scalar]] = []
    sign = 1
    for body, offset, before in chunks:
        if before == "-":
            sign = -sign
        if not body:
            continue  # a unary sign, folded into the next term
        star_chunks = _split_top_level(body, "*", offset)
        if len(star_chunks) == 2:
            (coeff_text, coeff_pos, _), (word_text, word_pos, _) = star_chunks
            coeff = _parse_rational(coeff_text, coeff_pos)
            word = parse_word(alg, word_text, word_pos)
        elif len(star_chunks) > 2:
            raise ParseError("at most one * per term", offset)
        elif _RATIONAL_RE.fullmatch(body):
            coeff, word = _parse_rational(body, offset), EMPTY_WORD
        else:
            coeff, word = 1, parse_word(alg, body, offset)
        terms.append((word, sign * coeff))
        sign = 1
    return TensorElement(terms)


class _TermScanner:
    __slots__ = ("text", "pos")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""


_OP_NAME = {symbol: op for op, symbol in _OP_SYMBOL.items()}


def _parse_term_node(sc: _TermScanner, depth: int = 0) -> FreeTerm:
    sc.skip_ws()
    ch = sc.peek()
    if ch == "(":
        # refused before recursing, since parsing recurses once per level too
        if depth == MAX_TERM_DEPTH:
            raise ParseError(f"terms nest deeper than {MAX_TERM_DEPTH} levels", sc.pos)
        sc.pos += 1
        left = _parse_term_node(sc, depth + 1)
        sc.skip_ws()
        op_ch = sc.peek()
        if op_ch not in _OP_NAME:
            raise ParseError("expected an operation: < > or .", sc.pos)
        sc.pos += 1
        right = _parse_term_node(sc, depth + 1)
        sc.skip_ws()
        if sc.peek() != ")":
            raise ParseError("expected )", sc.pos)
        sc.pos += 1
        return FreeTerm(_OP_NAME[op_ch], left=left, right=right)
    if ch == "g" and sc.pos + 1 < len(sc.text) and sc.text[sc.pos + 1].isdigit():
        m = _GENERATOR_RE.match(sc.text, sc.pos)
        if not m:
            raise ParseError("malformed generator", sc.pos)
        sc.pos = m.end()
        return gen(int(m.group(1)))
    if ch.isalpha() and ch.islower():
        after = sc.text[sc.pos + 1] if sc.pos + 1 < len(sc.text) else ""
        if after.isalnum():
            raise ParseError("generators are single letters a..z or g<i>", sc.pos)
        sc.pos += 1
        return gen(ord(ch) - ord("a") + 1)
    raise ParseError("expected a generator or (", sc.pos)


def parse_free_term(text: str) -> FreeTerm:
    """Parse a fully parenthesized term over generators a..z or g<i>."""
    sc = _TermScanner(text)
    term = _parse_term_node(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        raise ParseError("unexpected trailing input", sc.pos)
    return term


# ---------------------------------------------------------------------------
# rendering


_text = attrgetter("text")
_coeff = itemgetter(1)


def render_word(word: Word) -> str:
    if not word:
        return "1"
    return ".".join(map(_text, word))


def _join_signed(parts: Iterable[tuple[str, Scalar]]) -> str:
    """``a - 2*b + 1/2``: a signed sum of (body, coefficient) pairs, where
    the body ``1`` stands for the bare coefficient."""
    out: list[str] = []
    for body, coeff in parts:
        if coeff < 0:
            out.append(" - " if out else "-")
            coeff = -coeff
        elif out:
            out.append(" + ")
        out.append(str(coeff) if body == "1" else body if coeff == 1 else f"{coeff}*{body}")
    return "".join(out) or "0"


def render_element(element: TensorElement) -> str:
    return _join_signed((render_word(w), c) for w, c in element.terms())


def render_square_element(square: TensorSquareElement) -> str:
    return _join_signed(
        (f"{render_word(u)} (x) {render_word(v)}", c) for (u, v), c in square.terms()
    )


def _render_block(block) -> str:
    """``(v1 v2)``: one block of a comb."""
    return "(v" + " v".join(map(str, block)) + ")" if block else "()"


def render_normal_form(nf: NormalForm) -> str:
    terms = nf.terms()
    # the combs of one form share their blocks, so each distinct block is
    # rendered once
    blocks = set(chain.from_iterable(map(itemgetter(0), terms)))
    lookup = {block: _render_block(block) for block in blocks}.__getitem__
    return _join_signed(("".join(map(lookup, seq)), c) for seq, c in terms)


# ---------------------------------------------------------------------------
# JSON forms (letters as grammar strings, coefficients as "p/q")


def _coeff_strings(terms: list) -> dict:
    """``"p/q"`` of each distinct coefficient of ``terms``, formatted once."""
    return {c: f"{c.numerator}/{c.denominator}" for c in set(map(_coeff, terms))}


def element_to_json(element: TensorElement) -> dict:
    terms = element.terms()
    coeff = _coeff_strings(terms)
    return {"terms": [{"coeff": coeff[c], "word": list(map(_text, w))} for w, c in terms]}


def element_from_json(alg: CoeffAlgebraSpec, data: dict) -> TensorElement:
    terms = []
    for entry in data["terms"]:
        coeff = Fraction(entry["coeff"])
        word = tuple(parse_letter(alg, token) for token in entry["word"])
        terms.append((word, coeff))
    return TensorElement(terms)


def square_to_json(square: TensorSquareElement) -> dict:
    terms = square.terms()
    coeff = _coeff_strings(terms)
    return {
        "terms": [
            {"coeff": coeff[c], "left": list(map(_text, u)), "right": list(map(_text, v))}
            for (u, v), c in terms
        ]
    }


def normal_form_to_json(nf: NormalForm) -> dict:
    terms = nf.terms()
    coeff = _coeff_strings(terms)
    return {
        "terms": [
            {"coeff": coeff[c], "blocks": list(map(list, blocks))}
            for blocks, c in terms
        ]
    }
