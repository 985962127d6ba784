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
blank one. Blank means ASCII whitespace (``_BLANK``); any other space is
an unreadable character.
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

# The blanks: ``string.whitespace``, what ``\s`` matches under ``re.ASCII``;
# ``str.strip()`` and ``isspace()`` take every Unicode space. A literal, since
# importing ``string`` added about 0.7 ms to each start (2-vCPU Xeon, 3.11).
_BLANK = " \t\n\r\x0b\x0c"

# ASCII: a bare \d or \s matches every Unicode digit or space, and int() reads the digits
_WEIGHT_RE = re.compile(r"y([1-9]\d*)", re.ASCII)
_SINGLETON_RE = re.compile(r"x([1-9]\d*)", re.ASCII)
_ATOM_RE = re.compile(r"[a-z][a-z0-9]*", re.ASCII)
_RATIONAL_RE = re.compile(r"\d+(?:/[1-9]\d*)?", re.ASCII)
_GENERATOR_RE = re.compile(r"g([1-9]\d*)", re.ASCII)
_TOKEN_RE = re.compile(r"\S+", re.ASCII)


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
    position += len(text) - len(text.lstrip(_BLANK))  # errors point past leading blanks
    text = text.strip(_BLANK)
    style = alg.letter_style
    letter: Letter | None = None
    if style == "weight":
        m = _WEIGHT_RE.fullmatch(text)
        if m:
            letter = weight_letter(int(m.group(1)))
    elif style in ("mono", "word"):
        (opening, closing), make = ("[]", mono_letter) if style == "mono" else ("()", word_letter)
        m = _SINGLETON_RE.fullmatch(text)
        if m:
            letter = make((int(m.group(1)),))
        elif text.startswith(opening) and text.endswith(closing):
            letter = make(_generator_indices(text[1:-1], position))
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
        rest = text[start + 1 : end].lstrip(_BLANK)
        before = text[start] if start >= 0 else ""
        chunks.append((rest.rstrip(_BLANK), position + end - len(rest), before))
    return chunks


def parse_word(alg: CoeffAlgebraSpec, text: str, position: int = 0) -> Word:
    """Parse a dot-joined word; ``1`` is the empty word."""
    stripped = text.strip(_BLANK)
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
    if not text.strip(_BLANK):
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


_OP_NAME = {symbol: op for op, symbol in _OP_SYMBOL.items()}


def _skip_blanks(text: str, pos: int) -> int:
    while pos < len(text) and text[pos] in _BLANK:  # ``"" in _BLANK`` holds
        pos += 1
    return pos


def _parse_term_node(text: str, pos: int, depth: int = 0) -> tuple[FreeTerm, int]:
    """The term at ``pos``, after blanks, and the position just past it."""
    pos = _skip_blanks(text, pos)
    ch = text[pos : pos + 1]
    if ch == "(":
        # refused before recursing, since parsing recurses once per level too
        if depth == MAX_TERM_DEPTH:
            raise ParseError(f"terms nest deeper than {MAX_TERM_DEPTH} levels", pos)
        left, pos = _parse_term_node(text, pos + 1, depth + 1)
        pos = _skip_blanks(text, pos)
        op = _OP_NAME.get(text[pos : pos + 1])
        if op is None:
            raise ParseError("expected an operation: < > or .", pos)
        right, pos = _parse_term_node(text, pos + 1, depth + 1)
        pos = _skip_blanks(text, pos)
        if text[pos : pos + 1] != ")":
            raise ParseError("expected )", pos)
        return FreeTerm(op, left=left, right=right), pos + 1
    if ch == "g" and text[pos + 1 : pos + 2].isdigit():
        m = _GENERATOR_RE.match(text, pos)
        if not m:
            raise ParseError("malformed generator", pos)
        return gen(int(m.group(1))), m.end()
    if "a" <= ch <= "z":
        if text[pos + 1 : pos + 2].isalnum():
            raise ParseError("generators are single letters a..z or g<i>", pos)
        return gen(ord(ch) - ord("a") + 1), pos + 1
    raise ParseError("expected a generator or (", pos)


def parse_free_term(text: str) -> FreeTerm:
    """Parse a fully parenthesized term over generators a..z or g<i>."""
    term, pos = _parse_term_node(text, 0)
    pos = _skip_blanks(text, pos)
    if pos != len(text):
        raise ParseError("unexpected trailing input", pos)
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
    """Read what ``element_to_json`` writes: each coefficient an int or ``p/q``
    text with an optional ``-``; ``TensorElement`` refuses a float or a bool."""
    entries = data.get("terms") if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError('element data needs a "terms" list')
    terms = []
    for entry in entries:
        fields = entry if isinstance(entry, dict) else {}
        coeff, word = fields.get("coeff"), fields.get("word")
        if coeff is None or not isinstance(word, list) or not all(isinstance(t, str) for t in word):
            raise ValueError(f"term {entry!r} needs a \"coeff\" and a \"word\" list")
        if isinstance(coeff, str):
            sign, body = (-1, coeff[1:]) if coeff.startswith("-") else (1, coeff)
            if not _RATIONAL_RE.fullmatch(body):
                message = f"coefficient {coeff!r} is not an int or p/q with a nonzero denominator"
                raise ValueError(message)
            coeff = sign * _parse_rational(body, 0)
        terms.append((tuple(parse_letter(alg, token) for token in word), coeff))
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
