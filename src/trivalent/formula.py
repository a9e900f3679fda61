"""Formula syntax for three-valued propositional logics.

A formula is an atom, a constant, or a connective applied to arguments.
Each is a tuple that holds a tag, then its fields: ``("0atom", name)``,
``("1const", kind)`` or ``("2comp", connective, *args)``.  A formula is
therefore its own canonical key: equality, hashing and ordering are the
tuple's, computed in C, and sorting orders atoms before constants before
compounds, each by name, kind or connective and then by arguments.
Connectives are identified by symbolic ids ("neg", "and_w", "impl_l", ...);
each logic declares which ids belong to its signature.  The ASCII surface
syntax is signature-relative:

* atoms are identifiers (``[a-zA-Z][a-zA-Z0-9_]*``, minus reserved words),
* ``~`` is the signature's primary negation, ``&``/``|``/``->`` its native
  conjunction/disjunction/implication,
* ``neg_h``/``neg_b``/``neg_p``/``neg_dp`` name the Heyting, Bochvar, Post
  and dual-Post negations explicitly, ``box``/``dia`` the modalities,
  ``o1``/``o2`` the two Palasinska operators, ``and_l``/``or_l`` the
  additive Lukasiewicz pair,
* ``T``/``F``/``U`` are the true/false/undefined constants,
* precedence: prefix operators bind tightest, then ``&``, then ``|``, then
  ``->``; ``->`` is right-associative, ``&`` and ``|`` left-associative.
  ``and_l``, ``o1`` and ``o2`` bind like ``&``, ``or_l`` like ``|``.  One
  operator table, ``_LEVEL_BY_TOKEN``, is the single source of these
  levels for both the parser and the renderer.
"""
from __future__ import annotations

import re
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "Atom",
    "Compound",
    "Constant",
    "Formula",
    "InputError",
    "ParseError",
    "RenderError",
    "UnknownConnectiveError",
    "CONNECTIVES",
    "MAX_NESTING",
    "atoms",
    "complexity",
    "connectives_of",
    "iter_formulas",
    "parse_formula",
    "render",
]

#: arity of every built-in connective id.
CONNECTIVES: dict[str, int] = {
    # negations
    "neg": 1, "neg_h": 1, "neg_b": 1, "neg_p": 1, "neg_dp": 1,
    # modalities
    "dia": 1, "box": 1,
    # strong Kleene pair plus implication
    "and": 2, "or": 2, "impl": 2,
    # weak variants
    "and_w": 2, "or_w": 2, "impl_w": 2,
    # left-sequential variants
    "and_mc": 2, "or_mc": 2, "impl_mc": 2,
    # right-sequential variants
    "and_k": 2, "or_k": 2, "impl_k": 2,
    # Lukasiewicz implication and additive pair
    "impl_l": 2, "and_l": 2, "or_l": 2,
    # further implications
    "impl_sl": 2, "impl_h": 2, "impl_j": 2, "impl_r": 2, "impl_t": 2,
    # Sobocinski connectives (impl_sp is his second implication)
    "and_s": 2, "or_s": 2, "impl_s": 2, "impl_sp": 2,
    # connectives with classical outputs, undefined acting as truth
    "and_se": 2, "or_se": 2, "impl_se": 2,
    # connectives with classical outputs, undefined acting as falsity
    "and_c": 2, "or_c": 2, "impl_c": 2,
    # Palasinska operators
    "circ1": 2, "circ2": 2,
}

_KEYWORD_TO_ID = {
    "neg_h": "neg_h",
    "neg_b": "neg_b",
    "neg_p": "neg_p",
    "neg_dp": "neg_dp",
    "box": "box",
    "dia": "dia",
    "o1": "circ1",
    "o2": "circ2",
    "and_l": "and_l",
    "or_l": "or_l",
}
_ID_TO_KEYWORD = {cid: tok for tok, cid in _KEYWORD_TO_ID.items()}

_CONSTANT_TOKENS = {"T": "top", "F": "bottom", "U": "undef"}
_CONSTANT_SYMBOL = {kind: tok for tok, kind in _CONSTANT_TOKENS.items()}

RESERVED_WORDS = frozenset(_KEYWORD_TO_ID) | frozenset(_CONSTANT_TOKENS)

_ATOM_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*\Z")


class InputError(Exception):
    """Input the program cannot take: bad syntax, an unknown name, a goal
    of the wrong shape or too many atoms.  The command line reports every
    subclass as ``error: ...`` with exit code 2."""


class ParseError(InputError, ValueError):
    """Syntax error, carrying the character offset of the failure."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position

    def shifted(self, offset: int) -> ParseError:
        """The same error ``offset`` characters further on."""
        return ParseError(self.message, self.position + offset)


class UnknownConnectiveError(ParseError):
    """A connective token that the signature does not provide."""

    def __init__(self, token: str, position: int):
        super().__init__(f"connective {token!r} is not in the signature", position)
        self.token = token

    def shifted(self, offset: int) -> UnknownConnectiveError:
        return UnknownConnectiveError(self.token, self.position + offset)


class RenderError(ValueError):
    """A connective id with no surface form under the given signature."""


class Atom(tuple):
    """An atom, the tuple ``("0atom", name)``."""

    __slots__ = ()
    name = property(itemgetter(1))

    def __new__(cls, name: str) -> "Atom":
        if not _ATOM_RE.match(name) or name in RESERVED_WORDS:
            raise ValueError(f"invalid atom name {name!r}")
        return tuple.__new__(cls, ("0atom", name))

    def __getnewargs__(self) -> tuple[str]:
        return (self[1],)


class Constant(tuple):
    """A constant, the tuple ``("1const", kind)``; kind is "top", "bottom"
    or "undef"."""

    __slots__ = ()
    kind = property(itemgetter(1))

    def __new__(cls, kind: str) -> "Constant":
        if kind not in ("top", "bottom", "undef"):
            raise ValueError(f"invalid constant kind {kind!r}")
        return tuple.__new__(cls, ("1const", kind))

    def __getnewargs__(self) -> tuple[str]:
        return (self[1],)


class Compound(tuple):
    """A connective applied to its arguments, the tuple
    ``("2comp", connective, *args)``."""

    __slots__ = ()
    connective = property(itemgetter(1))
    args = property(itemgetter(slice(2, None)))

    def __new__(cls, connective: str, args: Sequence["Formula"]) -> "Compound":
        n = CONNECTIVES.get(connective)
        if n is None:
            raise ValueError(f"unknown connective id {connective!r}")
        if len(args) != n:
            raise ValueError(
                f"{connective!r} expects {n} argument(s), got {len(args)}"
            )
        return tuple.__new__(cls, ("2comp", connective, *args))

    def __getnewargs__(self) -> tuple[str, tuple["Formula", ...]]:
        return self[1], self[2:]


Formula = Union[Atom, Constant, Compound]


def atoms(f: Formula) -> frozenset[str]:
    """Names of the atoms occurring in ``f``."""
    return frozenset(_atom_names_in((f,)))


def _atom_names_in(fs: Iterable[Formula]) -> set[str]:
    """Names of the atoms occurring in any of the formulas ``fs``."""
    out: set[str] = set()
    todo = list(fs)
    while todo:
        g = todo.pop()
        if g.__class__ is Compound:
            todo.extend(g[2:])  # its arguments
        elif g.__class__ is Atom:
            out.add(g[1])  # its name
    return out


def complexity(f: Formula) -> int:
    """Number of connective occurrences in ``f``."""
    n = 0
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, Compound):
            n += 1
            todo.extend(g.args)
    return n


def connectives_of(f: Formula) -> frozenset[str]:
    """Connective ids occurring in ``f``."""
    out: set[str] = set()
    todo = [f]
    while todo:
        g = todo.pop()
        if isinstance(g, Compound):
            out.add(g.connective)
            todo.extend(g.args)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Token resolution relative to a signature

#: each generic operator token and the connective it names first; the
#: family it may also name is every connective id with that prefix
_FAMILY_PRIMARY = {"~": "neg", "&": "and", "|": "or", "->": "impl"}
_FAMILIES = {
    tok: tuple(c for c in CONNECTIVES if c.startswith(primary))
    for tok, primary in _FAMILY_PRIMARY.items()
}


def _resolve_generic(token: str, signature: frozenset[str]) -> str | None:
    """Connective id a generic token denotes in ``signature`` (None if none)."""
    primary = _FAMILY_PRIMARY[token]
    if primary in signature:
        return primary
    members = [c for c in _FAMILIES[token] if c in signature]
    if len(members) == 1:
        return members[0]
    return None


@lru_cache(maxsize=256)
def _token_map(signature: frozenset[str]) -> dict[str, str]:
    """Surface token for every connective id of the signature.  Cached per
    signature, so every caller shares one dict: read it, never change it."""
    out: dict[str, str] = {}
    for tok in _FAMILY_PRIMARY:
        target = _resolve_generic(tok, signature)
        if target is not None:
            out[target] = tok
    for cid in signature:
        if cid not in out:
            kw = _ID_TO_KEYWORD.get(cid)
            if kw is not None:
                out[cid] = kw
    return out


# ---------------------------------------------------------------------------
# Parsing

#: deepest nesting of parentheses, prefix operators and right-nested
#: implications the parser accepts: deeper input is a ``ParseError``, not
#: a ``RecursionError`` in the parser or in the recursive functions that
#: walk the formula later
MAX_NESTING = 100

#: the operator table: each binary operator token's level, loosest first.
#: Prefix operators bind tighter than all of them; ``->`` alone associates
#: to the right.
_PREC_IMPL, _PREC_DISJ, _PREC_CONJ, _PREC_PREFIX, _PREC_ATOM = 1, 2, 3, 4, 5
_LEVEL_BY_TOKEN = {"->": _PREC_IMPL, "|": _PREC_DISJ, "or_l": _PREC_DISJ,
                   "&": _PREC_CONJ, "and_l": _PREC_CONJ, "o1": _PREC_CONJ,
                   "o2": _PREC_CONJ}

_TOKEN_RE = re.compile(r"->|[~&|(),]|[a-zA-Z][a-zA-Z0-9_]*")
_WS_RE = re.compile(r"\s*")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    pos = 0
    while pos < len(text):
        pos = _WS_RE.match(text, pos).end()
        if pos >= len(text):
            break
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, signature: frozenset[str]):
        self.text = text
        self.signature = signature
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def _peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def _here(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def _next(self) -> tuple[str, int]:
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of input", len(self.text))
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _nested(self, parse, position: int) -> Formula:
        """``parse()`` one nesting level deeper."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"formula nested more than {MAX_NESTING} levels deep", position)
        self.depth += 1
        f = parse()
        self.depth -= 1
        return f

    def _connective(self, token: str, position: int) -> str:
        """The connective id an operator token denotes in the signature."""
        cid = _KEYWORD_TO_ID.get(token) or _resolve_generic(token, self.signature)
        if cid not in self.signature:
            raise UnknownConnectiveError(token, position)
        return cid

    def parse(self) -> Formula:
        f = self.parse_infix()
        if self.pos < len(self.tokens):
            tok, at = self.tokens[self.pos]
            raise ParseError(f"unexpected token {tok!r}", at)
        return f

    def parse_infix(self, lowest: int = _PREC_IMPL) -> Formula:
        """Binary operators of level ``lowest`` or tighter: one level's
        chain is read in the loop, a tighter level's by recursion."""
        left = self.parse_prefix()
        while (level := _LEVEL_BY_TOKEN.get(self._peek(), 0)) >= lowest:
            tok, at = self._next()
            cid = self._connective(tok, at)
            if level == _PREC_IMPL:  # right-associative
                right = self._nested(self.parse_infix, at)
            else:
                right = self.parse_infix(level + 1)
            left = Compound(cid, (left, right))
        return left

    def parse_prefix(self) -> Formula:
        """A prefix operator applied, a parenthesised formula, a constant or
        an atom."""
        tok, at = self._next()
        if tok == "~" or CONNECTIVES.get(_KEYWORD_TO_ID.get(tok)) == 1:
            cid = self._connective(tok, at)
            return Compound(cid, (self._nested(self.parse_prefix, at),))
        if tok == "(":
            f = self._nested(self.parse_infix, at)
            if self._peek() != ")":
                raise ParseError("expected ')'", self._here())
            self._next()
            return f
        if tok in _CONSTANT_TOKENS:
            return Constant(_CONSTANT_TOKENS[tok])
        if tok in _KEYWORD_TO_ID or not _ATOM_RE.match(tok):
            raise ParseError(f"unexpected token {tok!r}", at)
        return Atom(tok)


def parse_formula(text: str, signature) -> Formula:
    """Parse ``text`` over the given signature (an iterable of connective ids)."""
    return _Parser(text, frozenset(signature)).parse()


# ---------------------------------------------------------------------------
# Rendering

def _render(f: Formula, tokens: Mapping[str, str]) -> tuple[str, int]:
    """``f``'s text and the level of its main operator (``_PREC_ATOM`` for
    an atom or a constant)."""
    if isinstance(f, Atom):
        return f.name, _PREC_ATOM
    if isinstance(f, Constant):
        return _CONSTANT_SYMBOL[f.kind], _PREC_ATOM
    tok = tokens.get(f.connective)
    if tok is None:
        raise RenderError(f"no surface syntax for {f.connective!r}")
    if CONNECTIVES[f.connective] == 1:
        inner, inner_level = _render(f.args[0], tokens)
        if inner_level < _PREC_PREFIX:
            inner = f"({inner})"
        return (f"~{inner}" if tok == "~" else f"{tok} {inner}"), _PREC_PREFIX
    level = _LEVEL_BY_TOKEN[tok]
    left, right = f.args
    (ls, left_level), (rs, right_level) = _render(left, tokens), _render(right, tokens)
    # implication associates right, the conjunction/disjunction levels left
    if left_level < level + (level == _PREC_IMPL):
        ls = f"({ls})"
    if right_level < level + (level != _PREC_IMPL):
        rs = f"({rs})"
    return f"{ls} {tok} {rs}", level


def render(f: Formula, signature=None) -> str:
    """Render ``f`` so that it reparses to itself under the same signature.

    Without an explicit signature the connectives occurring in ``f`` are
    used, which gives the same tokens whenever ``f`` comes from a single
    logic's signature.
    """
    sig = frozenset(signature) if signature is not None else connectives_of(f)
    return _render(f, _token_map(sig))[0]


# ---------------------------------------------------------------------------
# Exhaustive enumeration (used by sweeps and tests)

def iter_formulas(signature, atom_names: Sequence[str], max_connectives: int) -> Iterator[Formula]:
    """Yield every formula over ``atom_names`` with at most ``max_connectives``
    connective occurrences from ``signature``, in a deterministic order."""
    sig = sorted(frozenset(signature))
    unary = [c for c in sig if CONNECTIVES[c] == 1]
    binary = [c for c in sig if CONNECTIVES[c] == 2]
    by_count: list[list[Formula]] = [[Atom(a) for a in atom_names]]
    yield from by_count[0]
    for n in range(1, max_connectives + 1):
        layer: list[Formula] = []
        for c in unary:
            layer.extend(Compound(c, (g,)) for g in by_count[n - 1])
        for c in binary:
            for k in range(n):
                layer.extend(
                    Compound(c, (g, h))
                    for g in by_count[k]
                    for h in by_count[n - 1 - k]
                )
        by_count.append(layer)
        yield from layer
