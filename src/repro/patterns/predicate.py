"""Node predicates: conjunctions of atomic attribute comparisons.

Paper Section 2.1: the predicate ``fV(u)`` of a pattern node is a
conjunction of atomic formulas ``A op a`` where ``A`` is an attribute name,
``a`` a constant, and ``op`` one of ``< <= = != > >=``.  A data node ``v``
satisfies ``fV(u)`` (written ``v |= u``) iff for each atom there is an
attribute ``A`` of ``v`` with ``v.A op a``.

Besides the object API, :func:`parse_predicate` accepts the compact textual
form used throughout the examples, e.g.::

    parse_predicate("category = 'Music' & rating > 3")
"""

from __future__ import annotations

import operator
import re
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
}


class PredicateError(ValueError):
    """Raised for malformed predicate expressions."""


class Atom:
    """One atomic formula ``attribute op constant``."""

    __slots__ = ("attribute", "op", "value")

    def __init__(self, attribute: str, op: str, value: Any) -> None:
        if op not in _OPS:
            raise PredicateError(f"unknown comparison operator {op!r}")
        self.attribute = attribute
        self.op = "=" if op == "==" else op
        self.value = value

    def satisfied_by(self, attrs: Mapping[str, Any]) -> bool:
        """Does an attribute tuple satisfy this atom?

        A node lacking the attribute fails the atom (it cannot witness
        ``v.A op a``).  Comparisons between incompatible types fail rather
        than raise, since a data graph may mix attribute domains.
        """
        if self.attribute not in attrs:
            return False
        try:
            return bool(_OPS[self.op](attrs[self.attribute], self.value))
        except TypeError:
            return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return (
            self.attribute == other.attribute
            and self.op == other.op
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.attribute, self.op, self.value))

    def __repr__(self) -> str:
        value = f"'{self.value}'" if isinstance(self.value, str) else self.value
        return f"{self.attribute} {self.op} {value}"


def _atom_key(atom: Atom) -> Tuple[str, str, str, str]:
    """Deterministic, type-safe sort key for canonical conjunct order."""
    return (atom.attribute, atom.op, type(atom.value).__name__, repr(atom.value))


class Predicate:
    """A conjunction of :class:`Atom` (empty conjunction == always true).

    Atoms are **canonicalized at construction** — duplicates dropped and
    conjuncts sorted by ``(attribute, op, value)`` — so structurally equal
    predicates (``age > 25 & job = DB`` vs its permutation, or a repeated
    atom) are *identical* objects in every observable way: ``==``,
    ``hash``, ``repr``, and atom iteration order.  That is what lets the
    pool-level :class:`~repro.engine.eligibility.SharedEligibilityIndex`
    intern predicates as dict keys and share one eligible-node set across
    every query using the same conjunction, however it was spelled.

    Canonicalization also detects *trivially unsatisfiable* conjunctions:
    an equality atom pins its attribute to one constant, so any sibling
    atom on the same attribute that the pinned value fails (a different
    ``=`` constant, a ``!=`` of the same value, a range the constant is
    outside of, or a cross-type comparison) makes the whole conjunction
    contradictory.  :meth:`is_unsatisfiable` exposes the verdict so the
    eligibility substrate and router can short-circuit such predicates to
    an empty, upkeep-free set instead of maintaining their members.
    """

    __slots__ = ("atoms", "_unsat", "_hash")

    def __init__(self, atoms: Iterable[Atom] = ()) -> None:
        self.atoms: Tuple[Atom, ...] = tuple(
            sorted(dict.fromkeys(atoms), key=_atom_key)
        )
        self._unsat = self._detect_contradiction()
        # Predicates key the router's groups and buckets and the
        # eligibility entries, and ``atoms`` is never reassigned, so the
        # hash is computed once.
        self._hash = hash(self.atoms)

    def _detect_contradiction(self) -> bool:
        """Does some equality atom's pinned value fail a sibling atom?

        Sound, not complete: ``age > 5 & age < 3`` has no equality atom
        and is not detected — only the equality-anchored contradictions
        the paper's conjunctions actually produce (e.g. two ``=`` atoms
        with different constants on one attribute).
        """
        for eq in self.atoms:
            if eq.op != "=":
                continue
            pinned = {eq.attribute: eq.value}
            for atom in self.atoms:
                if atom is eq or atom.attribute != eq.attribute:
                    continue
                if not atom.satisfied_by(pinned):
                    return True
        return False

    @staticmethod
    def true() -> "Predicate":
        return Predicate(())

    @staticmethod
    def label(value: Any, attribute: str = "label") -> "Predicate":
        """The normal-pattern shorthand: ``A = l`` on the label attribute."""
        return Predicate((Atom(attribute, "=", value),))

    def satisfied_by(self, attrs: Mapping[str, Any]) -> bool:
        if self._unsat:
            return False
        return all(atom.satisfied_by(attrs) for atom in self.atoms)

    def conjoin(self, other: "Predicate") -> "Predicate":
        return Predicate(self.atoms + other.atoms)

    def is_trivial(self) -> bool:
        return not self.atoms

    def is_unsatisfiable(self) -> bool:
        """No attribute tuple can satisfy this conjunction (detected at
        canonicalization; see :meth:`_detect_contradiction`)."""
        return self._unsat

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        # Atoms are canonically ordered and deduped, so tuple comparison
        # is order/multiplicity-insensitive equality of the conjunctions.
        return self.atoms == other.atoms

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self.atoms:
            return "TRUE"
        return " & ".join(repr(a) for a in self.atoms)


_TOKEN = re.compile(
    r"\s*(?:(?P<op><=|>=|!=|==|=|<|>)"
    r"|(?P<and>&&?|\bAND\b|\band\b)"
    r"|(?P<str>'[^']*'|\"[^\"]*\")"
    # Sign handling matches float()/int(): either sign may prefix any
    # literal form, including scientific notation (``-1e-5``, ``+.5``).
    r"|(?P<num>[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9.]*))"
)

# Trailing junk glued to a numeric literal (``1e`` with no exponent
# digits, ``1.2.3``, ``5x``): the num token stops early and the leftover
# would mis-tokenize as a separate ident/num, producing the misleading
# "expected '&' between atoms" downstream — name the literal instead.
_NUM_TAIL = re.compile(r"[\w.]+")


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise PredicateError(
                    f"cannot tokenize predicate at: {text[pos:]!r}"
                )
            break
        pos = match.end()
        kind = match.lastgroup
        assert kind is not None
        if kind == "num" and pos < len(text):
            tail = _NUM_TAIL.match(text, pos)
            if tail is not None:
                raise PredicateError(
                    "malformed numeric literal "
                    f"{match.group('num') + tail.group()!r} in predicate"
                )
        tokens.append((kind, match.group(kind)))
    return tokens


def _parse_value(kind: str, text: str) -> Any:
    if kind == "str":
        return text[1:-1]
    if kind == "num":
        return float(text) if any(c in text for c in ".eE") else int(text)
    if kind == "ident":
        # Bare identifiers on the value side are treated as strings, so the
        # terse form ``label = DB`` works.
        return text
    raise PredicateError(f"expected a constant, got {text!r}")


def parse_predicate(text: str) -> Predicate:
    """Parse ``attr op const (& attr op const)*``; empty text == TRUE."""
    tokens = _tokenize(text)
    if not tokens:
        return Predicate.true()
    atoms: List[Atom] = []
    i = 0
    while i < len(tokens):
        kind, value = tokens[i]
        if kind != "ident":
            raise PredicateError(f"expected attribute name, got {value!r}")
        attribute = value
        if i + 1 >= len(tokens) or tokens[i + 1][0] != "op":
            raise PredicateError(
                f"expected comparison operator after {attribute!r}"
            )
        op = tokens[i + 1][1]
        if i + 2 >= len(tokens):
            raise PredicateError(f"dangling comparison for {attribute!r}")
        vkind, vtext = tokens[i + 2]
        atoms.append(Atom(attribute, op, _parse_value(vkind, vtext)))
        i += 3
        if i < len(tokens):
            if tokens[i][0] != "and":
                raise PredicateError(
                    f"expected '&' between atoms, got {tokens[i][1]!r}"
                )
            i += 1
            if i >= len(tokens):
                raise PredicateError("trailing '&' in predicate")
    return Predicate(atoms)
