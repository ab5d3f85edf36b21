"""ASTs and concrete syntax for terms, actions and sentences.

AST nodes are immutable, slotted dataclasses that compare by structure and
compute their hash once: the first ``hash`` walks the fields, later ones
read a slot, so keying a dict by a deep term costs no tree walk. Each node
class records which fields hold terms, actions or sentences, and every
traversal goes through those child fields with one of two routines on
explicit stacks, so depth is not bounded by the recursion limit: ``walk``
yields nodes in pre-order, and ``fold`` computes a value bottom-up from a
table with one entry per node class.

Concrete grammar (ASCII)::

    sentence := ('store' IDENT '.')* chain           a store scope runs right
    chain    := prefix (INFIX prefix)*               '=>' '~>' '(+)' '/\\'
    prefix   := ('!' | '~' | '[' action ']' | '<' action '>' | '@' '(' term ')')* atom
    atom     := '(' sentence ')' | 'here' '(' term ')'
              | 'until' '(' action ',' sentence ',' sentence ')' | IDENT
    action   := starred (INFIX starred)*             '|' ';'
    starred  := aatom '*'* ;  aatom := IDENT | '(' action ')'
    term     := factor ('+' factor)*                 vector sum
    factor   := COMPLEX '*' factor | tatom           scalar multiple
    tatom    := '0' | 'vec' '(' COMPLEX, ... ')' | '(' term ')'
              | IDENT ('(' term ')')?                constant / symbol app

Complex literals are written ``a+bi`` with optional parts (``2``, ``1i``,
``2-3i``, ``-i``). The parser, the printer and ``reader`` (which reads printed
text back, passing only its leaves to the parser) take the operators from three
tables: ``_INFIX`` (binding and grouping; loosest first ``+`` and ``|``, then
``;``, ``=>`` and ``~>`` grouping right, ``(+)``, ``/\\``), ``_PREFIX`` and
``_KEYWORD_FORMS``. One routine reads every infix chain on explicit stacks, and
loops read prefixes and store binders, so none is bounded by the recursion
limit; parentheses, applications and scalar multiples still recurse once per
level. Printing is deterministic (17 significant digits) and reparses to a
structurally equal AST.

A numeral is the longest run of the form ``(D|.D)[D.]*([eE][+-]?D*)?``,
where ``D`` is a decimal digit. It must read as ``D+(.D*)?`` or ``.D+``,
optionally followed by an exponent ``[eE][+-]?D+``; any other run, such as
``1.2.3`` or ``1e``, is a ParseError located at its first character. A
numeral directly followed by ``i`` (and not by a letter, digit, ``_`` or
``'``) is imaginary. Blanks are spaces, tabs, carriage returns and
newlines; ``#`` starts a comment that runs to the end of the line.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, fields
from itertools import product

from .errors import ParseError

__all__ = [
    "Name", "Var", "VecLit", "Origin", "TSum", "TSmul", "TApp", "Term",
    "ASym", "AComp", "AUnion", "AStar", "Action",
    "Prop", "Here", "At", "And", "Not", "QNot", "Nec", "Pos", "Store",
    "Imp", "QImp", "OPlus", "UntilS", "Sentence", "Kind",
    "parse", "parse_sentence", "parse_term", "parse_action", "parse_complex",
    "format_sentence", "format_term", "format_action", "format_complex",
    "substitute", "substitute_term", "desugar", "sasaki_expansion",
    "classify", "classifier", "is_unitary_action", "free_vars", "term_vars", "is_ground",
    "sentence_terms", "subterms", "action_symbols", "sentence_symbols",
    "walk", "fold", "TERM", "ACTION", "SENTENCE", "ALL", "reader",
]


# ---------------------------------------------------------------- nodes

class _Node:
    """Base of every AST node; its one extra slot holds the cached hash."""
    __slots__ = ("_hash",)


# the sorts of child fields, as bits: a traversal names the sorts it descends
TERM, ACTION, SENTENCE = 1, 2, 4
ALL = TERM | ACTION | SENTENCE
_SORT_OF = {"Term": TERM, "Action": ACTION, "Sentence": SENTENCE}


def _node(cls):
    """Make an AST node class a frozen, slotted dataclass that hashes once.

    The hash covers the class name and the generated field-tuple hash, so
    ``And(p, q)`` and ``Imp(p, q)`` differ; the ``_hash`` slot stores it on
    first use, so a dict lookup no longer walks the tree. Pickling and
    copying carry the fields only: a node loaded under another
    ``PYTHONHASHSEED`` computes its hash afresh. ``_kids[sorts]`` names the
    child fields of the given sorts; ``_push[sorts]`` in stack order.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    cls._fields = tuple(f.name for f in fields(cls))
    sorts = [_SORT_OF.get(f.type, 0) for f in fields(cls)]
    cls._kids = tuple(tuple(name for name, sort in zip(cls._fields, sorts) if sort & mask)
                      for mask in range(ALL + 1))
    cls._push = tuple(names[::-1] for names in cls._kids)
    field_hash, name = cls.__hash__, cls.__name__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((name, field_hash(self)))
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


# ---------------------------------------------------------------- terms

@_node
class Name(_Node):
    """Named vector constant, resolved against a signature."""
    name: str


@_node
class Var(_Node):
    """Store-bound variable of sort vector."""
    name: str


@_node
class VecLit(_Node):
    """Explicit coordinates; introduced by store semantics."""
    coords: tuple[complex, ...]


@_node
class Origin(_Node):
    """The origin vector 0."""


@_node
class TSum(_Node):
    left: Term
    right: Term


@_node
class TSmul(_Node):
    scalar: complex
    arg: Term


@_node
class TApp(_Node):
    """Application of a unitary or measurement symbol."""
    sym: str
    arg: Term


Term = Name | Var | VecLit | Origin | TSum | TSmul | TApp


# -------------------------------------------------------------- actions

@_node
class ASym(_Node):
    """A unitary or measurement symbol; the signature decides which."""
    name: str


@_node
class AComp(_Node):
    left: Action
    right: Action


@_node
class AUnion(_Node):
    left: Action
    right: Action


@_node
class AStar(_Node):
    body: Action


Action = ASym | AComp | AUnion | AStar


# ------------------------------------------------------------ sentences

@_node
class Prop(_Node):
    name: str


@_node
class Here(_Node):
    """True exactly at the state denoted by the term (nominal-as-sentence).

    Extension beyond the core grammar: needed so a stored state name can
    be used in sentence position, as in the until operator.
    """
    term: Term


@_node
class At(_Node):
    """Retrieve: evaluate the body at the state named by the term."""
    term: Term
    body: Sentence


@_node
class And(_Node):
    left: Sentence
    right: Sentence


@_node
class Not(_Node):
    """Classical negation."""
    body: Sentence


@_node
class QNot(_Node):
    """Quantum negation: orthocomplement of the extension."""
    body: Sentence


@_node
class Nec(_Node):
    """Necessity along an action."""
    action: Action
    body: Sentence


@_node
class Pos(_Node):
    """Possibility; sugar for 'not nec not'."""
    action: Action
    body: Sentence


@_node
class Store(_Node):
    """Bind the current state to a variable."""
    var: str
    body: Sentence


@_node
class Imp(_Node):
    """Classical implication; kept primitive for the proof rules."""
    left: Sentence
    right: Sentence


@_node
class QImp(_Node):
    """Sasaki hook; kept primitive for the proof rules."""
    left: Sentence
    right: Sentence


@_node
class OPlus(_Node):
    """Quantum disjunction; sugar."""
    left: Sentence
    right: Sentence


@_node
class UntilS(_Node):
    """Until along an action; sugar."""
    action: Action
    first: Sentence
    second: Sentence


Sentence = (Prop | Here | At | And | Not | QNot | Nec | Pos | Store
            | Imp | QImp | OPlus | UntilS)


# ------------------------------------------------------------ traversal

def walk(node, sorts: int = ALL, prune=None):
    """The node and those below it through children of the given sorts, in
    pre-order; a node for which ``prune`` is true is left out with its subtree."""
    stack = [node]
    while stack:
        n = stack.pop()
        if prune is not None and prune(n):
            continue
        yield n
        for name in n._push[sorts]:
            stack.append(getattr(n, name))


def fold(node, table, sorts: int = ALL, before=None, memo=None):
    """Fold the node bottom-up through its children of the given sorts.

    ``table[cls](n, kids)`` is the value of a node ``n`` of class ``cls``, given
    the values ``kids`` of its children in field order. A class with no entry
    keeps ``n`` when every child's value is that child, and is rebuilt from
    the values otherwise. ``before[cls](n)`` runs ahead of the children: it
    returns the value of ``n`` early, or None to fold ``n`` as usual.

    ``memo``, a dict from ``id(n)`` to the value of ``n``, is read before a
    node's children and filled after them, so a node object met again, in
    this fold or a later one given the same memo, is folded once. Its keys
    are identities: the caller keeps every node it folds alive while the
    memo is in use, or a new node could inherit a dead node's value.
    """
    todo, vals = [node], []
    while todo:
        n = todo.pop()
        if n is None:  # the children of the node below are folded
            n = todo.pop()
            names = n._kids[sorts]
            entry = table.get(type(n))
            kids = vals[-len(names):]
            del vals[-len(names):]
            if entry is not None:
                value = entry(n, kids)
            elif all(kid is getattr(n, name) for kid, name in zip(kids, names)):
                value = n
            else:
                value = _rebuild(n, names, kids)
            if memo is not None:
                memo[id(n)] = value
            vals.append(value)
            continue
        if memo is not None and id(n) in memo:
            vals.append(memo[id(n)])
            continue
        if before is not None and type(n) in before:
            value = before[type(n)](n)
            if value is not None:
                vals.append(value)
                continue
        names = n._push[sorts]
        if names:
            todo += (n, None)
            for name in names:
                todo.append(getattr(n, name))
        else:
            entry = table.get(type(n))
            vals.append(n if entry is None else entry(n, []))
    return vals[0]


def _rebuild(n, names, kids):
    new = dict(zip(names, kids))
    return type(n)(*[new[f] if f in new else getattr(n, f) for f in n._fields])


# ---------------------------------------------------------------- lexer
#
# A token is a (kind, text, offset) tuple. Its kind is IDENT, NUM, IMAG (the
# numeral before an imaginary 'i'), EOF or the punctuation text itself.

_IDENT = r"[A-Za-z_][\w']*"  # an ASCII start; the lexer's UNI group takes the others
# what float() reads: digits with at most one '.', then an exponent with digits;
# with no exponent, the numeral must not run on into '.', a digit or 'e'
_NUMERAL = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+|(?![\d.eE]))"
_TOKEN = re.compile(rf"""
    [ \t\r\n]+ | \#[^\n]*                     # blanks and comments
  | (?P<NUM>{_NUMERAL})(?P<IMAG>i(?![\w']))?
  | (?P<BAD>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d*)?) # any other numeral run
  | (?P<IDENT>{_IDENT})
  | (?P<UNI>[^\W\d][\w']*)                    # non-ASCII start: checked below
  | (?P<P>/\\|=>|~>|\(\+\)|[][<>(){{}}.,;|*+\-@!~=])
  | (?P<ERR>.)
""", re.VERBOSE)


def _error(text: str, message: str, offset: int) -> ParseError:
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _lex(text: str) -> list[tuple[str, str, int]]:
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        tok = m.group()
        if kind == "P":
            toks.append((tok, tok, m.start()))
        elif kind == "IDENT" or kind == "NUM":
            toks.append((kind, tok, m.start()))
        elif kind == "IMAG":
            toks.append((kind, tok[:-1], m.start()))
        elif kind == "UNI" and tok[0].isalpha():
            toks.append(("IDENT", tok, m.start()))
        elif kind == "BAD":
            raise _error(text, f"malformed number {tok!r}", m.start())
        else:
            raise _error(text, f"unexpected character {tok[0]!r}", m.start())
    # a comment on the last line ends the input where it starts
    end = text.find("#", text.rfind("\n") + 1)
    eof = ("EOF", "", len(text) if end < 0 else end)
    toks += (eof, eof)  # two, so that peek(1) needs no bounds check
    return toks


# ------------------------------------------------------------ operators
#
# node class -> (token, binding strength, whether it groups to the right): the
# parser's chains and the printer read this one table, so they cannot disagree
_INFIX = {TSum: ("+", 0, False), AUnion: ("|", 0, False), AComp: (";", 1, True),
          Imp: ("=>", 1, True), QImp: ("~>", 1, True), OPlus: ("(+)", 2, False),
          And: ("/\\", 3, False)}


def _chain(sort, operand):
    """A parser method for a chain of operands of a sort, each read by
    ``operand``, joined by the sort's infix operators (shunting yard). Each
    pending operator waits on a stack with its left operand; an operator first
    closes the pending ones that bind tighter, or as tight when it groups left."""
    # token -> (node class, binding, the least binding of a pending operator it closes)
    ops = {token: (cls, binding, binding + right)
           for cls, (token, binding, right) in _INFIX.items() if cls in sort.__args__}

    def chain(self):
        right = operand(self)
        op = ops.get(self.toks[self.pos][0])
        if op is None:
            return right
        waiting = []  # (left operand, node class, binding) of each pending operator
        while True:
            least = 0 if op is None else op[2]
            while waiting and waiting[-1][2] >= least:
                left, cls, _ = waiting.pop()
                right = cls(left, right)
            if op is None:
                return right
            waiting.append((right, op[0], op[1]))
            self.pos += 1
            right = operand(self)
            op = ops.get(self.toks[self.pos][0])

    return chain


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _lex(text)
        self.pos = 0
        self.bound: list[str] = []

    def peek(self, ahead: int = 0) -> tuple[str, str, int]:
        return self.toks[self.pos + ahead]

    def next(self) -> tuple[str, str, int]:
        # every caller has checked that the token is not EOF
        self.pos += 1
        return self.toks[self.pos - 1]

    def expect(self, kind: str) -> tuple[str, str, int]:
        t = self.peek()
        if t[0] != kind:
            self.fail(f"expected {kind!r}, found {t[1] or 'end of input'!r}")
        return self.next()

    def fail(self, message: str):
        raise _error(self.text, message, self.peek()[2])

    # complex literals: [-] NUM|IMAG [('+'|'-') NUM|IMAG], or bare 'i'
    def at_complex(self) -> bool:
        kind, text, _ = self.peek()
        if kind == "NUM" or kind == "IMAG":
            return True
        if kind == "-" and self.peek(1)[0] in ("NUM", "IMAG"):
            return True
        return kind == "IDENT" and text == "i"

    def complex_lit(self) -> complex:
        sign = 1.0
        if self.peek()[0] == "-":
            self.next()
            sign = -1.0
        kind, text, _ = self.peek()
        if kind == "IDENT" and text == "i":
            self.next()
            return complex(0.0, sign)
        if kind != "NUM" and kind != "IMAG":
            self.fail("expected a number")
        self.next()
        first = sign * float(text)
        if kind == "IMAG":
            return complex(0.0, first)
        # optional imaginary tail
        if self.peek()[0] in ("+", "-") and self.peek(1)[0] == "IMAG":
            op = self.next()[0]
            im = float(self.next()[1])
            return complex(first, im if op == "+" else -im)
        return complex(first, 0.0)

    # ------------------------------------------------------------ terms
    def factor(self) -> Term:
        if self.at_complex():
            save = self.pos
            c = self.complex_lit()
            if self.peek()[0] == "*":
                self.next()
                return TSmul(c, self.factor())
            self.pos = save  # a bare number is not a scalar multiple
        return self.tatom()

    term = _chain(Term, factor)

    def tatom(self) -> Term:
        kind, text, _ = self.peek()
        if kind == "NUM" and text == "0":
            self.next()
            return Origin()
        if kind == "(":
            self.next()
            inner = self.term()
            self.expect(")")
            return inner
        if kind == "IDENT":
            if text == "vec":
                self.next()
                self.expect("(")
                coords = [self.complex_lit()]
                while self.peek()[0] == ",":
                    self.next()
                    coords.append(self.complex_lit())
                self.expect(")")
                return VecLit(tuple(coords))
            self.next()
            if self.peek()[0] == "(":
                self.next()
                arg = self.term()
                self.expect(")")
                return TApp(text, arg)
            if text in self.bound:
                return Var(text)
            return Name(text)
        self.fail("expected a term")

    # ---------------------------------------------------------- actions
    def starred(self) -> Action:
        kind, text, _ = self.peek()
        if kind == "(":
            self.next()
            a = self.action()
            self.expect(")")
        elif kind == "IDENT":
            self.next()
            a = ASym(text)
        else:
            self.fail("expected an action")
        while self.peek()[0] == "*":
            self.next()
            a = AStar(a)
        return a

    action = _chain(Action, starred)

    # -------------------------------------------------------- sentences
    def sentence(self) -> Sentence:
        """A run of 'store x .' binders, then the chain they scope over."""
        if self.toks[self.pos][1] != "store":  # only an IDENT has this text
            return self.chain()
        outer = len(self.bound)
        while self.toks[self.pos][1] == "store":
            self.next()
            self.bound.append(self.expect("IDENT")[1])
            self.expect(".")
        s = self.chain()
        for var in reversed(self.bound[outer:]):
            s = Store(var, s)
        del self.bound[outer:]
        return s

    def prefix(self) -> Sentence:
        if self.toks[self.pos][0] not in _PREFIX:
            return self.atom()
        pending = []
        while (entry := _PREFIX.get(self.toks[self.pos][0])) is not None:
            self.pos += 1
            cls, opener, read, closer = entry
            if opener is not None:
                self.expect(opener)
            pending.append((cls, read and read(self)))
            if closer is not None:
                self.expect(closer)
        s = self.atom()
        for cls, arg in reversed(pending):
            s = cls(s) if arg is None else cls(arg, s)
        return s

    chain = _chain(Sentence, prefix)  # a sentence but for leading store binders

    def atom(self) -> Sentence:
        kind, text, _ = self.peek()
        if kind == "(":
            self.next()
            s = self.sentence()
            self.expect(")")
            return s
        if kind == "IDENT":
            if (form := _KEYWORD_FORMS.get(text)) is not None:
                self.next()
                args = []
                for opener, read in zip("(,,", form[1]):  # '(' opens the arguments, ',' parts them
                    self.expect(opener)
                    args.append(read(self))
                self.expect(")")
                return form[0](*args)
            if text in _KEYWORDS:
                self.fail(f"keyword {text!r} cannot be a proposition")
            self.next()
            return Prop(text)
        self.fail("expected a sentence")


# prefix operators: token -> (node class, then the token that opens its
# argument, the argument's reader and the token that closes it, or None each)
_PREFIX = {"!": (Not, None, None, None), "~": (QNot, None, None, None),
           "[": (Nec, None, _Parser.action, "]"), "<": (Pos, None, _Parser.action, ">"),
           "@": (At, "(", _Parser.term, ")")}
# the printed head of each prefix form -> (node class, its argument's reader, its closer)
_OPENERS = {token + (opener or ""): (cls, read, closer)
            for token, (cls, opener, read, closer) in _PREFIX.items()}
# keyword forms 'word(arg, ...)': word -> (node class, its arguments' readers in field order)
_KEYWORD_FORMS = {"here": (Here, (_Parser.term,)),
                  "until": (UntilS, (_Parser.action, _Parser.sentence, _Parser.sentence))}
_KEYWORDS = {"store", "vec", "span", *_KEYWORD_FORMS}  # no proposition has these names


def _finish(parser: _Parser, node):
    kind, text, _ = parser.peek()
    if kind != "EOF":
        parser.fail(f"trailing input starting at {text!r}")
    return node


def parse_sentence(text: str) -> Sentence:
    return _finish(p := _Parser(text), p.sentence())


def parse_term(text: str) -> Term:
    return _finish(p := _Parser(text), p.term())


def parse_action(text: str) -> Action:
    return _finish(p := _Parser(text), p.action())


def parse(text: str) -> Sentence:
    """Parse a sentence; use parse_term / parse_action for the other sorts."""
    return parse_sentence(text)


# a complex literal whose tokens only spaces or tabs separate; one pass reads each numeral once
_COMPLEX = re.compile(rf"""[ \t]*(?P<neg>-[ \t]*)?
    (?: (?P<unit>i) | (?P<num>{_NUMERAL})
        (?: (?P<im>i) | [ \t]*(?P<op>[+-])[ \t]*(?P<tail>{_NUMERAL})i )? )[ \t]*""",
                      re.VERBOSE)


def parse_complex(text: str) -> complex:
    """Parse an 'a+bi' style complex literal.

    One regex match reads the literal; other text goes to the parser, which
    reads comments and line breaks or raises a located ParseError.
    """
    m = _COMPLEX.fullmatch(text)
    if m is None:
        return _finish(p := _Parser(text), p.complex_lit())
    sign = -1.0 if m["neg"] else 1.0
    if m["unit"]:
        return complex(0.0, sign)
    first = sign * float(m["num"])
    if m["im"]:
        return complex(0.0, first)
    if m["tail"] is None:
        return complex(first, 0.0)
    im = float(m["tail"])
    return complex(first, im if m["op"] == "+" else -im)


# -------------------------------------------------------------- printing
#
# One fold table prints every sort: a node's value is its text and how tightly
# that text binds, and a child is parenthesized when it binds looser than its
# place asks. A text memo (see ``fold``) is keyed by node identity, so no node
# is hashed, and it holds only while the caller keeps the printed nodes alive:
# the trace writer makes one per trace, whose proof tree keeps them alive.

def format_complex(c: complex) -> str:
    re, im = c.real, c.imag
    if re == 0 and im == 0:
        return "0"
    re_s = f"{re:.17g}"
    im_s = f"{abs(im):.17g}i"
    if im == 0:
        return re_s
    if re == 0:
        return im_s if im > 0 else f"-{im_s}"
    return f"{re_s}+{im_s}" if im > 0 else f"{re_s}-{im_s}"


def _at(kid: tuple[str, int], place: int) -> str:
    """A child's text, parenthesized if it binds looser than its place asks."""
    text, binding = kid
    return text if binding >= place else f"({text})"


def _infix(token: str, binding: int, right: bool):
    """An infix operator's printer: one operand sits at its binding, the other one
    above, the left one when it groups right and the right one when it groups left."""
    lo, ro = binding + right, binding + (not right)
    return lambda n, k: (f"{_at(k[0], lo)} {token} {_at(k[1], ro)}", binding)


# a node prints as (text, binding): a sum, a union or a store binds 0, a prefix
# binds 4, and what never needs parentheses binds 5; a child of another sort sits at 0
_PRINT = dict.fromkeys((Name, Var, ASym, Prop), lambda n, k: (n.name, 5)) | {
    cls: _infix(*spec) for cls, spec in _INFIX.items()} | {
    cls: (lambda n, k, h=head: (h + _at(k[0], 4), 4)) if closer is None else (
        lambda n, k, h=head, c=closer: (f"{h}{k[0][0]}{c} {_at(k[1], 4)}", 4))
    for head, (cls, _, closer) in _OPENERS.items()} | {
    cls: lambda n, k, word=word: (f"{word}({', '.join([text for text, _ in k])})", 5)
    for word, (cls, _) in _KEYWORD_FORMS.items()} | {
    Origin: lambda n, k: ("0", 5),
    VecLit: lambda n, k: ("vec(" + ", ".join(map(format_complex, n.coords)) + ")", 5),
    TApp: lambda n, k: (f"{n.sym}({k[0][0]})", 5),
    TSmul: lambda n, k: (f"{format_complex(n.scalar)}*{_at(k[0], 1)}", 1),
    AStar: lambda n, k: (_at(k[0], 2) + "*", 2),
    Store: lambda n, k: (f"store {n.var} . {k[0][0]}", 0),
}


def format_term(node, memo: dict | None = None) -> str:
    """The text of a term, action or sentence.

    ``memo`` is a fold memo (see ``fold``): a caller that prints many ASTs
    sharing node objects passes one, and each node object is printed once.
    """
    return fold(node, _PRINT, ALL, None, memo)[0]


format_action = format_sentence = format_term  # one printer for every sort


# ------------------------------------------------------ reading printed text

_BRACKET = re.compile(r"[][(){}]")
_ROUND = str.maketrans("[]{}", "()()")


def _top(text: str, mark: str, start: int = 0) -> int:
    """The first index of ``mark`` in text[start:] outside parentheses, or -1;
    a ')' found there closes a '(' opened before start."""
    depth = 0
    while (j := text.find(mark, start)) >= 0:
        if (depth := depth + text.count("(", start, j) - text.count(")", start, j)) == 0:
            return j
        depth, start = depth - (mark == ")"), j + 1
    return -1


def _split_top(text: str, sep: str) -> list[str]:
    """Split on a separator, ignoring separators inside brackets."""
    if not _BRACKET.search(text):
        return text.split(sep)
    cuts, round_ = [-1], text.translate(_ROUND)
    while (i := _top(round_, sep, cuts[-1] + 1)) >= 0:
        cuts.append(i)
    return [text[i + 1:j] for i, j in zip(cuts, cuts[1:] + [len(text)])]


_APPLICATION = re.compile(rf"({_IDENT})\(")  # the 'f(' of f(t)
_OPENER = re.compile("|".join(map(re.escape, _OPENERS)))
_OPERANDS = frozenset(Sentence.__args__) - _INFIX.keys() - {Store}  # bind as tight as a prefix
_ACTION_OPS = [(cls, token, right) for cls, (token, _, right)  # loosest first
               in sorted(_INFIX.items(), key=lambda op: op[1][1]) if cls in Action.__args__]
_MAX_PEEL = 64  # steps per text, each storing a rest: memory linear in the text


def _read(table: dict, step, parse, text: str):
    """A text's AST: ``step`` peels (build, rest) off it, at most _MAX_PEEL times,
    until the rest is in ``table`` or read by ``parse``; then ``build`` makes each
    text's AST, stored, from its rest's. '#' or an unread piece: parse it whole."""
    if (value := table.get(text)) is not None:
        return value
    pending, rest = [], text
    try:
        while ((value := table.get(rest)) is None and "#" not in text
               and len(pending) < _MAX_PEEL and (s := step(rest))):
            pending.append((rest, s[0]))
            rest = s[1]
        value = table[rest] = parse(rest) if value is None else value
        for rest, build in reversed(pending):
            value = table[rest] = build(value)
    except (ParseError, RecursionError):
        value = table[text] = parse(text)
    return value


def reader():
    """(terms, term, sentences, sentence): readers of printed terms and sentences, such as
    a trace's, and their tables (text -> AST), which a hot path reads first. Each distinct
    text is read once, split at the printer's forms by tables derived from the parser's, so
    that equal sub-texts are one AST object and only leaves reach the parser: f(t) (f not
    vec) over t; a prefix form over a body that binds as tight as a prefix; an action at
    its loosest operator, the first if it groups right, else the last."""
    def term_step(text):  # f(t), f not vec, with t read before or its '(' closed at the end
        m = _APPLICATION.match(text)
        if m and m[1] != "vec" and text[-1] == ")" and (
                text[m.end():-1] in terms or _top(text, ")", m.end()) == len(text) - 1):
            return (lambda t: TApp(m[1], t)), text[m.end():-1]

    def action_step(text):  # at the loosest operator: its first if it groups right, else its last
        for cls, token, right in _ACTION_OPS:
            if right and (i := _top(text, token)) >= 0:
                return ((lambda a: cls(action(text[:i].strip(" ")), a)),
                        text[i + len(token):].strip(" "))
            if not right and len(parts := _split_top(text, token)) > 1:
                return ((lambda a: cls(a, action(parts[-1].strip(" ")))),
                        text[:-len(parts[-1]) - len(token)].strip(" "))

    def sentence_step(text):
        if m := _OPENER.match(text):
            cls, read, closer = _OPENERS[m[0]]
            end = m.end() - 1 if closer is None else _top(text, closer, m.end())
            if end >= 0:
                args = () if read is None else (readers[read](text[m.end():end]),)
                return (lambda s: cls(*args, s) if type(s) in _OPERANDS
                        else parse_sentence(text)), text[end + 1:].lstrip(" ")

    terms, sentences = {}, {}
    term = functools.partial(_read, terms, term_step, parse_term)
    action = functools.partial(_read, {}, action_step, lambda t: ASym(t)
                               if t.isascii() and t.isidentifier() else parse_action(t))
    sentence = functools.partial(_read, sentences, sentence_step, parse_sentence)
    readers = {_Parser.term: term, _Parser.action: action}
    return terms, term, sentences, sentence


# --------------------------------------------------- variables and scope

def term_vars(t: Term) -> set[str]:
    return {n.name for n in walk(t, TERM) if type(n) is Var}


def is_ground(t: Term) -> bool:
    return not any(type(n) is Var for n in walk(t, TERM))


# a sentence has the free variables of its children; Store binds one, and
# Here and At add those of their term (frozensets, shared between nodes)
_FREE_VARS = dict.fromkeys(Sentence.__args__, lambda s, kids: frozenset().union(*kids)) | {
    Store: lambda s, kids: kids[0] - {s.var},
} | dict.fromkeys((Here, At), lambda s, kids: frozenset(term_vars(s.term)).union(*kids))


def free_vars(s: Sentence) -> set[str]:
    return set(fold(s, _FREE_VARS, SENTENCE))


def _fresh(base: str, avoid: set[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def substitute(s: Sentence, var: str, repl: Term) -> Sentence:
    """Capture-avoiding substitution of a term for a free variable, in a
    sentence or a term."""
    def binder(s: Store):
        if s.var == var:
            return s
        if s.var in (repl_vars := term_vars(repl)) and var in free_vars(s.body):
            # the binder would capture a variable of repl: rename it first
            renamed = _fresh(s.var, repl_vars | free_vars(s.body) | {var})
            body = substitute(s.body, s.var, Var(renamed))
            return Store(renamed, substitute(body, var, repl))
        return None

    return fold(s, {Var: lambda t, kids: repl if t.name == var else t}, TERM | SENTENCE,
                {Store: binder})


substitute_term = substitute  # the name callers use on terms


# ------------------------------------------------------------- desugaring

def sasaki_expansion(left: Sentence, right: Sentence) -> Sentence:
    """The defining closed form of the Sasaki hook."""
    return QNot(And(left, QNot(And(left, right))))


def _desugar_until(s: UntilS, kids) -> Sentence:
    g1, g2 = kids
    avoid = free_vars(g1) | free_vars(g2)
    x = _fresh("x", avoid)
    y = _fresh("y", avoid | {x})
    reach_y = Not(Nec(s.action, Not(Here(Var(y)))))
    inner = And(g1, At(Var(x), Nec(s.action, Imp(reach_y, g2))))
    return Store(x, Not(Nec(s.action, Not(Store(y, inner)))))


_DESUGAR = {
    Pos: lambda s, kids: Not(Nec(s.action, Not(kids[0]))),
    OPlus: lambda s, kids: QNot(And(QNot(kids[0]), QNot(kids[1]))),
    UntilS: _desugar_until,
}


def desugar(s: Sentence) -> Sentence:
    """Expand possibility, quantum disjunction and until; keep => and ~>."""
    return fold(s, _DESUGAR, SENTENCE)


# ----------------------------------------------------------- classification

@dataclass(frozen=True)
class Kind:
    is_basic: bool
    is_closed: bool
    is_quantum_clause: bool


# every kind, built once: constructing a frozen dataclass costs a microsecond
_KINDS = {flags: Kind(*flags) for flags in product((False, True), repeat=3)}
_NOTHING = _KINDS[False, False, False]


def action_symbols(a: Action) -> set[str]:
    return {n.name for n in walk(a, ACTION) if type(n) is ASym}


def is_unitary_action(a: Action, measurements: frozenset[str] | set[str]) -> bool:
    """True iff the action is free of quantum measurement symbols."""
    return action_symbols(a).isdisjoint(measurements)


# an entry per sentence class whose kind depends on its children, but Nec,
# which needs the signature; sugar gets the kind of its expansion
_CLASSIFY = dict.fromkeys((At, Store), lambda s, kids: _KINDS[
    kids[0].is_basic, False, kids[0].is_quantum_clause]) | {
    And: lambda s, kids: _KINDS[kids[0].is_basic and kids[1].is_basic,
                                kids[0].is_closed and kids[1].is_closed,
                                kids[0].is_quantum_clause and kids[1].is_quantum_clause],
    QNot: lambda s, kids: _KINDS[False, kids[0].is_closed, False],
    Imp: lambda s, kids: _KINDS[False, False, kids[0].is_basic and kids[1].is_quantum_clause],
    QImp: lambda s, kids: _KINDS[False, kids[0].is_closed and kids[1].is_closed,
                                 kids[0].is_closed and kids[0].is_basic
                                 and kids[1].is_closed and kids[1].is_quantum_clause],
    OPlus: lambda s, kids: _KINDS[False, kids[0].is_closed and kids[1].is_closed, False],
}
# these kinds do not depend on the children, which are not visited
_CLASSIFY_EARLY = dict.fromkeys((Here, Not, Pos, UntilS), lambda s: _NOTHING)


def classifier(closed_props: frozenset[str] | set[str],
               measurements: frozenset[str] | set[str]):
    """:func:`classify` over one signature, as a function of the sentence,
    with its fold table built once. Sugar classifies as its expansion."""
    table = _CLASSIFY | {
        Prop: lambda s, kids: _KINDS[True, s.name in closed_props, True],
        Nec: lambda s, kids: _KINDS[
            kids[0].is_basic, kids[0].is_closed and is_unitary_action(s.action, measurements),
            kids[0].is_quantum_clause],
    }
    return lambda s: fold(s, table, SENTENCE, _CLASSIFY_EARLY)


def classify(s: Sentence, closed_props: frozenset[str] | set[str],
             measurements: frozenset[str] | set[str]) -> Kind:
    """Kind flags exactly matching the basic / closed / clause grammars."""
    return classifier(closed_props, measurements)(s)


# --------------------------------------------------------- term harvesting

def subterms(t: Term):
    return walk(t, TERM)


def sentence_terms(s: Sentence):
    """All term occurrences (with their subterms) in a sentence, in pre-order."""
    return (n for n in walk(s, TERM | SENTENCE) if isinstance(n, Term))


def sentence_symbols(s: Sentence) -> tuple[set[str], set[str], set[str]]:
    """(prop symbols, action symbols, named vector constants) used in s."""
    nodes = list(walk(s))
    return ({n.name for n in nodes if type(n) is Prop},
            {n.name for n in nodes if type(n) is ASym} | {n.sym for n in nodes if type(n) is TApp},
            {n.name for n in nodes if type(n) is Name})
