"""ASTs and concrete syntax for terms, actions and sentences.

AST nodes are immutable, slotted dataclasses that compare by structure and
compute their hash once: the first ``hash`` walks the fields, later ones
read a slot, so keying a dict by a deep term costs no tree walk.

Concrete grammar (ASCII), loosest binding first::

    sentence := 'store' IDENT '.' sentence | imp
    imp      := oplus (('=>' | '~>') imp)?            right-assoc
    oplus    := conj ('(+)' conj)*
    conj     := prefix ('/\\' prefix)*
    prefix   := '!' prefix | '~' prefix | '[' action ']' prefix
              | '<' action '>' prefix | '@' '(' term ')' prefix | atom
    atom     := '(' sentence ')' | 'here' '(' term ')'
              | 'until' '(' action ',' sentence ',' sentence ')' | IDENT

    action   := comp ('|' comp)*                       union
    comp     := starred (';' comp)?                    right-assoc
    starred  := aatom '*'* ;  aatom := IDENT | '(' action ')'

    term     := factor ('+' factor)*                   vector sum
    factor   := COMPLEX '*' factor | tatom             scalar multiple
    tatom    := '0' | 'vec' '(' COMPLEX, ... ')' | '(' term ')'
              | IDENT ('(' term ')')?                  constant / symbol app

Complex literals are written ``a+bi`` with optional parts (``2``, ``1i``,
``2-3i``, ``-i``). ``@`` binds tighter than ``/\\``; a ``store`` scope extends as
far right as possible. Printing is deterministic (17 significant digits)
and reparses to a structurally equal AST.

A numeral is the longest run of the form ``(D|.D)[D.]*([eE][+-]?D*)?``,
where ``D`` is a decimal digit. It must read as ``D+(.D*)?`` or ``.D+``,
optionally followed by an exponent ``[eE][+-]?D+``; any other run, such as
``1.2.3`` or ``1e``, is a ParseError located at its first character. A
numeral directly followed by ``i`` (and not by a letter, digit, ``_`` or
``'``) is imaginary. Blanks are spaces, tabs, carriage returns and
newlines; ``#`` starts a comment that runs to the end of the line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError

__all__ = [
    "Name", "Var", "VecLit", "Origin", "TSum", "TSmul", "TApp", "Term",
    "ASym", "AComp", "AUnion", "AStar", "Action",
    "Prop", "Here", "At", "And", "Not", "QNot", "Nec", "Pos", "Store",
    "Imp", "QImp", "OPlus", "UntilS", "Sentence", "Kind",
    "parse", "parse_sentence", "parse_term", "parse_action", "parse_complex",
    "format_sentence", "format_term", "format_action", "format_complex",
    "substitute", "substitute_term", "desugar", "sasaki_expansion",
    "classify", "is_unitary_action", "free_vars", "term_vars", "is_ground",
    "sentence_terms", "subterms", "action_symbols", "sentence_symbols",
]


# ---------------------------------------------------------------- nodes

class _Node:
    """Base of every AST node; its one extra slot holds the cached hash."""
    __slots__ = ("_hash",)


def _node(cls):
    """Make an AST node class a frozen, slotted dataclass that hashes once.

    The hash is the dataclass's generated field-tuple hash, stored in the
    ``_hash`` slot on first use, so a dict lookup no longer walks the tree.
    Pickling and copying carry the fields only: a node loaded under another
    ``PYTHONHASHSEED`` computes its hash afresh.
    """
    cls = dataclass(frozen=True, slots=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = field_hash(self)
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
    left: "Term"
    right: "Term"


@_node
class TSmul(_Node):
    scalar: complex
    arg: "Term"


@_node
class TApp(_Node):
    """Application of a unitary or measurement symbol."""
    sym: str
    arg: "Term"


Term = Name | Var | VecLit | Origin | TSum | TSmul | TApp


# -------------------------------------------------------------- actions

@_node
class ASym(_Node):
    """A unitary or measurement symbol; the signature decides which."""
    name: str


@_node
class AComp(_Node):
    left: "Action"
    right: "Action"


@_node
class AUnion(_Node):
    left: "Action"
    right: "Action"


@_node
class AStar(_Node):
    body: "Action"


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
    body: "Sentence"


@_node
class And(_Node):
    left: "Sentence"
    right: "Sentence"


@_node
class Not(_Node):
    """Classical negation."""
    body: "Sentence"


@_node
class QNot(_Node):
    """Quantum negation: orthocomplement of the extension."""
    body: "Sentence"


@_node
class Nec(_Node):
    """Necessity along an action."""
    action: Action
    body: "Sentence"


@_node
class Pos(_Node):
    """Possibility; sugar for 'not nec not'."""
    action: Action
    body: "Sentence"


@_node
class Store(_Node):
    """Bind the current state to a variable."""
    var: str
    body: "Sentence"


@_node
class Imp(_Node):
    """Classical implication; kept primitive for the proof rules."""
    left: "Sentence"
    right: "Sentence"


@_node
class QImp(_Node):
    """Sasaki hook; kept primitive for the proof rules."""
    left: "Sentence"
    right: "Sentence"


@_node
class OPlus(_Node):
    """Quantum disjunction; sugar."""
    left: "Sentence"
    right: "Sentence"


@_node
class UntilS(_Node):
    """Until along an action; sugar."""
    action: Action
    first: "Sentence"
    second: "Sentence"


Sentence = (Prop | Here | At | And | Not | QNot | Nec | Pos | Store
            | Imp | QImp | OPlus | UntilS)


# ---------------------------------------------------------------- lexer
#
# A token is a (kind, text, offset) tuple. Its kind is IDENT, NUM, IMAG (the
# numeral before an imaginary 'i'), EOF or the punctuation text itself.

_KEYWORDS = {"store", "here", "until", "vec", "span"}
# what float() reads: digits with at most one '.', then an exponent with digits;
# with no exponent, the numeral must not run on into '.', a digit or 'e'
_NUMERAL = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+|(?![\d.eE]))"
_TOKEN = re.compile(rf"""
    [ \t\r\n]+ | \#[^\n]*                     # blanks and comments
  | (?P<NUM>{_NUMERAL})(?P<IMAG>i(?![\w']))?
  | (?P<BAD>(?:\d|\.\d)[\d.]*(?:[eE][+-]?\d*)?) # any other numeral run
  | (?P<IDENT>[A-Za-z_][\w']*)
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
    def term(self) -> Term:
        t = self.factor()
        while self.peek()[0] == "+":
            self.next()
            t = TSum(t, self.factor())
        return t

    def factor(self) -> Term:
        if self.at_complex():
            save = self.pos
            c = self.complex_lit()
            if self.peek()[0] == "*":
                self.next()
                return TSmul(c, self.factor())
            self.pos = save  # a bare number is not a scalar multiple
        return self.tatom()

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
    def action(self) -> Action:
        a = self.comp()
        while self.peek()[0] == "|":
            self.next()
            a = AUnion(a, self.comp())
        return a

    def comp(self) -> Action:
        a = self.starred()
        if self.peek()[0] == ";":
            self.next()
            return AComp(a, self.comp())
        return a

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

    # -------------------------------------------------------- sentences
    def sentence(self) -> Sentence:
        kind, text, _ = self.peek()
        if kind == "IDENT" and text == "store":
            self.next()
            var = self.expect("IDENT")[1]
            self.expect(".")
            self.bound.append(var)
            body = self.sentence()
            self.bound.pop()
            return Store(var, body)
        return self.imp()

    def imp(self) -> Sentence:
        left = self.oplus()
        k = self.peek()[0]
        if k == "=>":
            self.next()
            return Imp(left, self.imp())
        if k == "~>":
            self.next()
            return QImp(left, self.imp())
        return left

    def oplus(self) -> Sentence:
        s = self.conj()
        while self.peek()[0] == "(+)":
            self.next()
            s = OPlus(s, self.conj())
        return s

    def conj(self) -> Sentence:
        s = self.prefix()
        while self.peek()[0] == "/\\":
            self.next()
            s = And(s, self.prefix())
        return s

    def prefix(self) -> Sentence:
        kind = self.peek()[0]
        if kind == "!":
            self.next()
            return Not(self.prefix())
        if kind == "~":
            self.next()
            return QNot(self.prefix())
        if kind == "[":
            self.next()
            a = self.action()
            self.expect("]")
            return Nec(a, self.prefix())
        if kind == "<":
            self.next()
            a = self.action()
            self.expect(">")
            return Pos(a, self.prefix())
        if kind == "@":
            self.next()
            self.expect("(")
            k = self.term()
            self.expect(")")
            return At(k, self.prefix())
        return self.atom()

    def atom(self) -> Sentence:
        kind, text, _ = self.peek()
        if kind == "(":
            self.next()
            s = self.sentence()
            self.expect(")")
            return s
        if kind == "IDENT":
            if text == "here":
                self.next()
                self.expect("(")
                k = self.term()
                self.expect(")")
                return Here(k)
            if text == "until":
                self.next()
                self.expect("(")
                a = self.action()
                self.expect(",")
                s1 = self.sentence()
                self.expect(",")
                s2 = self.sentence()
                self.expect(")")
                return UntilS(a, s1, s2)
            if text in _KEYWORDS:
                self.fail(f"keyword {text!r} cannot be a proposition")
            self.next()
            return Prop(text)
        self.fail("expected a sentence")


def _finish(parser: _Parser, node):
    kind, text, _ = parser.peek()
    if kind != "EOF":
        parser.fail(f"trailing input starting at {text!r}")
    return node


def parse_sentence(text: str) -> Sentence:
    p = _Parser(text)
    return _finish(p, p.sentence())


def parse_term(text: str) -> Term:
    p = _Parser(text)
    return _finish(p, p.term())


def parse_action(text: str) -> Action:
    p = _Parser(text)
    return _finish(p, p.action())


def parse(text: str) -> Sentence:
    """Parse a sentence; use parse_term / parse_action for the other sorts."""
    return parse_sentence(text)


# a complex literal whose tokens only spaces or tabs separate
_COMPLEX = re.compile(rf"""[ \t]*(?P<neg>-[ \t]*)?
    (?: (?P<unit>i) | (?P<im>{_NUMERAL})i
      | (?P<re>{_NUMERAL})(?:[ \t]*(?P<op>[+-])[ \t]*(?P<tail>{_NUMERAL})i)? )[ \t]*""",
                      re.VERBOSE)


def parse_complex(text: str) -> complex:
    """Parse an 'a+bi' style complex literal.

    One regex match reads the literal; other text goes to the parser, which
    reads comments and line breaks or raises a located ParseError.
    """
    m = _COMPLEX.fullmatch(text)
    if m is None:
        p = _Parser(text)
        return _finish(p, p.complex_lit())
    sign = -1.0 if m["neg"] else 1.0
    if m["unit"]:
        return complex(0.0, sign)
    if m["im"]:
        return complex(0.0, sign * float(m["im"]))
    first = sign * float(m["re"])
    if m["tail"] is None:
        return complex(first, 0.0)
    im = float(m["tail"])
    return complex(first, im if m["op"] == "+" else -im)


# -------------------------------------------------------------- printing

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


def format_term(t: Term, level: int = 0) -> str:
    if isinstance(t, Origin):
        return "0"
    if isinstance(t, (Name, Var)):
        return t.name
    if isinstance(t, VecLit):
        return "vec(" + ", ".join(format_complex(c) for c in t.coords) + ")"
    if isinstance(t, TApp):
        return f"{t.sym}({format_term(t.arg)})"
    if isinstance(t, TSum):
        s = f"{format_term(t.left, 0)} + {format_term(t.right, 1)}"
        return f"({s})" if level > 0 else s
    if isinstance(t, TSmul):
        s = f"{format_complex(t.scalar)}*{format_term(t.arg, 1)}"
        return f"({s})" if level > 1 else s
    raise TypeError(f"not a term: {t!r}")


def format_action(a: Action, level: int = 0) -> str:
    if isinstance(a, ASym):
        return a.name
    if isinstance(a, AStar):
        return format_action(a.body, 2) + "*"
    if isinstance(a, AComp):
        s = f"{format_action(a.left, 2)} ; {format_action(a.right, 1)}"
        return f"({s})" if level > 1 else s
    if isinstance(a, AUnion):
        s = f"{format_action(a.left, 0)} | {format_action(a.right, 1)}"
        return f"({s})" if level > 0 else s
    raise TypeError(f"not an action: {a!r}")


_L_STORE, _L_IMP, _L_OPLUS, _L_AND, _L_PREFIX = 0, 1, 2, 3, 4


def format_sentence(s: Sentence, level: int = 0) -> str:
    def wrap(text: str, own: int) -> str:
        return f"({text})" if own < level else text

    if isinstance(s, Prop):
        return s.name
    if isinstance(s, Here):
        return f"here({format_term(s.term)})"
    if isinstance(s, UntilS):
        return (f"until({format_action(s.action)}, {format_sentence(s.first)}, "
                f"{format_sentence(s.second)})")
    if isinstance(s, Store):
        return wrap(f"store {s.var} . {format_sentence(s.body, _L_STORE)}", _L_STORE)
    if isinstance(s, Imp):
        text = f"{format_sentence(s.left, _L_IMP + 1)} => {format_sentence(s.right, _L_IMP)}"
        return wrap(text, _L_IMP)
    if isinstance(s, QImp):
        text = f"{format_sentence(s.left, _L_IMP + 1)} ~> {format_sentence(s.right, _L_IMP)}"
        return wrap(text, _L_IMP)
    if isinstance(s, OPlus):
        text = f"{format_sentence(s.left, _L_OPLUS)} (+) {format_sentence(s.right, _L_OPLUS + 1)}"
        return wrap(text, _L_OPLUS)
    if isinstance(s, And):
        text = f"{format_sentence(s.left, _L_AND)} /\\ {format_sentence(s.right, _L_AND + 1)}"
        return wrap(text, _L_AND)
    if isinstance(s, Not):
        return wrap(f"!{format_sentence(s.body, _L_PREFIX)}", _L_PREFIX)
    if isinstance(s, QNot):
        return wrap(f"~{format_sentence(s.body, _L_PREFIX)}", _L_PREFIX)
    if isinstance(s, Nec):
        return wrap(f"[{format_action(s.action)}] {format_sentence(s.body, _L_PREFIX)}",
                    _L_PREFIX)
    if isinstance(s, Pos):
        return wrap(f"<{format_action(s.action)}> {format_sentence(s.body, _L_PREFIX)}",
                    _L_PREFIX)
    if isinstance(s, At):
        return wrap(f"@({format_term(s.term)}) {format_sentence(s.body, _L_PREFIX)}",
                    _L_PREFIX)
    raise TypeError(f"not a sentence: {s!r}")


# --------------------------------------------------- variables and scope

def term_vars(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, (TSum,)):
        return term_vars(t.left) | term_vars(t.right)
    if isinstance(t, (TSmul, TApp)):
        return term_vars(t.arg)
    return set()


def is_ground(t: Term) -> bool:
    return not term_vars(t)


def free_vars(s: Sentence) -> set[str]:
    if isinstance(s, Prop):
        return set()
    if isinstance(s, Here):
        return term_vars(s.term)
    if isinstance(s, At):
        return term_vars(s.term) | free_vars(s.body)
    if isinstance(s, (And, Imp, QImp, OPlus)):
        return free_vars(s.left) | free_vars(s.right)
    if isinstance(s, (Not, QNot)):
        return free_vars(s.body)
    if isinstance(s, (Nec, Pos)):
        return free_vars(s.body)
    if isinstance(s, Store):
        return free_vars(s.body) - {s.var}
    if isinstance(s, UntilS):
        return free_vars(s.first) | free_vars(s.second)
    raise TypeError(f"not a sentence: {s!r}")


def _fresh(base: str, avoid: set[str]) -> str:
    name = base
    while name in avoid:
        name += "'"
    return name


def substitute_term(t: Term, var: str, repl: Term) -> Term:
    if isinstance(t, Var):
        return repl if t.name == var else t
    if isinstance(t, TSum):
        return TSum(substitute_term(t.left, var, repl), substitute_term(t.right, var, repl))
    if isinstance(t, TSmul):
        return TSmul(t.scalar, substitute_term(t.arg, var, repl))
    if isinstance(t, TApp):
        return TApp(t.sym, substitute_term(t.arg, var, repl))
    return t


def substitute(s: Sentence, var: str, repl: Term) -> Sentence:
    """Capture-avoiding substitution of a term for a free variable."""
    if isinstance(s, Prop):
        return s
    if isinstance(s, Here):
        return Here(substitute_term(s.term, var, repl))
    if isinstance(s, At):
        return At(substitute_term(s.term, var, repl), substitute(s.body, var, repl))
    if isinstance(s, And):
        return And(substitute(s.left, var, repl), substitute(s.right, var, repl))
    if isinstance(s, Imp):
        return Imp(substitute(s.left, var, repl), substitute(s.right, var, repl))
    if isinstance(s, QImp):
        return QImp(substitute(s.left, var, repl), substitute(s.right, var, repl))
    if isinstance(s, OPlus):
        return OPlus(substitute(s.left, var, repl), substitute(s.right, var, repl))
    if isinstance(s, Not):
        return Not(substitute(s.body, var, repl))
    if isinstance(s, QNot):
        return QNot(substitute(s.body, var, repl))
    if isinstance(s, Nec):
        return Nec(s.action, substitute(s.body, var, repl))
    if isinstance(s, Pos):
        return Pos(s.action, substitute(s.body, var, repl))
    if isinstance(s, UntilS):
        return UntilS(s.action, substitute(s.first, var, repl),
                      substitute(s.second, var, repl))
    if isinstance(s, Store):
        if s.var == var:
            return s
        if s.var in term_vars(repl) and var in free_vars(s.body):
            # the binder would capture a variable of repl: rename it first
            renamed = _fresh(s.var, term_vars(repl) | free_vars(s.body) | {var})
            body = substitute(s.body, s.var, Var(renamed))
            return Store(renamed, substitute(body, var, repl))
        return Store(s.var, substitute(s.body, var, repl))
    raise TypeError(f"not a sentence: {s!r}")


# ------------------------------------------------------------- desugaring

def sasaki_expansion(left: Sentence, right: Sentence) -> Sentence:
    """The defining closed form of the Sasaki hook."""
    return QNot(And(left, QNot(And(left, right))))


def desugar(s: Sentence) -> Sentence:
    """Expand possibility, quantum disjunction and until; keep => and ~>."""
    if isinstance(s, (Prop, Here)):
        return s
    if isinstance(s, At):
        return At(s.term, desugar(s.body))
    if isinstance(s, And):
        return And(desugar(s.left), desugar(s.right))
    if isinstance(s, Imp):
        return Imp(desugar(s.left), desugar(s.right))
    if isinstance(s, QImp):
        return QImp(desugar(s.left), desugar(s.right))
    if isinstance(s, Not):
        return Not(desugar(s.body))
    if isinstance(s, QNot):
        return QNot(desugar(s.body))
    if isinstance(s, Nec):
        return Nec(s.action, desugar(s.body))
    if isinstance(s, Store):
        return Store(s.var, desugar(s.body))
    if isinstance(s, Pos):
        return Not(Nec(s.action, Not(desugar(s.body))))
    if isinstance(s, OPlus):
        return QNot(And(QNot(desugar(s.left)), QNot(desugar(s.right))))
    if isinstance(s, UntilS):
        g1, g2 = desugar(s.first), desugar(s.second)
        avoid = free_vars(g1) | free_vars(g2)
        x = _fresh("x", avoid)
        y = _fresh("y", avoid | {x})
        reach_y = Not(Nec(s.action, Not(Here(Var(y)))))
        inner = And(g1, At(Var(x), Nec(s.action, Imp(reach_y, g2))))
        return Store(x, Not(Nec(s.action, Not(Store(y, inner)))))
    raise TypeError(f"not a sentence: {s!r}")


# ----------------------------------------------------------- classification

@dataclass(frozen=True)
class Kind:
    is_basic: bool
    is_closed: bool
    is_quantum_clause: bool

    @property
    def is_closed_quantum_clause(self) -> bool:
        return self.is_closed and self.is_quantum_clause


_NOTHING = Kind(False, False, False)


def action_symbols(a: Action) -> set[str]:
    if isinstance(a, ASym):
        return {a.name}
    if isinstance(a, AStar):
        return action_symbols(a.body)
    return action_symbols(a.left) | action_symbols(a.right)


def is_unitary_action(a: Action, measurements: frozenset[str] | set[str]) -> bool:
    """True iff the action is free of quantum measurement symbols."""
    return not (action_symbols(a) & set(measurements))


def classify(s: Sentence, closed_props: frozenset[str] | set[str],
             measurements: frozenset[str] | set[str]) -> Kind:
    """Kind flags exactly matching the basic / closed / clause grammars.

    Sugar is expanded first, so e.g. a quantum disjunction of closed
    sentences classifies as closed.
    """
    s = desugar(s)

    def go(s: Sentence) -> Kind:
        if isinstance(s, Prop):
            return Kind(True, s.name in closed_props, True)
        if isinstance(s, Here):
            return _NOTHING
        if isinstance(s, At):
            k = go(s.body)
            return Kind(k.is_basic, False, k.is_quantum_clause)
        if isinstance(s, Store):
            k = go(s.body)
            return Kind(k.is_basic, False, k.is_quantum_clause)
        if isinstance(s, And):
            l, r = go(s.left), go(s.right)
            return Kind(l.is_basic and r.is_basic,
                        l.is_closed and r.is_closed,
                        l.is_quantum_clause and r.is_quantum_clause)
        if isinstance(s, Not):
            go(s.body)
            return _NOTHING
        if isinstance(s, QNot):
            return Kind(False, go(s.body).is_closed, False)
        if isinstance(s, Nec):
            k = go(s.body)
            unitary = is_unitary_action(s.action, measurements)
            return Kind(k.is_basic, k.is_closed and unitary, k.is_quantum_clause)
        if isinstance(s, Imp):
            l, r = go(s.left), go(s.right)
            return Kind(False, False, l.is_basic and r.is_quantum_clause)
        if isinstance(s, QImp):
            l, r = go(s.left), go(s.right)
            clause = (l.is_closed and l.is_basic
                      and r.is_closed and r.is_quantum_clause)
            return Kind(False, l.is_closed and r.is_closed, clause)
        raise TypeError(f"not a desugared sentence: {s!r}")

    return go(s)


# --------------------------------------------------------- term harvesting

def subterms(t: Term):
    yield t
    if isinstance(t, TSum):
        yield from subterms(t.left)
        yield from subterms(t.right)
    elif isinstance(t, (TSmul, TApp)):
        yield from subterms(t.arg)


def sentence_terms(s: Sentence):
    """All term occurrences (with their subterms) in a sentence."""
    if isinstance(s, Here):
        yield from subterms(s.term)
    elif isinstance(s, At):
        yield from subterms(s.term)
        yield from sentence_terms(s.body)
    elif isinstance(s, (And, Imp, QImp, OPlus)):
        yield from sentence_terms(s.left)
        yield from sentence_terms(s.right)
    elif isinstance(s, (Not, QNot)):
        yield from sentence_terms(s.body)
    elif isinstance(s, (Nec, Pos, Store)):
        yield from sentence_terms(s.body)
    elif isinstance(s, UntilS):
        yield from sentence_terms(s.first)
        yield from sentence_terms(s.second)


def sentence_symbols(s: Sentence) -> tuple[set[str], set[str], set[str]]:
    """(prop symbols, action symbols, named vector constants) used in s."""
    props: set[str] = set()
    acts: set[str] = set()
    names: set[str] = set()

    def go_term(t: Term):
        for sub in subterms(t):
            if isinstance(sub, Name):
                names.add(sub.name)
            elif isinstance(sub, TApp):
                acts.add(sub.sym)

    def go(s: Sentence):
        if isinstance(s, Prop):
            props.add(s.name)
        elif isinstance(s, Here):
            go_term(s.term)
        elif isinstance(s, At):
            go_term(s.term)
            go(s.body)
        elif isinstance(s, (And, Imp, QImp, OPlus)):
            go(s.left)
            go(s.right)
        elif isinstance(s, (Not, QNot)):
            go(s.body)
        elif isinstance(s, (Nec, Pos)):
            acts.update(action_symbols(s.action))
            go(s.body)
        elif isinstance(s, Store):
            go(s.body)
        elif isinstance(s, UntilS):
            acts.update(action_symbols(s.action))
            go(s.first)
            go(s.second)

    go(s)
    return props, acts, names
