"""The recursive-descent parser that the table-driven one in ``hdql.syntax``
replaced, kept as it was as the reference for ``test_parser_reference.py``.

It has one method per binding level and recurses once per operator of a
right-grouping chain and once per prefix operator or ``store`` binder. The
lexer, the AST nodes and the error helper are the library's own.
"""

from __future__ import annotations

from hdql.syntax import (_KEYWORDS, AComp, Action, ASym, AStar, AUnion, And, At, Here, Imp,
                         Name, Nec, Not, OPlus, Origin, Pos, Prop, QImp, QNot, Sentence,
                         Store, TApp, Term, TSmul, TSum, UntilS, Var, VecLit, _error, _lex)


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

