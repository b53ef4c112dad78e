"""Tiny expression evaluator for presentation files.

Grammar: sums of products with rational coefficients, parentheses and
integer powers (`name^k`).  Names are resolved from an environment of
algebra elements, which support `+`, unary `-`, `*` among themselves and
with `fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction

_TOKEN_CHARS = set("+-*/^()")


class ExpressionError(ValueError):
    pass


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKEN_CHARS:
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("num", int(text[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
        else:
            raise ExpressionError(f"unexpected character {ch!r} in expression")
    return tokens


class _Parser:
    def __init__(self, tokens, env):
        self.tokens = tokens
        self.pos = 0
        self.env = env

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value + (Fraction(-1) * rhs)
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.take()
            value = value * self.factor()
        return value

    def factor(self):
        if self.peek() == "-":
            self.take()
            return Fraction(-1) * self.factor()
        if self.peek() == "+":
            self.take()
            return self.factor()
        value = self.atom()
        while self.peek() == "^":
            self.take()
            t = self.take()
            if not (isinstance(t, tuple) and t[0] == "num"):
                raise ExpressionError("exponent must be a non-negative integer")
            k = t[1]
            out = Fraction(1)
            for _ in range(k):
                out = out * value
            value = out
        return value

    def atom(self):
        t = self.take()
        if t == "(":
            value = self.expr()
            if self.take() != ")":
                raise ExpressionError("unbalanced parentheses")
            return value
        if isinstance(t, tuple) and t[0] == "num":
            num = t[1]
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not (isinstance(den, tuple) and den[0] == "num"):
                    raise ExpressionError("bad rational literal")
                if not den[1]:
                    raise ExpressionError(
                        f"zero denominator in rational literal {num}/0")
                return Fraction(num, den[1])
            return Fraction(num)
        if isinstance(t, tuple) and t[0] == "name":
            if t[1] not in self.env:
                raise ExpressionError(f"unknown name {t[1]!r}")
            return self.env[t[1]]
        raise ExpressionError(f"unexpected token {t!r}")


def parse_expression(text: str, env: dict, zero):
    """Evaluate `text` in `env`; a pure-scalar result is folded into `zero`'s
    algebra (so "0" parses to the zero element)."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    parser = _Parser(tokens, env)
    value = parser.expr()
    if parser.pos != len(tokens):
        raise ExpressionError(f"trailing tokens in expression {text!r}")
    if isinstance(value, Fraction):
        value = zero + value
    return value
