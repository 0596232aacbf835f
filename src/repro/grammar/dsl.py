"""A yacc-like textual grammar format.

The format accepted by :func:`load_grammar` mirrors the fragment of the
yacc/CUP specification language needed to express every grammar in the
paper's evaluation::

    // comments run to end of line
    %grammar dangling-else      // optional diagnostic name
    %start stmt                 // defaults to the first rule's lhs
    %algorithm ielr             // table construction: lalr | ielr | lr1
    %left '+' '-'
    %left '*'                   // later lines bind tighter
    %right ELSE
    %nonassoc EQ

    stmt : IF expr THEN stmt ELSE stmt
         | IF expr THEN stmt
         | %empty               // epsilon production
         | expr '?' stmt stmt %prec ELSE
         ;

Symbol-name conventions:

* A name is a **nonterminal** iff it appears to the left of a ``:``.
* Every other name is a **terminal**. Quoted names (``'+'``, ``":="``)
  are terminals whose name is the quoted text.
* ``%empty`` (or an entirely empty alternative) denotes epsilon.
* ``%prec TERMINAL`` at the end of an alternative overrides the
  production's precedence.

This module is itself a miniature recursive-descent parser — the
bootstrap layer beneath the parser generator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.grammar.builder import GrammarBuilder
from repro.grammar.errors import GrammarSyntaxError
from repro.grammar.grammar import Grammar

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>      \s+                       )
    | (?P<comment> //[^\n]* | \#[^\n]*       )
    | (?P<block>   /\*.*?\*/                 )
    | (?P<quoted>  '(?:[^'\\]|\\.)+' | "(?:[^"\\]|\\.)+" )
    | (?P<directive> %[A-Za-z_][A-Za-z0-9_]* )
    | (?P<name>    [A-Za-z_][A-Za-z0-9_'-]*  )
    | (?P<punct>   ::=|[:|;]                 )
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    line = 1
    while position < len(text):
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise GrammarSyntaxError(
                f"unexpected character {text[position]!r}", line=line
            )
        kind = match.lastgroup or ""
        fragment = match.group()
        if kind not in ("ws", "comment", "block"):
            tokens.append(_Token(kind, fragment, line))
        line += fragment.count("\n")
        position = match.end()
    return tokens


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\")


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._index = 0

    def _peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            last_line = self._tokens[-1].line if self._tokens else 1
            raise GrammarSyntaxError("unexpected end of grammar text", line=last_line)
        self._index += 1
        return token

    def _symbol_name(self, token: _Token) -> str:
        if token.kind == "quoted":
            name = _unquote(token.text)
            if hasattr(self, "_quoted_names"):
                self._quoted_names.setdefault(name, token.line)
            return name
        if token.kind == "name":
            return token.text
        raise GrammarSyntaxError(
            f"expected a symbol name, found {token.text!r}", line=token.line
        )

    def parse(self, default_name: str) -> Grammar:
        builder = GrammarBuilder(default_name)
        start: str | None = None
        self._quoted_names: dict[str, int] = {}

        while self._peek() is not None:
            token = self._peek()
            assert token is not None
            if token.kind == "directive":
                start = self._parse_directive(builder, start)
            elif token.kind in ("name", "quoted"):
                self._parse_rule(builder)
            else:
                raise GrammarSyntaxError(
                    f"expected a directive or rule, found {token.text!r}",
                    line=token.line,
                )

        # Quoted symbols are meant to be terminals; a quoted name that is
        # also a rule head would silently resolve to the nonterminal, so
        # reject the collision outright.
        rule_heads = {lhs for lhs, _, _, _ in builder._raw_rules}
        for name, line in self._quoted_names.items():
            if name in rule_heads:
                raise GrammarSyntaxError(
                    f"quoted terminal {name!r} collides with a nonterminal "
                    "of the same name; rename one of them",
                    line=line,
                )
        return builder.build(start=start)

    def _parse_directive(self, builder: GrammarBuilder, start: str | None) -> str | None:
        token = self._next()
        directive = token.text
        if directive == "%start":
            return self._symbol_name(self._next())
        if directive == "%grammar":
            builder.name = self._symbol_name(self._next())
            return start
        if directive == "%algorithm":
            operand = self._next()
            builder.algorithm(self._symbol_name(operand), line=operand.line)
            return start
        if directive in ("%left", "%right", "%nonassoc"):
            terminals: list[str] = []
            while True:
                lookahead = self._peek()
                if lookahead is None or lookahead.kind not in ("name", "quoted"):
                    break
                # A name followed by ':' or '::=' begins a rule, not a
                # precedence operand.
                after = (
                    self._tokens[self._index + 1]
                    if self._index + 1 < len(self._tokens)
                    else None
                )
                if lookahead.kind == "name" and after is not None and after.kind == "punct" and after.text in (":", "::="):
                    break
                terminals.append(self._symbol_name(self._next()))
            if not terminals:
                raise GrammarSyntaxError(
                    f"{directive} requires at least one terminal", line=token.line
                )
            getattr(builder, directive[1:])(*terminals, line=token.line)
            return start
        if directive == "%token":
            # Token declarations carry no grammar information (terminal-ness
            # is inferred), but are recorded with their source line so lint
            # passes can flag declared-but-unused tokens.
            while True:
                lookahead = self._peek()
                if lookahead is None or lookahead.kind not in ("name", "quoted"):
                    break
                after = (
                    self._tokens[self._index + 1]
                    if self._index + 1 < len(self._tokens)
                    else None
                )
                if lookahead.kind == "name" and after is not None and after.kind == "punct" and after.text in (":", "::="):
                    break
                declared = self._next()
                builder.token(self._symbol_name(declared), line=declared.line)
            return start
        raise GrammarSyntaxError(f"unknown directive {directive}", line=token.line)

    def _parse_rule(self, builder: GrammarBuilder) -> None:
        lhs_token = self._next()
        lhs = self._symbol_name(lhs_token)
        separator = self._next()
        if separator.kind != "punct" or separator.text not in (":", "::="):
            raise GrammarSyntaxError(
                f"expected ':' after rule head {lhs!r}, found {separator.text!r}",
                line=separator.line,
            )

        alternative: list[str] = []
        prec: str | None = None
        # Source line of the current alternative: the line of its first
        # body token, falling back to the rule head for empty alternatives.
        alt_line: int | None = None

        def flush() -> None:
            nonlocal alternative, prec, alt_line
            builder.rule(
                lhs,
                alternative,
                prec=prec,
                line=alt_line if alt_line is not None else lhs_token.line,
            )
            alternative = []
            prec = None
            alt_line = None

        while True:
            token = self._next()
            if token.kind == "punct" and token.text == ";":
                flush()
                return
            if token.kind == "punct" and token.text == "|":
                flush()
                continue
            if token.kind == "directive" and token.text == "%empty":
                if alt_line is None:
                    alt_line = token.line
                continue
            if token.kind == "directive" and token.text == "%prec":
                prec = self._symbol_name(self._next())
                continue
            if token.kind in ("name", "quoted"):
                if alt_line is None:
                    alt_line = token.line
                alternative.append(self._symbol_name(token))
                continue
            raise GrammarSyntaxError(
                f"unexpected {token.text!r} in rule body", line=token.line
            )


def load_grammar(text: str, name: str = "grammar") -> Grammar:
    """Parse grammar *text* in the yacc-like format into a :class:`Grammar`."""
    tokens = _tokenize(text)
    if not tokens:
        raise GrammarSyntaxError("empty grammar text")
    return _Parser(tokens).parse(default_name=name)


def load_grammar_file(path: str) -> Grammar:
    """Read *path* and parse its contents with :func:`load_grammar`."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    import os

    return load_grammar(text, name=os.path.splitext(os.path.basename(path))[0])
