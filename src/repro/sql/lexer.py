"""Tokenizer for TruSQL.

Produces a flat list of :class:`Token` objects.  Keywords are not
distinguished from identifiers here — the parser decides contextually,
which keeps words like ``visible`` usable as column names outside window
clauses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import LexerError

# token kinds
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"
EOF = "EOF"

#: multi-character operators, longest first so the scanner is greedy
_MULTI_OPS = ("::", "<>", "!=", "<=", ">=", "||")
_SINGLE_OPS = set("+-*/%(),.;=<>[]?")


@dataclass(frozen=True)
class Token:
    """A lexical token: ``kind`` is IDENT/NUMBER/STRING/OP/EOF."""

    kind: str
    text: str
    position: int
    line: int

    @property
    def upper(self) -> str:
        return self.text.upper()

    def __repr__(self):
        return f"Token({self.kind}, {self.text!r})"


class Lexer:
    """Single-pass scanner over SQL source text."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1

    def tokens(self):
        """Scan the whole input; always ends with one EOF token."""
        out = []
        while True:
            self._skip_whitespace_and_comments()
            if self.pos >= len(self.source):
                out.append(Token(EOF, "", self.pos, self.line))
                return out
            out.append(self._next_token())

    def _skip_whitespace_and_comments(self):
        src = self.source
        while self.pos < len(src):
            ch = src[self.pos]
            if ch == "\n":
                self.line += 1
                self.pos += 1
            elif ch.isspace():
                self.pos += 1
            elif src.startswith("--", self.pos):
                end = src.find("\n", self.pos)
                self.pos = len(src) if end < 0 else end
            elif src.startswith("/*", self.pos):
                end = src.find("*/", self.pos + 2)
                if end < 0:
                    raise LexerError("unterminated block comment", self.pos, self.line)
                self.line += src.count("\n", self.pos, end)
                self.pos = end + 2
            else:
                return

    def _next_token(self) -> Token:
        src = self.source
        start = self.pos
        ch = src[start]

        if ch == "'":
            return self._string(start)
        if ch == '"':
            return self._quoted_identifier(start)
        if ch.isdigit() or (ch == "." and start + 1 < len(src) and src[start + 1].isdigit()):
            return self._number(start)
        if ch.isalpha() or ch == "_":
            return self._identifier(start)

        for op in _MULTI_OPS:
            if src.startswith(op, start):
                self.pos = start + len(op)
                return Token(OP, op, start, self.line)
        if ch in _SINGLE_OPS:
            self.pos = start + 1
            return Token(OP, ch, start, self.line)
        raise LexerError(f"unexpected character {ch!r}", start, self.line)

    def _string(self, start: int) -> Token:
        src = self.source
        i = start + 1
        chunks = []
        while i < len(src):
            ch = src[i]
            if ch == "'":
                # '' is an escaped quote inside a string literal
                if i + 1 < len(src) and src[i + 1] == "'":
                    chunks.append("'")
                    i += 2
                    continue
                self.pos = i + 1
                return Token(STRING, "".join(chunks), start, self.line)
            if ch == "\n":
                self.line += 1
            chunks.append(ch)
            i += 1
        raise LexerError("unterminated string literal", start, self.line)

    def _quoted_identifier(self, start: int) -> Token:
        src = self.source
        end = src.find('"', start + 1)
        if end < 0:
            raise LexerError("unterminated quoted identifier", start, self.line)
        self.pos = end + 1
        return Token(IDENT, src[start + 1:end], start, self.line)

    def _number(self, start: int) -> Token:
        src = self.source
        i = start
        seen_dot = False
        seen_exp = False
        while i < len(src):
            ch = src[i]
            if ch.isdigit():
                i += 1
            elif ch == "." and not seen_dot and not seen_exp:
                # a trailing ".." would be range syntax; we don't support it
                seen_dot = True
                i += 1
            elif ch in "eE" and not seen_exp and i > start:
                nxt = src[i + 1] if i + 1 < len(src) else ""
                if nxt.isdigit() or (nxt in "+-" and i + 2 < len(src) and src[i + 2].isdigit()):
                    seen_exp = True
                    i += 2 if nxt in "+-" else 1
                else:
                    break
            else:
                break
        self.pos = i
        return Token(NUMBER, src[start:i], start, self.line)

    def _identifier(self, start: int) -> Token:
        src = self.source
        i = start
        while i < len(src) and (src[i].isalnum() or src[i] == "_"):
            i += 1
        self.pos = i
        return Token(IDENT, src[start:i], start, self.line)


def tokenize(source: str):
    """Convenience wrapper returning the token list for ``source``."""
    return Lexer(source).tokens()


def first_word(source: str) -> str:
    """Upper-cased text of the first token of ``source`` — past leading
    whitespace and comments — or ``""`` when there is none or it does
    not lex: enough to tell ``SET`` / ``SHOW`` from engine business
    without parsing the statement."""
    lexer = Lexer(source)
    try:
        lexer._skip_whitespace_and_comments()
        if lexer.pos >= len(source):
            return ""
        return lexer._next_token().upper
    except LexerError:
        return ""
