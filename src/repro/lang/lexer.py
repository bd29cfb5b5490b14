"""A small hand-written lexer shared by the rP4 and mini-P4 parsers.

Handles identifiers, decimal/hex integers, P4-style width literals
(``8w0x1F`` is split by the parsers, not here), ``//`` and ``/* */``
comments, and the punctuation both grammars need.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

from repro.lang.errors import LangError


class TokenKind(enum.Enum):
    IDENT = "ident"
    INT = "int"
    PUNCT = "punct"
    EOF = "eof"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int
    value: int = 0  # decoded value for INT tokens

    def is_punct(self, text: str) -> bool:
        return self.kind is TokenKind.PUNCT and self.text == text

    def is_ident(self, text: "str | None" = None) -> bool:
        if self.kind is not TokenKind.IDENT:
            return False
        return text is None or self.text == text

    def __str__(self) -> str:
        return self.text if self.kind is not TokenKind.EOF else "<eof>"


# Longest first so `==` wins over `=`.
_PUNCTUATION = [
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "--",
    "{", "}", "(", ")", "[", "]", ";", ":", ",", ".", "=",
    "<", ">", "!", "&", "|", "^", "+", "-", "*", "/", "@",
]


def tokenize(source: str) -> List[Token]:
    """Tokenize ``source``; raises :class:`LangError` on bad input."""
    tokens: List[Token] = []
    line, col = 1, 1
    i, n = 0, len(source)

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            end = source.find("\n", i)
            advance((end if end != -1 else n) - i)
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise LangError("unterminated block comment", line, col)
            advance(end + 2 - i)
            continue
        if ch in "0123456789":
            start, start_line, start_col = i, line, col
            base, digits = 10, "0123456789_"
            if source.startswith(("0x", "0X", "0b", "0B"), i):
                base = 16 if source[i + 1] in "xX" else 2
                digits = "0123456789abcdefABCDEF_" if base == 16 else "01_"
                advance(2)
            while i < n and source[i] in digits:
                advance(1)
            text = source[start:i]
            body = text if base == 10 else text[2:]
            try:
                value = int(body.replace("_", ""), base)
            except ValueError:  # "0x" / "0b" without digits
                raise LangError(
                    f"malformed integer literal {text!r}", start_line, start_col
                ) from None
            tokens.append(Token(TokenKind.INT, text, start_line, start_col, value))
            continue
        if ch.isalpha() or ch == "_":
            start, start_line, start_col = i, line, col
            while i < n and (source[i].isalnum() or source[i] == "_"):
                advance(1)
            tokens.append(
                Token(TokenKind.IDENT, source[start:i], start_line, start_col)
            )
            continue
        matched = False
        for punct in _PUNCTUATION:
            if source.startswith(punct, i):
                tokens.append(Token(TokenKind.PUNCT, punct, line, col))
                advance(len(punct))
                matched = True
                break
        if not matched:
            raise LangError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens


class Lexer:
    """Cursor over a token list with the helpers parsers want."""

    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        self.pos = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def accept_punct(self, text: str) -> bool:
        if self.current.is_punct(text):
            self.advance()
            return True
        return False

    def accept_ident(self, text: str) -> bool:
        if self.current.is_ident(text):
            self.advance()
            return True
        return False

    def expect_punct(self, text: str) -> Token:
        if not self.current.is_punct(text):
            raise LangError(
                f"expected {text!r}, found {self.current}",
                self.current.line,
                self.current.column,
            )
        return self.advance()

    def expect_ident(self, text: "str | None" = None) -> Token:
        if not self.current.is_ident(text):
            expected = repr(text) if text else "an identifier"
            raise LangError(
                f"expected {expected}, found {self.current}",
                self.current.line,
                self.current.column,
            )
        return self.advance()

    def expect_int(self) -> Token:
        if self.current.kind is not TokenKind.INT:
            raise LangError(
                f"expected an integer, found {self.current}",
                self.current.line,
                self.current.column,
            )
        return self.advance()

    def at_eof(self) -> bool:
        return self.current.kind is TokenKind.EOF

    def error(self, message: str) -> LangError:
        return LangError(message, self.current.line, self.current.column)
