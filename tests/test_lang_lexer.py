"""Unit tests for the shared lexer."""

import pytest

from repro.lang.errors import LangError
from repro.lang.lexer import Lexer, TokenKind, tokenize


class TestTokenize:
    def test_identifiers_and_ints(self):
        tokens = tokenize("table foo 42")
        assert [t.kind for t in tokens[:-1]] == [
            TokenKind.IDENT,
            TokenKind.IDENT,
            TokenKind.INT,
        ]
        assert tokens[2].value == 42

    def test_hex_and_binary(self):
        tokens = tokenize("0x86DD 0b101 1_000")
        assert [t.value for t in tokens[:-1]] == [0x86DD, 5, 1000]

    def test_punctuation_longest_match(self):
        tokens = tokenize("a == b = c && d")
        punct = [t.text for t in tokens if t.kind is TokenKind.PUNCT]
        assert punct == ["==", "=", "&&"]

    def test_line_comment(self):
        tokens = tokenize("a // comment with { } stuff\nb")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_block_comment(self):
        tokens = tokenize("a /* multi\nline */ b")
        assert [t.text for t in tokens[:-1]] == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LangError):
            tokenize("a /* never ends")

    def test_unexpected_character(self):
        with pytest.raises(LangError):
            tokenize("a $ b")

    @pytest.mark.parametrize("text", ["0x", "0b", "x = 0X;", "0b2", "0x_"])
    def test_radix_prefix_without_digits(self, text):
        with pytest.raises(LangError, match="malformed integer literal"):
            tokenize(text)

    @pytest.mark.parametrize("frontend", ["rp4", "p4"])
    def test_parsers_report_an_empty_hex_literal(self, frontend):
        """Both front ends share the lexer: a bare ``0x`` in a source is
        a located :class:`LangError`, not a ``ValueError`` from ``int``."""
        from repro.p4 import parse_p4
        from repro.rp4 import parse_rp4

        parse = parse_rp4 if frontend == "rp4" else parse_p4
        with pytest.raises(LangError) as raised:
            parse("header h_t {\n    bit<8> f;\n}\nconst bit<8> K = 0x;\n")
        assert str(raised.value).startswith("4:18: malformed integer literal")

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_eof_token(self):
        assert tokenize("")[-1].kind is TokenKind.EOF


class TestLexerCursor:
    def test_advance_and_peek(self):
        lex = Lexer("a b c")
        assert lex.current.text == "a"
        assert lex.peek().text == "b"
        lex.advance()
        assert lex.current.text == "b"

    def test_accept(self):
        lex = Lexer("{ foo }")
        assert lex.accept_punct("{")
        assert not lex.accept_punct("}")
        assert lex.accept_ident("foo")
        assert lex.accept_punct("}")
        assert lex.at_eof()

    def test_expect_errors(self):
        lex = Lexer("foo")
        with pytest.raises(LangError):
            lex.expect_punct(";")
        with pytest.raises(LangError):
            lex.expect_int()
        assert lex.expect_ident("foo").text == "foo"

    def test_advance_past_eof_is_safe(self):
        lex = Lexer("x")
        lex.advance()
        lex.advance()
        assert lex.at_eof()
