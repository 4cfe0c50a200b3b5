"""The TruSQL front end: lexer, AST, and recursive-descent parser.

TruSQL is the paper's minimally-extended SQL dialect (Section 3): standard
SQL plus ``CREATE STREAM`` (with a ``CQTIME`` ordering column), window
clauses on stream references (``<VISIBLE '5 minutes' ADVANCE '1 minute'>``),
derived streams (``CREATE STREAM ... AS SELECT``), and channels
(``CREATE CHANNEL ... FROM ... INTO ... APPEND|REPLACE``).
"""

from repro.sql.lexer import Lexer, Token, first_word, tokenize
from repro.sql.parser import (
    Parser,
    parse_script,
    parse_statement,
    split_script,
)

__all__ = [
    "Lexer",
    "Token",
    "tokenize",
    "first_word",
    "Parser",
    "parse_statement",
    "parse_script",
    "split_script",
]
