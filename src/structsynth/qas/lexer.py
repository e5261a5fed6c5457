"""Line-oriented lexer with indentation tracking.

Lines end at ``\n`` or ``\r\n`` only; any other line-break character is an
unexpected character. Indentation uses spaces only; a tab anywhere in a line
is a lexical error.
Lines holding only spaces, or spaces and a comment, produce no tokens; any
other blank character is unexpected there as anywhere. Errors are collected
per line so the parser can report every problem in one pass.

Each line is scanned with one alternation regex (the tokenizer recipe from
the ``re`` documentation): the name of the group that matched decides the
token's kind. Each match also absorbs the blanks before its token, so blanks
cost no match of their own.
"""

from __future__ import annotations

import re
from typing import NamedTuple

KEYWORDS = frozenset({"import", "for", "in", "if", "else", "True", "False", "None"})

_ESCAPES = {"\\": "\\", "'": "'", '"': '"', "n": "\n", "t": "\t"}

# Alternatives are tried in order: FLOAT before INT, and a well-formed STRING
# before BADSTR, which catches any quote that does not open one. Digits use
# \d (any Unicode decimal digit); names are ASCII only. Longest operators come
# first so '==' wins over '='. The lexer stops each line's scan before its
# trailing blanks, which could otherwise only match as MISMATCH.
_TOKEN_RE = re.compile(r"""
    \ *(?:
      (?P<NAME>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<OP>==|!=|<=|>=|[=<>+\-*/%()\[\],.:])
    | (?P<FLOAT>\d+\.\d+)
    | (?P<INT>\d+)
    | (?P<STRING>'(?:[^'\\]|\\[\\'"nt])*'|"(?:[^"\\]|\\[\\'"nt])*")
    | (?P<BADSTR>['"])
    | (?P<COMMENT>\#)
    | (?P<MISMATCH>[^\ ])
    )
""", re.VERBOSE)
_PLAIN = frozenset({"OP", "INT", "FLOAT"})  # kinds whose token text is the match

_ESCAPE_RE = re.compile(r"\\(.)")


class Token(NamedTuple):
    kind: str  # NAME KW INT FLOAT STRING OP NEWLINE INDENT DEDENT EOF
    text: str
    line: int
    col: int


_new = tuple.__new__  # builds a Token without NamedTuple's Python-level __new__


class LexIssue(NamedTuple):
    line: int
    col: int
    message: str


def tokenize(source: str) -> tuple[list[Token], list[LexIssue]]:
    tokens: list[Token] = []
    issues: list[LexIssue] = []
    indents = [0]
    lineno = 0

    lines = source.split("\n")
    if lines[-1] == "":
        lines.pop()  # a final newline ends the last line; it opens no new one
    for raw_line in lines:
        lineno += 1
        if raw_line.endswith("\r"):
            raw_line = raw_line[:-1]
        if "\t" in raw_line:
            issues.append(LexIssue(lineno, raw_line.index("\t") + 1, "tab character not allowed"))
            continue
        stripped = raw_line.lstrip(" ")  # the only blank the lexer skips
        if not stripped or stripped[0] == "#":
            continue

        width = len(raw_line) - len(stripped)
        if width > indents[-1]:
            indents.append(width)
            tokens.append(_new(Token, ("INDENT", "", lineno, 1)))
        else:
            while width < indents[-1]:
                indents.pop()
                tokens.append(_new(Token, ("DEDENT", "", lineno, 1)))
            if width != indents[-1]:
                issues.append(LexIssue(lineno, 1, "unindent does not match any outer level"))
                indents.append(width)

        mark = len(tokens)
        issue = _lex_line(raw_line, lineno, width, tokens)
        if issue is not None:
            # Drop the partial line so the parser never sees a broken tail.
            del tokens[mark:]
            issues.append(issue)
        tokens.append(_new(Token, ("NEWLINE", "", lineno, len(raw_line) + 1)))

    while len(indents) > 1:
        indents.pop()
        tokens.append(Token("DEDENT", "", lineno + 1, 1))
    tokens.append(Token("EOF", "", lineno + 1, 1))
    return tokens, issues


def one_token(text: str) -> tuple[str, str] | None:
    """The kind and text of the one token ``text`` spells as part of a line
    (``KW`` for a keyword), blanks around it allowed; None for any other text."""
    m = _TOKEN_RE.fullmatch(text.rstrip(" ")) if "\n" not in text else None
    kind = m.lastgroup if m is not None else "MISMATCH"
    if kind in ("BADSTR", "COMMENT", "MISMATCH"):
        return None
    text = m.group(kind)
    return ("KW" if kind == "NAME" and text in KEYWORDS else kind), text


def _lex_line(line: str, lineno: int, start: int, tokens: list[Token]) -> LexIssue | None:
    """Append the line's tokens; return the first issue instead, if any."""
    append = tokens.append
    for m in _TOKEN_RE.finditer(line, start, len(line.rstrip(" "))):
        kind = m.lastgroup
        text = m.group(kind)
        col = m.end() - len(text) + 1
        if kind == "NAME":
            append(_new(Token, ("KW" if text in KEYWORDS else "NAME", text, lineno, col)))
        elif kind in _PLAIN:
            append(_new(Token, (kind, text, lineno, col)))
        elif kind == "STRING":
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE_RE.sub(lambda e: _ESCAPES[e.group(1)], body)
            append(_new(Token, ("STRING", body, lineno, col)))
        elif kind == "COMMENT":
            break
        elif kind == "BADSTR":
            return _string_issue(line, col - 1, lineno)
        else:
            return LexIssue(lineno, col, f"unexpected character {text!r}")
    return None


def _string_issue(line: str, i: int, lineno: int) -> LexIssue:
    """The issue for a string opened at ``i`` that does not close cleanly."""
    quote = line[i]
    j = i + 1
    while j < len(line) and line[j] != quote:
        if line[j] == "\\":
            if j + 1 >= len(line) or line[j + 1] not in _ESCAPES:
                return LexIssue(lineno, j + 1, "bad escape sequence")
            j += 1
        j += 1
    return LexIssue(lineno, i + 1, "unterminated string literal")
