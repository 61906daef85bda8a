"""Text syntax for the CLI: Lie/tensor expressions, group words and bracket
shapes.

Grammar for algebra expressions (column numbers in errors are 1-based):

    expr   := ['-'] term (('+' | '-') term)*
    term   := [int '*'] dotted
    dotted := factor ('.' factor)*
    factor := 'x' int | '[' expr ',' expr ']'

Group words are space-separated generators with optional integer exponents,
as in ``x1 x2^-1 x1``.  A bracket shape is nested square brackets with
empty leaves, as in ``[[,],]``; the empty string is the single leaf.
"""

import re

from .errors import (DimensionMismatch, IndexOutOfRange, InvalidArgument,
                     ParseError, ResourceGuardExceeded)
from .freegroup import reduce_word
from .freelie import LEAF, decompose
from .words import TensorElement, format_terms, read_int, tensor_product

_TOKEN = re.compile(r"x\d+|\d+|\[|\]|[+\-*.,]")
PARSE_DEPTH_GUARD = 200  # deepest nesting read; 238 overflows the stack under pytest
# term pairs in one product of eval_tensor; decompose's cost grows faster than
# the expansion: on a 2-CPU Xeon host under Python 3.11, a bracket chain
# cycling over 8 letters normalizes in 1.5 s at 512 pairs, one over 5 letters
# takes 9 s at 1 015 pairs
EXPANSION_PAIR_GUARD = 512


def _check_depth(depth, column):
    if depth > PARSE_DEPTH_GUARD:
        raise ResourceGuardExceeded(
            f"brackets nested {depth} deep at column {column}, above {PARSE_DEPTH_GUARD}")


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        if self.pos >= len(self.text):
            return None, len(self.text) + 1
        m = _TOKEN.match(self.text, self.pos)
        if m is None:
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos + 1)
        return m.group(0), self.pos + 1

    def next(self):
        tok, col = self.peek()
        if tok is not None:
            self.pos += len(tok)
        return tok, col

    def expect(self, symbol):
        tok, col = self.next()
        if tok != symbol:
            raise ParseError(f"expected {symbol!r}, found {tok!r}" if tok is not None
                             else f"expected {symbol!r}, found end of input", col)


# AST nodes: ("gen", i) ("bracket", a, b) ("tensor", [..]) ("scale", k, e)
# ("sum", [(sign, e), ...])

def parse_expression(text):
    toks = _Tokens(text)
    ast = _parse_sum(toks)
    tok, col = toks.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", col)
    return ast


def _parse_sum(toks):
    terms = []
    sign = 1
    tok, _ = toks.peek()
    if tok == "-":
        toks.next()
        sign = -1
    terms.append((sign, _parse_term(toks)))
    while True:
        tok, _ = toks.peek()
        if tok not in ("+", "-"):
            break
        toks.next()
        terms.append((1 if tok == "+" else -1, _parse_term(toks)))
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    return ("sum", terms)


def _parse_term(toks):
    tok, col = toks.peek()
    if tok is not None and tok.isdigit():
        toks.next()
        toks.expect("*")
        return ("scale", read_int(tok, "scale", col), _parse_dotted(toks))
    return _parse_dotted(toks)


def _parse_dotted(toks):
    factors = [_parse_factor(toks)]
    while True:
        tok, _ = toks.peek()
        if tok != ".":
            break
        toks.next()
        factors.append(_parse_factor(toks))
    if len(factors) == 1:
        return factors[0]
    return ("tensor", factors)


def _parse_factor(toks):
    tok, col = toks.next()
    if tok is None:
        raise ParseError("expected a generator or '['", col)
    if tok.startswith("x"):
        index = read_int(tok[1:], "generator index", col)
        if index < 1:
            raise ParseError(f"generator index must be >= 1, got {index}", col)
        return ("gen", index)
    if tok == "[":
        toks.depth += 1
        _check_depth(toks.depth, col)
        left = _parse_sum(toks)
        toks.expect(",")
        right = _parse_sum(toks)
        toks.expect("]")
        toks.depth -= 1
        return ("bracket", left, right)
    raise ParseError(f"expected a generator or '[', found {tok!r}", col)


def _nodes(ast):
    """Every node of an expression tree, the root first."""
    yield ast
    kind = ast[0]
    if kind == "bracket":
        yield from _nodes(ast[1])
        yield from _nodes(ast[2])
    elif kind == "tensor":
        for e in ast[1]:
            yield from _nodes(e)
    elif kind == "scale":
        yield from _nodes(ast[2])
    elif kind == "sum":
        for _, e in ast[1]:
            yield from _nodes(e)
    elif kind != "gen":
        raise InvalidArgument(f"unknown node {kind!r}")


def max_generator(ast):
    return max(node[1] for node in _nodes(ast) if node[0] == "gen")


def check_rank(ast, n):
    top = max_generator(ast)
    if top > n:
        raise IndexOutOfRange(f"generator x{top} exceeds the configured rank {n}")


def _product(left, right):
    """tensor_product, refused when it would form more than
    EXPANSION_PAIR_GUARD term pairs."""
    pairs = len(left) * len(right)
    if pairs > EXPANSION_PAIR_GUARD:
        raise ResourceGuardExceeded(
            f"product of {len(left)} and {len(right)} terms forms {pairs} term pairs, "
            f"above {EXPANSION_PAIR_GUARD}")
    return tensor_product(left, right)


def eval_tensor(ast, n):
    """Evaluate to a tensor; brackets are expanded through the embedding."""
    kind = ast[0]
    if kind == "gen":
        return TensorElement.from_word((ast[1],))
    if kind == "bracket":
        left = eval_tensor(ast[1], n)
        right = eval_tensor(ast[2], n)
        return _product(left, right) - tensor_product(right, left)
    if kind == "tensor":
        out = TensorElement.from_word(())
        for e in ast[1]:
            out = _product(out, eval_tensor(e, n))
        return out
    if kind == "scale":
        return eval_tensor(ast[2], n).scale(ast[1])
    if kind == "sum":
        parts = [eval_tensor(e, n).scale(s) for s, e in ast[1]]
        degrees = {p.degree for p in parts}
        if len(degrees) != 1:
            raise DimensionMismatch(f"sum mixes degrees {sorted(degrees)}")
        out = parts[0]
        for p in parts[1:]:
            out = out + p
        return out
    raise InvalidArgument(f"unknown node {kind!r}")


def eval_lie(ast, n):
    """Evaluate to a Lie element; tensor nodes are rejected.

    The embedding into the tensor algebra is an injective Lie morphism, so
    the Lyndon coordinates of the tensor expansion are the element's.
    """
    check_rank(ast, n)
    if any(node[0] == "tensor" for node in _nodes(ast)):
        raise InvalidArgument("'.' products are tensors, not Lie elements")
    return decompose(n, eval_tensor(ast, n))


# ---------------------------------------------------------------------------
# group words and shapes

_GROUP_TOKEN = re.compile(r"x(\d+)(?:\^(-?\d+))?$")
GROUP_WORD_GUARD = 100_000  # longest expanded group word the parser builds


def parse_group_word(text):
    factors = []
    for piece in text.split():
        m = _GROUP_TOKEN.match(piece)
        if m is None:
            raise InvalidArgument(f"bad group-word factor {piece!r}")
        index = read_int(m.group(1), "generator index")
        power = read_int(m.group(2), "exponent") if m.group(2) else 1
        if index < 1:
            raise InvalidArgument(f"generator index must be >= 1, got {index}")
        factors.append((index if power > 0 else -index, abs(power)))
    size = sum(count for _, count in factors)
    if size > GROUP_WORD_GUARD:
        raise ResourceGuardExceeded(
            f"group word expands to {size} letters, above {GROUP_WORD_GUARD}")
    letters = []
    for letter, count in factors:
        letters.extend([letter] * count)
    return reduce_word(letters)


def parse_shape(text):
    text = text.strip()
    pos = 0

    def parse(depth):
        nonlocal pos
        if pos < len(text) and text[pos] == "[":
            _check_depth(depth, pos + 1)
            pos += 1
            left = parse(depth + 1)
            if pos >= len(text) or text[pos] != ",":
                raise ParseError("expected ',' in shape", pos + 1)
            pos += 1
            right = parse(depth + 1)
            if pos >= len(text) or text[pos] != "]":
                raise ParseError("expected ']' in shape", pos + 1)
            pos += 1
            return (left, right)
        return LEAF

    shape = parse(1)
    if pos != len(text):
        raise ParseError(f"trailing input in shape {text!r}", pos + 1)
    return shape


# ---------------------------------------------------------------------------
# formatters

def format_tensor(t):
    return format_terms(t.items(), lambda w: ".".join(f"x{a}" for a in w) if w else "1")
