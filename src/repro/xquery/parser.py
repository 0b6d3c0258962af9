"""Recursive-descent parser for the XQuery subset.

The supported grammar covers the language the paper exercises: the query
prolog (``declare option`` — including the four standoff options of §2 —
``declare namespace``, ``declare variable``, ``declare function``,
``declare module``), FLWOR with multiple for/let clauses and positional
variables, quantified and conditional expressions, the full operator
hierarchy, path expressions with all twelve standard axes plus the four
StandOff axes, predicates, and direct element constructors with embedded
``{...}`` expressions.

Unsupported XQuery features raise
:class:`~repro.errors.XQuerySyntaxError` (or
:class:`~repro.errors.UnsupportedFeatureError` when recognised but out of
subset) — never silently mis-parse.  So does a query nested deeper than
:data:`MAX_NESTING`, rather than a bare ``RecursionError``.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import UnsupportedFeatureError, XQuerySyntaxError
from repro.xquery import ast
from repro.xquery.lexer import Lexer, Token

_COMPARISON_OPS = {
    "=", "!=", "<", "<=", ">", ">=",            # general
    "eq", "ne", "lt", "le", "gt", "ge",          # value
    "is", "<<", ">>",                            # node
}

_KIND_TESTS = {"node", "text", "comment", "processing-instruction"}

#: Names that cannot start a function call (kind tests + reserved).
_RESERVED_FUNCTION_NAMES = _KIND_TESTS | {
    "if", "typeswitch", "item", "element", "attribute",
    "document-node", "empty-sequence",
}

#: How deep expressions (parenthesized, predicates, function arguments,
#: enclosed ``{…}``, FLWOR/if/quantified operands) and direct element
#: constructors may nest.  One level costs the recursive descent about
#: fifteen Python frames, so this keeps the parse — and the evaluators'
#: recursion over the tree it returns — inside Python's default
#: recursion limit of 1000.
MAX_NESTING = 50


def parse(text: str) -> ast.Module:
    """Parse a complete query (prolog + body) into a Module."""
    return _Parser(text).parse_module()


def parse_expr(text: str) -> ast.Expr:
    """Parse a standalone expression (no prolog)."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr


class _Parser:
    def __init__(self, text: str):
        self.lexer = Lexer(text)
        self.depth = 0

    @contextmanager
    def _nested(self, pos: int):
        """One level of nesting, refused past :data:`MAX_NESTING`."""
        if self.depth == MAX_NESTING:
            line, col = self.lexer.line_col(pos)
            raise XQuerySyntaxError(
                f"query nests deeper than {MAX_NESTING} levels", line, col)
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1

    # -- token helpers -----------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        return self.lexer.peek(k)

    def next(self) -> Token:
        return self.lexer.next()

    def accept_symbol(self, *symbols: str) -> Token | None:
        if self.peek().is_symbol(*symbols):
            return self.next()
        return None

    def accept_name(self, *names: str) -> Token | None:
        if self.peek().is_name(*names):
            return self.next()
        return None

    def expect_symbol(self, symbol: str) -> Token:
        token = self.next()
        if not token.is_symbol(symbol):
            raise self.error(f"expected {symbol!r}, found {token.value!r}",
                             token)
        return token

    def expect_name(self, name: str | None = None) -> Token:
        token = self.next()
        if token.type != "name" or (name is not None
                                    and token.value != name):
            what = name or "a name"
            raise self.error(f"expected {what!r}, found {token.value!r}",
                             token)
        return token

    def expect_eof(self) -> None:
        token = self.peek()
        if token.type != "eof":
            raise self.error(f"unexpected trailing {token.value!r}", token)

    def error(self, message: str, token: Token | None = None
              ) -> XQuerySyntaxError:
        pos = token.pos if token is not None else self.lexer.pos
        line, col = self.lexer.line_col(pos)
        return XQuerySyntaxError(message, line, col)

    # -- prolog ------------------------------------------------------------

    def parse_module(self) -> ast.Module:
        prolog = self.parse_prolog()
        body = self.parse_expr()
        self.expect_eof()
        return ast.Module(prolog, body)

    def parse_prolog(self) -> ast.Prolog:
        prolog = ast.Prolog()
        while True:
            token = self.peek()
            if token.is_name("declare"):
                kind = self.peek(1)
                if kind.is_name("option"):
                    self._parse_option_decl(prolog)
                elif kind.is_name("namespace"):
                    self._parse_namespace_decl(prolog)
                elif kind.is_name("function"):
                    self._parse_function_decl(prolog)
                elif kind.is_name("variable"):
                    self._parse_variable_decl(prolog)
                elif kind.is_name("module"):
                    self._parse_module_decl(prolog)
                elif kind.is_name("boundary-space", "default", "base-uri",
                                  "construction", "ordering", "copy-namespaces"):
                    raise UnsupportedFeatureError(
                        f"'declare {kind.value}' is outside the subset")
                else:
                    break
            elif token.is_name("import"):
                raise UnsupportedFeatureError(
                    "module imports are outside the subset")
            else:
                break
            self.accept_symbol(";")      # separator optional (paper style)
        return prolog

    def _parse_option_decl(self, prolog: ast.Prolog) -> None:
        self.expect_name("declare")
        self.expect_name("option")
        name = self.expect_name().value
        value = self.next()
        if value.type != "string":
            raise self.error("option value must be a string literal", value)
        prolog.options[name] = value.value

    def _parse_namespace_decl(self, prolog: ast.Prolog) -> None:
        self.expect_name("declare")
        self.expect_name("namespace")
        prefix = self.expect_name().value
        self.expect_symbol("=")
        uri = self.next()
        if uri.type != "string":
            raise self.error("namespace URI must be a string literal", uri)
        prolog.namespaces[prefix] = uri.value

    def _parse_module_decl(self, prolog: ast.Prolog) -> None:
        # Figure 2 uses the nonstandard 'declare module standoff = "uri"';
        # we accept it as a namespace declaration.
        self.expect_name("declare")
        self.expect_name("module")
        prefix = self.expect_name().value
        self.expect_symbol("=")
        uri = self.next()
        if uri.type != "string":
            raise self.error("module URI must be a string literal", uri)
        prolog.namespaces[prefix] = uri.value

    def _parse_variable_decl(self, prolog: ast.Prolog) -> None:
        start = self.expect_name("declare")
        self.expect_name("variable")
        self.expect_symbol("$")
        name = self.expect_name().value
        if self.accept_name("as"):
            self._parse_sequence_type()
        self.expect_symbol(":=")
        value = self.parse_expr_single()
        prolog.variables.append(
            ast.VariableDecl(name, value, pos=start.pos))

    def _parse_function_decl(self, prolog: ast.Prolog) -> None:
        start = self.expect_name("declare")
        self.expect_name("function")
        name = self.expect_name().value
        self.expect_symbol("(")
        params: list[str] = []
        types: list[str | None] = []
        if not self.peek().is_symbol(")"):
            while True:
                self.expect_symbol("$")
                params.append(self.expect_name().value)
                if self.accept_name("as"):
                    types.append(self._parse_sequence_type())
                else:
                    types.append(None)
                if not self.accept_symbol(","):
                    break
        self.expect_symbol(")")
        return_type = None
        if self.accept_name("as"):
            return_type = self._parse_sequence_type()
        self.expect_symbol("{")
        body = self.parse_expr()
        self.expect_symbol("}")
        prolog.functions.append(ast.FunctionDecl(
            name, params, types, return_type, body, pos=start.pos))

    def _parse_sequence_type(self) -> str:
        """Parse a sequence type loosely; returned as display text only."""
        if self.peek().is_symbol("("):
            raise self.error("expected a type name")
        base = self.expect_name().value
        text = base
        if self.accept_symbol("("):
            depth = 1
            while depth:
                token = self.next()
                if token.type == "eof":
                    raise self.error("unterminated type parentheses", token)
                if token.is_symbol("("):
                    depth += 1
                elif token.is_symbol(")"):
                    depth -= 1
            text += "()"
        token = self.peek()
        if token.is_symbol("*", "+", "?"):
            self.next()
            text += token.value
        return text

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        first = self.parse_expr_single()
        if not self.peek().is_symbol(","):
            return first
        items = [first]
        while self.accept_symbol(","):
            items.append(self.parse_expr_single())
        return ast.Sequence(items, pos=first.pos)

    def parse_expr_single(self) -> ast.Expr:
        # Every recursion of the expression grammar passes through here.
        token = self.peek()
        with self._nested(token.pos):
            if token.is_name("for", "let") and self.peek(1).is_symbol("$"):
                return self._parse_flwor()
            if token.is_name("some", "every") \
                    and self.peek(1).is_symbol("$"):
                return self._parse_quantified()
            if token.is_name("if") and self.peek(1).is_symbol("("):
                return self._parse_if()
            return self._parse_or()

    def _parse_flwor(self) -> ast.FLWOR:
        start = self.peek()
        clauses: list = []
        while True:
            token = self.peek()
            if token.is_name("for") and self.peek(1).is_symbol("$"):
                self.next()
                while True:
                    clauses.append(self._parse_for_binding())
                    if not self.accept_symbol(","):
                        break
            elif token.is_name("let") and self.peek(1).is_symbol("$"):
                self.next()
                while True:
                    clauses.append(self._parse_let_binding())
                    if not self.accept_symbol(","):
                        break
            else:
                break
        if not clauses:
            raise self.error("FLWOR without for/let clause", start)
        where = None
        if self.accept_name("where"):
            where = self.parse_expr_single()
        order_by = []
        if self.peek().is_name("order"):
            self.next()
            self.expect_name("by")
            while True:
                key = self.parse_expr_single()
                descending = False
                if self.accept_name("descending"):
                    descending = True
                else:
                    self.accept_name("ascending")
                order_by.append(ast.OrderSpec(key, descending))
                if not self.accept_symbol(","):
                    break
        if self.accept_name("stable"):
            raise UnsupportedFeatureError("'stable order by' not supported")
        ret = self.expect_name("return")
        return_expr = self.parse_expr_single()
        return ast.FLWOR(clauses, where, order_by, return_expr,
                         pos=start.pos)

    def _parse_for_binding(self) -> ast.ForClause:
        start = self.expect_symbol("$")
        var = self.expect_name().value
        position_var = None
        if self.accept_name("at"):
            self.expect_symbol("$")
            position_var = self.expect_name().value
        if self.accept_name("as"):
            self._parse_sequence_type()
        self.expect_name("in")
        binding = self.parse_expr_single()
        return ast.ForClause(var, binding, position_var, pos=start.pos)

    def _parse_let_binding(self) -> ast.LetClause:
        start = self.expect_symbol("$")
        var = self.expect_name().value
        if self.accept_name("as"):
            self._parse_sequence_type()
        self.expect_symbol(":=")
        value = self.parse_expr_single()
        return ast.LetClause(var, value, pos=start.pos)

    def _parse_quantified(self) -> ast.Quantified:
        token = self.next()
        quantifier = token.value
        self.expect_symbol("$")
        var = self.expect_name().value
        self.expect_name("in")
        binding = self.parse_expr_single()
        self.expect_name("satisfies")
        satisfies = self.parse_expr_single()
        return ast.Quantified(quantifier, var, binding, satisfies,
                              pos=token.pos)

    def _parse_if(self) -> ast.IfExpr:
        token = self.expect_name("if")
        self.expect_symbol("(")
        condition = self.parse_expr()
        self.expect_symbol(")")
        self.expect_name("then")
        then = self.parse_expr_single()
        self.expect_name("else")
        orelse = self.parse_expr_single()
        return ast.IfExpr(condition, then, orelse, pos=token.pos)

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self.peek().is_name("or"):
            token = self.next()
            right = self._parse_and()
            left = ast.BinaryOp("or", left, right, pos=token.pos)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_comparison()
        while self.peek().is_name("and"):
            token = self.next()
            right = self._parse_comparison()
            left = ast.BinaryOp("and", left, right, pos=token.pos)
        return left

    def _parse_comparison(self) -> ast.Expr:
        left = self._parse_range()
        token = self.peek()
        op = None
        if token.type == "symbol" and token.value in _COMPARISON_OPS:
            op = token.value
        elif token.type == "name" and token.value in _COMPARISON_OPS:
            # value comparisons are keywords; only treat as operator when
            # something follows that can start an operand
            op = token.value
        if op is None:
            return left
        self.next()
        right = self._parse_range()
        return ast.BinaryOp(op, left, right, pos=token.pos)

    def _parse_range(self) -> ast.Expr:
        left = self._parse_additive()
        if self.peek().is_name("to"):
            token = self.next()
            right = self._parse_additive()
            return ast.RangeExpr(left, right, pos=token.pos)
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while self.peek().is_symbol("+", "-"):
            token = self.next()
            right = self._parse_multiplicative()
            left = ast.BinaryOp(token.value, left, right, pos=token.pos)
        return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_union()
        while (self.peek().is_symbol("*")
               or self.peek().is_name("div", "idiv", "mod")):
            token = self.next()
            right = self._parse_union()
            left = ast.BinaryOp(token.value, left, right, pos=token.pos)
        return left

    def _parse_union(self) -> ast.Expr:
        left = self._parse_intersect()
        while self.peek().is_symbol("|") or self.peek().is_name("union"):
            token = self.next()
            right = self._parse_intersect()
            left = ast.BinaryOp("union", left, right, pos=token.pos)
        return left

    def _parse_intersect(self) -> ast.Expr:
        left = self._parse_unary()
        while self.peek().is_name("intersect", "except"):
            token = self.next()
            right = self._parse_unary()
            left = ast.BinaryOp(token.value, left, right, pos=token.pos)
        return left

    def _parse_unary(self) -> ast.Expr:
        if self.peek().is_symbol("-", "+"):
            token = self.next()
            with self._nested(token.pos):
                operand = self._parse_unary()
            return ast.UnaryOp(token.value, operand, pos=token.pos)
        return self._parse_path()

    # -- paths ------------------------------------------------------------

    def _parse_path(self) -> ast.Expr:
        token = self.peek()
        if token.is_symbol("/"):
            self.next()
            nxt = self.peek()
            if self._starts_step(nxt):
                steps = self._parse_relative_steps()
            else:
                steps = []
            return ast.PathExpr(steps, absolute=True, pos=token.pos)
        if token.is_symbol("//"):
            self.next()
            dos = ast.AxisStep("descendant-or-self",
                               ast.NodeTest("node"), pos=token.pos)
            steps = [dos, *self._parse_relative_steps(after_slash=True)]
            return ast.PathExpr(steps, absolute=True, pos=token.pos)
        steps = self._parse_relative_steps()
        if len(steps) == 1:
            step = steps[0]
            if isinstance(step, ast.FilterExpr) and not step.predicates:
                return step.base
            return step       # single AxisStep / FilterExpr evaluates alone
        return ast.PathExpr(steps, absolute=False, pos=token.pos)

    def _parse_relative_steps(self, after_slash: bool = False) -> list:
        steps = [self._parse_step(after_slash=after_slash)]
        while True:
            if self.accept_symbol("//"):
                steps.append(ast.AxisStep("descendant-or-self",
                                          ast.NodeTest("node")))
                steps.append(self._parse_step(after_slash=True))
            elif self.accept_symbol("/"):
                steps.append(self._parse_step(after_slash=True))
            else:
                return steps

    def _starts_step(self, token: Token) -> bool:
        if token.type in ("name", "string", "integer", "decimal", "double"):
            return True
        return token.is_symbol("$", "@", "(", ".", "..", "*", "<", "-", "+")

    def _parse_step(self, after_slash: bool = False) -> ast.Expr:
        token = self.peek()
        # abbreviated steps
        if token.is_symbol(".."):
            self.next()
            return ast.AxisStep("parent", ast.NodeTest("node"),
                                self._parse_predicates(), pos=token.pos)
        if token.is_symbol("@"):
            self.next()
            test = self._parse_node_test()
            return ast.AxisStep("attribute", test,
                                self._parse_predicates(), pos=token.pos)
        # explicit axis
        if token.type == "name" and self.peek(1).is_symbol("::"):
            axis = token.value
            if axis not in ast.ALL_AXES:
                raise self.error(f"unknown axis {axis!r}", token)
            self.next()
            self.next()
            test = self._parse_node_test()
            return ast.AxisStep(axis, test, self._parse_predicates(),
                                pos=token.pos)
        # name test / kind test as child step
        if token.is_symbol("*"):
            self.next()
            return ast.AxisStep("child", ast.NodeTest("name", "*"),
                                self._parse_predicates(), pos=token.pos)
        if token.type == "name" and not self._is_function_call(token):
            if token.value in ("element", "attribute", "document",
                               "text", "comment") \
                    and self.peek(1).is_symbol("{"):
                raise UnsupportedFeatureError(
                    "computed constructors are outside the subset")
            if token.value in _KIND_TESTS and self.peek(1).is_symbol("("):
                test = self._parse_node_test()
                return ast.AxisStep("child", test,
                                    self._parse_predicates(), pos=token.pos)
            # After a '/', any name is a step ('//div' is legal); at
            # operand start, expression keywords end the operand instead.
            if after_slash or not self._is_expression_keyword():
                self.next()
                test = ast.NodeTest("name", token.value)
                return ast.AxisStep("child", test,
                                    self._parse_predicates(), pos=token.pos)
        # otherwise a primary expression with optional predicates
        base = self._parse_primary()
        predicates = self._parse_predicates()
        return ast.FilterExpr(base, predicates, pos=token.pos)

    def _is_function_call(self, token: Token) -> bool:
        return (self.peek(1).is_symbol("(")
                and token.value not in _RESERVED_FUNCTION_NAMES)

    def _is_expression_keyword(self) -> bool:
        """Names that end an operand (else 'return'/'where' become steps)."""
        token = self.peek()
        return token.is_name(
            "return", "where", "order", "stable", "for", "let", "in",
            "satisfies", "then", "else", "and", "or", "to", "div", "idiv",
            "mod", "union", "intersect", "except", "eq", "ne", "lt", "le",
            "gt", "ge", "is", "at", "ascending", "descending", "by",
        )

    def _parse_node_test(self) -> ast.NodeTest:
        token = self.peek()
        if token.is_symbol("*"):
            self.next()
            return ast.NodeTest("name", "*", pos=token.pos)
        name = self.expect_name().value
        if name in _KIND_TESTS and self.peek().is_symbol("("):
            self.next()
            if name == "processing-instruction" \
                    and self.peek().type == "string":
                self.next()     # PI target ignored in the subset
            self.expect_symbol(")")
            return ast.NodeTest(name, pos=token.pos)
        return ast.NodeTest("name", name, pos=token.pos)

    def _parse_predicates(self) -> list[ast.Expr]:
        predicates = []
        while self.accept_symbol("["):
            predicates.append(self.parse_expr())
            self.expect_symbol("]")
        return predicates

    # -- primaries -----------------------------------------------------------

    def _parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.type == "string":
            self.next()
            return ast.Literal(token.value, pos=token.pos)
        if token.type == "integer":
            self.next()
            return ast.Literal(int(token.value), pos=token.pos)
        if token.type in ("decimal", "double"):
            self.next()
            return ast.Literal(float(token.value), pos=token.pos)
        if token.is_symbol("$"):
            self.next()
            name = self.expect_name().value
            return ast.VarRef(name, pos=token.pos)
        if token.is_symbol("("):
            self.next()
            if self.accept_symbol(")"):
                return ast.EmptySequence(pos=token.pos)
            expr = self.parse_expr()
            self.expect_symbol(")")
            return expr
        if token.is_symbol("."):
            self.next()
            return ast.ContextItem(pos=token.pos)
        if token.is_symbol("<"):
            return self._parse_direct_constructor()
        if token.type == "name":
            if token.value in ("element", "attribute", "document",
                               "text") and self.peek(1).is_symbol("{"):
                raise UnsupportedFeatureError(
                    "computed constructors are outside the subset")
            if self._is_function_call(token):
                return self._parse_function_call()
        raise self.error(f"unexpected token {token.value!r}", token)

    def _parse_function_call(self) -> ast.FunctionCall:
        token = self.expect_name()
        self.expect_symbol("(")
        args: list[ast.Expr] = []
        if not self.peek().is_symbol(")"):
            while True:
                args.append(self.parse_expr_single())
                if not self.accept_symbol(","):
                    break
        self.expect_symbol(")")
        return ast.FunctionCall(token.value, args, pos=token.pos)

    # -- direct constructors ---------------------------------------------------
    #
    # Direct element constructors switch the scanner to raw mode: XML
    # syntax with embedded {expr} enclosures.

    def _parse_direct_constructor(self) -> ast.ElementConstructor:
        pos = self.lexer.sync_pos()
        text = self.lexer.text
        if not text.startswith("<", pos):
            raise self.error("expected '<'")
        ctor, end = self._parse_ctor_element(text, pos)
        self.lexer.seek(end)
        return ctor

    def _raw_error(self, message: str, pos: int) -> XQuerySyntaxError:
        line, col = self.lexer.line_col(pos)
        return XQuerySyntaxError(message, line, col)

    def _parse_ctor_element(self, text: str, pos: int
                            ) -> tuple[ast.ElementConstructor, int]:
        with self._nested(pos):
            return self._parse_ctor_element_at(text, pos)

    def _parse_ctor_element_at(self, text: str, pos: int
                               ) -> tuple[ast.ElementConstructor, int]:
        assert text[pos] == "<"
        i = pos + 1
        i, name = self._read_ctor_name(text, i)
        attributes: list[ast.AttributeConstructor] = []
        while True:
            i = self._skip_raw_ws(text, i)
            if i >= len(text):
                raise self._raw_error("unterminated start tag", pos)
            if text.startswith("/>", i):
                return ast.ElementConstructor(name, attributes, [],
                                              pos=pos), i + 2
            if text[i] == ">":
                i += 1
                break
            i, attr = self._parse_ctor_attribute(text, i)
            attributes.append(attr)
        content, i = self._parse_ctor_content(text, i, name)
        return ast.ElementConstructor(name, attributes, content,
                                      pos=pos), i

    def _read_ctor_name(self, text: str, i: int) -> tuple[int, str]:
        start = i
        while i < len(text) and (text[i].isalnum() or text[i] in "_-.:"):
            i += 1
        name = text[start:i]
        if not name:
            raise self._raw_error("expected a name in constructor", start)
        return i, name

    def _skip_raw_ws(self, text: str, i: int) -> int:
        while i < len(text) and text[i] in " \t\r\n":
            i += 1
        return i

    def _parse_ctor_attribute(self, text: str, i: int
                              ) -> tuple[int, ast.AttributeConstructor]:
        start = i
        i, name = self._read_ctor_name(text, i)
        i = self._skip_raw_ws(text, i)
        if i >= len(text) or text[i] != "=":
            raise self._raw_error(f"expected '=' after attribute {name!r}",
                                  i)
        i = self._skip_raw_ws(text, i + 1)
        if i >= len(text) or text[i] not in "\"'":
            raise self._raw_error("attribute value must be quoted", i)
        quote = text[i]
        i += 1
        parts: list = []
        buf: list[str] = []
        while True:
            if i >= len(text):
                raise self._raw_error("unterminated attribute value", start)
            ch = text[i]
            if ch == quote:
                if text.startswith(quote * 2, i):
                    buf.append(quote)
                    i += 2
                    continue
                i += 1
                break
            if ch == "{":
                if text.startswith("{{", i):
                    buf.append("{")
                    i += 2
                    continue
                if buf:
                    parts.append("".join(buf))
                    buf = []
                expr, i = self._parse_enclosed(text, i)
                parts.append(expr)
                continue
            if ch == "}":
                if text.startswith("}}", i):
                    buf.append("}")
                    i += 2
                    continue
                raise self._raw_error("'}' must be doubled in constructor",
                                      i)
            buf.append(ch)
            i += 1
        if buf:
            parts.append("".join(buf))
        return i, ast.AttributeConstructor(name, parts, pos=start)

    def _parse_ctor_content(self, text: str, i: int, name: str
                            ) -> tuple[list, int]:
        content: list = []
        buf: list[str] = []

        def flush():
            if buf:
                content.append("".join(buf))
                buf.clear()

        while True:
            if i >= len(text):
                raise self._raw_error(f"unterminated <{name}> constructor",
                                      i)
            ch = text[i]
            if ch == "<":
                if text.startswith("</", i):
                    flush()
                    i += 2
                    i, close = self._read_ctor_name(text, i)
                    i = self._skip_raw_ws(text, i)
                    if i >= len(text) or text[i] != ">":
                        raise self._raw_error("malformed closing tag", i)
                    if close != name:
                        raise self._raw_error(
                            f"mismatched </{close}>; expected </{name}>", i)
                    return content, i + 1
                if text.startswith("<!--", i):
                    end = text.find("-->", i)
                    if end == -1:
                        raise self._raw_error("unterminated comment", i)
                    i = end + 3
                    continue
                flush()
                child, i = self._parse_ctor_element(text, i)
                content.append(child)
                continue
            if ch == "{":
                if text.startswith("{{", i):
                    buf.append("{")
                    i += 2
                    continue
                flush()
                expr, i = self._parse_enclosed(text, i)
                content.append(expr)
                continue
            if ch == "}":
                if text.startswith("}}", i):
                    buf.append("}")
                    i += 2
                    continue
                raise self._raw_error("'}' must be doubled in constructor",
                                      i)
            buf.append(ch)
            i += 1

    def _parse_enclosed(self, text: str, i: int) -> tuple[ast.Expr, int]:
        """Parse an embedded ``{ Expr }``; returns (expr, pos after '}')."""
        assert text[i] == "{"
        self.lexer.seek(i + 1)
        expr = self.parse_expr()
        end = self.lexer.sync_pos()
        end = self._skip_raw_ws(text, end)
        if end >= len(text) or text[end] != "}":
            raise self._raw_error("expected '}' closing enclosed "
                                  "expression", end)
        return expr, end + 1
