"""Parser tests: grammar coverage and error behaviour."""

import pytest

from repro.errors import UnsupportedFeatureError, XQuerySyntaxError
from repro.xquery import Database, parse, parse_expr
from repro.xquery import ast
from repro.xquery.parser import MAX_NESTING


class TestLiteralsAndOperators:
    def test_integer(self):
        expr = parse_expr("42")
        assert isinstance(expr, ast.Literal)
        assert expr.value == 42

    def test_decimal_and_double(self):
        assert parse_expr("3.25").value == 3.25
        assert parse_expr("1e3").value == 1000.0
        assert parse_expr("2.5E-1").value == 0.25

    def test_string_quotes(self):
        assert parse_expr('"hello"').value == "hello"
        assert parse_expr("'world'").value == "world"
        assert parse_expr('"say ""hi"""').value == 'say "hi"'
        assert parse_expr('"a &amp; b"').value == "a & b"

    def test_arithmetic_precedence(self):
        expr = parse_expr("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_comparison_precedence(self):
        expr = parse_expr("1 + 1 = 2")
        assert expr.op == "="

    def test_and_or_precedence(self):
        expr = parse_expr("1 = 1 or 2 = 2 and 3 = 3")
        assert expr.op == "or"
        assert expr.right.op == "and"

    def test_value_comparisons(self):
        for op in ("eq", "ne", "lt", "le", "gt", "ge"):
            assert parse_expr(f"1 {op} 2").op == op

    def test_range(self):
        expr = parse_expr("1 to 5")
        assert isinstance(expr, ast.RangeExpr)

    def test_unary_minus(self):
        expr = parse_expr("-5")
        assert isinstance(expr, ast.UnaryOp)

    def test_sequence_comma(self):
        expr = parse_expr("(1, 2, 3)")
        assert isinstance(expr, ast.Sequence)
        assert len(expr.items) == 3

    def test_empty_sequence(self):
        assert isinstance(parse_expr("()"), ast.EmptySequence)

    def test_hyphenated_name_is_one_token(self):
        # XQuery: 'a-b' is a single name; subtraction needs spaces.
        expr = parse_expr("a-b")
        assert isinstance(expr, ast.AxisStep)
        assert expr.test.name == "a-b"
        sub = parse_expr("$a - $b")
        assert sub.op == "-"

    def test_comments_skipped(self):
        expr = parse_expr("1 (: a (: nested :) comment :) + 2")
        assert expr.op == "+"


class TestPaths:
    def test_descendant_shorthand(self):
        expr = parse_expr("//music")
        assert isinstance(expr, ast.PathExpr)
        assert expr.absolute
        assert expr.steps[0].axis == "descendant-or-self"
        assert expr.steps[1].test.name == "music"

    def test_explicit_axes(self):
        for axis in sorted(ast.STANDARD_AXES):
            expr = parse_expr(f"{axis}::x")
            assert expr.axis == axis

    def test_standoff_axes(self):
        for axis in sorted(ast.STANDOFF_AXES):
            expr = parse_expr(f"//a/{axis}::b")
            assert expr.steps[-1].axis == axis
            assert expr.steps[-1].is_standoff

    def test_unknown_axis_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_expr("sideways::x")

    def test_attribute_shorthand(self):
        expr = parse_expr("@id")
        assert expr.axis == "attribute"
        assert expr.test.name == "id"

    def test_wildcard(self):
        expr = parse_expr("//*")
        assert expr.steps[-1].test.name == "*"

    def test_kind_tests(self):
        expr = parse_expr("a/text()")
        assert expr.steps[-1].test.kind == "text"
        expr = parse_expr("a/node()")
        assert expr.steps[-1].test.kind == "node"

    def test_parent_shorthand(self):
        expr = parse_expr("a/..")
        assert expr.steps[-1].axis == "parent"

    def test_predicates(self):
        expr = parse_expr('person[@id="person0"][2]')
        assert len(expr.predicates) == 2

    def test_keyword_named_element_after_slash(self):
        # 'div' is an operator keyword but a legal step name after '/'
        expr = parse_expr("//div/span")
        assert expr.steps[1].test.name == "div"

    def test_function_call_in_path(self):
        expr = parse_expr('doc("x.xml")//a')
        assert isinstance(expr.steps[0], ast.FilterExpr)
        assert expr.steps[0].base.name == "doc"

    def test_path_after_predicate_filter(self):
        expr = parse_expr("$x[1]/b")
        assert isinstance(expr.steps[0], ast.FilterExpr)
        assert expr.steps[0].predicates


class TestFLWOR:
    def test_simple_for(self):
        expr = parse_expr("for $x in (1,2) return $x")
        assert isinstance(expr, ast.FLWOR)
        assert expr.clauses[0].var == "x"

    def test_multiple_bindings_one_for(self):
        expr = parse_expr("for $x in (1), $y in (2) return ($x,$y)")
        assert len(expr.clauses) == 2

    def test_let_where_order(self):
        expr = parse_expr(
            "for $x in (1,2) let $y := $x where $y > 1 "
            "order by $y descending return $y")
        assert isinstance(expr.clauses[1], ast.LetClause)
        assert expr.where is not None
        assert expr.order_by[0].descending

    def test_positional_variable(self):
        expr = parse_expr("for $x at $i in (5,6) return $i")
        assert expr.clauses[0].position_var == "i"

    def test_nested_flwor(self):
        expr = parse_expr(
            "for $x in (1,2) return for $y in (3,4) return $x * $y")
        assert isinstance(expr.return_expr, ast.FLWOR)

    def test_quantified(self):
        expr = parse_expr("some $x in (1,2) satisfies $x = 2")
        assert isinstance(expr, ast.Quantified)
        assert expr.quantifier == "some"

    def test_if_then_else(self):
        expr = parse_expr("if (1 = 1) then 'a' else 'b'")
        assert isinstance(expr, ast.IfExpr)


class TestProlog:
    def test_declare_option(self):
        module = parse(
            'declare option standoff-start "s";\n'
            'declare option standoff-end "e";\n'
            "1")
        assert module.prolog.options == {"standoff-start": "s",
                                         "standoff-end": "e"}

    def test_option_without_semicolon_paper_style(self):
        module = parse(
            'declare option standoff-type "xs:integer"\n'
            'declare option standoff-start "b"\n'
            "2")
        assert module.prolog.options["standoff-start"] == "b"

    def test_declare_namespace_and_module(self):
        module = parse(
            'declare namespace x = "http://example.org";\n'
            'declare module standoff = "http://w3c.org/tr/standoff/"\n'
            "3")
        assert module.prolog.namespaces["x"] == "http://example.org"
        assert "standoff" in module.prolog.namespaces

    def test_declare_variable(self):
        module = parse("declare variable $n := 41; $n + 1")
        assert module.prolog.variables[0].name == "n"

    def test_declare_function_figure2(self):
        """The Figure 2 UDF declaration parses."""
        module = parse("""
            declare module standoff = "http://w3c.org/tr/standoff/"
            declare function select-narrow-udf($input as xs:anyNode*)
              as xs:anyNode*
            {
              (for $q in $input
               for $p in root($q)//*
               where $p/@start >= $q/@start
                 and $p/@end <= $q/@end
               return $p)/.
            }
            1
        """)
        decl = module.prolog.functions[0]
        assert decl.name == "select-narrow-udf"
        assert decl.params == ["input"]

    def test_unsupported_declare(self):
        with pytest.raises(UnsupportedFeatureError):
            parse('declare boundary-space preserve; 1')


class TestConstructors:
    def test_empty_element(self):
        expr = parse_expr("<a/>")
        assert isinstance(expr, ast.ElementConstructor)
        assert expr.name == "a"

    def test_attributes_with_expr(self):
        expr = parse_expr('<a x="1" y="{1+1}z"/>')
        assert expr.attributes[0].parts == ["1"]
        y_parts = expr.attributes[1].parts
        assert isinstance(y_parts[0], ast.BinaryOp)
        assert y_parts[1] == "z"

    def test_nested_content(self):
        expr = parse_expr("<a>text<b/>{$x}</a>")
        kinds = [type(p).__name__ if not isinstance(p, str) else "str"
                 for p in expr.content]
        assert kinds == ["str", "ElementConstructor", "VarRef"]

    def test_figure5_query_parses(self):
        """The paper's StandOff XMark Query 2 (Figure 5)."""
        expr = parse_expr("""
            for $b in doc("xmark110MB.xml")
                //site/select-narrow::open_auctions
                /select-narrow::open_auction
            return <increase> {
                $b/select-narrow::bidder[1]/select-narrow::increase
            } </increase>
        """)
        assert isinstance(expr, ast.FLWOR)
        ctor = expr.return_expr
        assert isinstance(ctor, ast.ElementConstructor)
        inner = [p for p in ctor.content if isinstance(p, ast.PathExpr)]
        assert inner[0].steps[-1].axis == "select-narrow"

    def test_brace_escapes(self):
        expr = parse_expr("<a>{{literal}}</a>")
        assert expr.content == ["{literal}"]

    def test_mismatched_close_rejected(self):
        with pytest.raises(XQuerySyntaxError):
            parse_expr("<a></b>")

    def test_computed_constructor_unsupported(self):
        with pytest.raises(UnsupportedFeatureError):
            parse_expr('element {"x"} {1}')


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "for $x in", "1 +", "((1)", "let $x 1", "<a>",
        "$", "for x in (1) return x", 'declare option x 1; 2',
    ])
    def test_syntax_errors(self, bad):
        with pytest.raises(XQuerySyntaxError):
            parse(bad)

    def test_error_has_position(self):
        with pytest.raises(XQuerySyntaxError) as info:
            parse_expr("1 +\n+")
        assert info.value.line >= 1

    def test_trailing_garbage(self):
        with pytest.raises(XQuerySyntaxError):
            parse_expr("1 2 3")


#: Queries nesting exactly *depth* levels (the query itself is level 1).
NESTED = {
    "parentheses": lambda depth: "(" * (depth - 1) + "1" + ")" * (depth - 1),
    "predicates": lambda depth: 'doc("n.xml")/a' + "[a" * (depth - 1)
                                + "]" * (depth - 1),
    "constructors": lambda depth: "<a>" * (depth - 1) + "x"
                                  + "</a>" * (depth - 1),
}


class TestNesting:
    """Past :data:`MAX_NESTING` a query is a syntax error — not a bare
    ``RecursionError`` from the recursive descent or the evaluators."""

    @pytest.fixture(scope="class")
    def db(self):
        database = Database()
        database.add_document("n.xml", "<a><a><a/></a></a>")
        return database

    @pytest.mark.parametrize("shape", NESTED)
    def test_at_the_limit(self, db, shape):
        query = NESTED[shape](MAX_NESTING)
        want = db.query(query, strategy="basic").serialize()
        for strategy in ("ll", "udf"):
            assert db.query(query, strategy=strategy).serialize() == want
        assert db.explain(query)
        if shape == "constructors":
            assert want == query

    @pytest.mark.parametrize("shape", NESTED)
    def test_past_the_limit(self, db, shape):
        for depth in (MAX_NESTING + 1, 300):
            with pytest.raises(XQuerySyntaxError) as info:
                db.query(NESTED[shape](depth))
            assert info.value.code == "err:XPST0003"
            assert f"deeper than {MAX_NESTING}" in str(info.value)

    def test_unary_signs_count_as_levels(self):
        assert isinstance(parse_expr("-" * (MAX_NESTING - 1) + "1"),
                          ast.UnaryOp)
        with pytest.raises(XQuerySyntaxError):
            parse_expr("-" * MAX_NESTING + "1")
