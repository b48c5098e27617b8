import pytest
from hypothesis import given, strategies as st

from hats import dsl
from hats.dsl import (
    CliqueLit,
    ConeExpr,
    ElaborationError,
    LowerExpr,
    NamedGame,
    ParseError,
    ProductExpr,
    WindmillLit,
    elaborate,
    format_expr,
    parse,
)


class TestParse:
    def test_clique_literal(self):
        expr = parse("clique[2, 3, 6]")
        assert expr == CliqueLit((2, 3, 6))

    def test_empty_clique_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("clique[]")
        assert err.value.line == 1 and err.value.col == 8

    def test_product(self):
        expr = parse("product(clique[2,6]@v0, clique[2,6]@v0)")
        assert expr == ProductExpr(CliqueLit((2, 6)), "v0", CliqueLit((2, 6)), "v0")

    def test_cone(self):
        expr = parse("cone(clique[2,2]; clique[2,3,6]@v0/v1, clique[2,3,6]@v0/v1)")
        assert expr == ConeExpr(
            CliqueLit((2, 2)),
            ((CliqueLit((2, 3, 6)), "v0", "v1"), (CliqueLit((2, 3, 6)), "v0", "v1")),
        )

    def test_named_games(self):
        for name in ("k5minus", "game26666", "trefoil", "planar14"):
            assert parse(name) == NamedGame(name)

    def test_windmill(self):
        assert parse("windmill( 3 , 2 )") == WindmillLit(3, 2)

    def test_lower_with_quoted_name(self):
        expr = parse('lower(trefoil; "O"=6, O=7)')
        assert expr == LowerExpr(NamedGame("trefoil"), (("O", 6), ("O", 7)))

    def test_whitespace_insensitive(self):
        a = parse("product(clique[2,2]@v0,clique[2,2]@v1)")
        b = parse("product (\n  clique [ 2 , 2 ] @ v0 ,\n  clique[2,2] @ v1\n)")
        assert a == b

    def test_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse("product(clique[2,2]@v0 clique[2,2]@v0)")
        assert err.value.line == 1
        assert "expected" in str(err.value)

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("trefoil trefoil")

    def test_unknown_head(self):
        with pytest.raises(ParseError, match="expression"):
            parse("pentagon[2]")

    @pytest.mark.parametrize("wrap", [
        lambda e: f"product({e}@v0, clique[2,2]@v0)",
        lambda e: f"product(clique[2,2]@v0, {e}@v0)",
        lambda e: f"cone({e}; clique[2,2]@v0/v1)",
        lambda e: f"cone(clique[1]; {e}@v0/v1)",
        lambda e: f"lower({e}; v0=2)",
    ])
    def test_nesting_bound(self, wrap):
        expr = "clique[2,2]"
        for _ in range(dsl.MAX_NESTING):
            expr = wrap(expr)
        parse(expr)
        deeper = wrap(expr)
        with pytest.raises(ParseError, match="nested deeper") as err:
            parse(deeper)
        # Reported at the first head inside MAX_NESTING + 1 others.
        assert deeper[err.value.col - 1:].startswith("clique[")
        assert deeper[:err.value.col - 1].count("(") == dsl.MAX_NESTING + 1


class TestPrinter:
    CASES = [
        "clique[2, 3, 6]",
        "k5minus",
        "windmill(3, 2)",
        "product(clique[2, 2]@v0, clique[2, 2]@v1)",
        "cone(clique[2, 2]; clique[2, 3, 6]@v0/v1, clique[2, 3, 6]@v0/v1)",
        "lower(trefoil; O=6)",
        'product(trefoil@O, game26666@"0/v1")',
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_round_trip(self, text):
        expr = parse(text)
        assert parse(format_expr(expr)) == expr

    def test_quoting_only_when_needed(self):
        expr = parse('lower(trefoil; "O"=6)')
        assert format_expr(expr) == "lower(trefoil; O=6)"


@st.composite
def expr_trees(draw, depth=0):
    options = ["clique", "named", "windmill"]
    if depth < 2:
        options += ["product", "lower"]
    kind = draw(st.sampled_from(options))
    if kind == "clique":
        hats = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
        return CliqueLit(tuple(hats))
    if kind == "named":
        return NamedGame(draw(st.sampled_from(dsl.NAMED)))
    if kind == "windmill":
        return WindmillLit(draw(st.integers(2, 5)), draw(st.integers(1, 4)))
    name = draw(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True))
    exotic = draw(st.sampled_from(["L/v1", "0/v2", name]))
    if kind == "product":
        return ProductExpr(
            draw(expr_trees(depth=depth + 1)), exotic,
            draw(expr_trees(depth=depth + 1)), name,
        )
    return LowerExpr(draw(expr_trees(depth=depth + 1)), ((exotic, draw(st.integers(1, 9))),))


class TestRoundTripProperty:
    @given(expr_trees())
    def test_parse_inverts_print(self, expr):
        assert parse(format_expr(expr)) == expr


class TestElaborate:
    def test_k5minus(self):
        composed = elaborate(parse("k5minus"))
        assert composed.game.hat_tuple == (2, 3, 14, 14, 14)
        assert composed.is_winning

    def test_windmill(self):
        composed = elaborate(parse("windmill(3,2)"))
        assert len(composed.game.graph.vertices) == 5
        assert set(composed.game.hat_tuple) == {4}

    def test_cone_builds_26666(self):
        composed = elaborate(
            parse("cone(clique[2,2]; clique[2,3,6]@v0/v1, clique[2,3,6]@v0/v1)")
        )
        assert sorted(composed.game.hat_tuple) == [2, 6, 6, 6, 6]
        from hats.constructors import game_26666

        assert composed.game == game_26666().game

    def test_lower_trefoil(self):
        composed = elaborate(parse("lower(trefoil; O=6)"))
        assert set(composed.game.hat_tuple) == {6}

    def test_deterministic_serialization(self):
        from hats.core import dump_game

        text = "product(game26666@O, game26666@O)"
        a = elaborate(parse(text))
        b = elaborate(parse(text))
        assert dump_game(a.game, a.rotation) == dump_game(b.game, b.rotation)

    def test_unknown_vertex_carries_span(self):
        with pytest.raises(ElaborationError) as err:
            elaborate(parse("product(clique[2,2]@nope, clique[2,2]@v0)"))
        assert err.value.line == 1

    def test_losing_product_refused_with_span(self):
        with pytest.raises(ElaborationError, match="winning factors"):
            elaborate(parse("product(clique[2,6]@v0, clique[2,6]@v0)"))

    def test_lower_above_current_rejected(self):
        with pytest.raises(ElaborationError):
            elaborate(parse("lower(trefoil; O=9)"))
