import json
import random

import pytest

from hats import dsl
from hats.cli import EX_FAIL, EX_OK, EX_UNKNOWN, EX_USAGE, export_dot, main
from hats.core import Game, complete_graph, dump_game, load_game


@pytest.fixture
def expr(tmp_path):
    def write(text, name="game.expr"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_writes_game_document(self, expr, tmp_path, capsys):
        out = tmp_path / "out.json"
        code, _, _ = run(capsys, "build", expr("k5minus"), "--out", str(out))
        assert code == EX_OK
        game, rotation = load_game(out.read_text())
        assert game.hat_tuple == (2, 3, 14, 14, 14)
        assert rotation is not None

    def test_stdout_and_dot(self, expr, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        code, out, _ = run(capsys, "build", expr("clique[2,2]"), "--dot", str(dot))
        assert code == EX_OK
        assert json.loads(out)["vertices"][0] == {"name": "v0", "hatness": 2}
        text = dot.read_text()
        assert '"v0" [label="v0:2"];' in text
        assert '"v0" -- "v1";' in text

    @pytest.mark.parametrize("command", ["build", "info"])
    @pytest.mark.parametrize("text", ["windmill(1000000000, 2)", "windmill(2, 100000)"])
    def test_oversized_windmill_is_unknown(self, expr, capsys, command, text):
        # Refused before anything is built; building either would not end.
        code, out, err = run(capsys, command, expr(text))
        assert code == EX_UNKNOWN
        assert out == ""
        assert err.startswith("error:") and "too large" in err

    def test_dot_escaping_of_composed_names(self):
        from hats.constructors import game_26666

        dot = export_dot(game_26666().game)
        assert '"0/v1" [label="0/v1:6"];' in dot


class TestVerify:
    def test_k5minus_exhaustive(self, expr, capsys):
        code, out, _ = run(capsys, "verify", expr("k5minus"), "--jobs", "1")
        assert code == EX_OK
        doc = json.loads(out)
        assert doc["checked"] == 16464
        assert doc["counterexample"] is None

    def test_losing_expression(self, expr, capsys):
        code, out, _ = run(capsys, "verify", expr("clique[2,3,7]"))
        assert code == EX_FAIL
        assert json.loads(out)["verdict"] == "losing"

    def test_sampled_is_evidence_only(self, expr, capsys):
        code, out, _ = run(
            capsys, "verify", expr("game26666"), "--sample", "500", "--seed", "3"
        )
        assert code == EX_UNKNOWN
        doc = json.loads(out)
        assert doc["mode"] == "sampled"
        assert doc["counterexample"] is None

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_nonpositive_limit_is_usage(self, expr, capsys, limit):
        code, out, err = run(capsys, "verify", expr("clique[2,2]"), "--limit", limit)
        assert code == EX_USAGE
        assert out == ""
        assert "limit must be at least 1" in err

    def test_capacity_exceeded(self, expr, capsys):
        code, _, err = run(
            capsys, "verify", expr("trefoil"), "--limit", "1000"
        )
        assert code == EX_UNKNOWN
        assert "too large" in err

    def test_sampled_clique_modulus_beyond_uint64_is_unknown(self, expr, capsys):
        # lcm 9.84e18 lies between 2**63 and 2**64; wrapping arithmetic once
        # reported a counterexample here although the game is winning.
        code, out, err = run(
            capsys, "verify", expr("clique[32,3,5,7,11,13,17,19,23,29,31,37,41,43,47]"),
            "--sample", "1000", "--jobs", "1",
        )
        assert code == EX_UNKNOWN
        assert out == ""
        assert "too large" in err

    def test_exhaustive_hatness_of_2_64_is_unknown(self, expr, capsys):
        # Its color space of 2**64 decodes; the clique modulus is refused.
        code, out, err = run(capsys, "verify", expr("clique[18446744073709551616, 1]"),
                             "--jobs", "1")
        assert code == EX_UNKNOWN
        assert out == ""
        assert err.startswith("error:") and "too large" in err

    def test_sampled_composite_beyond_2_64_is_unknown(self, expr, capsys):
        # The hub's last product splits its color at 2**64; its batch path
        # would encode guesses past uint64, so it refuses before sampling.
        code, out, err = run(capsys, "verify", expr("windmill(2, 65)"), "--sample", "100")
        assert code == EX_UNKNOWN
        assert out == ""
        assert err.startswith("error:") and "too large" in err

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 128)])
    def test_seed_out_of_range_is_usage(self, expr, capsys, seed):
        code, _, err = run(
            capsys, "verify", expr("clique[2,2]"), "--sample", "10", "--seed", seed
        )
        assert code == EX_USAGE
        assert "seed" in err

    def test_non_integer_jobs_env_is_usage(self, expr, capsys, monkeypatch):
        monkeypatch.setenv("HATS_JOBS", "abc")
        code, _, err = run(capsys, "verify", expr("clique[2,2]"))
        assert code == EX_USAGE
        assert "HATS_JOBS" in err

    # The refusal comes before any worker pool exists; 100000 must never
    # reach one, and the one-block game caps the pool at one thread anyway.
    @pytest.mark.parametrize("jobs", ["0", "-3", "257", "100000"])
    def test_jobs_out_of_range_is_usage(self, expr, capsys, jobs):
        code, out, err = run(capsys, "verify", expr("clique[2,2]"), "--jobs", jobs)
        assert code == EX_USAGE
        assert out == ""
        assert "jobs" in err

    def test_zero_jobs_env_is_usage(self, expr, capsys, monkeypatch):
        monkeypatch.setenv("HATS_JOBS", "0")
        code, _, err = run(capsys, "verify", expr("clique[2,2]"))
        assert code == EX_USAGE
        assert "jobs" in err


class TestSolve:
    def test_losing_edge_game(self, tmp_path, capsys):
        game = Game(complete_graph(("v0", "v1")), {"v0": 2, "v1": 3})
        path = tmp_path / "k2.json"
        path.write_text(dump_game(game))
        code, out, _ = run(capsys, "solve", str(path))
        assert code == EX_FAIL
        assert json.loads(out)["status"] == "losing"

    def test_winning_emits_table(self, tmp_path, capsys):
        game = Game(complete_graph(("v0", "v1")), {"v0": 2, "v1": 2})
        path = tmp_path / "k2.json"
        path.write_text(dump_game(game))
        code, out, _ = run(capsys, "solve", str(path))
        assert code == EX_OK
        doc = json.loads(out)
        assert doc["status"] == "winning"
        assert set(doc["table"]) == {"v0", "v1"}

    def test_budget_unknown(self, tmp_path, capsys):
        from hats.core import Graph

        names = ("axis", "l0", "l1", "l2")
        game = Game(
            Graph(names, [("axis", leaf) for leaf in names[1:]]),
            {v: 3 for v in names},
        )
        path = tmp_path / "star.json"
        path.write_text(dump_game(game))
        code, out, _ = run(capsys, "solve", str(path), "--budget", "2")
        assert code == EX_UNKNOWN
        assert json.loads(out)["status"] == "unknown"

    def test_oversized_game_is_unknown(self, tmp_path, capsys):
        game = Game(complete_graph(("a", "b")), {"a": 70000, "b": 2})
        path = tmp_path / "big.json"
        path.write_text(dump_game(game))
        code, _, err = run(capsys, "solve", str(path), "--budget", "10")
        assert code == EX_UNKNOWN
        assert "too large" in err

    @pytest.mark.parametrize("hats", [[2] * 24, [2 ** 24]], ids=["24 sages", "2^24 hats"])
    def test_too_many_options_is_unknown(self, tmp_path, capsys, hats):
        from hats.core import Graph

        names = tuple(f"v{i}" for i in range(len(hats)))
        path = tmp_path / "edgeless.json"
        path.write_text(dump_game(Game(Graph(names, []), dict(zip(names, hats)))))
        code, out, err = run(capsys, "solve", str(path))
        assert code == EX_UNKNOWN
        assert out == ""
        assert err.startswith("error: ") and err.rstrip().endswith(" options")
        assert "Traceback" not in err

    def test_deep_search_budget_is_unknown(self, tmp_path, capsys):
        names = tuple(f"v{i}" for i in range(7))
        path = tmp_path / "k7.json"
        path.write_text(dump_game(Game(complete_graph(names), {v: 3 for v in names})))
        code, out, _ = run(capsys, "solve", str(path), "--budget", "1000")
        assert code == EX_UNKNOWN
        assert json.loads(out) == {"status": "unknown", "nodes": 1001}


_EDGE = {"vertices": [{"name": "a", "hatness": 2}, {"name": "b", "hatness": 2}],
         "edges": [["a", "b"]]}


@pytest.mark.parametrize("command", ["solve", "embed-check"])
@pytest.mark.parametrize("text", [
    '{"vertices": [',
    json.dumps({**_EDGE, "edges": [["a"]]}),
    json.dumps({**_EDGE, "edges": [["a", "b", "c"]]}),
    json.dumps({**_EDGE, "rotation": [["b"], ["a"]]}),
    json.dumps({**_EDGE, "rotation": {"a": 1, "b": ["a"]}}),
    json.dumps({**_EDGE, "rotation": {"a": [["b"]], "b": ["a"]}}),
    json.dumps({**_EDGE, "vertices": [{"name": "a", "hatness": True},
                                      {"name": "b", "hatness": 2}]}),
    json.dumps({**_EDGE, "edges": ["ab"]}),
    json.dumps({"vertices": [{"name": 1, "hatness": 2}, {"name": "b", "hatness": 2}],
                "edges": []}),
], ids=["json", "short-edge", "long-edge", "rotation-list", "rotation-entry",
        "rotation-name", "bool-hatness", "string-edge", "int-name"])
def test_malformed_game_document_is_usage(tmp_path, capsys, command, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run(capsys, command, str(path))
    assert code == EX_USAGE
    assert "error:" in err


class TestEmbedCheck:
    @pytest.mark.parametrize("doc", [
        {"vertices": [{"name": "a", "hatness": 2}], "edges": [],
         "rotation": {"a": [], "zz": []}},
        {**_EDGE, "rotation": {"a": ["b"], "b": []}},
        {"vertices": [], "edges": [], "rotation": {}},
    ], ids=["lone-vertex-extra-key", "missing-neighbor", "no-vertices"])
    def test_invalid_rotation_is_usage(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "embed-check", str(path))
        assert (code, out) == (EX_USAGE, "")
        assert err.startswith("error:")

    def test_planar_certificate(self, expr, tmp_path, capsys):
        out = tmp_path / "g.json"
        run(capsys, "build", expr("game26666"), "--out", str(out))
        code, text, _ = run(capsys, "embed-check", str(out))
        assert code == EX_OK
        doc = json.loads(text)
        assert doc["planar"] and doc["outerplanar"]
        assert doc["faces"] == 4

    def test_planar14_round_trip(self, expr, tmp_path, capsys):
        out = tmp_path / "p14.json"
        run(capsys, "build", expr("planar14"), "--out", str(out))
        code, text, _ = run(capsys, "embed-check", str(out))
        assert code == EX_OK
        doc = json.loads(text)
        assert doc["planar"] is True
        assert doc["faces"] == 345  # E - V + 2 for 552 edges on 209 vertices

    def test_missing_rotation(self, tmp_path, capsys):
        game = Game(complete_graph(("a", "b")), {"a": 2, "b": 2})
        path = tmp_path / "bare.json"
        path.write_text(dump_game(game))
        code, out, _ = run(capsys, "embed-check", str(path))
        assert code == EX_UNKNOWN
        assert json.loads(out) == {"rotation": False}

    def test_bad_rotation_fails(self, tmp_path, capsys):
        doc = {
            "vertices": [{"name": n, "hatness": 2} for n in "abcde"],
            "edges": [[a, b] for i, a in enumerate("abcde") for b in "abcde"[i + 1:]],
            "rotation": {
                n: [m for m in "abcde" if m != n] for n in "abcde"
            },
        }
        path = tmp_path / "k5.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "embed-check", str(path))
        assert code == EX_FAIL
        assert json.loads(out)["planar"] is False


class TestInfo:
    def test_planar14_summary(self, expr, capsys):
        code, out, _ = run(capsys, "info", expr("planar14"))
        assert code == EX_OK
        doc = json.loads(out)
        assert doc["vertices"] == 209
        assert doc["min_hatness"] == 14
        assert doc["verdict"] == "winning"
        assert "cone" in doc["provenance"]

    def test_exit_tracks_verdict(self, expr, capsys):
        code, _, _ = run(capsys, "info", expr("clique[9,9]"))
        assert code == EX_FAIL

    def test_deep_windmill_provenance(self, expr, capsys):
        # 1,200 nested products: deeper than the recursion limit.
        code, out, _ = run(capsys, "info", expr("windmill(2, 1200)"))
        assert code == EX_OK
        assert json.loads(out)["provenance"].count("clique") == 1200


def lower_nest(depth):
    return "lower(" * depth + "clique[2,2]" + "; v0=2)" * depth


@pytest.mark.parametrize("command", ["info", "verify"])
def test_nesting_at_the_bound(expr, capsys, command):
    code, _, err = run(capsys, command, expr(lower_nest(dsl.MAX_NESTING)))
    assert code == EX_OK, err


@pytest.mark.parametrize("command", ["info", "verify"])
@pytest.mark.parametrize("depth", [dsl.MAX_NESTING + 1, 2000])
def test_nesting_past_the_bound_is_usage(expr, capsys, command, depth):
    code, out, err = run(capsys, command, expr(lower_nest(depth)))
    assert code == EX_USAGE
    assert out == ""
    # The head nested one level too deep, after MAX_NESTING + 1 "lower(".
    col = 6 * (dsl.MAX_NESTING + 1) + 1
    assert err == f"error: 1:{col}: expression nested deeper than {dsl.MAX_NESTING} levels\n"


@pytest.mark.parametrize("command", ["build", "verify", "solve", "embed-check", "info"])
@pytest.mark.parametrize("kind", ["directory", "non-utf8"])
def test_unreadable_input_is_usage(tmp_path, capsys, command, kind):
    path = tmp_path / "input"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, command, str(path))
    assert code == EX_USAGE
    assert out == ""
    assert err.startswith("error:")


def test_glue_name_collision_is_usage(expr, capsys):
    text = 'product(product(clique[2,2]@v0, clique[2,2]@v0)@"R/v1", clique[2,2]@v0)'
    code, out, err = run(capsys, "build", expr(text))
    assert code == EX_USAGE
    assert out == ""
    assert err == "error: 1:1: gluing at 'R/v1' names two vertices 'R/v1'\n"


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == EX_USAGE

    def test_missing_file(self, capsys):
        assert run(capsys, "info", "/nonexistent/path.expr")[0] == EX_USAGE

    def test_parse_error(self, expr, capsys):
        code, _, err = run(capsys, "info", expr("clique[]"))
        assert code == EX_USAGE
        assert "1:8" in err

    def test_elaboration_error(self, expr, capsys):
        code, _, err = run(capsys, "verify", expr("product(clique[2,6]@v0, clique[2,6]@v0)"))
        assert code == EX_USAGE
        assert "winning factors" in err


NAMES = ("v0", "v1", "v2", "A2", "A3", "A14", "B14", "O",
         '"L/v1"', '"R/v1"', '"R/A3"', '"0/v1"', '"1/A3"', "x")


def random_expression(rng, depth=0):
    """A seeded expression of the DSL's grammar over small bricks; its
    vertex names come from a pool that often, but not always, exists."""
    if depth == 3 or rng.random() < 0.35:
        brick = rng.choice(["clique"] * 4 + ["k5minus", "game26666", "windmill"])
        if brick == "clique":
            hats = [rng.choice([1, 2, 2, 3, 4, 6]) for _ in range(rng.randint(1, 3))]
            return f"clique[{','.join(map(str, hats))}]"
        if brick == "windmill":
            return f"windmill({rng.randint(1, 3)}, {rng.randint(1, 3)})"
        return brick
    op, first = rng.choice(["product", "cone", "lower"]), random_expression(rng, depth + 1)
    if op == "product":
        second = random_expression(rng, depth + 1)
        return f"product({first}@{rng.choice(NAMES)}, {second}@{rng.choice(NAMES)})"
    if op == "cone":
        petal = f"{first}@{rng.choice(NAMES)}/{rng.choice(NAMES)}"
        return f"cone({random_expression(rng, 3)}; {', '.join([petal] * rng.randint(1, 2))})"
    return f"lower({first}; {rng.choice(NAMES)}={rng.randint(0, 4)})"


def mutated(rng, text):
    """``text`` with one character deleted, repeated or replaced, or cut short."""
    at = rng.randrange(len(text))
    return rng.choice([
        text[:at] + text[at + 1:],
        text[:at] + text[at] + text[at:],
        text[:at] + rng.choice("()[]@;,=/\"0123456789x ") + text[at + 1:],
        text[:at],
    ])


def test_seeded_expressions_exit_with_a_documented_code(tmp_path, capsys):
    # 300 seeded expressions, about a third of them mutated, each built
    # and put through one of info, verify --limit and verify --sample in
    # turn; each built game document, or a mutated copy of it, through
    # solve and embed-check.  No exception may escape, and every exit code
    # is one the README names.
    rng = random.Random(2026)
    source, doc = tmp_path / "game.expr", tmp_path / "game.json"
    checks = (("info",), ("verify", "--limit", "4096", "--jobs", "1"),
              ("verify", "--sample", "64", "--jobs", "1"))
    codes = {}

    def run_cli(command, path, *options):
        codes.setdefault(command, set()).add(main([command, str(path), *options]))
        capsys.readouterr()

    for n in range(300):
        text = random_expression(rng)
        source.write_text(mutated(rng, text) if rng.random() < 1 / 3 else text)
        command, *options = checks[n % 3]
        run_cli(command, source, *options)
        run_cli("build", source, "--out", str(doc))
        if doc.exists():
            built = doc.read_text()
            doc.write_text(built if n % 2 else mutated(rng, built))
            run_cli("solve", doc, "--budget", "5")
            run_cli("embed-check", doc)
            doc.unlink()
    assert set().union(*codes.values()) <= {EX_OK, EX_FAIL, EX_UNKNOWN, EX_USAGE}
    assert set(codes) == {"info", "build", "verify", "solve", "embed-check"}
    assert {EX_OK, EX_USAGE} <= codes["build"] and EX_OK in codes["verify"] and EX_FAIL in codes["verify"]
