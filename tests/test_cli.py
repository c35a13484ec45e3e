import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import lineaut.cli
from lineaut import PLAutomorphism
from lineaut.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NO_SOLUTION,
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    main,
)


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return {
        "identity": write("id.json", {"knots": [], "left_slope": "1", "right_slope": "1"}),
        "t1": write("t1.json", {"knots": [{"x": "0", "y": "1"}],
                                "left_slope": "1", "right_slope": "1"}),
        "t2": write("t2.json", {"knots": [{"x": "0", "y": "2"}],
                                "left_slope": "1", "right_slope": "1"}),
        "tminus": write("tm.json", {"knots": [{"x": "0", "y": "-1"}],
                                    "left_slope": "1", "right_slope": "1"}),
        "bump": write("bump.json", {"knots": [{"x": "0", "y": "0"},
                                              {"x": "1/2", "y": "3/4"},
                                              {"x": "1", "y": "1"}],
                                    "left_slope": "1", "right_slope": "1"}),
        "square": write("w2.json", {"letters": [{"var": 2, "exp": 1}, {"var": 2, "exp": 1}]}),
        "bad": write("bad.json", {"knots": [{"x": "0", "y": "1"}, {"x": "1", "y": "0"}],
                                  "left_slope": "1", "right_slope": "1"}),
        "trash": write("trash.json", "]["),
        "two_signs": write("g.json", {"knots": [{"x": "-6", "y": "-7/2"},
                                                {"x": "-5/4", "y": "2"},
                                                {"x": "2", "y": "7/2"}],
                                      "left_slope": "3/2", "right_slope": "1/2"}),
    }


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    out = buf.getvalue()
    return code, (json.loads(out) if out.strip() else None)


def usage_error_code(argv, capsys):
    """Exit code of an argument that argparse rejects, with nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert capsys.readouterr().out == ""
    return exc.value.code


class TestTerrain:
    def test_identity(self, files):
        code, data = run(["terrain", files["identity"]])
        assert code == EXIT_OK
        assert data["color_sequence"] == "0"

    def test_translation(self, files):
        code, data = run(["terrain", files["t1"]])
        assert code == EXIT_OK
        assert data["color_sequence"] == "+"

    def test_bump(self, files):
        code, data = run(["terrain", files["bump"]])
        assert code == EXIT_OK
        assert data["color_sequence"] == "0+0"
        assert data["terrain"]["elements"][1] == {"color": "+", "lo": "0", "hi": "1"}

    def test_invalid_map_rejected(self, files):
        code, _ = run(["terrain", files["bad"]])
        assert code == EXIT_INPUT_ERROR

    def test_invalid_json_rejected(self, files):
        code, _ = run(["terrain", files["trash"]])
        assert code == EXIT_INPUT_ERROR

    def test_missing_file(self):
        code, _ = run(["terrain", "/nonexistent/g.json"])
        assert code == EXIT_INPUT_ERROR


class TestConstructionErrors:
    """Exit code 2 and the exact message for maps that cannot be built."""

    @pytest.mark.parametrize("knots, slopes, message", [
        ([("1/2", "0"), ("1/2", "2")], ("1", "1"),
         "knot x-coordinates must be strictly increasing: 1/2 >= 1/2"),
        ([("0", "1"), ("1", "2/3")], ("1", "1"),
         "knot y-coordinates must be strictly increasing: 1 >= 2/3"),
        ([("0", "1")], ("0", "1"), "tail slopes must be positive; got 0, 1"),
        ([("0", "1")], ("1", "-1/2"), "tail slopes must be positive; got 1, -1/2"),
        ([], ("2", "2"), "a map without knots must be the identity; got tail slopes 2, 2"),
    ])
    def test_invalid_map(self, tmp_path, capsys, knots, slopes, message):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"knots": [{"x": x, "y": y} for x, y in knots],
                                    "left_slope": slopes[0], "right_slope": slopes[1]}))
        assert run(["terrain", str(path)]) == (EXIT_INPUT_ERROR, None)
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("][", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        ('{"knots": [{"x": "0"}], "left_slope": "1", "right_slope": "1"}',
         "malformed piecewise-linear JSON: 'y'"),
    ])
    def test_malformed_json(self, tmp_path, capsys, text, message):
        path = tmp_path / "g.json"
        path.write_text(text)
        assert run(["terrain", str(path)]) == (EXIT_INPUT_ERROR, None)
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


class TestNotUtf8:
    """JSON files are UTF-8 (RFC 8259): other bytes are an input error, exit
    2, not a traceback with exit 1, which means "no solution"."""

    # the start of an ELF header: 0xd0 cannot follow the lead byte 0xf0
    BYTES = b"\x7fELF\x02\x01\x01" + bytes(17) + b"\xf0\xd0\xff\xfe"

    @pytest.mark.parametrize("argv", [["terrain", "{bin}"], ["solve-word", "{bin}", "{t1}"]],
                             ids=["map", "word"])
    def test_binary_file_exits_2(self, files, tmp_path, capsys, argv):
        path = tmp_path / "bin.json"
        path.write_bytes(self.BYTES)
        names = {"bin": str(path), "t1": files["t1"]}
        assert run([arg.format(**names) for arg in argv]) == (EXIT_INPUT_ERROR, None)
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8: ")


class TestBigNumbers:
    """Exact values past Python's 4,300-digit int/str limit are read and
    printed exactly, as JSON strings and as JSON numbers."""

    @pytest.mark.parametrize("quote", ['"', ""], ids=["string", "number"])
    def test_eval_with_a_5000_digit_knot(self, tmp_path, quote):
        # g is the translation by 10^5000, so g(1/3) = (3 10^5000 + 1)/3;
        # the digits are written out as text, since str() of such an int raises
        path = tmp_path / "g.json"
        path.write_text(f'{{"knots": [{{"x": "0", "y": {quote}1{"0" * 5000}{quote}}}], '
                        '"left_slope": "1", "right_slope": "1"}')
        code, data = run(["eval", str(path), "1/3"])
        assert code == EXIT_OK
        assert data == {"x": "1/3", "y": "3" + "0" * 4999 + "1/3"}

    def test_decreasing_5000_digit_knots(self, tmp_path, capsys):
        # knots (0, 2 10^5000) and (1, 10^5000): an input error whose message
        # has the exact digits, not the int/str limit's
        path = tmp_path / "g.json"
        big, bigger = "1" + "0" * 5000, "2" + "0" * 5000
        path.write_text(f'{{"knots": [{{"x": "0", "y": "{bigger}"}}, {{"x": "1", "y": "{big}"}}], '
                        '"left_slope": "1", "right_slope": "1"}')
        assert run(["terrain", str(path)]) == (EXIT_INPUT_ERROR, None)
        assert capsys.readouterr().err == (f"error: {path}: knot y-coordinates must be "
                                           f"strictly increasing: {bigger} >= {big}\n")


class TestBooleanRationals:
    """A JSON boolean is not a rational: the map below read as the
    translation by -1 when true and false were taken as 1 and 0."""

    @pytest.mark.parametrize("argv", [
        ["terrain", "{g}"],
        ["eval", "{g}", "5/3"],
        ["conjugate", "{g}", "{t1}"],
        ["conjugate", "{t1}", "{g}"],
        ["solve-xgx", "{g}", "{t1}"],
        ["solve-word", "{w}", "{g}"],
        ["root", "{g}", "2"],
        ["commutator", "{g}"],
        ["measure", "{g}", "--alpha", "0", "--gamma", "1"],
    ])
    def test_map_with_booleans_exits_2(self, files, tmp_path, capsys, argv):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"knots": [{"x": True, "y": False}],
                                    "left_slope": True, "right_slope": 1}))
        names = {"g": str(path), "t1": files["t1"], "w": files["square"]}
        assert run([arg.format(**names) for arg in argv]) == (EXIT_INPUT_ERROR, None)
        assert capsys.readouterr().err == f"error: {path}: not a rational: True\n"


class TestEval:
    def test_forward(self, files):
        code, data = run(["eval", files["t1"], "5/3"])
        assert code == EXIT_OK
        assert data == {"x": "5/3", "y": "8/3"}

    def test_inverse(self, files):
        code, data = run(["eval", files["t1"], "5/3", "--inverse"])
        assert code == EXIT_OK
        assert data == {"x": "5/3", "y": "2/3"}

    def test_negative_rational_point(self, files):
        code, data = run(["eval", files["two_signs"], "-3/2"])
        assert code == EXIT_OK
        assert data == {"x": "-3/2", "y": "65/38"}

    def test_malformed_point_is_usage_error(self, files, capsys):
        assert usage_error_code(["eval", files["t1"], "abc"], capsys) == EXIT_INPUT_ERROR


class TestConjugate:
    def test_translations(self, files):
        code, data = run(["conjugate", files["t2"], files["t1"], "--samples", "40"])
        assert code == EXIT_OK
        assert data["conjugate"] is True
        assert data["verification"]["verified"] is True
        assert len(data["solution_graph"]) == 40

    def test_self(self, files):
        code, data = run(["conjugate", files["t1"], files["t1"], "--samples", "20"])
        assert code == EXIT_OK
        assert data["verification"]["verified"] is True

    def test_not_conjugate(self, files):
        code, data = run(["conjugate", files["t1"], files["tminus"], "--samples", "20"])
        assert code == EXIT_NO_SOLUTION
        assert data == {"conjugate": False,
                        "color_sequences": {"g": "+", "f": "-"}}

    def test_fast_forward_mode(self, files):
        code, data = run(["conjugate", files["t2"], files["t1"],
                          "--samples", "20", "--mode", "fast-forward"])
        assert code == EXIT_OK
        assert data["verification"]["verified"] is True

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_sample_count_below_one_is_usage_error(self, files, capsys, count):
        argv = ["conjugate", files["t2"], files["t1"], "--samples", count]
        assert usage_error_code(argv, capsys) == EXIT_INPUT_ERROR

    def test_sample_count_beyond_the_pool_is_input_error(self, files, capsys):
        # t1 and t2 have no terrain probes outside the 30,241 random picks
        argv = ["conjugate", files["t2"], files["t1"], "--samples", "40000"]
        assert run(argv) == (EXIT_INPUT_ERROR, None)
        assert capsys.readouterr().err == ("error: sample count 40000 exceeds the 30241 "
                                           "distinct sample points there are to draw\n")


class TestSolvers:
    def test_xgx(self, files):
        code, data = run(["solve-xgx", files["identity"], files["t2"], "--samples", "20"])
        assert code == EXIT_OK
        assert data["verification"]["verified"] is True
        # known solution t -> t + 1
        for point in data["solution_graph"]:
            assert Fraction(point["y"]) == Fraction(point["x"]) + 1

    def test_solve_word(self, files):
        code, data = run(["solve-word", files["square"], files["t2"], "--samples", "20"])
        assert code == EXIT_OK
        assert data["verification"]["verified"] is True
        assert "2" in data["variables"]

    def test_solve_word_rejects_unreduced(self, files, tmp_path):
        bad = tmp_path / "wbad.json"
        bad.write_text(json.dumps({"letters": [{"var": 2, "exp": 1},
                                               {"var": 2, "exp": -1}]}))
        code, _ = run(["solve-word", str(bad), files["t2"]])
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("letter", [{"var": 2.7, "exp": 1.0}, {"var": 2, "exp": True}])
    def test_solve_word_rejects_non_int_letters(self, files, tmp_path, letter):
        bad = tmp_path / "wfloat.json"
        bad.write_text(json.dumps({"letters": [letter]}))
        code, _ = run(["solve-word", str(bad), files["t2"]])
        assert code == EXIT_INPUT_ERROR

    def test_root(self, files):
        code, data = run(["root", files["t2"], "2", "--samples", "20"])
        assert code == EXIT_OK
        assert data["n"] == 2
        assert data["verification"]["verified"] is True

    def test_root_of_one_returns_input(self, files):
        code, data = run(["root", files["t2"], "1", "--samples", "10"])
        assert code == EXIT_OK
        assert data["construction"] == "piecewise-linear"

    def test_commutator(self, files):
        code, data = run(["commutator", files["t1"], "--samples", "20"])
        assert code == EXIT_OK
        assert data["verification"]["verified"] is True
        assert "x" in data and "y" in data


def shape(value):
    """Keys in order, recursively; a list by its first item, a leaf by its type."""
    if isinstance(value, dict):
        return [(k, shape(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [shape(v) for v in value[:1]]
    return type(value).__name__


WRONG = PLAutomorphism()  # the identity: no solution of the equations below


class TestVerificationFailure:
    """A solver that returns a wrong map: exit 3 and the report of a passing run."""

    @pytest.mark.parametrize("argv, solver, wrong", [
        (["conjugate", "t2", "t1"], "solve_conjugacy", lambda g, f: WRONG),
        (["solve-xgx", "identity", "t2"], "solve_xgx", lambda g, f: WRONG),
        (["solve-word", "square", "t2"], "solve_word", lambda word, g: {2: WRONG}),
        (["root", "t2", "2"], "nth_root", lambda g, n: WRONG),
        (["commutator", "t1"], "commutator_decomposition", lambda g: (WRONG, WRONG)),
    ])
    def test_wrong_solution_exits_3(self, files, monkeypatch, argv, solver, wrong):
        argv = [files.get(a, a) for a in argv] + ["--samples", "20"]
        code, passing = run(argv)
        assert code == EXIT_OK and passing["verification"]["verified"] is True
        monkeypatch.setattr(lineaut.cli, solver, wrong)
        code, data = run(argv)
        assert code == EXIT_VERIFICATION_FAILED
        assert data["verification"] == {"samples": 20, "verified": False}
        assert shape(data) == shape(passing)


class TestTerrainCatalog:
    def test_enumerate(self):
        code, data = run(["enumerate-terrains", "3"])
        assert code == EXIT_OK
        assert data["count"] == 22
        assert len(data["sequences"]) == 22

    def test_realize_roundtrip_all_n3(self):
        code, data = run(["enumerate-terrains", "3"])
        for seq in data["sequences"]:
            code, realized = run(["realize", seq])
            assert code == EXIT_OK
            assert realized["roundtrip"] == seq

    def test_realize_identity(self):
        code, data = run(["realize", "0"])
        assert code == EXIT_OK
        assert data["automorphism"] == {"knots": [], "left_slope": "1",
                                        "right_slope": "1"}

    def test_realize_rejects_invalid(self):
        code, _ = run(["realize", "00"])
        assert code == EXIT_INPUT_ERROR

    def test_realize_double_minus(self):
        code, data = run(["realize", "--"])
        assert code == EXIT_OK
        assert data["roundtrip"] == "--"

    def test_file_named_realize_is_not_a_command(self, files, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "realize").write_text(Path(files["t1"]).read_text())
        code, data = run(["eval", "realize", "5/3", "--inverse"])
        assert code == EXIT_OK
        assert data == {"x": "5/3", "y": "2/3"}


class TestMeasure:
    def test_linear(self, files):
        code, data = run(["measure", files["t1"], "--alpha", "0", "--gamma", "10"])
        assert code == EXIT_OK
        assert data == {"mode": "linear", "index": 10, "oracle_calls": 11,
                        "ff_steps": 0}

    def test_fast_forward(self, files):
        code, data = run(["measure", files["t1"], "--alpha", "0", "--gamma", "10",
                          "--mode", "fast-forward"])
        assert code == EXIT_OK
        assert data["index"] == 10
        assert data["ff_steps"] <= 4 * 3.4 + 8

    def test_fixed_anchor_is_input_error(self, files):
        code, _ = run(["measure", files["identity"], "--alpha", "0", "--gamma", "1"])
        assert code == EXIT_INPUT_ERROR

    def test_negative_rational_anchor(self, files):
        code, data = run(["measure", files["two_signs"], "--alpha", "-3/2", "--gamma", "1"])
        assert code == EXIT_OK
        assert data == {"mode": "linear", "index": 0, "oracle_calls": 1, "ff_steps": 0}

    @pytest.mark.parametrize("alpha, gamma", [("x", "1"), ("0", "1/0")])
    def test_malformed_rational_is_usage_error(self, files, capsys, alpha, gamma):
        argv = ["measure", files["t1"], "--alpha", alpha, "--gamma", gamma]
        assert usage_error_code(argv, capsys) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("mode", ["linear", "fast-forward"])
    def test_different_components_is_input_error(self, files, mode):
        code, data = run(["measure", files["two_signs"], "--alpha", "0", "--gamma", "1024",
                          "--mode", mode])
        assert code == EXIT_INPUT_ERROR
        assert data is None


class TestDeterminism:
    def test_byte_identical_output(self, files):
        runs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                main(["conjugate", files["t2"], files["t1"], "--samples", "30",
                      "--seed", "7"])
            runs.append(buf.getvalue())
        assert runs[0] == runs[1]


GOLDEN = Path(__file__).parent / "golden"

# Inputs and expected stdout live in tests/golden.  In the solve-xgx pairs
# g = f^-1 T, so fg = T is a translated realize() of the named terrain, placed
# so that its isolated fixed points are among the 17 samples of seed 3; the
# conjugate pair is likewise placed so that g's isolated fixed points are.
GOLDEN_CASES = {
    "solve_xgx_minus": ["solve-xgx", "g_minus.json", "f.json"],
    "solve_xgx_neg_pos_neg": ["solve-xgx", "g_neg_pos_neg.json", "f.json"],
    "solve_xgx_neg_fix_pos_fix_neg": ["solve-xgx", "g_neg_fix_pos_fix_neg.json", "f.json"],
    "solve_xgx_pos_neg": ["solve-xgx", "g_pos_neg.json", "f.json"],
    "conjugate_linear": ["conjugate", "conj_g.json", "conj_f.json"],
    "conjugate_fast_forward": ["conjugate", "conj_g.json", "conj_f.json",
                               "--mode", "fast-forward"],
    "solve_word": ["solve-word", "word.json", "neg_pos.json"],
    "solve_word_zero_sum": ["solve-word", "word_zero_sum.json", "neg_pos.json"],
    "root": ["root", "neg_pos.json", "3"],
    "commutator": ["commutator", "neg_pos.json"],
}


class TestGoldenOutput:
    """Byte-for-byte stdout of fixed invocations, as README promises."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_stdout_matches_golden(self, name):
        argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in GOLDEN_CASES[name]]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv + ["--samples", "17", "--seed", "3"])
        assert code == EXIT_OK
        assert buf.getvalue() == (GOLDEN / f"{name}.stdout").read_text()
