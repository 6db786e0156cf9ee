import json
from pathlib import Path

import numpy as np
import pytest

from detrep import (build_tree, cli, generic_tree_size, serialize, solver, sparse_tree_heuristic,
                    twopar)
from detrep.polynomials import BivariatePolynomial, MatrixBivariatePolynomial
from detrep.solver import linearize_polynomial

from test_polynomials import CUBIC
from test_solver import retry_system


@pytest.fixture
def cubic_file(tmp_path):
    path = tmp_path / "cubic.json"
    serialize.dump(serialize.polynomial_to_json(CUBIC), path)
    return str(path)


@pytest.fixture
def system_file(tmp_path):
    q = BivariatePolynomial.from_terms({(3, 0): 1, (0, 3): 1, (0, 0): -1})
    doc = {"p": serialize.polynomial_to_json(CUBIC), "q": serialize.polynomial_to_json(q)}
    path = tmp_path / "system.json"
    serialize.dump(doc, path)
    return str(path)


def write_system(tmp_path, options):
    """The cubic pair of `system_file` with an "options" entry."""
    q = BivariatePolynomial.from_terms({(3, 0): 1, (0, 3): 1, (0, 0): -1})
    doc = {
        "p": serialize.polynomial_to_json(CUBIC),
        "q": serialize.polynomial_to_json(q),
        "options": options,
    }
    path = tmp_path / "system_with_options.json"
    serialize.dump(doc, path)
    return str(path)


def run(args):
    return cli.main(args)


class TestLinearize:
    def test_tree_method_size_five(self, cubic_file, tmp_path):
        out = tmp_path / "pencil.json"
        assert run(["linearize", cubic_file, "--method", "lin1", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["size"] == 5
        assert doc["method"] == "lin1"
        assert len(doc["tree"]["nodes"]) == 5

    def test_alg2_method_size_three(self, cubic_file, tmp_path):
        out = tmp_path / "pencil.json"
        assert run(["linearize", cubic_file, "--method", "lin2", "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["size"] == 3
        assert doc["method"] == "lin2"
        kinds = [step["kind"] for step in doc["tree"]["substitutions"]]
        assert kinds == [step.kind for step in build_tree(CUBIC).substitution_steps]
        assert kinds  # the size-3 tree comes from a shear

    @pytest.mark.parametrize("method", ["lin1", "lin2"])
    def test_pencil_is_the_library_pencil(self, cubic_file, tmp_path, method):
        out = tmp_path / "pencil.json"
        assert run(["linearize", cubic_file, "--method", method, "--output", str(out)]) == 0
        pencil = serialize.pencil_from_json(json.loads(out.read_text()))
        want = linearize_polynomial(CUBIC, method)
        for got, expected in ((pencil.A, want.A), (pencil.B, want.B), (pencil.C, want.C)):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("command", ["linearize", "solve"])
    @pytest.mark.parametrize("alias", ["tree", "alg2"])
    def test_method_aliases_refused(self, cubic_file, system_file, command, alias, capsys):
        path = cubic_file if command == "linearize" else system_file
        with pytest.raises(SystemExit) as exc:
            run([command, path, "--method", alias])
        assert exc.value.code == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_sparse_flag_is_refused(self, cubic_file, capsys):
        """lin1 always builds the smallest tree, so there is no flag for it."""
        for method in ("lin1", "lin2"):
            with pytest.raises(SystemExit) as exc:
                run(["linearize", cubic_file, "--method", method, "--sparse"])
            assert exc.value.code == 1
            captured = capsys.readouterr()
            assert "error: unrecognized arguments: --sparse" in captured.err
            assert captured.out == ""

    def test_degree_one_single_entry(self, tmp_path):
        poly = tmp_path / "lin.json"
        serialize.dump({"degree": 1, "coeffs": [[1.0, 2.0], [3.0]]}, poly)
        for method in ("lin1", "lin2"):
            out = tmp_path / f"{method}.json"
            assert run(["linearize", str(poly), "--method", method, "--output", str(out)]) == 0
            assert json.loads(out.read_text())["size"] == 1

    def test_alg2_rejects_matrix_polynomials(self, tmp_path, capsys):
        blocks = {"degree": 1, "block_size": 2,
                  "coeffs": [[[[1, 0], [0, 1]], [[0, 1], [1, 0]]], [[[1, 1], [0, 1]]]]}
        path = tmp_path / "matrix.json"
        serialize.dump(blocks, path)
        assert run(["linearize", str(path), "--method", "lin2"]) == 1
        assert "scalar" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"degree": 2, "coeffs": [[1]]}')
        assert run(["linearize", str(bad)]) == 1
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--method", "lin1"], ["--method", "lin2"]],
                             ids=["lin1", "lin2"])
    @pytest.mark.parametrize("coeffs", [[[5]], [[0]]], ids=["constant", "zero"])
    def test_constant_polynomial_is_an_error_not_a_traceback(self, tmp_path, capsys, flags, coeffs):
        poly = tmp_path / "constant.json"
        serialize.dump({"degree": 0, "coeffs": coeffs}, poly)
        assert run(["linearize", str(poly), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot linearize {str(poly)!r}: ")
        assert "at least 1" in captured.err
        assert captured.out == ""

    def test_lin1_gives_sparse_input_a_small_tree(self, tmp_path):
        poly = tmp_path / "sparse.json"
        serialize.dump(
            serialize.polynomial_to_json(
                BivariatePolynomial.from_terms({(9, 0): 1, (0, 9): 1, (0, 0): -1})
            ),
            poly,
        )
        out = tmp_path / "out.json"
        assert run(["linearize", str(poly), "--method", "lin1", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["size"] <= 17  # the generic tree has 29 nodes


class TestSolve:
    def test_malformed_flag_is_a_failure_not_a_partial_result(self, system_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["solve", system_file, "--rank-tol"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: detrep solve")
        assert "detrep solve: error: argument --rank-tol: expected one argument" in captured.err
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["solve", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: detrep solve")

    def test_trivial_system(self, tmp_path, capsys):
        doc = {
            "p": {"degree": 1, "coeffs": [[-1.0, 1.0], [1.0]]},
            "q": {"degree": 1, "coeffs": [[0.0, -1.0], [1.0]]},
        }
        path = tmp_path / "sys.json"
        serialize.dump(doc, path)
        assert run(["solve", str(path)]) == 0
        roots = json.loads(capsys.readouterr().out)
        assert len(roots) == 1
        assert roots[0]["x"][0] == pytest.approx(0.5)

    def test_cubic_pair_nine_roots(self, system_file, tmp_path):
        out = tmp_path / "roots.json"
        assert run(["solve", system_file, "--output", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 9

    def test_method_flag_and_dump_deltas(self, system_file, tmp_path):
        out = tmp_path / "roots.json"
        deltas = tmp_path / "deltas.json"
        code = run(["solve", system_file, "--method", "lin1",
                    "--output", str(out), "--dump-deltas", str(deltas)])
        assert code == 0
        assert len(json.loads(out.read_text())) == 9
        dumped = json.loads(deltas.read_text())
        assert len(dumped["delta0"]) == 25
        assert dumped["staircase"]  # the 25x25 problem is singular
        assert dumped["staircase"][0]["shape"] == [25, 25]
        # both rank decisions of every step, delta0's and the slab's
        for step in dumped["staircase"]:
            assert step["kept_sv"] > step["dropped_sv"]
            assert step["slab_kept_sv"] > step["slab_dropped_sv"]

    def test_dump_deltas_after_retry_holds_swapped_orientation(self, tmp_path):
        p, q = retry_system()
        path = tmp_path / "retry.json"
        serialize.dump(
            {"p": serialize.polynomial_to_json(p), "q": serialize.polynomial_to_json(q)}, path
        )
        out, deltas = tmp_path / "roots.json", tmp_path / "deltas.json"
        code = run(["solve", str(path), "--method", "lin1",
                    "--output", str(out), "--dump-deltas", str(deltas)])
        assert code == 2  # the failed first orientation leaves a warning
        assert len(json.loads(out.read_text())) == 16
        dumped = json.loads(deltas.read_text())
        swapped = (
            linearize_polynomial(BivariatePolynomial(f.coeffs.T), "lin1") for f in (p, q)
        )
        expected = twopar.operator_determinants(*swapped).delta0
        assert np.array_equal(serialize._matrix_from_json(dumped["delta0"]), expected)
        assert dumped["swapped"] is True
        assert dumped["staircase"][0]["shape"] == [64, 64]

    @pytest.mark.parametrize("method, arithmetic", [("lin1", "real"), ("lin2", "complex")])
    def test_dump_deltas_names_the_arithmetic(self, system_file, tmp_path, method, arithmetic):
        """Monomial-tree pencils of real polynomials are real; the lin2
        pencils of this pair carry complex shear roots."""
        out, deltas = tmp_path / "roots.json", tmp_path / "deltas.json"
        code = run(["solve", system_file, "--method", method,
                    "--output", str(out), "--dump-deltas", str(deltas)])
        assert code == 0
        dumped = json.loads(deltas.read_text())
        assert dumped["arithmetic"] == arithmetic
        imag = np.abs(serialize._matrix_from_json(dumped["delta0"]).imag).max()
        assert (imag == 0) == (arithmetic == "real")

    def test_roots_without_a_correct_digit_are_a_partial_result(self, tmp_path, capsys):
        """(x - 1)^3, (y - 1)^3 has the one triple root (1, 1); the lin1
        staircase returns nine candidates near x = 1 with y far from 1, and
        a residual filter loosened to 1 lets them through.  Their error
        bounds exceed max(1, |x|, |y|), so the solve warns and exits 2."""
        p = BivariatePolynomial.from_terms({(3, 0): 1, (2, 0): -3, (1, 0): 3, (0, 0): -1})
        q = BivariatePolynomial(p.coeffs.T)
        path = tmp_path / "triple.json"
        serialize.dump({"p": serialize.polynomial_to_json(p),
                        "q": serialize.polynomial_to_json(q)}, path)
        out = tmp_path / "roots.json"
        code = run(["solve", str(path), "--method", "lin1", "--residual-accept", "1",
                    "--output", str(out)])
        roots = json.loads(out.read_text())
        assert code == 2
        loose = [r for r in roots
                 if r["accuracy"] >= max(1.0, abs(complex(*r["x"])), abs(complex(*r["y"])))]
        assert loose
        assert (f"{len(loose)} of {len(roots)} roots have an error bound as large as the root"
                in capsys.readouterr().err)

    def test_exact_singular_root_written_without_nan(self, tmp_path):
        doc = {
            "p": serialize.polynomial_to_json(BivariatePolynomial.from_terms({(2, 0): 1.0})),
            "q": serialize.polynomial_to_json(BivariatePolynomial.from_terms({(0, 2): 1.0})),
        }
        path = tmp_path / "double.json"
        serialize.dump(doc, path)
        out = tmp_path / "roots.json"
        assert run(["solve", str(path), "--output", str(out)]) == 2  # left unrefined
        text = out.read_text()
        assert "NaN" not in text
        (root,) = json.loads(text)
        assert root["multiplicity"] == 4
        assert root["accuracy"] == float("inf")

    def test_power_sum_system_ninety_roots(self, tmp_path):
        doc = {
            "p": serialize.polynomial_to_json(
                BivariatePolynomial.from_terms({(9, 0): 1, (0, 9): 1, (0, 0): -1})
            ),
            "q": serialize.polynomial_to_json(
                BivariatePolynomial.from_terms({(10, 0): 1, (0, 10): 1, (0, 0): -1})
            ),
        }
        path = tmp_path / "power.json"
        serialize.dump(doc, path)
        out = tmp_path / "roots.json"
        assert run(["solve", str(path), "--method", "lin2", "--output", str(out)]) == 0
        roots = json.loads(out.read_text())
        assert len(roots) == 90
        assert max(r["residual"] for r in roots) <= 1e-8

    def test_degenerate_system_fails(self, tmp_path, capsys):
        doc = {"p": serialize.polynomial_to_json(CUBIC), "q": serialize.polynomial_to_json(CUBIC)}
        path = tmp_path / "dup.json"
        serialize.dump(doc, path)
        assert run(["solve", str(path)]) == 1
        assert "zero-dimensional" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "{not json", '{"p": {"degree": 1}}'],
                             ids=["missing", "malformed", "no-q"])
    def test_unreadable_system_file_fails(self, tmp_path, capsys, content):
        path = tmp_path / "system.json"
        if content is not None:
            path.write_text(content)
        assert run(["solve", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read system file {str(path)!r}:")
        assert captured.out == ""

    def test_negative_newton_steps_flag_rejected(self, system_file, capsys):
        assert run(["solve", system_file, "--newton-steps", "-1"]) == 1
        assert "error: invalid solve options: newton_steps" in capsys.readouterr().err

    def test_unknown_file_option_named(self, tmp_path, capsys):
        assert run(["solve", write_system(tmp_path, {"swap_varables": True})]) == 1
        assert "unknown solve option(s): swap_varables" in capsys.readouterr().err

    def test_removed_swap_option_is_unknown(self, tmp_path, capsys):
        assert run(["solve", write_system(tmp_path, {"swap_variables": True})]) == 1
        assert "unknown solve option(s): swap_variables" in capsys.readouterr().err

    def test_mistyped_file_option_rejected(self, tmp_path, capsys):
        assert run(["solve", write_system(tmp_path, {"newton_steps": "2"})]) == 1
        assert capsys.readouterr().err.startswith("error: invalid solve options:")

    @pytest.mark.parametrize(
        "options",
        [
            {"rank_tol": "1e-8"},
            {"cluster_tol": -1e-6},
            {"residual_accept": 0},
            {"dedup_tol": True},
            {"newton_steps": 1.5},
        ],
        ids=lambda options: next(iter(options)),
    )
    def test_invalid_file_option_value_rejected(self, tmp_path, capsys, options):
        (name,) = options
        assert run(["solve", write_system(tmp_path, options)]) == 1
        assert capsys.readouterr().err.startswith(f"error: invalid solve options: {name}")

    def test_file_options_applied(self, tmp_path):
        out, deltas = tmp_path / "roots.json", tmp_path / "deltas.json"
        path = write_system(tmp_path, {"linearization": "lin1"})
        assert run(["solve", path, "--output", str(out), "--dump-deltas", str(deltas)]) == 0
        assert len(json.loads(out.read_text())) == 9
        assert len(json.loads(deltas.read_text())["delta0"]) == 25  # lin1 pencils


class TestVerify:
    def test_matching_pair_passes(self, cubic_file, tmp_path, capsys):
        pencil = tmp_path / "pencil.json"
        assert run(["linearize", cubic_file, "--method", "lin2", "--output", str(pencil)]) == 0
        assert run(["verify", str(pencil), cubic_file]) == 0
        assert "max relative determinant error" in capsys.readouterr().out

    def test_sparse_matrix_polynomial_round_trip(self, tmp_path, capsys):
        """lin1 builds the small tree for matrix input too, and its pencil
        verifies against det P(x, y)."""
        rng = np.random.default_rng(46)
        blocks = {t: rng.uniform(-1, 1, (2, 2)) for t in [(0, 0), (5, 0), (0, 5), (2, 2)]}
        P = MatrixBivariatePolynomial.from_blocks(blocks, 2)
        poly, pencil = tmp_path / "matrix.json", tmp_path / "pencil.json"
        serialize.dump(serialize.polynomial_to_json(P), poly)
        assert run(["linearize", str(poly), "--method", "lin1", "--output", str(pencil)]) == 0
        doc = json.loads(pencil.read_text())
        assert doc["size"] == len(sparse_tree_heuristic(P)) < generic_tree_size(5)
        assert doc["block_size"] == 2
        assert run(["verify", str(pencil), str(poly)]) == 0
        assert "max relative determinant error" in capsys.readouterr().out

    def test_perturbed_pencil_fails(self, cubic_file, tmp_path):
        pencil_path = tmp_path / "pencil.json"
        assert run(["linearize", cubic_file, "--method", "lin1", "--output", str(pencil_path)]) == 0
        doc = json.loads(pencil_path.read_text())
        doc["A"][0][0][0] += 1e-3
        serialize.dump(doc, pencil_path)
        assert run(["verify", str(pencil_path), cubic_file]) == 1

    def test_block_size_mismatch(self, cubic_file, tmp_path, capsys):
        pencil_path = tmp_path / "pencil.json"
        run(["linearize", cubic_file, "--method", "lin1", "--output", str(pencil_path)])
        doc = json.loads(pencil_path.read_text())
        # reinterpret the 5x5 matrices as one 5x5 block: still a valid
        # pencil file, but its block size disagrees with the polynomial
        doc["size"], doc["block_size"] = 1, 5
        serialize.dump(doc, pencil_path)
        assert run(["verify", str(pencil_path), cubic_file]) == 1
        assert "block size" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "[1, 2"], ids=["missing", "malformed"])
    def test_unreadable_pencil_fails(self, cubic_file, tmp_path, capsys, content):
        pencil = tmp_path / "pencil.json"
        if content is not None:
            pencil.write_text(content)
        assert run(["verify", str(pencil), cubic_file]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read input:")
        assert "max relative determinant error" not in captured.out

    def test_sample_count_respected(self, cubic_file, tmp_path, capsys):
        pencil = tmp_path / "pencil.json"
        run(["linearize", cubic_file, "--method", "lin1", "--output", str(pencil)])
        assert run(["verify", str(pencil), cubic_file, "--samples", "7"]) == 0
        assert "over 7 samples" in capsys.readouterr().out

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_nonpositive_sample_count_rejected(self, cubic_file, tmp_path, capsys, samples):
        pencil = tmp_path / "pencil.json"
        run(["linearize", cubic_file, "--method", "lin1", "--output", str(pencil)])
        # the pencil of another polynomial: no sample would ever catch it
        other = tmp_path / "other.json"
        serialize.dump(serialize.polynomial_to_json(BivariatePolynomial.from_terms({(1, 1): 1})), other)
        assert run(["verify", str(pencil), str(other), "--samples", samples]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --samples must be at least 1")
        assert "max relative determinant error" not in captured.out

    def test_degree_seven_alg2_verifies_tightly(self, tmp_path):
        rng = np.random.default_rng(44)
        table = np.zeros((8, 8))
        for j in range(8):
            for k in range(8 - j):
                table[j, k] = rng.uniform(0, 1)
        poly_path = tmp_path / "deg7.json"
        serialize.dump(serialize.polynomial_to_json(BivariatePolynomial(table)), poly_path)
        pencil_path = tmp_path / "pencil.json"
        assert run(["linearize", str(poly_path), "--method", "lin2",
                    "--output", str(pencil_path)]) == 0
        assert run(["verify", str(pencil_path), str(poly_path),
                    "--tolerance", "1e-9"]) == 0


class TestBench:
    def test_size_columns_match_reference_tables(self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        assert run(["bench", "--degrees", "3..10", "--sizes-only", "--output", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert [r["lin1_delta_size"] for r in rows] == [25, 64, 121, 225, 361, 576, 841, 1225]
        assert [r["lin2_delta_size"] for r in rows] == [9, 25, 64, 100, 169, 289, 400, 576]

    def test_single_degree_is_a_one_row_range(self, capsys, tmp_path):
        out = tmp_path / "bench.json"
        assert run(["bench", "--degrees", "5", "--sizes-only", "--output", str(out)]) == 0
        (row,) = json.loads(out.read_text())
        assert (row["degree"], row["lin1_delta_size"], row["lin2_delta_size"]) == (5, 121, 64)
        assert "lin1_roots" not in row

    def test_degree_three_reports_nine_roots(self, capsys):
        assert run(["bench", "--degrees", "3..3", "--seed", "7"]) == 0
        table = capsys.readouterr().out
        rows = [line for line in table.splitlines() if line.strip().startswith("3")]
        assert rows
        assert "9" in rows[0].split()[5]

    def test_seeded_runs_reproduce(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        run(["bench", "--degrees", "3..4", "--seed", "5", "--output", str(out1)])
        run(["bench", "--degrees", "3..4", "--seed", "5", "--output", str(out2)])
        rows1 = json.loads(out1.read_text())
        rows2 = json.loads(out2.read_text())
        for r1, r2 in zip(rows1, rows2):
            assert r1["lin1_roots"] == r2["lin1_roots"]
            assert r1["lin2_roots"] == r2["lin2_roots"]

    def test_degenerate_system_is_a_row_not_a_traceback(self, monkeypatch, capsys, tmp_path):
        """A method that raises DegenerateSystemError gets 0 roots and no
        accuracy in its row, with the same columns as a solved row."""
        solve = solver.solve_system

        def lin2_raises(p, q, opts=None, diagnostics=None):
            if p.degree == 4 and opts.linearization == "lin2":
                raise solver.DegenerateSystemError("no roots could be certified")
            return solve(p, q, opts, diagnostics)

        monkeypatch.setattr(solver, "solve_system", lin2_raises)
        out = tmp_path / "bench.json"
        assert run(["bench", "--degrees", "3..4", "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "warning: degree 4 lin2: no roots could be certified\n"
        rows = json.loads(out.read_text())
        assert rows[0].keys() == rows[1].keys()
        assert (rows[1]["lin2_roots"], rows[1]["lin2_max_accuracy"]) == (0, None)
        assert (rows[0]["lin2_roots"], rows[1]["lin1_roots"]) == (9, 16)
        assert rows[1]["lin1_max_accuracy"] <= 1e-8
        header, _, degree_four = (line.split() for line in captured.out.splitlines())
        assert degree_four[header.index("lin2_max_accuracy")] == "-"

    def test_rejects_out_of_range_degrees(self, capsys):
        assert run(["bench", "--degrees", "1..4"]) == 1
        assert "3 <= a <= b <= 12" in capsys.readouterr().err

    def test_negative_newton_steps_rejected(self, capsys):
        assert run(["bench", "--degrees", "3..3", "--newton-steps", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: invalid bench options: newton_steps")
        assert captured.out == ""


class TestLogging:
    def test_env_var_sets_level(self, monkeypatch, cubic_file, tmp_path):
        monkeypatch.setenv("DETREP_LOG", "DEBUG")
        out = tmp_path / "pencil.json"
        assert run(["linearize", cubic_file, "--output", str(out)]) == 0


def test_readme_command_lines_parse():
    """Every `detrep ...` line of the README's command-line block parses, so
    a renamed flag or method cannot leave the docs behind."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command-line interface", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split() for line in block.splitlines() if line.startswith("detrep ")]
    assert {words[1] for words in lines} == {"linearize", "solve", "verify", "bench"}
    parser = cli.build_parser()
    for words in lines:
        parser.parse_args(words[1:])
