"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main, _parse_ranks, build_matrix, MESH_KINDS
from repro.core.solver import SparseSolver
from repro.sparse.io_mm import write_matrix_market
from repro.sparse.convert import csc_to_coo
from repro.sparse.ops import full_symmetric_from_lower, tril
from repro.gen import convection_diffusion2d, grid2d_laplacian
from repro.util.errors import ShapeError


class TestParsing:
    def test_parse_ranks(self):
        assert _parse_ranks("1,2,8") == [1, 2, 8]

    def test_parse_ranks_bad(self):
        with pytest.raises(ShapeError):
            _parse_ranks("1,x")
        with pytest.raises(ShapeError):
            _parse_ranks("0,2")
        with pytest.raises(ShapeError):
            _parse_ranks("")

    def test_build_matrix_mesh(self):
        class A:
            matrix = None
            mesh = "cube:3"

        m = build_matrix(A())
        assert m.shape == (27, 27)

    def test_build_matrix_bad_spec(self):
        class A:
            matrix = None
            mesh = "cube12"

        with pytest.raises(ShapeError):
            build_matrix(A())

    def test_build_matrix_unknown_kind(self):
        class A:
            matrix = None
            mesh = "torus:3"

        with pytest.raises(ShapeError):
            build_matrix(A())

    def test_build_matrix_neither(self):
        class A:
            matrix = None
            mesh = None

        with pytest.raises(ShapeError):
            build_matrix(A())

    def test_all_mesh_kinds_build(self):
        for kind in MESH_KINDS:
            size = 16 if kind in ("random", "unstructured") else 3

            class A:
                matrix = None
                mesh = f"{kind}:{size}"

            m = build_matrix(A())
            assert m.shape[0] >= 9


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--mesh", "cube:4"]) == 0
        out = capsys.readouterr().out
        assert "nnz(L)" in out and "supernodes" in out

    def test_solve_ones(self, capsys):
        assert main(["solve", "--mesh", "plate:6"]) == 0
        assert "residual" in capsys.readouterr().out

    def test_solve_random_with_condest(self, capsys):
        rc = main(
            ["solve", "--mesh", "plate:5", "--rhs", "random", "--condest"]
        )
        assert rc == 0
        assert "condition estimate" in capsys.readouterr().out

    def test_solve_no_refine(self, capsys):
        assert main(["solve", "--mesh", "plate:5", "--no-refine"]) == 0

    def test_fp32_no_refine_exit_follows_the_working_precision(self, capsys):
        # An fp32 direct solve's backward error is a few units of fp32
        # roundoff (2^-24 ~ 6e-8), above the fp64 solve's 1e-8 bound.
        assert main(["solve", "--mesh", "cube:6", "--no-refine", "--precision", "fp32"]) == 0
        out = capsys.readouterr().out
        assert "precision=fp32" in out and "refine_iters=0" in out

    def test_solve_ldlt(self, capsys):
        assert main(["solve", "--mesh", "cube:3", "--method", "ldlt"]) == 0

    def test_scale(self, capsys):
        rc = main(
            ["scale", "--mesh", "cube:4", "--ranks", "1,2,4", "--nb", "8"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "strong scaling" in out and "Gflop/s" in out

    def test_scale_policy_1d(self, capsys):
        rc = main(
            [
                "scale",
                "--mesh",
                "plate:6",
                "--ranks",
                "1,2",
                "--policy",
                "1d",
                "--machine",
                "bluegene-p",
            ]
        )
        assert rc == 0

    def test_compare(self, capsys):
        rc = main(["compare", "--mesh", "cube:4", "--ranks", "2,4", "--nb", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wsmp-like" in out and "mumps-like" in out

    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        assert "cube-s" in capsys.readouterr().out

    def test_matrix_file(self, tmp_path, capsys):
        lower = grid2d_laplacian(4)
        path = tmp_path / "m.mtx"
        write_matrix_market(path, csc_to_coo(lower), symmetric=True)
        assert main(["info", "--matrix", str(path)]) == 0
        assert main(["solve", "--matrix", str(path)]) == 0
        assert main(["solve", "--matrix", str(path), "--method", "ldlt"]) == 0

    @staticmethod
    def _lu_solution(monkeypatch, path):
        """Run ``solve --matrix path --lu`` and return (exit code, x)."""
        from repro.core.solver import SparseSolver

        solved = []
        solve = SparseSolver.solve

        def recording_solve(self, b, **kwargs):
            res = solve(self, b, **kwargs)
            solved.append(res.x)
            return res

        monkeypatch.setattr(SparseSolver, "solve", recording_solve)
        rc = main(["solve", "--matrix", str(path), "--lu"])
        assert len(solved) == 1
        return rc, solved[0]

    @pytest.mark.parametrize("method", ["cholesky", "ldlt"])
    def test_unsymmetric_matrix_file_rejected(self, tmp_path, capsys, method):
        """A general file holding an unsymmetric matrix is not silently cut
        to its lower triangle: the symmetric solvers reject it."""
        path = tmp_path / "cd.mtx"
        write_matrix_market(path, csc_to_coo(convection_diffusion2d(4)))
        assert main(["solve", "--matrix", str(path), "--method", method]) == 2
        assert "symmetric" in capsys.readouterr().err

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_matrix_file_lu_solves_the_whole_matrix(
        self, tmp_path, capsys, monkeypatch, symmetric
    ):
        """``--lu`` factors every entry of the file, so the solution satisfies
        the file's system, not its lower triangle's."""
        path = tmp_path / "m.mtx"
        if symmetric:
            a = full_symmetric_from_lower(grid2d_laplacian(4))
            write_matrix_market(path, csc_to_coo(tril(a)), symmetric=True)
        else:
            a = convection_diffusion2d(4)
            write_matrix_market(path, csc_to_coo(a))
        rc, x = self._lu_solution(monkeypatch, path)
        assert rc == 0
        dense = a.to_dense()
        b = np.ones(a.shape[0])
        assert np.linalg.norm(dense @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_negative_size_line_exits_2(self, tmp_path, capsys):
        path = tmp_path / "neg.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 -1\n")
        assert main(["solve", "--matrix", str(path)]) == 2
        assert "non-negative" in capsys.readouterr().err

    def test_missing_file_error(self, capsys):
        rc = main(["info", "--matrix", "/nonexistent.mtx"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_mesh_error(self, capsys):
        rc = main(["info", "--mesh", "nope:3"])
        assert rc == 2


class TestServeSim:
    def test_serve_sim_default(self, capsys):
        rc = main(["serve-sim", "--steps", "6", "--new-patterns", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "analysis cache" in out and "jobs/s" in out

    def test_serve_sim_no_cache(self, capsys):
        rc = main(
            ["serve-sim", "--steps", "4", "--new-patterns", "0", "--no-cache"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "cache off" in out and "analysis cache" not in out


class TestLUCli:
    def test_convdiff_auto_lu(self, capsys):
        assert main(["solve", "--mesh", "convdiff:6"]) == 0
        assert "solver=lu" in capsys.readouterr().out

    def test_explicit_lu_flag(self, capsys):
        assert main(["solve", "--mesh", "plate:5", "--lu"]) == 0
        assert "solver=lu" in capsys.readouterr().out

    def test_lu_on_symmetric_mesh_solves_its_full_operator(self):
        # LU factors the matrix as given, so a symmetric mesh must reach it
        # as the whole operator, not as its lower triangle.
        class A:
            matrix = None
            mesh = "plate:5"

        a = build_matrix(A())
        dense = full_symmetric_from_lower(grid2d_laplacian(5)).to_dense()
        np.testing.assert_array_equal(a.to_dense(), dense)
        b = np.ones(a.shape[0])
        x = SparseSolver(a, method="lu").solve(b).x
        np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-12)

    def test_lu_no_refine(self, capsys):
        assert main(["solve", "--mesh", "convdiff:5", "--no-refine"]) == 0

    def test_lu_backend_and_precision(self, capsys):
        argv = ["solve", "--mesh", "convdiff:6", "--backend", "threads", "--workers", "2"]
        assert main(argv + ["--precision", "fp32"]) == 0
        out = capsys.readouterr().out
        assert "solver=lu" in out and "precision=fp32" in out

    def test_lu_condest_is_a_typed_error(self, capsys):
        assert main(["solve", "--mesh", "convdiff:5", "--lu", "--condest"]) == 2
        assert "condition_estimate is not available for method='lu'" in (
            capsys.readouterr().err
        )
