"""Tests for the dense matrix kernel."""

import ast
import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from degint import calogero, cli, matrixcore
from degint.errors import (
    ConsistencyError,
    FactorizationNotDefined,
    MatrixOverflowError,
    NearDegenerateSpectrum,
    NonFiniteMatrixError,
)
from degint.matrixcore import (
    ULPair,
    as_matrix,
    mat_exp,
    spectral,
    trace_words,
    traces_of_powers,
    ul_split_factorize,
)

RNG = np.random.default_rng(0)


def random_matrix(n, scale=0.3, shift=1.0):
    m = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    return shift * np.eye(n) + scale * m


class TestValidation:
    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            as_matrix(np.ones((2, 3)))

    def test_rejects_nan(self):
        m = np.eye(2)
        m[0, 1] = np.nan
        with pytest.raises(NonFiniteMatrixError):
            as_matrix(m)


class TestMatExp:
    def test_zero_matrix(self):
        assert np.allclose(mat_exp(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        got = mat_exp(np.diag([1.0, -1.0]))
        want = np.diag([np.e, 1.0 / np.e])
        assert np.abs(got - want).max() < 1e-13

    def test_nilpotent_series_terminates(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.abs(mat_exp(a) - np.array([[1, 1], [0, 1]])).max() < 1e-15

    def test_inverse_pairing(self):
        """exp(t a) exp(-t a) = 1 for random a and small t."""
        for _ in range(10):
            a = random_matrix(4, scale=1.0, shift=0.0)
            t = RNG.uniform(0.01, 0.5)
            prod = mat_exp(t * a) @ mat_exp(-t * a)
            assert np.abs(prod - np.eye(4)).max() < 1e-11

    def test_determinant_is_exp_trace(self):
        """det exp(a) = exp(tr a); keeps flows unimodular."""
        for _ in range(10):
            a = random_matrix(3, scale=1.0, shift=0.0)
            lhs = np.linalg.det(mat_exp(a))
            rhs = np.exp(np.trace(a))
            assert abs(lhs - rhs) < 1e-9 * abs(rhs)

    def test_accuracy_vs_spectral_oracle(self):
        """Build a = V D V^-1, compare exp(a) against V exp(D) V^-1."""
        for _ in range(5):
            d = RNG.normal(size=4) + 1j * RNG.normal(size=4)
            v = random_matrix(4, scale=0.4)
            a = v @ np.diag(d) @ np.linalg.inv(v)
            want = v @ np.diag(np.exp(d)) @ np.linalg.inv(v)
            got = mat_exp(a)
            assert np.abs(got - want).max() < 1e-12 * max(1.0, np.abs(want).max())

    def test_large_norm_within_contract(self):
        a = np.diag([10.0, -10.0])
        got = mat_exp(a)
        assert abs(got[0, 0] - np.exp(10.0)) < 1e-12 * np.exp(10.0)

    def test_extreme_norm_raises(self):
        with pytest.raises(MatrixOverflowError):
            mat_exp(1e4 * np.eye(2))


def ul_split_loop(m):
    """The UL splitting with the elimination written one row at a time: the
    oracle of ``ul_split_factorize``'s column elimination (the vanishing
    minor check left out)."""
    n = m.shape[0]
    lower = np.eye(n, dtype=complex)
    work = m[::-1, ::-1].astype(complex).copy()
    for k in range(n):
        pivot = work[k, k]
        for i in range(k + 1, n):
            f = work[i, k] / pivot
            lower[i, k] = f
            work[i, k:] -= f * work[k, k:]
    diag = np.diag(work).copy()
    d = np.sqrt(diag[::-1].astype(complex))
    return (lower[::-1, ::-1] * d[None, :],
            np.linalg.inv(d[:, None] * (work / diag[:, None])[::-1, ::-1]))


class TestULSplit:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_column_elimination_equals_the_row_loop_bitwise(self, n):
        rng = np.random.default_rng(40 + n)
        for scale in (0.1, 0.5, 2.0):
            for _ in range(20):
                m = np.eye(n) + scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                pair = ul_split_factorize(m)
                for got, want in zip((pair.g_plus, pair.g_minus), ul_split_loop(m)):
                    assert got.tobytes() == want.tobytes()

    def test_identity(self):
        pair = ul_split_factorize(np.eye(3))
        assert np.abs(pair.g_plus - np.eye(3)).max() < 1e-14
        assert np.abs(pair.g_minus - np.eye(3)).max() < 1e-14

    def test_diagonal_splits_by_square_root(self):
        pair = ul_split_factorize(np.diag([4.0, 0.25]))
        assert np.abs(np.diag(pair.g_plus) - [2.0, 0.5]).max() < 1e-14
        assert np.abs(np.diag(pair.g_minus) - [0.5, 2.0]).max() < 1e-14

    def test_reassembly_oracle(self):
        """g+ g-^{-1} must reproduce the input matrix."""
        for n in (2, 3, 5):
            for _ in range(10):
                m = random_matrix(n)
                pair = ul_split_factorize(m)
                res = np.abs(pair.g_plus @ np.linalg.inv(pair.g_minus) - m).max()
                assert res < 1e-11 * max(1.0, np.abs(m).max())

    def test_triangularity_and_reciprocal_diagonals(self):
        m = random_matrix(4)
        pair = ul_split_factorize(m)
        assert np.abs(np.tril(pair.g_plus, -1)).max() < 1e-12
        assert np.abs(np.triu(pair.g_minus, 1)).max() < 1e-12
        assert np.abs(np.diag(pair.g_plus) * np.diag(pair.g_minus) - 1).max() < 1e-12

    def test_vanishing_minor_raises(self):
        # trailing 1x1 minor is zero
        m = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(FactorizationNotDefined):
            ul_split_factorize(m)

    def test_pair_validates_triangularity(self):
        with pytest.raises(ConsistencyError, match="g_plus is not upper triangular"):
            ULPair(g_plus=np.array([[1.0, 0.0], [1.0, 1.0]]),
                   g_minus=np.eye(2))


class TestSpectral:
    def test_diagonal(self):
        w, v = spectral(np.diag([2.0, 3.0]))
        assert np.allclose(w, [2.0, 3.0])
        assert np.abs(v - np.eye(2)).max() < 1e-14

    def test_symmetric_flip(self):
        w, _ = spectral(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    def test_build_then_recover(self):
        for _ in range(5):
            d = np.sort(RNG.normal(size=4)) + 1j * RNG.normal(size=4) * 0.1
            v = random_matrix(4, scale=0.4)
            m = v @ np.diag(d) @ np.linalg.inv(v)
            w, vec = spectral(m)
            rebuilt = vec @ np.diag(w) @ np.linalg.inv(vec)
            assert np.abs(rebuilt - m).max() < 1e-9

    def test_ordering_deterministic(self):
        w, _ = spectral(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])

    def test_near_degenerate_raises(self):
        with pytest.raises(NearDegenerateSpectrum):
            spectral(np.diag([1.0, 1.0 + 1e-10]))


class TestTraces:
    def test_identity(self):
        assert np.allclose(traces_of_powers(np.eye(3), 2), [3.0, 3.0])

    def test_diag(self):
        assert np.allclose(traces_of_powers(np.diag([1.0, 2.0]), 3), [3.0, 5.0, 9.0])

    def test_against_spectral(self):
        m = random_matrix(4)
        w, _ = spectral(m)
        tr = traces_of_powers(m, 3)
        for k in range(1, 4):
            assert abs(tr[k - 1] - np.sum(w ** k)) < 1e-9 * max(1.0, abs(tr[k - 1]))


# ----------------------------------------------------------------------
# trace words: the stacked kernel against loop oracles
# ----------------------------------------------------------------------

def trace_words_loop(a, b, words):
    """The loop the kernel replaced: powers by repeated multiplication, then
    tr(a^i b^j a^k b^l) one word and one matrix at a time (the body of the
    former ``calogero.joint_invariants``, mapped over a stack)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    top = max([e for w in words for e in w], default=0)
    out = np.empty(a.shape[:-2] + (len(words),), dtype=complex)
    for idx in np.ndindex(a.shape[:-2]):
        pa = [np.eye(a.shape[-1], dtype=complex)]
        pb = [np.eye(a.shape[-1], dtype=complex)]
        for _ in range(top):
            pa.append(pa[-1] @ a[idx])
            pb.append(pb[-1] @ b[idx])
        for w, (i, j, k, l) in enumerate(words):
            out[idx + (w,)] = np.trace(pa[i] @ pb[j] @ pa[k] @ pb[l])
    return out


def traces_of_powers_oracle(m, kmax):
    """(tr m, ..., tr m^kmax) through numpy's binary powering."""
    return np.array([np.trace(np.linalg.matrix_power(m, k)) for k in range(1, kmax + 1)])


# words with zero exponents in every place, repeated and unsorted
MIXED_WORDS = [(0, 0, 0, 0), (0, 0, 0, 1), (2, 0, 0, 0), (0, 3, 0, 0), (1, 2, 0, 1),
               (3, 0, 2, 0), (0, 1, 1, 0), (2, 2, 2, 2), (0, 0, 0, 1), (1, 1, 0, 0)]


def relative_error(got, want):
    return np.abs(got - want).max() / max(1.0, np.abs(want).max())


class TestTraceWords:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_joint_invariants_match_the_loop_oracle(self, n):
        a, b = random_matrix(n), random_matrix(n)
        words = [w for w in np.ndindex(4, 4, 4, 4) if sum(w)]
        got = calogero.joint_invariants(a, b, max_exp=3)
        assert got.shape == (255,)
        assert relative_error(got, trace_words_loop(a, b, words)) < 1e-14

    @pytest.mark.parametrize("n", range(1, 9))
    def test_traces_of_powers_match_matrix_power(self, n):
        m = random_matrix(n)
        assert relative_error(traces_of_powers(m, 7), traces_of_powers_oracle(m, 7)) < 1e-14

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stacks_match_the_oracle_and_each_matrix_bit_for_bit(self, n):
        a = np.stack([random_matrix(n) for _ in range(6)]).reshape(2, 3, n, n)
        b = np.stack([random_matrix(n) for _ in range(6)]).reshape(2, 3, n, n)
        got = trace_words(a, b, MIXED_WORDS)
        assert got.shape == (2, 3, len(MIXED_WORDS))
        assert relative_error(got, trace_words_loop(a, b, MIXED_WORDS)) < 1e-14
        for idx in np.ndindex(2, 3):
            assert np.array_equal(got[idx], trace_words(a[idx], b[idx], MIXED_WORDS))

    def test_two_letter_words_are_the_trace_of_one_product_bit_for_bit(self):
        """Without a second half (k, l) the kernel multiplies nothing more,
        so tr(a^i b^j) is the trace of a^i b^j as a product chain forms it;
        the projection invariants of the flow scenarios rest on this."""
        a = np.stack([random_matrix(3) for _ in range(5)])
        b = np.stack([random_matrix(3) for _ in range(5)])
        for (i, j), want in [((1, 0), np.trace(a, axis1=1, axis2=2)),
                             ((2, 0), np.trace(a @ a, axis1=1, axis2=2)),
                             ((0, 2), np.trace(b @ b, axis1=1, axis2=2)),
                             ((1, 1), np.trace(a @ b, axis1=1, axis2=2)),
                             ((2, 1), np.trace(a @ a @ b, axis1=1, axis2=2))]:
            assert np.array_equal(trace_words(a, b, [(i, j, 0, 0)])[:, 0], want)

    def test_traces_of_powers_is_the_two_letter_route(self):
        m = random_matrix(4)
        want = [np.trace(m), np.trace(m @ m), np.trace(m @ m @ m)]
        assert np.array_equal(traces_of_powers(m, 3), want)

    def test_no_words_gives_an_empty_axis(self):
        assert trace_words(np.ones((3, 2, 2)), np.ones((3, 2, 2)), []).shape == (3, 0)

    @pytest.mark.parametrize("a,b,words", [
        (np.eye(2), np.eye(2), [(1, -1, 0, 0)]),
        (np.ones((2, 3)), np.ones((2, 3)), [(1, 0, 0, 0)]),
        (np.eye(2), np.eye(3), [(1, 0, 0, 0)]),
        (np.ones(2), np.ones(2), [(1, 0, 0, 0)]),
    ])
    def test_rejects_bad_input(self, a, b, words):
        with pytest.raises(ValueError):
            trace_words(a, b, words)


class TestOneTraceRoute:
    def test_matrix_power_only_in_matrixcore(self):
        """A new trace route would most likely reach for numpy's
        matrix_power: no module outside matrixcore reads it."""
        src = Path(matrixcore.__file__).parent
        found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
                 if path.name != "matrixcore.py" for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, (ast.Attribute, ast.Name))
                 and "matrix_power" in (getattr(node, "attr", None), getattr(node, "id", None))]
        assert found == []


def _kernel_sites():
    """Every (module, name) of a loaded degint module bound to the kernel."""
    return [(module, name) for key, module in sorted(sys.modules.items())
            if key == "degint" or key.startswith("degint.")
            for name, value in vars(module).items() if value is matrixcore.trace_words]


def _run(argv, tmp_path, tag):
    csv_path, json_path = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
    code = cli.main(argv + ["--seed", "0", "--out-csv", str(csv_path),
                            "--out-json", str(json_path)])
    with open(csv_path) as f:
        rows = list(csv.reader(f))
    return code, rows, json.loads(json_path.read_text())


class TestScenariosAgainstLoopOracle:
    """Each scenario that reads trace words, run as shipped and with the
    kernel swapped for the loop oracle at every binding site, reports the
    same flags and CSV values within 1e-13 relative."""

    @pytest.mark.parametrize("argv", [
        ["--scenario", "cm-rational"],
        ["--scenario", "duality-check"],
        ["--scenario", "relativistic-cm"],
        ["--scenario", "relativistic-ruijsenaars", "--n", "3", "--t-max", "0.2",
         "--dt", "1e-3", "--samples", "10"],
        ["--scenario", "factorization-flow"],
    ])
    def test_same_flags_and_values(self, argv, tmp_path, monkeypatch):
        code, rows, report = _run(argv, tmp_path, "kernel")
        sites = _kernel_sites()
        assert {module.__name__ for module, _ in sites} >= {
            "degint.matrixcore", "degint.poisson", "degint.double", "degint.calogero",
            "degint.cli"}
        for module, name in sites:
            monkeypatch.setattr(module, name, trace_words_loop)
        code_loop, rows_loop, report_loop = _run(argv, tmp_path, "loop")

        assert (code, report["flags"]) == (code_loop, report_loop["flags"])
        assert rows[0] == rows_loop[0] and len(rows) == len(rows_loop)
        for row, row_loop in zip(rows[1:], rows_loop[1:]):
            for cell, cell_loop in zip(row, row_loop):
                try:
                    value, value_loop = float(cell), float(cell_loop)
                except ValueError:
                    assert cell == cell_loop
                    continue
                assert abs(value - value_loop) <= 1e-13 * max(abs(value), abs(value_loop))
