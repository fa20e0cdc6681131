"""Gaussian sketches, randomized SVD/EVD, and the B-weighted range finder.

The B = I randomized EVD is a GHEP solver on the pencil (A, I): ``evd`` runs
one on (A, ``sketch._identity(n)``).  The plain randomized SVD is the GSVD
at S = T = I: ``svd`` runs it so."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import randghep as rg
from randghep import errors, ghep
from randghep.operators import ConfigError
from randghep.sketch import SketchConfig, _identity

from conftest import make_kle_mass, make_kle_pencil


def evd(A, cfg, mode="two_pass"):
    """(U, eigenvalues) of the ``mode`` solver on the pencil (A, I)."""
    sol = ghep.solver_method(mode)(A, _identity(A.dim_in), cfg)
    return sol.U, sol.eigenvalues


def svd(A, cfg):
    """(U, sigma, V) of the GSVD of A at the identity weights."""
    res = rg.randomized_gsvd(A, _identity(A.dim_out), _identity(A.dim_in), cfg)
    return res.U, res.sigma, res.V


#: The shapes whose bits are pinned: (n, r, seed, first_col); one has odd n.
PINNED_SHAPES = ((1000, 10, 7, 0), (1001, 3, 123456789, 0), (257, 4, 2**63 - 5, 5))

#: SHA-256 of ``gaussian_matrix(n, r, seed, first_col).tobytes()`` for each of
#: PINNED_SHAPES, keyed by the SIMD target that NumPy dispatches its float64
#: log, cos and sin to.  The AVX-512 kernels round 16 of the 10 000 entries of
#: the first shape differently (by at most 2 ulp), so each target has its own
#: pins.  Measured with NumPy 2.4.
GENERATOR_PINS = {
    "X86_V4": (
        "7a9d85ddb675cb8fb7aaffdd82772310498cb7ba7d358612afd11435a94c7fe3",
        "99a55bb9391270e2d02f82b87387646e51dc26be31eff2f14c6e4747218a6387",
        "225d694d686292cf44cac05bebfc6d67bacf27bfba4633645986b00cc241bac1",
    ),
}
GENERATOR_PINS["X86_V3"] = GENERATOR_PINS["baseline(X86_V2)"] = (
    "0cb6f5dc93c2143869bd85a113aebcf3fea47b86abc4056af8bfcea5d08b6eb0",
    "82794a7eaf6f2568662aea457a974d5deab4c82d82f85fd2bfb8aa9befe55e1b",
    "225d694d686292cf44cac05bebfc6d67bacf27bfba4633645986b00cc241bac1",
)

_PIN_PROBE = """
import hashlib, json
from numpy.lib.introspect import opt_func_info
from randghep.sketch import GENERATOR_ID, gaussian_matrix

def probe():
    info = opt_func_info(func_name="^(log|cos|sin)$", signature="float64")
    target = "/".join(sorted({kernel["dd"]["current"] for kernel in info.values()}))
    hashes = [hashlib.sha256(gaussian_matrix(n, r, seed, first_col=c).tobytes()).hexdigest()
              for n, r, seed, c in %r]
    return {"id": GENERATOR_ID, "target": target, "hashes": hashes}

if __name__ == "__main__":
    print(json.dumps(probe()))
""" % (PINNED_SHAPES,)


def _pin_probe(env=None):
    """GENERATOR_ID, the dispatch target and the pinned shapes' hashes, in this
    process (``env`` None) or in a child with ``env`` added to its environment."""
    pytest.importorskip("numpy.lib.introspect")
    if env is None:
        scope = {"__name__": "pin_probe"}
        exec(_PIN_PROBE, scope)
        return scope["probe"]()
    src = str(Path(rg.__file__).resolve().parents[1])
    child_env = dict(os.environ, **env, PYTHONWARNINGS="error")
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, child_env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _PIN_PROBE], env=child_env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestGeneratorPins:
    """GENERATOR_ID names bits: pinned hashes, in this process and in children
    with two BLAS threads or another SIMD target."""

    @staticmethod
    def _check(probe):
        assert probe["id"] == "philox4x64-boxmuller/v1"
        if probe["target"] not in GENERATOR_PINS:
            pytest.skip(f"no pins for the SIMD target {probe['target']}")
        assert probe["hashes"] == list(GENERATOR_PINS[probe["target"]])

    def test_in_process(self):
        self._check(_pin_probe())

    def test_child_with_two_threads(self):
        probe = _pin_probe({"RANDGHEP_THREADS": "2"})
        assert probe["target"] == _pin_probe()["target"]
        self._check(probe)

    def test_child_on_the_avx2_kernels(self):
        if _pin_probe()["target"] != "X86_V4":
            pytest.skip("the AVX-512 kernels are not dispatched here")
        probe = _pin_probe({"RANDGHEP_THREADS": "2",
                            "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"})
        assert probe["target"] == "X86_V3"
        self._check(probe)


class TestGaussianMatrix:
    def test_deterministic(self):
        a = rg.gaussian_matrix(40, 9, seed=123)
        b = rg.gaussian_matrix(40, 9, seed=123)
        assert np.array_equal(a, b)

    def test_column_major(self):
        # each column is one contiguous stream; the values do not depend on it
        G = rg.gaussian_matrix(40, 9, seed=123)
        assert G.flags.f_contiguous and not G.flags.c_contiguous

    def test_seeds_differ(self):
        a = rg.gaussian_matrix(40, 9, seed=1)
        b = rg.gaussian_matrix(40, 9, seed=2)
        assert np.abs(a - b).max() > 0.0

    def test_moments(self):
        G = rg.gaussian_matrix(1000, 1000, seed=5)
        assert abs(G.mean()) <= 0.005
        assert abs(G.var() - 1.0) <= 0.01

    def test_column_streams_extend_bitwise(self):
        full = rg.gaussian_matrix(33, 10, seed=9)
        left = rg.gaussian_matrix(33, 6, seed=9)
        right = rg.gaussian_matrix(33, 4, seed=9, first_col=6)
        assert np.array_equal(np.hstack([left, right]), full)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 40),
        widths=st.lists(st.integers(1, 6), min_size=1, max_size=5),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_any_column_split_is_bitwise_equal(self, n, widths, seed):
        # sketch growth relies on this: blocks drawn at any first_col offsets
        # reassemble the one-shot matrix exactly
        full = rg.gaussian_matrix(n, sum(widths), seed=seed)
        starts = np.cumsum([0] + widths[:-1])
        parts = [rg.gaussian_matrix(n, w, seed=seed, first_col=int(c)) for c, w in zip(starts, widths)]
        assert np.array_equal(np.hstack(parts), full)

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            rg.gaussian_matrix(0, 3, seed=1)


class TestSketchConfig:
    def test_defaults(self):
        cfg = SketchConfig(k=5, seed=3)
        assert cfg.p == 20 and cfg.r == 25

    def test_validation(self):
        with pytest.raises(ConfigError):
            SketchConfig(k=0)
        with pytest.raises(ConfigError):
            SketchConfig(k=1, p=-1)


class TestRandomizedSvd:
    def test_exact_rank_within_sketch(self):
        A = rg.dense_operator(np.diag([5.0, 3.0, 1.0, 0.0, 0.0]))
        _, sig, _ = svd(A, SketchConfig(k=3, p=2, seed=1))
        np.testing.assert_allclose(sig, [5.0, 3.0, 1.0], atol=1e-12)

    def test_constructed_low_rank(self):
        rng = np.random.default_rng(4)
        L = rng.standard_normal((20, 4))
        Rm = rng.standard_normal((4, 15))
        Ad = L @ Rm
        U, sig, V = svd(rg.dense_operator(Ad), SketchConfig(k=4, p=4, seed=2))
        err = np.linalg.norm(Ad - (U * sig) @ V.T, 2)
        assert err <= 1e-11 * np.linalg.norm(Ad, 2)

    def test_rank_deficient_sketch_returns_one_value_per_kept_column(self):
        # A = L R has rank 3 and only its first three rows nonzero, so the
        # sketch A*Omega does too: the Householder QR projects its dependent
        # columns to true zeros, the block QR drops them, and the SVD returns
        # 3 values, not k = 5 with two at roundoff.  (A generic rank-3 sketch
        # can keep a roundoff column: the QR's per-column threshold is
        # ROADMAP item 4.)
        rng = np.random.default_rng(8)
        L = np.zeros((30, 3))
        L[:3] = rng.standard_normal((3, 3))
        Ad = L @ rng.standard_normal((3, 20))
        U, sig, V = svd(rg.dense_operator(Ad), SketchConfig(k=5, p=2, seed=3))
        assert sig.size == 3
        assert U.shape == (30, 3) and V.shape == (20, 3)
        np.testing.assert_allclose(U.T @ U, np.eye(3), atol=1e-14)
        err = np.linalg.norm(Ad - (U * sig) @ V.T, 2)
        assert err <= 1e-11 * np.linalg.norm(Ad, 2)

    def test_full_rank_near_optimal(self):
        # Eckart-Young reference from a dense SVD; randomized error within 10x
        rng = np.random.default_rng(10)
        Ad = rng.standard_normal((40, 30)) * np.logspace(0, -3, 30)
        ref = np.linalg.svd(Ad, compute_uv=False)
        k = 6
        worst = 0.0
        for seed in range(20):
            U, sig, V = svd(rg.dense_operator(Ad), SketchConfig(k=k, p=6, seed=seed))
            err = np.linalg.norm(Ad - (U * sig) @ V.T, 2)
            worst = max(worst, err / ref[k])
        assert worst <= 10.0

    def test_oversized_sketch_rejected(self):
        with pytest.raises(ConfigError):
            svd(rg.dense_operator(np.eye(4)), SketchConfig(k=4, p=2, seed=0))


class TestRandomizedEvd:
    def test_identity(self):
        U, lam = evd(rg.dense_operator(np.eye(6)), SketchConfig(k=2, p=2, seed=3))
        np.testing.assert_allclose(lam, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(U.T @ U, np.eye(2), atol=1e-12)

    def test_two_pass_exact_rank(self):
        A = rg.dense_operator(np.diag([4.0, 2.0, 1.0] + [0.0] * 7))
        _, lam = evd(A, SketchConfig(k=3, p=3, seed=5), mode="two_pass")
        np.testing.assert_allclose(lam, [4.0, 2.0, 1.0], atol=1e-12)

    def test_single_pass_usually_worse(self):
        # paired-seed comparison on a spectrum with a slow tail
        d = np.concatenate([[4.0, 2.0, 1.0], 0.3 * np.geomspace(1, 1e-2, 9)])
        Ad = np.diag(d)
        A = rg.dense_operator(Ad)
        wins = 0
        for seed in range(50):
            _, lam2 = evd(A, SketchConfig(k=3, p=3, seed=seed), mode="two_pass")
            _, lam1 = evd(A, SketchConfig(k=3, p=3, seed=seed), mode="single_pass")
            e2 = np.abs(lam2 - d[:3]).max()
            e1 = np.abs(lam1 - d[:3]).max()
            wins += e1 >= e2
        assert wins >= 40

    @pytest.mark.parametrize("mode", ["two_pass", "single_pass"])
    def test_indefinite_operator_sorted_by_value(self, mode):
        # -5 leads in magnitude, but eigenvalues are ranked by value
        A = rg.dense_operator(np.diag([-5.0, 3.0, 1.0, 0.1, 0.0, 0.0]))
        _, lam = evd(A, SketchConfig(k=2, p=3, seed=2), mode=mode)
        np.testing.assert_allclose(lam, [3.0, 1.0], atol=1e-11)

    @pytest.mark.parametrize("mode", ["two_pass", "single_pass"])
    def test_asymmetric_operator_rejected(self, mode):
        A = rg.dense_operator(np.random.default_rng(6).standard_normal((30, 30)))
        with pytest.raises(ConfigError, match="symmetry"):
            evd(A, SketchConfig(k=3, p=2, seed=1), mode=mode)


class TestRangeFinderB:
    def test_identity_weight_reduces_to_plain_range(self):
        rng = np.random.default_rng(12)
        Ad = rng.standard_normal((30, 30))
        Ad = (Ad + Ad.T) / 2.0
        A = rg.dense_operator(Ad)
        B = rg.dense_spd(np.eye(30))
        cfg = SketchConfig(k=5, p=3, seed=21)
        res = rg.range_finder_b(A, B, cfg)
        # same seed, same sketch as the plain algorithm's range step
        Omega = rg.gaussian_matrix(30, cfg.r, cfg.seed)
        np.testing.assert_array_equal(res.Omega, Omega)
        np.testing.assert_allclose(res.Ybar, Ad @ Omega, atol=1e-12)
        Qref, _ = np.linalg.qr(Ad @ Omega)
        P1 = res.basis.Q @ res.basis.Q.T
        P2 = Qref @ Qref.T
        assert np.linalg.norm(P1 - P2, 2) <= 1e-11

    def test_matvec_budget(self):
        pencil = make_kle_pencil(0.5)
        cfg = SketchConfig(k=10, p=5, seed=1)
        res = rg.range_finder_b(pencil.A, pencil.B, cfg)
        assert pencil.A.matvec_count == cfg.r
        assert pencil.B.solve_count == cfg.r
        base_b = pencil.B.matvec_count - res.basis.n_reorth_applies
        assert base_b == cfg.r

    def test_rank_deficient_sketch_flags_columns(self):
        # pencil built so Y = B^{-1}A*Omega has exactly three nonzero rows:
        # the dependent columns project to true zeros and must be flagged
        n, r = 24, 7
        K = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 0.5], [0.0, 0.5, 2.0]])
        Ad = np.zeros((n, n))
        Ad[:3, :3] = 2.0 * K
        d = np.full(n, 1.5)
        d[:3] = 2.0
        Bd = np.diag(d)
        res = rg.range_finder_b(
            rg.dense_operator(Ad), rg.dense_spd(Bd), SketchConfig(k=4, p=3, seed=6)
        )
        assert res.basis.n_kept == 3
        assert int((~res.basis.rank_flags).sum()) == r - 3

    def test_projection_operator_properties(self):
        pencil = make_kle_pencil(0.5)
        res = rg.range_finder_b(pencil.A, pencil.B, SketchConfig(k=10, p=5, seed=4))
        Q = res.basis.Q
        Bd = make_kle_mass()
        P = Q @ (Q.T @ Bd)
        assert np.linalg.norm(P @ P - P, 2) <= 1e-10
        assert abs(errors.b_norm(P, pencil.B) - 1.0) <= 1e-10

    def test_qr_alg_selection(self):
        # the range finder's one weighted QR is the block path: B-orthonormal Q
        pencil = make_kle_pencil(0.5)
        res = rg.range_finder_b(pencil.A, pencil.B, SketchConfig(k=6, p=2, seed=9))
        m = rg.qr_metrics(pencil.B.apply_inverse(res.Ybar), res.basis, pencil.B)
        assert m[1] <= 1e-12
        assert res.basis.n_reorth_applies == 0
