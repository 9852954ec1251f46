"""Kernel evaluation, Mittag-Leffler accuracy, convolution and resolvents."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

import volterra_merton
from volterra_merton.kernels import (
    BLOCK,
    HistorySums,
    Kernel,
    LagWeights,
    SampledFunction,
    TimeGrid,
    causal_sums,
    convolve,
    first_kind_residual,
    kernel_weights,
    mittag_leffler,
    mittag_leffler_array,
    resolvent_first_kind,
    resolvent_second_kind,
    second_kind_residual,
)

# Lanczos approximation (g = 7, n = 9), kept as an oracle independent of scipy
_LANCZOS = [
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
]


def gamma_lanczos(x: float) -> float:
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * gamma_lanczos(1.0 - x))
    x -= 1.0
    acc = _LANCZOS[0]
    for i, coef in enumerate(_LANCZOS[1:], start=1):
        acc += coef / (x + i)
    t = x + 7.5
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * acc


def ml_series_oracle(alpha: float, beta: float, z: float, n_terms: int = 200):
    """High-precision truncated series with an explicit remainder bound."""
    import mpmath as mp

    with mp.workdps(80):
        total = mp.mpf(0)
        zm = mp.mpf(z)
        for k in range(n_terms):
            total += zm**k / mp.gamma(alpha * k + beta)
        tail = abs(zm) ** n_terms / mp.gamma(alpha * n_terms + beta)
        # terms decay at least geometrically once alpha*k+beta >> |z|
        bound = tail / (1 - abs(zm) / (alpha * n_terms + beta))
        return float(total), float(bound)


def ml_oracle(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) in mpmath, by routes the package does not take.

    |z| <= 2, and every z at alpha = 1: the Taylor series at 60 digits plus
    the digits its terms lose to cancellation.  Otherwise: a 30-digit
    quadrature of the integral representation in chi = u^alpha (Gorenflo,
    Loutchko & Luchko 2002), plus the residue term for z > 0, after reducing
    beta > 1 by E(a,b)(z) = (E(a,b-a)(z) - 1/Gamma(b-a)) / z.  Values beyond
    float64 come back as +-inf.
    """
    import mpmath as mp

    if abs(z) <= 2.0 or alpha == 1.0:
        ks = np.arange(4000)
        logterm = ks * math.log(max(abs(z), 1e-300)) - gammaln(alpha * ks + beta)
        lost = max(0, int(np.max(logterm) / math.log(10.0)))
        n_terms = int(np.nonzero((ks > np.argmax(logterm)) & (logterm < -45 * math.log(10.0)))[0][0])
        with mp.workdps(60 + lost):
            a, b, zm = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
            return float(mp.fsum(zm**k * mp.rgamma(a * k + b) for k in range(n_terms)))
    with mp.workdps(30):
        a, b, zm = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        reductions = []
        while b > 1:
            reductions.append(b)
            b -= a
        sb, sba, ca = mp.sinpi(1 - b), mp.sinpi(1 - b + a), mp.cospi(a)
        p, q = (1 - b) / a, 1 / a
        residue = 0
        if z > 0:
            residue = zm**p * mp.exp(zm**q) / a
            if residue > mp.mpf("1e310") * zm ** len(reductions):
                return math.inf  # the integral part is a few units at most

        def density(x):
            logx = mp.log(x)
            return mp.exp(p * logx - mp.exp(q * logx)) * (x * sb - zm * sba) / (x * x - 2 * x * zm * ca + zm * zm)

        points = sorted({mp.mpf(0), mp.mpf(1), abs(zm * ca)}) + [mp.inf]
        val = mp.quad(density, points) / (mp.pi * a) + residue
        for b_orig in reversed(reductions):
            val = (val - mp.rgamma(b_orig - a)) / zm
        return float(val)


ML_GRID = [(a, b) for a in (0.2, 0.3, 0.5, 0.7, 0.9, 0.99) for b in sorted({a, 1.0, 1.7})]
ML_GRID += [(1.0, b) for b in (0.3, 0.9, 1.0, 1.7, 2.5)]
# the quadrature oracle takes -50, -2.74 and 5 (where E_{0.2,b} overflows)
ML_Z = (-50.0, -2.74, -2.0, -0.9, 0.0, 0.6, 1.8, 5.0)


class TestKernelEval:
    def test_constant(self):
        assert Kernel.constant(2.0)(5.0) == 2.0

    def test_fractional_alpha_one(self):
        assert Kernel.fractional(1.0, 1.0)(3.0) == pytest.approx(1.0, abs=1e-15)

    def test_fractional_against_lanczos_gamma(self):
        k = Kernel.fractional(1.0, 0.6)
        expected = 0.25 ** (-0.4) / gamma_lanczos(0.6)
        assert k(0.25) == pytest.approx(expected, rel=1e-12)

    def test_gamma_family(self):
        k = Kernel.gamma(2.0, 1.5, 0.7)
        t = 0.8
        expected = 2.0 * math.exp(-1.5 * t) * t ** (-0.3) / gamma_lanczos(0.7)
        assert k(t) == pytest.approx(expected, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            Kernel.constant(1.0)(-0.1)
        with pytest.raises(ValueError):
            Kernel.fractional(1.0, 0.6)(0.0)
        # bounded kernels are fine at zero
        assert Kernel.exponential(1.0, 2.0)(0.0) == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Kernel.constant(0.0)
        with pytest.raises(ValueError):
            Kernel.fractional(1.0, 1.3)
        with pytest.raises(ValueError):
            Kernel.exponential(1.0, -0.5)


class TestKernelWeights:
    def test_constant_cells(self):
        grid = TimeGrid(1.0, 10)
        w = kernel_weights(Kernel.constant(1.0), grid)
        assert np.allclose(w.cell, 0.1, rtol=0, atol=1e-15)

    def test_fractional_first_cell(self):
        grid = TimeGrid(1.0, 100)
        w = kernel_weights(Kernel.fractional(1.0, 0.5), grid)
        assert w.cell[0] == pytest.approx(0.01**0.5 / gamma_lanczos(1.5), rel=1e-12)

    def test_cell_sum_against_adaptive_quadrature(self):
        grid = TimeGrid(1.0, 64)
        k = Kernel.fractional(1.0, 0.6)
        total = kernel_weights(k, grid).total
        oracle, err = quad(lambda u: u ** (-0.4) / gamma_lanczos(0.6), 0.0, 1.0,
                           epsabs=1e-13, limit=200)
        assert total == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize(
        "kernel",
        [
            Kernel.constant(2.0),
            Kernel.fractional(1.5, 0.6),
            Kernel.exponential(1.0, 2.0),
            Kernel.gamma(0.5, 1.0, 0.8),
        ],
    )
    def test_cell_sum_matches_total_integral(self, kernel):
        grid = TimeGrid(2.0, 333)
        w = kernel_weights(kernel, grid)
        assert w.total == pytest.approx(kernel.integral(0.0, 2.0), rel=1e-12)

    def test_constant_corrector_is_trapezoid(self):
        grid = TimeGrid(1.0, 20)
        w = kernel_weights(Kernel.constant(1.0), grid)
        assert np.allclose(w.corrector[1:], 0.5 * grid.dt)


class TestMittagLeffler:
    def test_exp_point(self):
        assert mittag_leffler(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-14)

    def test_leading_term_at_zero(self):
        assert mittag_leffler(0.5, 0.5, 0.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)

    def test_against_series_oracle(self):
        got = mittag_leffler(0.7, 0.7, -3.0)
        oracle, bound = ml_series_oracle(0.7, 0.7, -3.0)
        assert bound < 1e-30
        assert got == pytest.approx(oracle, rel=1e-11)

    @pytest.mark.parametrize("z", np.linspace(-20.0, 5.0, 11).tolist())
    def test_exp_consistency(self, z):
        assert mittag_leffler(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-10)

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.7), (0.55, 1.0), (0.9, 0.9), (1.0, 2.3)])
    def test_value_at_zero(self, alpha, beta):
        assert mittag_leffler(alpha, beta, 0.0) == pytest.approx(1.0 / gamma_lanczos(beta), rel=1e-12)

    @pytest.mark.parametrize("x", [0.5, 2.0, 4.0, 8.0, 15.0, 30.0, 45.0])
    def test_erfcx_identity(self, x):
        # E_{1/2,1}(-x) = exp(x^2) erfc(x), an oracle independent of the series;
        # x > 10 exercises the spectral-integral branch
        from scipy.special import erfcx

        assert mittag_leffler(0.5, 1.0, -x) == pytest.approx(float(erfcx(x)), rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.55, 0.75, 0.95])
    def test_deep_negative_against_asymptotic(self, alpha):
        # optimal truncation of -sum z^-k / Gamma(1 - alpha k); beta = 1 keeps
        # the expansion pole-free long enough for a rigorous bound
        from scipy.special import rgamma

        z = -45.0
        total, prev, k = 0.0, math.inf, 1
        while True:
            term = -((1.0 / z) ** k) * float(rgamma(1.0 - alpha * k))
            if abs(term) > prev or k > 300:
                bound = abs(term)
                break
            total += term
            prev = abs(term) if term != 0.0 else prev
            k += 1
        got = mittag_leffler(alpha, 1.0, z)
        assert abs(got - total) <= max(bound, 1e-11 * abs(total))

    @pytest.mark.parametrize("z", [-30.0, -15.0, -8.0, -1.0, 2.0])
    def test_alpha_one_closed_forms(self, z):
        # E_{1,2}(z) = (e^z - 1)/z and E_{1,3}(z) = (e^z - 1 - z)/z^2 cover the
        # high-precision branch for alpha = 1 with beta != 1
        assert mittag_leffler(1.0, 2.0, z) == pytest.approx(math.expm1(z) / z, rel=1e-10)
        assert mittag_leffler(1.0, 3.0, z) == pytest.approx(
            (math.expm1(z) - z) / z**2, rel=1e-10
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mittag_leffler(1.2, 1.0, 0.5)
        with pytest.raises(ValueError):
            mittag_leffler(0.5, 0.0, 0.5)
        with pytest.raises(ValueError):
            mittag_leffler(0.5, 0.5, math.nan)

    def test_array_path_matches_scalar(self):
        # each element takes its own route: the second array straddles the
        # Horner radius |z| = 1 on both signs
        for z in (-np.linspace(0.0, 2.0, 17), np.linspace(-3.0, 3.0, 25)):
            arr = mittag_leffler_array(0.6, 0.6, z)
            ref = np.array([mittag_leffler(0.6, 0.6, float(v)) for v in z])
            assert np.array_equal(arr, ref)

    @pytest.mark.parametrize(
        "alpha,beta,z",
        [(1.0, 0.3, -50.0), (1.0, 0.9, -50.0), (0.3, 0.3, 5.0), (0.2, 1.0, 3.0)],
    )
    def test_formerly_wrong_values(self, alpha, beta, z):
        # once 4.762e5, -1.078e6, 1.146e-2 and -0.380: a float-argument mpmath
        # series for alpha = 1, and a z < 0 integral taken at z > 0
        assert mittag_leffler(alpha, beta, z) == pytest.approx(ml_oracle(alpha, beta, z), rel=1e-10)

    @pytest.mark.parametrize("alpha,beta", ML_GRID)
    def test_against_mpmath_oracle(self, alpha, beta):
        got = mittag_leffler_array(alpha, beta, np.array(ML_Z))
        for z, value in zip(ML_Z, got):
            want = ml_oracle(alpha, beta, z)
            if math.isinf(want):
                assert value == want, f"E({alpha}, {beta})({z}) = {value!r}, expected {want}"
            else:
                assert abs(value - want) <= 1e-10 * abs(want), f"E({alpha}, {beta})({z}) = {value!r}, expected {want!r}"

    def test_import_loads_neither_quadrature_nor_mpmath(self):
        src = str(Path(volterra_merton.__file__).resolve().parents[1])
        code = "import sys, volterra_merton; print([m for m in sys.modules if m == 'mpmath' or m.startswith('scipy.integrate')])"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "[]"


class TestSecondKindResolvent:
    def test_constant_row(self):
        grid = TimeGrid(1.0, 100)
        r = resolvent_second_kind(Kernel.constant(1.0), grid)
        assert r.values[-1] == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_exponential_row(self):
        grid = TimeGrid(1.0, 100)
        r = resolvent_second_kind(Kernel.exponential(1.0, 2.0), grid)
        assert r.values[-1] == pytest.approx(math.exp(-3.0), rel=1e-12)

    def test_fractional_alpha_one_matches_constant(self):
        grid = TimeGrid(1.0, 64)
        rf = resolvent_second_kind(Kernel.fractional(1.0, 1.0), grid)
        rc = resolvent_second_kind(Kernel.constant(1.0), grid)
        assert np.max(np.abs(rf.values - rc.values)) < 1e-8

    @pytest.mark.parametrize(
        "kernel",
        [
            Kernel.constant(1.0),
            Kernel.exponential(2.0, 1.0),
            Kernel.fractional(1.0, 0.75),
            Kernel.gamma(0.5, 1.0, 0.6),
        ],
    )
    def test_identity_on_grid(self, kernel):
        grid = TimeGrid(1.0, 2000)
        kmax = abs(kernel(grid.dt))
        assert second_kind_residual(kernel, grid) <= 1e-6 * kmax


class TestFirstKindResolvent:
    def test_constant_atom(self):
        res = resolvent_first_kind(Kernel.constant(4.0))
        assert res.atom == pytest.approx(0.25)
        assert res.density is None

    def test_exponential_atom_and_density(self):
        res = resolvent_first_kind(Kernel.exponential(2.0, 3.0))
        assert res.atom == pytest.approx(0.5)
        assert np.allclose(res.density_at(np.array([0.1, 1.0])), 1.5)

    def test_fractional_density(self):
        res = resolvent_first_kind(Kernel.fractional(1.0, 0.6))
        assert res.atom == 0.0
        t = np.array([0.5])
        assert res.density_at(t)[0] == pytest.approx(0.5 ** (-0.6) / gamma_lanczos(0.4), rel=1e-12)

    def test_fractional_alpha_one_degenerates_to_atom(self):
        res = resolvent_first_kind(Kernel.fractional(2.0, 1.0))
        assert res.atom == pytest.approx(0.5)
        assert res.density is None

    def test_gamma_density_matches_numerical_derivative(self):
        # the closed form carries out d/dt (t^-a/Gamma(1-a) * exp(lam .))
        c, lam, al = 1.5, 1.2, 0.65
        res = resolvent_first_kind(Kernel.gamma(c, lam, al))

        def convolved(t: float) -> float:
            val, _ = quad(
                lambda s: (t - s) ** (-al) / gamma_lanczos(1.0 - al) * math.exp(lam * s),
                0.0,
                t,
                epsabs=1e-13,
                limit=300,
            )
            return val

        for t in (0.3, 0.9):
            h = 1e-5
            numeric = math.exp(-lam * t) * (convolved(t + h) - convolved(t - h)) / (2 * h) / c
            assert res.density_at(np.array([t]))[0] == pytest.approx(numeric, rel=1e-5)

    @pytest.mark.parametrize(
        "kernel",
        [
            Kernel.constant(1.0),
            Kernel.exponential(2.0, 1.5),
            Kernel.fractional(1.0, 0.6),
            Kernel.gamma(1.0, 1.0, 0.8),
        ],
    )
    def test_identity_on_grid(self, kernel):
        grid = TimeGrid(1.0, 1000)
        assert first_kind_residual(kernel, grid) <= 1e-6


class TestConvolve:
    def test_constant_against_unit(self):
        grid = TimeGrid(2.0, 200)
        out = convolve(Kernel.constant(1.0), SampledFunction(grid, np.ones(201)), grid)
        assert out.values[-1] == pytest.approx(2.0, rel=1e-12)
        assert out.values[0] == 0.0

    def test_fractional_against_unit(self):
        grid = TimeGrid(1.0, 200)
        out = convolve(Kernel.fractional(1.0, 0.5), SampledFunction(grid, np.ones(201)), grid)
        assert out.values[-1] == pytest.approx(1.0 / gamma_lanczos(1.5), rel=1e-10)

    def test_first_kind_identity_via_convolve(self):
        grid = TimeGrid(1.0, 100)
        k = Kernel.constant(1.0)
        out = convolve(k, resolvent_first_kind(k), grid)
        assert np.max(np.abs(out.values[1:] - 1.0)) < 1e-10

    @given(scale=st.floats(-3.0, 3.0, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_bilinearity(self, scale):
        grid = TimeGrid(1.0, 50)
        rng = np.random.default_rng(5)
        g = SampledFunction(grid, rng.standard_normal(51))
        k = Kernel.fractional(1.0, 0.7)
        lhs = convolve(k, SampledFunction(grid, scale * g.values), grid).values
        rhs = scale * convolve(k, g, grid).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, abs(scale))

    def test_associativity(self):
        grid = TimeGrid(1.0, 1600)
        t = grid.nodes
        f = SampledFunction(grid, np.cos(t))
        g = SampledFunction(grid, 1.0 + 0.5 * np.sin(2 * t))
        k = Kernel.fractional(1.0, 0.7)
        inner = convolve(k, g, grid)
        lhs = convolve(f, inner, grid).values
        kf = convolve(k, f, grid)  # scalar kernels commute
        rhs = convolve(kf, g, grid).values
        assert np.max(np.abs(lhs - rhs)) < 1e-6

    def test_matrix_values(self):
        grid = TimeGrid(1.0, 60)
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        f = SampledFunction(grid, np.array([a * float(np.cos(t)) for t in grid.nodes]))
        g = SampledFunction(grid, np.array([np.eye(2) * float(1 + t) for t in grid.nodes]))
        out = convolve(f, g, grid)
        # each entry equals the scalar convolution
        ref = convolve(
            SampledFunction(grid, np.cos(grid.nodes)),
            SampledFunction(grid, 1.0 + grid.nodes),
            grid,
        ).values
        assert np.max(np.abs(out.values[:, 0, 1] - ref)) < 1e-12

    def test_shape_mismatch(self):
        grid = TimeGrid(1.0, 10)
        f = SampledFunction(grid, np.ones((11, 2, 2)))
        g = SampledFunction(grid, np.ones((11, 3, 3)))
        with pytest.raises(ValueError):
            convolve(f, g, grid)


class TestFractionalDegeneracy:
    """Fractional(c, alpha=1) must behave exactly like Constant(c)."""

    def test_eval_and_integrals(self):
        kf, kc = Kernel.fractional(2.0, 1.0), Kernel.constant(2.0)
        ts = np.linspace(0.1, 3.0, 7)
        assert np.allclose(kf(ts), kc(ts), rtol=1e-10)
        assert kf.integral(0.0, 1.5) == pytest.approx(kc.integral(0.0, 1.5), rel=1e-12)
        assert kf.first_moment(0.0, 1.5) == pytest.approx(kc.first_moment(0.0, 1.5), rel=1e-12)

    def test_weights_and_convolution(self):
        grid = TimeGrid(1.0, 64)
        wf = kernel_weights(Kernel.fractional(2.0, 1.0), grid)
        wc = kernel_weights(Kernel.constant(2.0), grid)
        assert np.allclose(wf.cell, wc.cell, rtol=1e-12)
        assert np.allclose(wf.corrector[1:], wc.corrector[1:], rtol=1e-12)
        g = SampledFunction(grid, np.exp(-grid.nodes))
        out_f = convolve(Kernel.fractional(2.0, 1.0), g, grid).values
        out_c = convolve(Kernel.constant(2.0), g, grid).values
        assert np.max(np.abs(out_f - out_c)) < 1e-10

    def test_resolvents(self):
        grid = TimeGrid(1.0, 64)
        rf = resolvent_second_kind(Kernel.fractional(2.0, 1.0), grid).values
        rc = resolvent_second_kind(Kernel.constant(2.0), grid).values
        assert np.max(np.abs(rf - rc)) < 1e-10


class TestHistorySums:
    """Blocked running sums against the sums over all past nodes."""

    @staticmethod
    def direct(lag, head, values, n):
        """Time-first reference: lag (N + 1, d), values (nodes, ..., d)."""
        row = lag[n:0:-1].copy()
        if head is not None:
            row[0] = head[n]
        return np.einsum("ji,j...i->...i", row, values[:n])

    @pytest.mark.parametrize("shape", [(2,), (3, 2)])
    def test_streamed_and_one_shot_sums_match_direct(self, shape):
        rng = np.random.default_rng(5)
        n_steps = 2 * BLOCK + 300
        lag = np.vstack([np.zeros((1, 2)), rng.uniform(0.5, 1.0, (n_steps, 2)) / np.arange(1, n_steps + 1)[:, None]])
        head = rng.uniform(0.0, 0.1, (n_steps + 1, 2))
        weights = LagWeights(np.ascontiguousarray(lag.T), head=np.ascontiguousarray(head.T))
        values = rng.normal(size=(n_steps + 1,) + shape)
        columns = np.ascontiguousarray(values.reshape(n_steps + 1, -1, 2).transpose(2, 0, 1))  # (d, nodes, width)
        sums = HistorySums(weights, columns)
        streamed = np.stack([sums(n) for n in range(1, n_steps + 1)], axis=1)
        want = np.array([self.direct(lag, head, values, n) for n in range(1, n_steps + 1)])
        want = want.reshape(n_steps, -1, 2).transpose(2, 0, 1)
        np.testing.assert_allclose(streamed, want, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(causal_sums(weights, columns), want, rtol=0.0, atol=1e-13)

