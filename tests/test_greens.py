"""Mirror closed forms, half-space Sommerfeld integrals, derivatives.

Frozen expected values were computed independently at 50-digit
precision from the closed-form expressions; deviations of the finite-eps
half-space from the perfect-mirror limit were frozen from a QUADPACK
evaluation of the Fresnel integrals (they scale as 2 g(zt) / sqrt(eps),
a physical property of the finite surface impedance, not a quadrature
artifact).
"""

import mpmath as mp
import numpy as np
import pytest
from scipy.constants import c as C_LIGHT

from planarcp import greens, quadrature
from planarcp.quadrature import _Request
from planarcp import (
    GreenTrace,
    LorentzOscillator,
    MaterialResponse,
    PlanarGeometry,
    SlabScenario,
    d_dz_traces,
    force_decomposition,
    halfspace_green_traces,
    mirror_curlcurl_trace,
    mirror_green_components,
    mirror_trace_e,
    total_potential,
)

from conftest import ETA, W10, rel_diff, zt_to_z

# sin(1)/(4 pi) to 20 digits; Re G_xx(zt=1) = this * w / c
SIN1_OVER_4PI = 0.066962133350290946577

# components at w = i*xi with 2 xi z / c = 2, xi = 2.5e15 rad/s:
# G_xx = -7 xi e^-2/(32 pi c), G_zz = -3 xi e^-2/(16 pi c)
GXX_Y2 = -78582.98668873430708
GZZ_Y2 = -67356.84573320083464

# half-space deviation from the mirror limit at eps = 1e8 (frozen oracle)
MIRROR_LIMIT_DEVIATION = {0.1: 1.4831e-5, 1.0: 1.0806e-4, 10.0: 1.9542e-4}


def eps_halfspace(value):
    """Dispersionless eps on the imaginary axis is not reachable with a
    physical oscillator, so tests pin eps(i xi) at the probe frequency:
    strength s with resonance wr >> xi gives eps(i xi) ~= 1 + s."""
    return MaterialResponse("drude-lorentz", eps_oscillators=(
        LorentzOscillator(strength=value - 1.0, resonance=1e3 * W10,
                          damping=1e-6 * 1e3 * W10),
    ))


def readme_reflector(damping=1e14):
    """The Lorentz reflector of the README scenario (strength 1, resonance
    1e16 rad/s), its damping in rad/s.  At w10, eps = 2.07 + 0.0028 i for
    the README's 1e14 rad/s: the medium branch point of v1 lies 1.4e-3
    off the evanescent part of the real p axis, at b = 1.03, and less
    loss brings it closer."""
    return MaterialResponse("drude-lorentz", eps_oscillators=(
        LorentzOscillator(strength=1.0, resonance=1e16, damping=damping),
    ))


def plasmonic_reflector(damping=1e13):
    """A Lorentz reflector of strength 3 at 0.9 w10, its damping in rad/s.
    At w10, eps = -11.78 + 0.27 i for 1e13 rad/s: the surface-mode pole
    of r_p lies 3.8e-3 off the evanescent part of the real p axis, at
    b = 0.304, and each decade less loss brings it ten times closer."""
    return MaterialResponse("drude-lorentz", eps_oscillators=(
        LorentzOscillator(strength=3.0, resonance=0.9 * W10,
                          damping=damping),
    ))


class TestMirrorClosedForm:
    def test_re_gxx_at_unit_phase(self):
        z = zt_to_z(1.0)
        gxx, gyy, gzz = mirror_green_components(z, W10)
        assert gyy == gxx
        assert gxx.real == pytest.approx(SIN1_OVER_4PI * W10 / C_LIGHT,
                                         rel=1e-13)

    def test_small_distance_component_ratio(self):
        # G_zz/G_xx -> 2 with the quadratic correction 2 zt^2
        z = zt_to_z(1e-3)
        gxx, _, gzz = mirror_green_components(z, W10)
        ratio = gzz / gxx
        assert abs(ratio - 2.0) == pytest.approx(2e-6, rel=1e-2)

    def test_frozen_imaginary_axis_components(self):
        xi = W10
        z = C_LIGHT / xi  # y = 2 xi z / c = 2
        gxx, _, gzz = mirror_green_components(z, 1j * xi)
        assert gxx.imag == 0.0 and gzz.imag == 0.0
        assert gxx.real == pytest.approx(GXX_Y2, rel=1e-13)
        assert gzz.real == pytest.approx(GZZ_Y2, rel=1e-13)
        # signs fixed by the continued polynomials (1 + y + y^2), (1 + y)
        assert gxx.real < 0.0 and gzz.real < 0.0

    def test_reality_on_imaginary_axis_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            z = 10 ** rng.uniform(-9, -5)
            xi = 10 ** rng.uniform(12, 17)
            gxx, _, gzz = mirror_green_components(z, 1j * xi)
            assert gxx.imag == 0.0
            assert gzz.imag == 0.0

    def test_decay_at_large_distance(self):
        xi = W10
        vals = [abs(mirror_trace_e(zt_to_z(y), 1j * xi))
                for y in (1.0, 5.0, 20.0, 40.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-12 * vals[0]

    def test_near_field_cubed_divergence(self):
        zts = np.geomspace(1e-4, 1e-3, 15)
        traces = [abs(mirror_trace_e(zt_to_z(zt), 1j * W10)) for zt in zts]
        slope = np.polyfit(np.log(zts), np.log(traces), 1)[0]
        assert -3.01 <= slope <= -2.99

    def test_retarded_oscillation_zero_spacing(self):
        zts = np.arange(50.0, 80.0, 0.005)
        re_gxx = np.array([
            mirror_green_components(zt_to_z(zt), W10)[0].real
            for zt in zts])
        sign_flips = np.nonzero(re_gxx[:-1] * re_gxx[1:] < 0.0)[0]
        crossings = []
        for i in sign_flips:
            frac = re_gxx[i] / (re_gxx[i] - re_gxx[i + 1])
            crossings.append(zts[i] + frac * (zts[i + 1] - zts[i]))
        spacings = np.diff(crossings)
        assert len(spacings) >= 8
        assert abs(spacings[-1] / np.pi - 1.0) < 5e-3
        # spacing closes in on pi as zt grows
        assert abs(spacings[-1] - np.pi) <= abs(spacings[0] - np.pi)

    def test_curlcurl_sign_and_duality_construction(self):
        # positive on the imaginary axis: the mirror repels magnetic
        # dipoles; equals (w/c)^2 trace_e as analytic functions
        z = zt_to_z(1.0)
        tm = mirror_curlcurl_trace(z, 1j * W10)
        assert tm.imag == 0.0
        assert tm.real > 0.0
        te = mirror_trace_e(z, 1j * W10)
        assert tm.real == pytest.approx(-(W10 / C_LIGHT) ** 2 * te.real,
                                        rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            mirror_green_components(-1e-9, W10)
        with pytest.raises(ValueError):
            mirror_green_components(0.0, W10)
        with pytest.raises(ValueError):
            mirror_green_components(1e-9, 0.0)
        with pytest.raises(ValueError):
            mirror_green_components(1e-9, complex(W10, W10))
        with pytest.raises(ValueError):
            mirror_green_components(1e-9, -W10)


class TestHalfspace:
    def test_vacuum_is_structurally_zero(self, vacuum):
        geo = PlanarGeometry(vacuum, zt_to_z(1.0))
        tr = halfspace_green_traces(geo, 1j * W10)
        assert tr.trace_e == 0.0
        assert tr.trace_m == 0.0
        assert tr.err_e == tr.err_m == 0.0

    def test_perfect_mirror_models_use_closed_forms(self, pec, pmc):
        z = zt_to_z(0.7)
        tr_pec = halfspace_green_traces(PlanarGeometry(pec, z), 1j * W10)
        tr_pmc = halfspace_green_traces(PlanarGeometry(pmc, z), 1j * W10)
        assert tr_pec.trace_e == mirror_trace_e(z, 1j * W10)
        assert tr_pmc.trace_e == -tr_pec.trace_e
        assert tr_pmc.trace_m == -tr_pec.trace_m
        assert tr_pec.err_e == tr_pec.err_m == 0.0

    @pytest.mark.parametrize("y", [0.1, 1.0, 10.0])
    def test_mirror_limit_frozen_deviation(self, y):
        # at eps = 1e8 the physical deviation from the perfect mirror is
        # 2 g(y)/sqrt(eps); the frozen oracle values pin it to +-10%
        geo = PlanarGeometry(eps_halfspace(1e8), zt_to_z(y))
        tr = halfspace_green_traces(geo, 1j * W10, rel_tol=1e-9)
        closed = mirror_trace_e(zt_to_z(y), 1j * W10)
        rel = rel_diff(tr.trace_e, closed.real)
        assert rel == pytest.approx(MIRROR_LIMIT_DEVIATION[y], rel=0.1)

    def test_mirror_limit_reaches_1e4_at_larger_eps(self):
        # eps = 4e8 brings the deviation below 1e-4 at every probe zt
        for y in (0.1, 1.0, 10.0):
            geo = PlanarGeometry(eps_halfspace(4e8), zt_to_z(y))
            tr = halfspace_green_traces(geo, 1j * W10, rel_tol=1e-9)
            closed = mirror_trace_e(zt_to_z(y), 1j * W10)
            assert rel_diff(tr.trace_e, closed.real) < 1e-4

    def test_mirror_limit_monotone_convergence(self):
        z = zt_to_z(1.0)
        closed = mirror_trace_e(z, 1j * W10).real
        deviations = []
        for eps in (1e2, 1e4, 1e6, 1e8):
            geo = PlanarGeometry(eps_halfspace(eps), z)
            tr = halfspace_green_traces(geo, 1j * W10, rel_tol=1e-9)
            deviations.append(abs(tr.trace_e - closed))
        assert all(a > b for a, b in zip(deviations, deviations[1:]))

    def test_duality_swap_of_traces(self):
        # exchanging eps and mu maps trace_e <-> (c/xi)^2 trace_m on the
        # imaginary axis
        mat = MaterialResponse("drude-lorentz", eps_oscillators=(
            LorentzOscillator(2.0, 1.5 * W10, 0.3 * W10),
        ), mu_oscillators=(
            LorentzOscillator(0.5, 0.8 * W10, 0.2 * W10),
        ))
        xi = 0.9 * W10
        z = zt_to_z(1.3)
        tr = halfspace_green_traces(PlanarGeometry(mat, z), 1j * xi,
                                    rel_tol=1e-10)
        tr_dual = halfspace_green_traces(PlanarGeometry(mat.dual(), z),
                                         1j * xi, rel_tol=1e-10)
        assert tr_dual.trace_e == pytest.approx(
            (C_LIGHT / xi) ** 2 * tr.trace_m, rel=1e-8)
        assert tr_dual.trace_m == pytest.approx(
            (xi / C_LIGHT) ** 2 * tr.trace_e, rel=1e-8)

    def test_reality_on_imaginary_axis(self, lossy_halfspace):
        rng = np.random.default_rng(5)
        for _ in range(10):
            z = 10 ** rng.uniform(-8, -6)
            xi = 10 ** rng.uniform(14, 16)
            tr = halfspace_green_traces(PlanarGeometry(lossy_halfspace, z),
                                        1j * xi)
            assert np.imag(tr.trace_e) == 0.0
            assert np.imag(tr.trace_m) == 0.0

    def test_real_frequency_against_mirror_limit(self):
        # big lossy eps at the probe frequency approaches the mirror
        mat = MaterialResponse("drude-lorentz", eps_oscillators=(
            LorentzOscillator(strength=4e8, resonance=10 * W10,
                              damping=0.1 * W10),
        ))
        assert mat.epsilon(W10).imag > 0.0
        z = zt_to_z(1.0)
        tr = halfspace_green_traces(PlanarGeometry(mat, z), W10,
                                    rel_tol=1e-9)
        assert rel_diff(tr.trace_e, mirror_trace_e(z, W10)) < 1.5e-4
        assert rel_diff(tr.trace_m, mirror_curlcurl_trace(z, W10)) < 5e-4

    def test_real_frequency_needs_loss(self, vacuum):
        gain = MaterialResponse("drude-lorentz", eps_oscillators=(
            LorentzOscillator(0.5, W10, 0.05 * W10, amplifying=True),
        ))
        geo = PlanarGeometry(gain, zt_to_z(1.0))
        with pytest.raises(ValueError, match="lossy"):
            halfspace_green_traces(geo, W10)
        # on the imaginary axis the same reflector is fine
        tr = halfspace_green_traces(geo, 1j * W10)
        assert np.isfinite(tr.trace_e)

    def test_imaginary_axis_needs_positive_eps_and_mu(self):
        # strong gain makes eps(i xi) = 1 - 2 / (1 + 0.01 + 0.005) < 0 at
        # xi = 0.1 w10; the error names the medium at the call's one xi
        gain = MaterialResponse("drude-lorentz", eps_oscillators=(
            LorentzOscillator(2.0, W10, 0.05 * W10, amplifying=True),
        ))
        geo = PlanarGeometry(gain, zt_to_z(1.0))
        with pytest.raises(ValueError, match=r"must be positive; the "
                           r"oscillator model gave eps=-0\.97, mu=1 at "
                           r"xi=2\.5e\+14"):
            halfspace_green_traces(geo, 0.1j * W10,
                                   z_atom=zt_to_z(np.array([0.5, 1.0])))

    @pytest.mark.parametrize("eps_line, mu_line", [
        # eps = 1 - 10 i, mu = 1.66 + 0.044 i: gain in eps, Im eps mu < 0
        ((1.0, W10, 0.1 * W10, True), (0.5, 2.0 * W10, 0.2 * W10)),
        # eps = -11.8 + 0.27 i, mu = 1.67 + 0.46 i: both absorb, yet
        # Im eps mu < 0
        ((3.0, 0.9 * W10, 1e13), (0.3, 1.2 * W10, 0.3 * W10)),
    ])
    def test_real_frequency_needs_a_purely_absorbing_reflector(
            self, eps_line, mu_line):
        # Im eps > 0 or Im mu > 0 is not enough: on these media the ray
        # would differ from the real-p integral by 0.37 and 0.41 of its
        # value at zt = 0.1 (electric trace, order 0)
        material = MaterialResponse(
            "drude-lorentz", eps_oscillators=(LorentzOscillator(*eps_line),),
            mu_oscillators=(LorentzOscillator(*mu_line),))
        eps, mu = material.epsilon(W10), material.mu(W10)
        assert max(eps.imag, mu.imag) > 0.0 > (eps * mu).imag
        assert not material.is_lossy_at(W10)
        with pytest.raises(ValueError, match="lossy") as err:
            halfspace_green_traces(PlanarGeometry(material, zt_to_z(1.0)),
                                   W10)
        assert "eps=" in str(err.value) and "mu=" in str(err.value)

    def test_geometry_validation(self, pec):
        with pytest.raises(ValueError):
            PlanarGeometry(pec, 0.0)
        with pytest.raises(ValueError):
            PlanarGeometry(pec, -1e-9)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("axis", ["real", "imaginary"])
    @pytest.mark.parametrize("reflector, trace", [
        ("pec", "halfspace_green_traces"), ("pec", "d_dz_traces"),
        ("pec", "mirror_green_components"), ("pec", "mirror_trace_e"),
        ("pec", "mirror_curlcurl_trace"),
        ("lossy_halfspace", "halfspace_green_traces"),
        ("lossy_halfspace", "d_dz_traces"),
    ])
    def test_non_finite_frequency_is_rejected(self, request, reflector,
                                              trace, axis, value):
        # a NaN or infinite frequency once gave NaN traces on the mirror
        # and a numpy reduction error on the half-space
        freq = complex(value, 0.0) if axis == "real" else complex(0.0, value)
        z = zt_to_z(1.0)
        if trace.startswith("mirror"):
            call = lambda: getattr(greens, trace)(z, freq)  # noqa: E731
        else:
            geo = PlanarGeometry(request.getfixturevalue(reflector), z)
            call = lambda: getattr(greens, trace)(geo, freq)  # noqa: E731
        with pytest.raises(ValueError, match="frequency must be finite"):
            call()


class TestTraceAndDualColumns:
    # one kernel call integrates the reflector's trace and its dual's on
    # one partition; two separate calls (reflector, material.dual()) are
    # the reference.  Either axis sweeps five distances at one frequency
    # (xi = w10 makes y = zt)
    ZT = np.array([0.3, 0.9, 2.5, 7.0, 25.0])
    TOL = 1e-9

    def kernel(self, axis, material, order, duals):
        kernel = greens._trace_e_imag_axis if axis == "imaginary" \
            else greens._trace_e_real_axis
        return kernel(material, zt_to_z(self.ZT), W10,
                      _Request(self.TOL, 100_000),
                      order, duals)

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("axis", ["real", "imaginary"])
    @pytest.mark.parametrize("reflector", ["pec", "pmc", "vacuum",
                                           "lossy_halfspace"])
    def test_two_columns_match_two_calls(self, request, reflector, axis,
                                         order):
        material = request.getfixturevalue(reflector)
        both, both_err = self.kernel(axis, material, order, (False, True))
        (own,), (own_err,) = self.kernel(axis, material, order, (False,))
        (dual,), (dual_err,) = self.kernel(axis, material.dual(), order,
                                           (False,))
        assert both.shape == both_err.shape == (2, 5)
        assert np.all(np.abs(both[0] - own) <= both_err[0] + own_err)
        assert np.all(np.abs(both[1] - dual) <= both_err[1] + dual_err)
        if reflector == "lossy_halfspace":
            assert np.all(both_err > 0.0)
            assert np.all(both != 0.0)
        else:
            # closed forms and vacuum: exact, the dual mirror the negative
            assert not both_err.any()
            assert np.array_equal(both, np.stack([own, dual]))
            assert np.array_equal(both[1], -both[0])

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("axis", ["real", "imaginary"])
    def test_one_dual_column_is_the_dual_reflector_integral(
            self, lossy_halfspace, axis, order):
        # asked for one column, the kernel runs the very integral of the
        # dual reflector: same partition, same bits
        got = self.kernel(axis, lossy_halfspace, order, (True,))
        ref = self.kernel(axis, lossy_halfspace.dual(), order, (False,))
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[1], ref[1])

    @pytest.mark.parametrize("freq", [W10, 1j * W10])
    @pytest.mark.parametrize("reflector", ["pec", "lossy_halfspace"])
    def test_one_kernel_call_per_trace_pair(self, request, monkeypatch,
                                            reflector, freq):
        calls = []
        for name in ("_trace_e_imag_axis", "_trace_e_real_axis"):
            original = getattr(greens, name)
            monkeypatch.setattr(
                greens, name, lambda *a, _f=original, _n=name, **k:
                calls.append((_n, k["duals"])) or _f(*a, **k))
        geo = PlanarGeometry(request.getfixturevalue(reflector),
                             zt_to_z(1.0))
        axis = "_trace_e_real_axis" if np.isreal(freq) \
            else "_trace_e_imag_axis"
        halfspace_green_traces(geo, freq)
        assert calls == [(axis, (False, True))]
        calls.clear()
        d_dz_traces(geo, freq)
        assert calls == [(axis, (False, True))]

    @pytest.mark.parametrize("freq", [W10, 1j * W10])
    def test_errors_per_trace(self, lossy_halfspace, freq):
        # each error in its own trace's units, for the traces and their
        # derivatives: it bounds the deviation from a tight run and stays
        # below the trace
        geo = PlanarGeometry(lossy_halfspace, zt_to_z(1.0))
        for traces in (halfspace_green_traces, d_dz_traces):
            tr = traces(geo, freq)
            tight = traces(geo, freq, rel_tol=1e-11)
            assert abs(tr.trace_e - tight.trace_e) \
                <= tr.err_e < abs(tr.trace_e)
            assert abs(tr.trace_m - tight.trace_m) \
                <= tr.err_m < abs(tr.trace_m)


class TestDistances:
    """The trace functions take one distance or a 1-d array of them, and
    every entry point shares one distance check, 0 < z < inf."""

    ZT = np.array([0.3, 1.0, 4.0])

    @pytest.mark.parametrize("freq", [W10, 1j * W10])
    @pytest.mark.parametrize("reflector", ["pec", "pmc", "lossy_halfspace"])
    @pytest.mark.parametrize("traces", [halfspace_green_traces, d_dz_traces])
    def test_scalar_and_array_calls_agree_bit_for_bit(self, request, traces,
                                                      reflector, freq):
        material = request.getfixturevalue(reflector)
        geo = PlanarGeometry(material, zt_to_z(5.0))
        z = zt_to_z(self.ZT)
        sweep = traces(geo, freq, z_atom=z)
        assert sweep.trace_e.shape == sweep.err_m.shape == z.shape
        value_type = float if freq.imag else complex
        for k, zk in enumerate(z.tolist()):
            one = traces(geo, freq, z_atom=zk)
            assert one == traces(PlanarGeometry(material, zk), freq)
            parts = (one.trace_e, one.trace_m, one.err_e, one.err_m)
            assert [type(p) for p in parts] == [value_type] * 2 + [float] * 2
            assert parts == (sweep.trace_e[k], sweep.trace_m[k],
                             sweep.err_e[k], sweep.err_m[k])

    @pytest.mark.parametrize("bad", [0.0, float("inf"), float("nan")])
    def test_one_distance_check(self, pec, lossy_halfspace, bad):
        # at inf a geometry once passed, giving NaN traces with zero error
        for call in (lambda: PlanarGeometry(pec, bad),
                     lambda: mirror_green_components(bad, W10),
                     lambda: mirror_trace_e(bad, 1j * W10),
                     lambda: mirror_curlcurl_trace(bad, W10)):
            with pytest.raises(ValueError, match="finite and > 0"):
                call()
        geo = PlanarGeometry(lossy_halfspace, zt_to_z(1.0))
        for z in (bad, np.array([zt_to_z(1.0), bad])):
            for traces in (halfspace_green_traces, d_dz_traces):
                for freq in (W10, 1j * W10):
                    with pytest.raises(ValueError, match="finite and > 0"):
                        traces(geo, freq, z_atom=z)

    def test_distances_are_a_float_or_a_1d_array(self, pec):
        with pytest.raises(ValueError, match="one float"):
            PlanarGeometry(pec, np.array([1e-7]))
        with pytest.raises(ValueError, match="1-d"):
            halfspace_green_traces(PlanarGeometry(pec, 1e-7), W10,
                                   z_atom=np.full((2, 2), 1e-7))

    @pytest.mark.parametrize("reflector", ["pec", "lossy_halfspace"])
    def test_an_empty_distance_array_is_rejected(self, request, reflector,
                                                 excited_atom):
        # one answer on every reflector: a half-space used to fail in a
        # numpy reduction and a mirror to return empty arrays
        geo = PlanarGeometry(request.getfixturevalue(reflector), 1e-7)
        slab = SlabScenario(1e-7, 1e-7, ETA, excited_atom, geo)
        for call in (lambda: total_potential(excited_atom, geo, z_atom=[]),
                     lambda: halfspace_green_traces(geo, W10, z_atom=[]),
                     lambda: force_decomposition(slab, [])):
            with pytest.raises(ValueError, match="must not be an empty"):
                call()


class TestFresnel:
    def test_matches_the_plain_quotient(self):
        # away from cancellation the rationalised form is the plain
        # quotient (a v - v1) / (a v + v1), for real and complex v alike
        rng = np.random.default_rng(11)
        eps = 1.0 + 5.0 * rng.random(20) + 0.3j * rng.random(20)
        mu = 1.0 + 2.0 * rng.random(20) + 0.2j * rng.random(20)
        for v in (0.3 * rng.random(20), 1.0 + 3.0 * rng.random(20),
                  1j * rng.random(20)):
            v1 = np.sqrt(eps * mu - 1.0 + v * v)
            rs, rp = greens._fresnel(eps, mu, v, v1)
            assert np.allclose(rs, (mu * v - v1) / (mu * v + v1),
                               rtol=1e-12, atol=1e-15)
            assert np.allclose(rp, (eps * v - v1) / (eps * v + v1),
                               rtol=1e-12, atol=1e-15)

    def test_no_cancellation_at_large_v(self):
        # eps = 1, the dual of a non-magnetic medium: v - v1 loses about
        # 2 log10(v) digits in the plain quotient
        mu = 2.4
        v = np.geomspace(1e2, 1e8, 7)
        _, rp = greens._fresnel(1.0, mu, v, np.sqrt(mu - 1.0 + v * v))
        with mp.workdps(40):
            for vk, rk in zip(v, rp):
                vk = mp.mpf(vk)
                v1 = mp.sqrt(mu - 1 + vk * vk)
                exact = (vk - v1) / (vk + v1)
                assert abs(rk - exact) <= 1e-14 * abs(exact)

    def test_dual_trace_converges_at_small_distance(self, lossy_halfspace):
        # zt = 0.1, xi = 1e10 rad/s, so y = 2 xi z / c = 4e-7 and the
        # integral runs out to v ~ 1/y; with the plain quotient it
        # exhausted 100,000 evaluations.  Reference: 40-digit mpmath.
        reference = 7.8210462061973099664e+26
        z = zt_to_z(0.1)
        dual = lossy_halfspace.dual()
        ((value,),), ((err,),) = greens._trace_e_imag_axis(
            dual, np.array([z]), 1e10, _Request(1e-8, 100_000))
        assert abs(value - reference) <= err
        ((tight,),), ((tight_err,),) = greens._trace_e_imag_axis(
            dual, np.array([z]), 1e10, _Request(1e-11, 100_000))
        assert abs(tight - reference) <= tight_err

    # xi^2 trace_e of lossy_halfspace (False) and of its dual (True) at
    # zt = 0.1 and y = 2 xi z / c = 4e-7, 4e-5, 4e-3: mpmath quad of the
    # plain Fresnel quotients at 40 digits, eps(i xi) taken from the
    # model in double precision, the v-axis split at 1 + 10^k and
    # 1 + 60/y; tanh-sinh and Gauss-Legendre agree to 1e-23
    SMALL_Y = {
        (1e10, False): -7.110048244839502197018e+39,
        (1e10, True): 7.821046206197309966385e+26,
        (1e12, False): -7.109857455847089701935e+39,
        (1e12, True): 7.820156871865999666449e+30,
        (1e14, False): -7.086977342450657187622e+39,
        (1e14, True): 7.72635051477506310468e+34,
    }

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("xi,dual", list(SMALL_Y))
    def test_small_y_within_reported_error(self, lossy_halfspace, xi, dual,
                                           rel_tol):
        # at y << 1 the v ~ 1 structure of the dual bracket carries a
        # share ~ y of the integral; it must be resolved, not skipped
        ((value,),), ((err,),) = greens._trace_e_imag_axis(
            lossy_halfspace, np.array([zt_to_z(0.1)]), xi,
            _Request(rel_tol, 100_000), duals=(dual,))
        assert abs(value - self.SMALL_Y[xi, dual]) <= err
        assert err <= rel_tol * abs(value)


class TestLockStepKernel:
    # both trace kernels integrate every point of a call on its own
    # partition, all points refined together, one integrand call a round

    def test_a_call_costs_the_rounds_of_its_slowest_point(
            self, lossy_halfspace, rule_calls):
        # perf guard: 45 distances over six decades of y = 2 xi z / c at
        # xi = w10 (so y = zt), both columns
        z = zt_to_z(np.geomspace(3e-4, 300.0, 45))
        duals = (False, True)
        batch, batch_err = greens._trace_e_imag_axis(
            lossy_halfspace, z, W10, _Request(1e-12, 100_000), 0, duals)
        rounds = len(rule_calls)
        slowest = 0
        for k in range(z.size):
            rule_calls.clear()
            alone, alone_err = greens._trace_e_imag_axis(
                lossy_halfspace, z[k:k + 1], W10, _Request(1e-12, 100_000), 0,
                duals)
            slowest = max(slowest, len(rule_calls))
            # a point's integral does not depend on the others'
            assert np.array_equal(alone[:, 0], batch[:, k])
            assert np.array_equal(alone_err[:, 0], batch_err[:, k])
        assert 1 < rounds <= slowest + 1

    def test_real_axis_call_costs_the_rounds_of_its_slowest_point(
            self, lossy_halfspace, rule_calls):
        # perf guard: 7 distances, zt from 0.05 to 60, both columns.  At
        # rel_tol 1e-10 this reads 3 rule calls, its slowest distance 3
        z = zt_to_z(np.geomspace(0.05, 60.0, 7))
        duals = (False, True)
        batch, batch_err = greens._trace_e_real_axis(
            lossy_halfspace, z, W10, _Request(1e-10, 100_000), 0, duals)
        rounds = len(rule_calls)
        slowest = 0
        for k, zk in enumerate(z):
            rule_calls.clear()
            alone, alone_err = greens._trace_e_real_axis(
                lossy_halfspace, z[k:k + 1], W10, _Request(1e-10, 100_000), 0,
                duals)
            slowest = max(slowest, len(rule_calls))
            assert np.array_equal(alone[:, 0], batch[:, k])
            assert np.array_equal(alone_err[:, 0], batch_err[:, k])
        assert 1 < rounds <= slowest + 1

    @staticmethod
    def real_axis_rule_calls(calls, material, zt, order):
        # rule calls of one single-distance call at rel_tol 1e-10, both
        # columns
        calls.clear()
        greens._trace_e_real_axis(material, np.array([zt_to_z(zt)]), W10,
                                  _Request(1e-10, 100_000), order,
                                  (False, True))
        return len(calls)

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("zt", [0.1, 1.0, 10.0])
    def test_near_branch_point_costs_at_most_three_rounds(
            self, rule_calls, zt, order):
        # perf guard: the branch point 1.4e-3 off the real p axis is far
        # from the ray; bisecting toward it on the real p axis took 8 to
        # 11 rule calls
        assert self.real_axis_rule_calls(
            rule_calls, readme_reflector(), zt, order) <= 3

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("zt", [0.1, 1.0, 10.0])
    def test_rounds_do_not_grow_as_the_loss_falls(self, rule_calls, zt,
                                                  order):
        # damping 1e14 down to 1e10 rad/s moves the branch point from
        # 1.4e-3 to 1.4e-7 off the real p axis, but not toward the ray;
        # bisecting toward it on the real p axis took about two more rule
        # calls a decade
        counts = [self.real_axis_rule_calls(rule_calls, readme_reflector(d),
                                            zt, order)
                  for d in (1e14, 1e13, 1e12, 1e11, 1e10)]
        assert max(counts) == counts[0]

    def test_propagating_branch_point_costs_at_most_three_rounds(
            self, rule_calls):
        # eps(w10) = 0.11 + 0.001 i puts the branch point next to the
        # propagating part of the real p axis, at gamma = 0.94, 5e-4 off
        # it, and 0.06 from the foot of the ray; bisecting toward it on
        # the real p axis took 11 rule calls
        near = MaterialResponse("drude-lorentz", eps_oscillators=(
            LorentzOscillator(strength=0.5, resonance=0.8 * W10,
                              damping=1e12),))
        assert self.real_axis_rule_calls(rule_calls, near, 1.0, 0) <= 3
        z = np.array([zt_to_z(1.0)])
        value, err = greens._trace_e_real_axis(near, z, W10,
                                               _Request(1e-10, 100_000))
        tight, _ = greens._trace_e_real_axis(near, z, W10,
                                             _Request(1e-13, 10**6))
        assert abs(value - tight) <= err <= 1e-10 * abs(value)

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("zt", [0.1, 1.0, 10.0])
    def test_surface_mode_pole_costs_at_most_three_rounds(self, rule_calls,
                                                          zt, order):
        # perf guard: damping 1e13 down to 1e9 rad/s moves the r_p pole
        # of plasmonic_reflector() from 3.8e-3 to 3.8e-7 off the real p
        # axis, but not toward the ray; on the real p axis, panels graded
        # only toward the branch point took 6 to 9 rule calls at 1e13 and
        # 19 to 23 at 1e9
        counts = [self.real_axis_rule_calls(rule_calls,
                                            plasmonic_reflector(d), zt, order)
                  for d in (1e13, 1e12, 1e11, 1e10, 1e9)]
        assert max(counts) <= 3

    @pytest.mark.parametrize("axis", ["real", "imaginary"])
    def test_far_field_cost_does_not_grow_with_the_distance(
            self, lossy_halfspace, rule_calls, axis):
        # perf guard: on the ray the exponential decays as e^{-zt s}
        # without oscillating, so a far distance costs a bounded number
        # of abscissae at rel_tol 1e-10, both columns, on either axis
        # (xi = w10 makes y = zt).  One panel per pi radians of the
        # propagating waves took 825 at zt = 100 and 14,520 at zt = 1000
        abscissae = []
        for zt in (10.0, 100.0, 1000.0, 10000.0):
            rule_calls.clear()
            if axis == "real":
                greens._trace_e_real_axis(lossy_halfspace,
                                          np.array([zt_to_z(zt)]), W10,
                                          _Request(1e-10, 100_000), 0,
                                          (False, True))
            else:
                greens._trace_e_imag_axis(lossy_halfspace,
                                          np.array([zt_to_z(zt)]), W10,
                                          _Request(1e-10, 100_000), 0,
                                          (False, True))
            abscissae.append(sum(rule_calls))
        assert max(abscissae) <= 150
        assert abscissae[1] == abscissae[2] == abscissae[3]

    @pytest.mark.parametrize("axis", ["real", "imaginary"])
    def test_a_failure_names_its_point(self, lossy_halfspace, axis):
        # a budget too small for one distance of the call: zt = 0.3 of
        # three on the real axis, y = 3e-4 of five on the imaginary one
        # (xi = w10, so y = zt)
        if axis == "real":
            points = zt_to_z(np.array([0.3, 2.0, 60.0]))
            failing, budget = 0, 300
            point = f"z = {points[failing]:.6g} m, w = {W10:.6g} rad/s"
            kernel = greens._trace_e_real_axis
        else:
            points = zt_to_z(np.array([3e-4, 0.01, 0.3, 10.0, 300.0]))
            failing, budget = 0, 450
            point = f"z = {points[failing]:.6g} m, xi = {W10:.6g} rad/s"
            kernel = greens._trace_e_imag_axis
        def kernel_at(z):
            return kernel(lossy_halfspace, z, W10, _Request(1e-12, budget),
                          0, (False, True))

        with pytest.raises(quadrature.QuadratureConvergenceError) as err:
            kernel_at(points)
        message = str(err.value)
        assert f"{axis}-axis trace at {point}: quadrature did not " \
               "converge within the evaluation budget" in message
        assert "integral" not in message
        # the failing point's own value, estimate and count: the same as
        # its call alone, which fails the same way
        with pytest.raises(quadrature.QuadratureConvergenceError) as one:
            kernel_at(points[failing:failing + 1])
        assert str(one.value) == message
        assert np.array_equal(err.value.value, one.value.value)
        assert np.array_equal(err.value.abs_error_estimate,
                              one.value.abs_error_estimate)
        assert err.value.evaluations == one.value.evaluations <= budget
        # every other point fits the budget on its own
        for k in np.delete(np.arange(points.size), failing):
            kernel_at(points[k:k + 1])

    @pytest.mark.parametrize("order", [0, 1])
    def test_broadcast_z_matches_single_points(self, lossy_halfspace,
                                               order):
        # a sweep of z at one xi, as the distances one by one
        z = zt_to_z(np.array([0.05, 0.3, 1.0, 4.0, 20.0]))
        got, err = greens._trace_e_imag_axis(
            lossy_halfspace, z, W10, _Request(1e-9, 100_000), order,
            (False, True))
        assert got.shape == err.shape == (2, z.size)
        for k in range(z.size):
            one, one_err = greens._trace_e_imag_axis(
                lossy_halfspace, z[k:k + 1], W10, _Request(1e-9, 100_000),
                order, (False, True))
            assert np.array_equal(got[:, k], one[:, 0])
            assert np.array_equal(err[:, k], one_err[:, 0])

    @pytest.mark.parametrize("reflector", ["pec", "pmc", "vacuum"])
    def test_broadcast_z_closed_forms(self, request, reflector):
        # a sweep of z gives each point's bits: the mirror powers of z are
        # those of a Python float
        material = request.getfixturevalue(reflector)
        z = zt_to_z(np.geomspace(0.05, 30.0, 7))
        for order in (0, 1):
            got, err = greens._trace_e_imag_axis(
                material, z, W10, _Request(1e-9, 100_000), order)
            assert not err.any()
            for k, zk in enumerate(z.tolist()):
                one, _ = greens._trace_e_imag_axis(
                    material, zk, [W10], _Request(1e-9, 100_000), order)
                assert got[0, k] == one[0, 0]


class TestDerivatives:
    @pytest.mark.parametrize("zt", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("freq_maker", [lambda: W10, lambda: 1j * W10])
    def test_mirror_analytic_vs_richardson(self, pec, zt, freq_maker):
        freq = freq_maker()
        z = zt_to_z(zt)
        geo = PlanarGeometry(pec, z)
        d = d_dz_traces(geo, freq)
        de, dm = d.trace_e, d.trace_m
        assert d.err_e == d.err_m == 0.0
        h = 1e-6 * z

        def fd(f):
            d1 = (f(z + h) - f(z - h)) / (2.0 * h)
            d2 = (f(z + 0.5 * h) - f(z - 0.5 * h)) / h
            return (4.0 * d2 - d1) / 3.0

        fd_e = fd(lambda zz: mirror_trace_e(zz, freq))
        fd_m = fd(lambda zz: mirror_curlcurl_trace(zz, freq))
        assert abs(de - fd_e) <= 1e-6 * abs(fd_e)
        assert abs(dm - fd_m) <= 1e-6 * abs(fd_m)

    def test_derivative_vanishes_far_away(self, pec):
        geo = PlanarGeometry(pec, zt_to_z(45.0))
        de = d_dz_traces(geo, 1j * W10).trace_e
        near = d_dz_traces(PlanarGeometry(pec, zt_to_z(1.0)),
                           1j * W10).trace_e
        assert abs(de) < 1e-15 * abs(near)

    def test_halfspace_fd_against_mirror_limit(self):
        geo = PlanarGeometry(eps_halfspace(4e8), zt_to_z(1.0))
        d = d_dz_traces(geo, 1j * W10, rel_tol=1e-9)
        pec_geo = PlanarGeometry(MaterialResponse("perfect-electric-mirror"),
                                 zt_to_z(1.0))
        d_pec = d_dz_traces(pec_geo, 1j * W10)
        assert rel_diff(d.trace_e, np.real(d_pec.trace_e)) < 1e-3
        assert rel_diff(d.trace_m, np.real(d_pec.trace_m)) < 1e-3
        assert d.err_e > 0.0 and d.err_m > 0.0

    def test_vacuum_derivatives_zero(self, vacuum):
        geo = PlanarGeometry(vacuum, zt_to_z(1.0))
        assert d_dz_traces(geo, 1j * W10) == GreenTrace(1j * W10, 0.0, 0.0)


class TestHalfspaceDerivatives:
    # order-1 kernels differentiate under the Sommerfeld integral; the
    # reference is a Richardson difference of the order-0 kernels
    TOL = 1e-12

    @staticmethod
    def richardson(f, z, h):
        d1 = (f(z + h) - f(z - h)) / (2.0 * h)
        d2 = (f(z + 0.5 * h) - f(z - 0.5 * h)) / h
        return (4.0 * d2 - d1) / 3.0

    @pytest.mark.parametrize("zt", [0.5, 1.0, 10.0])
    @pytest.mark.parametrize("dual", [False, True])
    def test_imag_axis_order_one(self, lossy_halfspace, zt, dual):
        mat = lossy_halfspace.dual() if dual else lossy_halfspace
        z = zt_to_z(zt)
        for xi in W10 * np.array([0.1, 1.0, 3.0]):
            ((d,),), ((err,),) = greens._trace_e_imag_axis(
                mat, np.array([z]), xi, _Request(self.TOL, 100_000), order=1)
            fd = self.richardson(lambda zz: greens._trace_e_imag_axis(
                mat, np.array([zz]), xi, _Request(self.TOL, 100_000))[0][0, 0],
                z, 1e-3 * z)
            assert abs(d - fd) <= 1e-8 * abs(fd)
            assert err <= 1e-11 * abs(d)

    @pytest.mark.parametrize("zt", [0.5, 1.0, 10.0])
    @pytest.mark.parametrize("dual", [False, True])
    def test_real_axis_order_one(self, lossy_halfspace, zt, dual):
        mat = lossy_halfspace.dual() if dual else lossy_halfspace
        z = zt_to_z(zt)
        (d,), (err,) = greens._trace_e_real_axis(
            mat, np.array([z]), W10, _Request(self.TOL, 100_000), order=1)
        fd = self.richardson(lambda zz: greens._trace_e_real_axis(
            mat, np.array([zz]), W10, _Request(self.TOL, 100_000))[0][0], z,
            1e-3 * z)
        assert abs(d - fd) <= 1e-8 * abs(fd)
        assert err <= 1e-11 * abs(d)

    @pytest.mark.parametrize("order", [0, 1])
    def test_z_vector_real_axis_matches_scalar_calls(self, lossy_halfspace,
                                                     order):
        # each distance is its own ray integral of one lock-step
        # batch, with its own initial panels and map scale: the same bits
        # as its single-z call
        z = zt_to_z(np.array([0.3, 0.9, 2.5, 7.0, 25.0]))
        tol = 1e-10
        (te,), (err,) = greens._trace_e_real_axis(
            lossy_halfspace, z, W10, _Request(tol, 100_000), order)
        for k, zk in enumerate(z):
            ((t1,),), ((e1,),) = greens._trace_e_real_axis(
                lossy_halfspace, np.array([zk]), W10, _Request(tol, 100_000),
                order)
            assert te[k] == t1
            assert err[k] == e1

    @pytest.mark.parametrize("freq", [W10, 1j * W10])
    def test_d_dz_traces_share_integrals_between_traces(
            self, lossy_halfspace, monkeypatch, freq):
        # counts engine batches: every integrate_* call is one, and so is
        # the lock-step batch of the imaginary-axis kernel
        calls = []
        engine = quadrature._adapt
        monkeypatch.setattr(quadrature, "_adapt",
                            lambda *a: calls.append(1) or engine(*a))
        geo = PlanarGeometry(lossy_halfspace, zt_to_z(1.0))
        d = d_dz_traces(geo, freq)
        # both traces on one partition, on either axis one integral per
        # distance: on the real axis along the ray
        assert len(calls) == 1
        tight = d_dz_traces(geo, freq, rel_tol=1e-10)
        assert abs(d.trace_e - tight.trace_e) <= d.err_e
        assert abs(d.trace_m - tight.trace_m) <= d.err_m


class TestRealAxisMpmathAudit:
    # Tr G1 of lossy_halfspace (False) and of its dual (True) at w10 and
    # order 0 or 1 on the real p axis, not on the kernel's ray: the
    # propagating and evanescent integrals (gamma = i b in B)
    #     A_n = Int_0^1 dgamma gamma^n e^{i zt gamma}
    #           [r_s + (1 - 2 gamma^2) r_p]
    #     B_n = Int_0^inf db b^n e^{-zt b} [r_s + (1 + 2 b^2) r_p]
    # in (i w / 4 pi c) ((i k)^n A_n - i (-k)^n B_n) with k = 2 w / c,
    # r_s and r_p exchanged for the dual, by 30-digit mp.quad of the
    # plain Fresnel quotients, eps(w) taken from the model in double
    # precision, A split into floor(zt / pi) + 2 equal pieces and B at
    # 1 / zt, 1, 10 (/ zt); tanh-sinh and Gauss-Legendre agree to 1e-19
    REFERENCE = {
        (0.1, 0, False): complex(1711435910.7914086377,
                                 176947492.29007588835),
        (0.1, 0, True): complex(13859778.279222495708,
                                6474008.1235510829207),
        (0.1, 1, False): complex(-852990932531279786.77,
                                 -87243947797779162.457),
        (0.1, 1, True): complex(-2625400696059259.8092,
                                -703755683774845.92696),
        (1.0, 0, False): complex(1955967.8953297378762,
                                 742526.73555996067855),
        (1.0, 0, True): complex(-71636.127368629653367,
                                992613.79432206671361),
        (1.0, 1, False): complex(-97757949302999.597195,
                                 -21995923953347.422098),
        (1.0, 1, True): complex(-16395859733063.694453,
                                -24287154195297.928971),
        (10.0, 0, False): complex(28182.585698858518856,
                                  37242.796374801029723),
        (10.0, 0, True): complex(-31245.740146707895413,
                                 -39059.488000655529154),
        (10.0, 1, False): complex(-650375486278.31226807,
                                  400238327862.82891888),
        (10.0, 1, True): complex(696041115687.20955348,
                                 -442615867281.46195492),
        (30.0, 0, False): complex(-5563.3395855828718545,
                                  15012.598042354453607),
        (30.0, 0, True): complex(5584.1189601326767135,
                                 -15144.937977881224735),
        (30.0, 1, False): complex(-246738720361.17418175,
                                  -100857088165.15179403),
        (30.0, 1, True): complex(248912891602.13008389,
                                 101424144348.55891602),
    }

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("zt", [0.1, 1.0, 10.0, 30.0])
    def test_within_reported_error(self, lossy_halfspace, zt, order):
        values, errs = greens._trace_e_real_axis(
            lossy_halfspace, np.array([zt_to_z(zt)]), W10,
            _Request(1e-10, 100_000), order, (False, True))
        for dual, (value,), (err,) in zip((False, True), values, errs):
            assert abs(value - self.REFERENCE[zt, order, dual]) <= err
            assert err <= 1e-10 * abs(value)


class TestRealAxisMpmathAuditNearBranchPoint:
    # the audit above for readme_reflector(), whose medium branch point
    # lies 1.4e-3 off the evanescent part at b = Re q = 1.0328,
    # q = sqrt(eps mu - 1): the same A and B integrals, B split at
    # Re q as well as at 1 / zt, 1, 10 and 10 / zt.  Tanh-sinh and
    # Gauss-Legendre (the latter with B also cut at Re q -+ Im q 4^k,
    # k = 0..4) agree to 6e-16
    REFERENCE = {
        (0.1, 0, False): complex(928556567.75467172136,
                                 2342695.7186615165777),
        (0.1, 0, True): complex(5684479.6570890781488,
                                969788.28910328161218),
        (0.1, 1, False): complex(-462874619547203822.32,
                                 -816598124174659.26585),
        (0.1, 1, True): complex(-993305326229454.83698,
                                -15041725149346.657564),
        (1.0, 0, False): complex(1132609.2612278918486,
                                 300884.59225988659049),
        (1.0, 0, True): complex(111269.30295894059308,
                                440141.58913724714936),
        (1.0, 1, False): complex(-54732977109318.905711,
                                 -5208671753637.2500128),
        (1.0, 1, True): complex(-10556915589767.764484,
                                -7065322712190.3274129),
        (10.0, 0, False): complex(15822.054796249596308,
                                  16202.911233294979494),
        (10.0, 0, True): complex(-18168.207017032443452,
                                 -17295.652667152940101),
        (10.0, 1, False): complex(-287107563834.1880912,
                                  232533759616.85995148),
        (10.0, 1, True): complex(317128152570.76694679,
                                 -266794986700.88383619),
    }

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("zt", [0.1, 1.0, 10.0])
    def test_within_reported_error(self, zt, order):
        values, errs = greens._trace_e_real_axis(
            readme_reflector(), np.array([zt_to_z(zt)]), W10,
            _Request(1e-10, 100_000), order, (False, True))
        for dual, (value,), (err,) in zip((False, True), values, errs):
            assert abs(value - self.REFERENCE[zt, order, dual]) <= err
            assert err <= 1e-10 * abs(value)


class TestRealAxisMpmathAuditSurfaceModePole:
    # the audit above for plasmonic_reflector(), eps = -11.78 + 0.27 i,
    # whose surface-mode pole of r_p lies 3.8e-3 off the evanescent part
    # at b = Re b_sp = 0.30445, b_sp = sqrt(-1 / (eps + 1)): the same A
    # and B integrals, B split at Re b_sp -+ Im b_sp 4^k, k = 0..4, as
    # well as at 1 / zt, 1, 10 and 10 / zt.  Tanh-sinh and Gauss-Legendre
    # (maxdegree 10) agree to 1e-31
    REFERENCE = {
        (0.1, 0, False): complex(3168571150.9647890915,
                                 13151507.053468408138),
        (0.1, 0, True): complex(-24590859.547134000948,
                                1753695.7805977089476),
        (0.1, 1, False): complex(-1578364793309499515.4,
                                 -6173650556739349.8351),
        (0.1, 1, True): complex(5289559634732608.847,
                                -148927554394687.88185),
        (1.0, 0, False): complex(4527411.5354104789533,
                                 568072.98288585111235),
        (1.0, 0, True): complex(-980451.1292977633615,
                                545566.65039678001065),
        (1.0, 1, False): complex(-187921147790983.80849,
                                 -2097716331073.0291162),
        (1.0, 1, True): complex(13649147585874.838457,
                                -11202888471188.396227),
        (10.0, 0, False): complex(27772.803265741062844,
                                  130125.94137832297444),
        (10.0, 0, True): complex(-33271.284805876166921,
                                 -127718.20467281635389),
        (10.0, 1, False): complex(-2166484956281.5188603,
                                  230290301956.94889951),
        (10.0, 1, True): complex(2153374743044.8856348,
                                 -333881706991.23186276),
    }

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("zt", [0.1, 1.0, 10.0])
    def test_within_reported_error(self, zt, order):
        values, errs = greens._trace_e_real_axis(
            plasmonic_reflector(), np.array([zt_to_z(zt)]), W10,
            _Request(1e-10, 100_000), order, (False, True))
        for dual, (value,), (err,) in zip((False, True), values, errs):
            assert abs(value - self.REFERENCE[zt, order, dual]) <= err
            assert err <= 1e-10 * abs(value)


class TestImagAxisMpmathAudit:
    # xi^2 Tr G1(i xi) of lossy_halfspace (False) and of its dual (True)
    # at xi = w10, so y = zt, and order 0 or 1: the v-integral of the
    # _trace_e_imag_axis docstring, (xi^3 / 4 pi c) (-2 xi / c)^n
    # Int_1^inf dv v^n e^{-y v} [r_s - (2 v^2 - 1) r_p], r_s and r_p
    # exchanged for the dual, by 30-digit mp.quad of the plain Fresnel
    # quotients, eps(i xi) taken from the model in double precision and
    # the line cut at 1 + 1 / y, 1 + 10 / y and 1 + 100 / y; tanh-sinh
    # and Gauss-Legendre agree to 1e-25
    REFERENCE = {
        (0.1, 0, False): -5.0321614954078935693e+39,
        (0.1, 0, True): 2.6320433778020128461e+37,
        (0.1, 1, False): 2.5258892453581935527e+48,
        (0.1, 1, True): -5.0479147857524746864e+45,
        (1.0, 0, False): -3.8636992014832602648e+36,
        (1.0, 0, True): 8.3046518742662559626e+35,
        (1.0, 1, False): 2.1969058374512519937e+44,
        (1.0, 1, True): -3.0138249137369120984e+43,
        (10.0, 0, False): -7.4683055820392154494e+30,
        (10.0, 0, True): 6.8683705564325005623e+30,
        (10.0, 1, False): 1.4029119659835013498e+38,
        (10.0, 1, True): -1.2739845658875825805e+38,
        (30.0, 0, False): -4.3430727683494869469e+21,
        (30.0, 0, True): 4.2932127460100787547e+21,
        (30.0, 1, False): 7.5035413254983891633e+28,
        (30.0, 1, True): -7.4121990144083440827e+28,
    }

    @pytest.mark.parametrize("order", [0, 1])
    @pytest.mark.parametrize("zt", [0.1, 1.0, 10.0, 30.0])
    def test_within_reported_error(self, lossy_halfspace, zt, order):
        values, errs = greens._trace_e_imag_axis(
            lossy_halfspace, np.array([zt_to_z(zt)]), W10,
            _Request(1e-10, 100_000), order, (False, True))
        for dual, (value,), (err,) in zip((False, True), values, errs):
            assert abs(value - self.REFERENCE[zt, order, dual]) <= err
            assert err <= 1e-10 * abs(value)


class TestMirrorMpmathAudit:
    # the closed form of the greens module docstring at 30 digits,
    # differentiated in z by mp.diff; both mirrors on both axes
    ZT = np.geomspace(1e-3, 60.0, 25)
    BOUND = 1e-13

    @staticmethod
    def reference(sign, w, z, order):
        with mp.workdps(30):
            c = mp.mpf(C_LIGHT)

            def trace_e(zz):
                zt = 2 * w * zz / c
                phase = mp.exp(1j * zt)
                gxx = w * phase * (1 - 1j * zt - zt**2) \
                    / (4 * mp.pi * c * zt**3)
                gzz = w * phase * (1 - 1j * zt) / (2 * mp.pi * c * zt**3)
                return sign * (2 * gxx + gzz)

            te = mp.diff(trace_e, mp.mpf(z), order)
            # trace_m = -(w/c)^2 trace_e of the dual mirror, the negative
            return complex(te), complex((w / c) ** 2 * te)

    @pytest.mark.parametrize("axis", ["real", "imaginary"])
    @pytest.mark.parametrize("model", ["perfect-electric-mirror",
                                       "perfect-magnetic-mirror"])
    def test_traces_and_derivatives(self, model, axis):
        sign = 1 if model == "perfect-electric-mirror" else -1
        freq = W10 if axis == "real" else 1j * W10
        w = mp.mpf(W10) if axis == "real" else mp.mpc(0, W10)
        worst = 0.0
        for zt in self.ZT:
            z = zt_to_z(zt)
            geo = PlanarGeometry(MaterialResponse(model), z)
            tr, d = halfspace_green_traces(geo, freq), d_dz_traces(geo, freq)
            got = {0: (tr.trace_e, tr.trace_m), 1: (d.trace_e, d.trace_m)}
            if sign == 1:
                assert mirror_trace_e(z, freq) == tr.trace_e
                assert mirror_curlcurl_trace(z, freq) == tr.trace_m
            for order in (0, 1):
                for value, ref in zip(got[order],
                                      self.reference(sign, w, z, order)):
                    worst = max(worst, abs(value - ref) / abs(ref))
        assert worst <= self.BOUND
