"""Model construction, threshold activation, forward pass and loss."""

import dataclasses
import math

import numpy as np
import pytest

from wavelearn import network, training, wavelet
from wavelearn.errors import (
    ConfigError,
    InvalidDepthError,
    InvalidKernelError,
    InvalidSignalError,
)
from wavelearn.network import (
    SharingMode,
    WaveletNet,
    ht_activation,
    ht_gate_derivatives,
    loss_terms,
    model_forward,
)
from wavelearn.training import backward_full
from wavelearn.wavelet import DB4_SCALING, analysis_cascade, cqf_from_scaling, synthesis_cascade

S = math.sqrt(0.5)

# sigmoid(-15) + sigmoid(5), evaluated directly from the defining formula
HT_ONE_HALF_HALF = 0.9933074549779422


def _with(model, **tensors):
    """`model` with the named parameter arrays replaced, each broadcast to
    its shape."""
    return model.with_parameters(model.flatten(
        {**model.params, **{k: np.broadcast_to(v, model.params[k].shape)
                            for k, v in tensors.items()}}))


class TestHtActivation:
    def test_zero_thresholds_exact_identity(self):
        grid = np.linspace(-50.0, 50.0, 10_000)
        out, _, _ = ht_activation(grid, 0.0, 0.0)
        assert np.array_equal(out, grid)

    def test_zero_input_maps_to_zero(self):
        for bp, bm in ((0.0, 0.0), (0.5, 0.2), (-0.1, 3.0)):
            assert ht_activation(np.zeros(1), bp, bm)[0][0] == 0.0

    def test_scalar_value_against_formula(self):
        got, _, _ = ht_activation(np.ones(1), 0.5, 0.5)
        assert abs(got[0] - HT_ONE_HALF_HALF) <= 1e-6

    def test_odd_symmetry_with_swapped_thresholds(self):
        rng = np.random.default_rng(4)
        x = rng.normal(scale=2.0, size=500)
        for bp, bm in ((0.3, 0.7), (1.5, 0.0), (0.0, 0.4), (2.0, 2.0)):
            left = ht_activation(-x, bp, bm)[0]
            right = -ht_activation(x, bm, bp)[0]
            np.testing.assert_allclose(left, right, rtol=0, atol=1e-12)

    def test_huge_thresholds_annihilate(self):
        x = np.linspace(-5, 5, 101)
        out, _, _ = ht_activation(x, 1e6, 1e6)
        assert np.array_equal(out, np.zeros_like(x))

    def test_each_row_gated_by_its_own_pair(self):
        # row 0 has both thresholds zero and stays the input byte for byte
        # next to gated rows; row 2 has one zero threshold and is gated
        x = np.random.default_rng(5).normal(size=(3, 200))
        x[:, ::7] = -0.0
        b_plus = np.array([[0.0], [0.4], [0.0]])
        b_minus = np.array([[0.0], [0.3], [0.2]])
        y, p, q = ht_activation(x, b_plus, b_minus)
        assert y[0].tobytes() == x[0].tobytes()
        for r in range(3):
            alone = ht_activation(x[r], b_plus[r, 0], b_minus[r, 0])
            for got, want in zip((y, p, q), alone):
                assert got[r].tobytes() == want.tobytes()
        assert not np.array_equal(y[2], x[2])

    def test_differentiable_everywhere(self):
        # the partials formed from the returned gate terms match central
        # differences in x, b+ and b- at every probe
        bp, bm = 0.6, 0.25
        xs = np.array([-3.0, -0.6, -0.25, 0.0, 0.25, 0.6, 1e-9, 3.0])
        _, p, q = ht_activation(xs, bp, bm)
        dy_dx, dy_dbp, dy_dbm = ht_gate_derivatives(xs, p, q)
        eps = 1e-6

        def y(x=xs, b_plus=bp, b_minus=bm):
            return ht_activation(x, b_plus, b_minus)[0]

        for analytic, diff in ((dy_dx, y(x=xs + eps) - y(x=xs - eps)),
                               (dy_dbp, y(b_plus=bp + eps) - y(b_plus=bp - eps)),
                               (dy_dbm, y(b_minus=bm + eps) - y(b_minus=bm - eps))):
            assert np.all(np.isfinite(analytic))
            np.testing.assert_allclose(analytic, diff / (2 * eps), rtol=0, atol=1e-8)


def masked_sigmoid(t):
    """The logistic function evaluated by sign through boolean masks: the
    form `network.sigmoid` replaces."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestSigmoid:
    """The tanh form against the masked form it replaced: the two round
    differently, by at most one float64 epsilon (2.2e-16) in [0, 1]."""

    EDGES = [0.0, -0.0, 1e-310, -1e-310, 36.0, -36.0, 745.0, -745.0,
             1e308, -1e308, np.inf, -np.inf]
    TOL = 2.3e-16

    def test_within_one_rounding_of_masked_form_at_the_edges(self):
        t = np.array(self.EDGES)
        with np.errstate(over="raise", invalid="raise"):  # nothing overflows
            got = network.sigmoid(t)
            alone = [network.sigmoid(value) for value in self.EDGES]
        assert np.all(np.abs(got - masked_sigmoid(t)) <= self.TOL)
        assert np.all((got >= 0.0) & (got <= 1.0))
        for value, one in zip(self.EDGES, alone):
            assert one.shape == (1,)
            assert abs(one[0] - masked_sigmoid(value)[0]) <= self.TOL

    def test_within_one_rounding_of_masked_form_on_a_matrix(self):
        # the ELM's hidden layer: a 2-D block of pre-activations
        z = np.random.default_rng(4).normal(scale=30.0, size=(37, 50))
        z[3, :5] = [0.0, -0.0, 745.0, -745.0, 1e-310]
        got = network.sigmoid(z)
        assert got.shape == z.shape
        assert np.all(np.abs(got - masked_sigmoid(z)) <= self.TOL)
        assert np.all((got >= 0.0) & (got <= 1.0))

    def test_nan_propagates(self):
        assert np.isnan(network.sigmoid(np.nan)[0])


def _count_calls(monkeypatch, modules, name, call):
    """Calls of `name` made while `call()` runs, through its binding in each
    of `modules` (a module that imports a function by name holds its own)."""
    calls = []
    for module in modules:
        def counted(*args, original=getattr(module, name)):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    call()
    return len(calls)


class TestGateEvaluatedOnce:
    """The gate runs once per forward pass over the whole detail pyramid, at
    any depth, and the backward pass forms its partials once, from the tanh
    terms the forward trace kept."""

    def test_counts(self, monkeypatch):
        x = np.random.default_rng(2).normal(size=(3, 256))
        for levels in (1, 5, 8):
            despawn = _with(WaveletNet(levels, 8, SharingMode.PER_LEVEL_CQF_HT),
                            b_plus=0.3, b_minus=0.2)
            lcwn = WaveletNet(levels, 8, SharingMode.PER_LEVEL_CQF)
            for signal in (x[0], x):
                for model, gated in ((despawn, 1), (lcwn, 0)):
                    assert _count_calls(
                        monkeypatch, [network], "ht_activation",
                        lambda: model_forward(signal, model)) == gated
                    assert _count_calls(
                        monkeypatch, [network], "ht_activation",
                        lambda: backward_full(signal, model)) == gated
                    assert _count_calls(
                        monkeypatch, [training], "ht_gate_derivatives",
                        lambda: backward_full(signal, model)) == gated


class TestOneSynthesisCallPerLevel:
    """A decoder level synthesizes both channels in one `upsample_conv`
    call: L calls per forward pass, and L more for the backward pass's
    transposed encoder, for one window or a block, counted through both
    modules that bind the op."""

    def test_counts(self, monkeypatch):
        x = np.random.default_rng(2).normal(size=(3, 256))
        for mode in (SharingMode.PER_LEVEL_CQF_HT, SharingMode.SHARED_CQF,
                     SharingMode.FREE_HT):
            model = WaveletNet(5, 8, mode)
            for signal in (x[0], x):
                assert _count_calls(monkeypatch, [wavelet, training], "upsample_conv",
                                    lambda: model_forward(signal, model)) == 5
                assert _count_calls(monkeypatch, [wavelet, training], "upsample_conv",
                                    lambda: backward_full(signal, model)) == 10


class TestBuildModel:
    def test_initial_forward_reproduces_fixed_transform(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=1024)
        fresh = WaveletNet(10, 8, SharingMode.PER_LEVEL_CQF_HT)
        fixed = WaveletNet(10, 8, SharingMode.DB4_FIXED)
        rec_a = model_forward(x, fresh)
        rec_b = model_forward(x, fixed)
        assert np.array_equal(rec_a.reconstruction, rec_b.reconstruction)
        assert np.array_equal(rec_a.details, rec_b.details)
        assert np.array_equal(rec_a.approx, rec_b.approx)

    def test_same_seed_identical_model(self):
        m1 = WaveletNet(5, 8, SharingMode.FREE_HT)
        m2 = WaveletNet(5, 8, SharingMode.FREE_HT)
        assert m1.params.keys() == m2.params.keys()
        for key in m1.params:
            assert np.array_equal(m1.params[key], m2.params[key])

    def test_two_tap_model_is_haar(self):
        m = WaveletNet(3, 2, SharingMode.PER_LEVEL_CQF)
        np.testing.assert_allclose(m.params["kernels"][0], [[S, S]], rtol=0, atol=0)
        x = np.random.default_rng(0).normal(size=16)
        rec = model_forward(x, m)
        np.testing.assert_allclose(rec.reconstruction, x, rtol=0, atol=1e-10)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ConfigError):
            WaveletNet(0, 8, SharingMode.PER_LEVEL_CQF_HT)
        with pytest.raises(ConfigError):
            WaveletNet(3, 7, SharingMode.PER_LEVEL_CQF_HT)
        for levels, kernel_size in ((2.5, 8), (True, 8), (3, 4.0), (3, np.float64(8))):
            with pytest.raises(ConfigError, match="must be an integer"):
                WaveletNet(levels, kernel_size, SharingMode.PER_LEVEL_CQF_HT)

    @pytest.mark.parametrize("kwargs", [
        dict(gamma=math.nan), dict(gamma=-2.0), dict(gamma=math.inf),
    ], ids=["gamma_nan", "gamma_negative", "gamma_inf"])
    def test_bad_gamma_or_sharpness_rejected(self, kwargs):
        # gamma weighs the sparsity term (0 turns it off); the gate's
        # sharpness is the fixed `network.SHARPNESS`, no setting
        with pytest.raises(ConfigError, match="gamma"):
            WaveletNet(3, 8, SharingMode.PER_LEVEL_CQF_HT, **kwargs)

    def test_mode_names_roundtrip(self):
        for mode in SharingMode:
            assert SharingMode(mode.value) is mode
        with pytest.raises(ConfigError):
            SharingMode("bogus")


class TestParameterCount:
    @pytest.mark.parametrize("mode,expected", [
        (SharingMode.DB4_FIXED, 0),
        (SharingMode.DB4_FIXED_HT, 2 * 17),
        (SharingMode.SHARED_CQF, 8),
        (SharingMode.SHARED_CQF_HT, 8 + 2 * 17),
        (SharingMode.PER_LEVEL_CQF, 8 * 17),
        (SharingMode.PER_LEVEL_CQF_HT, (8 + 2) * 17),
        (SharingMode.PER_LEVEL_TWO_KERNEL_HT, (2 * 8 + 2) * 17),
        (SharingMode.FREE_HT, (4 * 8 + 2) * 17),
    ])
    def test_count_formula(self, mode, expected):
        model = WaveletNet(17, 8, mode)
        assert model.parameter_count() == expected

    def test_reference_configuration(self):
        # kernel size 8 with 17 levels: ten trainables per level
        model = WaveletNet(17, 8, SharingMode.PER_LEVEL_CQF_HT)
        assert model.parameter_count() == 170

    def test_flat_vector_roundtrip(self):
        for mode in SharingMode:
            model = WaveletNet(4, 8, mode)
            vec = model.get_parameters()
            assert vec.size == model.parameter_count()
            bumped = vec + 0.25
            assert np.array_equal(model.with_parameters(bumped).get_parameters(), bumped)
            assert np.array_equal(model.get_parameters(), vec)

    def test_row_stacked_vectors_roundtrip(self):
        for mode in SharingMode:
            model = WaveletNet(4, 8, mode)
            rows = model.get_parameters() + np.arange(3.0)[:, None]
            stacked = model.with_parameters(rows)
            assert np.array_equal(stacked.get_parameters(), rows)
            assert stacked.params["kernels"].shape == (3, *model.params["kernels"].shape)
        with pytest.raises(ConfigError):
            model.with_parameters(rows[None])

    @pytest.mark.parametrize("entry, bad", [(-1, np.nan), (0, np.inf)],
                             ids=["nan_threshold", "inf_kernel"])
    def test_set_parameters_rejects_non_finite_entries(self, entry, bad):
        # the vector holds the kernels first and the thresholds last
        model = WaveletNet(4, 8, SharingMode.PER_LEVEL_CQF_HT)
        vec = model.get_parameters() + 0.25
        want = model.get_parameters()
        vec[entry] = bad
        with pytest.raises(ConfigError):
            model.with_parameters(vec)
        assert np.array_equal(model.get_parameters(), want)

    def test_with_parameters_rejects_a_vector_of_another_size(self):
        model = WaveletNet(4, 8, SharingMode.PER_LEVEL_CQF_HT)
        for vec in (np.zeros(model.parameter_count() + 1), np.zeros(1)):
            with pytest.raises(ConfigError, match="entries"):
                model.with_parameters(vec)

    @pytest.mark.parametrize("mode", list(SharingMode))
    def test_set_parameters_keeps_no_view_of_the_vector(self, mode):
        model = WaveletNet(4, 8, mode)
        vec = model.get_parameters() + 0.25
        want = vec.copy()
        model = model.with_parameters(vec)
        vec += 1.0
        assert np.array_equal(model.get_parameters(), want)


class TestImmutable:
    """A model cannot change once built, so nothing it derives from its
    parameters can go stale."""

    @pytest.mark.parametrize("name", ["levels", "kernel_size", "mode", "gamma",
                                      "params", "banks", "other"])
    def test_assigning_an_attribute_raises(self, name):
        model = WaveletNet(3, 8, SharingMode.PER_LEVEL_CQF_HT)
        model.banks  # derived and kept, as after a forward pass
        with pytest.raises(AttributeError, match="immutable"):
            setattr(model, name, 0.5)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(model, name)
        assert (model.levels, model.kernel_size, model.gamma) == (3, 8, 1.0)

    @pytest.mark.parametrize("mode", list(SharingMode), ids=lambda m: m.value)
    def test_writing_a_parameter_or_bank_raises(self, mode):
        model = WaveletNet(3, 8, mode)
        want = model.get_parameters()
        for name in model.params:
            with pytest.raises(ValueError, match="read-only"):
                model.params[name][...] = 0.5
        with pytest.raises(TypeError):
            model.params["b_plus"] = np.ones(3)
        for bank in model.banks:
            with pytest.raises(ValueError, match="read-only"):
                bank[...] = 0.5
        assert np.array_equal(model.get_parameters(), want)
        assert not np.any(model.params["b_plus"])

    def test_banks_kept_from_the_first_use(self):
        model = WaveletNet(4, 8, SharingMode.PER_LEVEL_CQF_HT)
        banks = model.banks
        assert isinstance(banks, tuple) and model.banks is banks
        model_forward(np.ones(64), model)
        assert model.banks is banks


class TestModelForward:
    def test_fixed_mode_reduces_to_plain_transform(self):
        rng = np.random.default_rng(2)
        bank = cqf_from_scaling(DB4_SCALING)
        model = WaveletNet(5, 8, SharingMode.DB4_FIXED)
        for n in (64, 625, 1024):
            x = rng.normal(size=n)
            rec = model_forward(x, model)
            _, details, approx = analysis_cascade(x, [bank] * 5)
            assert np.abs(rec.reconstruction - x).max() <= 1e-8
            for da, db in zip(rec.levels(rec.details), details):
                np.testing.assert_allclose(da, db, rtol=0, atol=1e-12)
            np.testing.assert_allclose(rec.approx, approx,
                                       rtol=0, atol=1e-12)
            assert rec.reconstruction.size == rec.inputs[0].size == n

    def test_saturated_thresholds_keep_only_approximation(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=256)
        model = _with(WaveletNet(4, 8, SharingMode.PER_LEVEL_CQF_HT),
                      b_plus=1e6, b_minus=1e6)
        rec = model_forward(x, model)
        for d in rec.levels(rec.details):
            assert np.array_equal(d, np.zeros_like(d))
        expected = synthesis_cascade(
            rec.approx, [np.zeros_like(d) for d in rec.levels(rec.details)],
            [a.shape[-1] for a in rec.inputs],
            [cqf_from_scaling(DB4_SCALING)] * model.levels)[0]
        np.testing.assert_allclose(rec.reconstruction, expected, rtol=0, atol=1e-12)

    def test_constraint_maintained_after_any_assignment(self):
        rng = np.random.default_rng(8)
        for mode in (SharingMode.SHARED_CQF_HT, SharingMode.PER_LEVEL_CQF_HT):
            model = WaveletNet(4, 8, mode)
            model = model.with_parameters(rng.normal(size=model.parameter_count()))
            for bank in model.banks:
                (h, g), (h_bar, g_bar) = bank[0], bank[1, :, ::-1]
                n = np.arange(8)
                assert np.array_equal(g, (-1.0) ** n * h[::-1])
                assert np.array_equal(h_bar, h[::-1])
                assert np.array_equal(g_bar, (-1.0) ** (n + 1) * h)
        model = WaveletNet(4, 8, SharingMode.PER_LEVEL_TWO_KERNEL_HT)
        model = model.with_parameters(rng.normal(size=model.parameter_count()))
        for bank in model.banks:
            (h, g), (h_bar, g_bar) = bank[0], bank[1, :, ::-1]
            assert np.array_equal(h_bar, h[::-1])
            assert np.array_equal(g_bar, g[::-1])

    @pytest.mark.parametrize("mode,distinct_banks", [
        ("db4", 1), ("db4-ht", 1), ("cwn", 1), ("decwn", 1),
        ("lcwn", 5), ("despawn", 5), ("despawn2", 5), ("free", 5)])
    def test_banks_derived_once_per_scheme_set(self, mode, distinct_banks,
                                               monkeypatch):
        # every scheme derives a model's banks in one call, on its first
        # forward pass, and never again: a shared or fixed scheme one bank
        # for every level, a per-level scheme all levels' banks from its
        # level-stacked kernels
        mode = SharingMode(mode)
        real, calls = mode.scheme.derive, []

        def counted(*kernels):
            calls.append(1)
            return real(*kernels)

        monkeypatch.setattr(mode, "scheme",
                            dataclasses.replace(mode.scheme, derive=counted))
        model = WaveletNet(5, 8, mode)
        x = np.random.default_rng(9).normal(size=(2, 64))
        for signal in (x[0], x, x[1]):
            trace = model_forward(signal, model)
            assert len(calls) == 1
            assert len(model.banks) == 5
            assert len({id(bank) for bank in model.banks}) == distinct_banks

    @pytest.mark.parametrize("mode", [m for m in SharingMode if m.scheme.kinds],
                             ids=lambda m: m.value)
    def test_non_finite_kernel_rejected(self, mode):
        # a model refuses the kernel, and its scheme would refuse to derive
        # a bank from it
        model = WaveletNet(3, 4, mode)
        kernels = np.array(model.params["kernels"])
        kernels[..., -1, -1] = np.nan
        with pytest.raises(ConfigError, match="non-finite"):
            _with(model, kernels=kernels)
        with pytest.raises(InvalidKernelError):
            mode.scheme.derive(kernels)

    def test_depth_and_signal_validation(self):
        model = WaveletNet(8, 8, SharingMode.DB4_FIXED)
        with pytest.raises(InvalidDepthError):
            model_forward(np.zeros(100), model)  # max depth 7
        with pytest.raises(InvalidSignalError):
            model_forward(np.zeros(1), model)


class TestLoss:
    def test_perfect_zero_case(self):
        x = np.zeros(8)
        model = WaveletNet(2, 8, SharingMode.DB4_FIXED)
        rec = model_forward(x, model)
        assert loss_terms(rec, x, 1.0) == (0.0, 0.0, 0.0)

    def test_mean_absolute_residual(self):
        rec = _record(details=[np.zeros(2)], approx=np.zeros(2),
                      lengths=[4], recon=np.zeros(4))
        total, recon, spars = loss_terms(rec, np.ones(4), 0.0)
        assert recon == 1.0 and total == 1.0 and spars == 0.0

    def test_hand_computed_sparsity(self):
        signal = np.array([1.0, 2.0, 3.0, 4.0])
        rec = _record(details=[np.array([1.0, -1.0]), np.array([0.0])],
                      approx=np.array([2.0]), lengths=[4, 2], recon=signal.copy())
        total, recon, spars = loss_terms(rec, signal, 1.0)
        assert recon == 0.0
        assert spars == pytest.approx(1.0, abs=0)
        assert total == pytest.approx(1.0, abs=0)

    def test_non_negativity(self):
        rng = np.random.default_rng(5)
        model = WaveletNet(5, 8, SharingMode.PER_LEVEL_CQF_HT)
        model = model.with_parameters(
            model.get_parameters() + rng.normal(0, 0.1, model.parameter_count()))
        for _ in range(10):
            x = rng.normal(size=128)
            total, recon, spars = loss_terms(model_forward(x, model), x, 0.7)
            assert total >= 0 and recon >= 0 and spars >= 0
            assert total == pytest.approx(recon + 0.7 * spars, rel=1e-15)

    def test_length_mismatch_rejected(self):
        model = WaveletNet(2, 8, SharingMode.DB4_FIXED)
        rec = model_forward(np.ones(16), model)
        with pytest.raises(InvalidSignalError):
            loss_terms(rec, np.ones(17), 1.0)


def _record(details, approx, lengths, recon):
    from wavelearn.network import ForwardTrace

    pyramid = np.concatenate(details)
    return ForwardTrace(
        inputs=[np.zeros(n) for n in lengths],
        offsets=np.cumsum([0] + [d.size for d in details]).tolist(),
        details_pre=pyramid, details=pyramid, gates=(), approx=approx,
        recon_chain=[recon],
    )
