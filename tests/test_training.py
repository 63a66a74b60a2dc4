"""Gradient correctness against the finite-difference oracle, optimizer
behavior, and the training loop contract."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavelearn.analysis import DictionaryModel, dict_classify, extract_features
from wavelearn.errors import ConfigError, InvalidDepthError, InvalidSignalError
from wavelearn.network import (
    SharingMode,
    WaveletNet,
    forward_trace,
    ht_gate_derivatives,
    loss_terms,
    model_forward,
)
from wavelearn import training, wavelet
from wavelearn.wavelet import (
    CascadePlan,
    max_depth,
    polyphase,
    strided_corr,
    upsample_conv,
)
from wavelearn.training import (
    AdamState,
    TrainConfig,
    adam_step,
    backward_full,
    gradient_check,
    kink_free_difference,
    residual_sign,
    train,
)

TRAINABLE_MODES = [m for m in SharingMode if m is not SharingMode.DB4_FIXED]


class TestBackward:
    def test_zero_signal_gives_zero_gradients(self):
        for mode in TRAINABLE_MODES:
            model = WaveletNet(4, 8, mode)
            (total, _, _), grads = backward_full(np.zeros(64), model)
            assert total == 0.0
            assert np.array_equal(grads, np.zeros_like(grads))

    def test_gradient_shape_matches_mode(self):
        for mode in SharingMode:
            model = WaveletNet(6, 8, mode)
            _, grads = backward_full(np.random.default_rng(0).normal(size=128), model)
            assert grads.shape == (model.parameter_count(),)
            assert np.all(np.isfinite(grads))

    @pytest.mark.parametrize("mode", TRAINABLE_MODES, ids=lambda m: m.value)
    def test_matches_finite_differences(self, mode):
        report = gradient_check(mode, seed=0, n_seeds=2)
        assert report.passed, report.failures[:5]

    @pytest.mark.parametrize("n_seeds,rel_tol", [
        (0, 1e-4), (-1, 1e-4), (1, np.nan), (1, np.inf), (1, -1.0), (1, 0.0),
        (1.5, 1e-4), (True, 1e-4),
    ])
    def test_gradient_check_that_checks_nothing_rejected(self, n_seeds, rel_tol):
        with pytest.raises(ConfigError):
            gradient_check(SharingMode.SHARED_CQF, n_seeds=n_seeds,
                           rel_tol=rel_tol)

    def test_scalar_at_a_kink_is_neither_checked_nor_failed(self, monkeypatch):
        real = training.kink_free_difference

        def kink_at_zero(signal, model, index, steps, plan=None):
            return None if index == 0 else real(signal, model, index, steps, plan)

        monkeypatch.setattr(training, "kink_free_difference", kink_at_zero)
        report = gradient_check(SharingMode.SHARED_CQF, seed=0, n_seeds=2)
        assert report.passed
        assert report.kinks == [(0, 0), (1, 0)]
        assert report.checked == 2 * (WaveletNet(8, 8, SharingMode.SHARED_CQF)
                                      .parameter_count() - 1)

    def test_threshold_gradient_is_the_sparsity_path(self):
        # isolate the sparsity contribution by differencing gamma values:
        # gradients are affine in gamma, so grad(g=1) - grad(g=0) is exactly
        # the sparsity-term gradient, which for b+ at level l is
        # (1/M) sum sign(d_l) * dHT/db+ evaluated termwise.
        rng = np.random.default_rng(12)
        signal = rng.normal(size=256)
        # the fixed bank trains only the thresholds: b+ then b-
        thresholds = np.abs(rng.normal(0, 0.05, 8))
        model = WaveletNet(4, 8, SharingMode.DB4_FIXED_HT).with_parameters(thresholds)
        _, g1 = backward_full(signal, model)
        model = WaveletNet(4, 8, SharingMode.DB4_FIXED_HT, gamma=0.0).with_parameters(
            thresholds)
        _, g0 = backward_full(signal, model)
        spars_grad = g1 - g0

        trace = forward_trace(model, signal)
        m_total = trace.details.size + trace.approx.size
        _, dy_dbp, dy_dbm = ht_gate_derivatives(
            trace.details_pre, *trace.gates)
        for level, (signs, bp, bm) in enumerate(zip(
                *(trace.levels(a) for a in (np.sign(trace.details), dy_dbp, dy_dbm)))):
            expect_bp = np.dot(signs, bp) / m_total
            expect_bm = np.dot(signs, bm) / m_total
            assert spars_grad[level] == pytest.approx(expect_bp, abs=1e-12)
            assert spars_grad[4 + level] == pytest.approx(expect_bm, abs=1e-12)

    def test_one_ulp_tap_moves_do_not_move_the_init_gradient(self,
                                                              detect_training):
        # a fresh model reconstructs perfectly, so its residual is rounding
        # noise; `residual_sign` keeps the gradient from following it
        train_x, _, config = detect_training
        model = WaveletNet(config.levels, config.kernel_size,
                           SharingMode.PER_LEVEL_CQF_HT, gamma=config.gamma)
        vec = model.get_parameters()
        _, before = backward_full(train_x[0], model)
        for tap in range(model.kernel_size):
            moved = vec.copy()
            moved[tap] = np.nextafter(moved[tap], np.inf)
            _, after = backward_full(train_x[0], model.with_parameters(moved))
            assert np.linalg.norm(after - before) <= 1e-12 * np.linalg.norm(before)

    def test_residual_within_rounding_counts_as_zero(self):
        # the tolerance is eps * levels * max|x| of each window: 12 eps in
        # the first row, and far below 1e-300 in the second
        eps = np.finfo(float).eps
        signal = np.array([[-4.0, 0.0, 0.0, 0.0], [1e-300, 0.0, 0.0, 0.0]])
        recon = np.array([[-4.0, 12 * eps, -13 * eps, 11 * eps],
                          [0.0, 1e-300, -1e-300, 0.0]])
        assert residual_sign(signal, recon, 3).tolist() == [
            [0.0, 0.0, 1.0, 0.0], [1.0, -1.0, 1.0, 0.0]]

    def test_fixed_ht_thresholds_match_fd_near_zero(self):
        # thresholds nudged off the exact kink so the oracle is well posed
        rng = np.random.default_rng(3)
        signal = rng.normal(size=256)
        model = WaveletNet(4, 8, SharingMode.DB4_FIXED_HT).with_parameters(np.full(8, 0.01))
        _, grads = backward_full(signal, model)
        for i in range(grads.size):
            fd = kink_free_difference(signal, model, i, [1e-6])
            assert fd is not None
            assert abs(grads[i] - fd) <= max(1e-7, 1e-4 * max(abs(fd), abs(grads[i])))


def _backward_written_out(signal, model, gamma):
    """`backward_full` with each level's transpose spelled out: going down, a
    zero pad and one strided correlation with the decoder stack (the reversed
    synthesis kernels); coming back, one upsampling convolution of both
    channels with the encoder stack (the analysis kernels), against the level
    input zero-padded likewise, and a truncation to the level input's length.
    Each of those calls also gives the level's kernel gradient."""
    trace = forward_trace(model, signal)
    total, recon, sparsity = loss_terms(trace, signal, gamma)
    scale = gamma / (trace.details.size + trace.approx.size)
    scheme = model.mode.scheme
    details = trace.levels(trace.details)
    banks = np.stack(model.operands[:2], -3)  # level l's (2, 2, K) bank
    synth_grads, analysis_grads = [], [None] * model.levels
    g_x = -residual_sign(signal, trace.reconstruction, model.levels) / signal.size
    g_d = []
    for l in range(model.levels):
        bank = banks[l]
        v = trace.recon_chain[l + 1]
        gy = np.zeros(2 * v.size)
        gy[: trace.inputs[l].size] = g_x
        grad = np.empty((2, bank.shape[-1]))
        g_x, g = strided_corr(gy, bank[1], (v, details[l]), grad)
        synth_grads.append(grad)
        g_d.append(g)
    g_details = scale * np.sign(trace.details) + np.concatenate(g_d)
    grads = {}
    g_pre = g_details
    if model.mode.trains_thresholds:
        dy_dx, dy_dbp, dy_dbm = ht_gate_derivatives(
            trace.details_pre, *trace.gates)
        g_pre = g_details * dy_dx
        grads["b_plus"] = np.add.reduceat(g_details * dy_dbp, trace.offsets[:-1])
        grads["b_minus"] = np.add.reduceat(g_details * dy_dbm, trace.offsets[:-1])
    g_a = g_x + scale * np.sign(trace.approx)
    for l in range(model.levels - 1, -1, -1):
        bank = banks[l]
        g_dpre = trace.levels(g_pre)[l]
        x_pad = np.zeros(2 * g_a.size)
        x_pad[: trace.inputs[l].size] = trace.inputs[l]
        grad = np.empty((bank.shape[-1], 2))
        g_pad = upsample_conv((g_a, g_dpre), polyphase(bank[0]), x_pad, grad)
        analysis_grads[l] = polyphase(grad.reshape(2, -1)).reshape(2, -1)
        g_a = g_pad[: trace.inputs[l].size]
    kernels = scheme.fold(np.stack((np.stack(analysis_grads), np.stack(synth_grads)), 1))
    grads["kernels"] = kernels.sum(0, keepdims=True) if scheme.shared else kernels
    return (total, recon, sparsity), model.flatten(grads)


class TestBackwardMatchesWrittenOutTranspose:
    @settings(max_examples=150, deadline=None)
    @given(mode=st.sampled_from(list(SharingMode)),
           n=st.integers(2, 300),
           k=st.sampled_from([2, 4, 8, 16]),
           depth=st.floats(0.0, 1.0),
           perturb=st.sampled_from([0.0, 0.02, 0.3]),
           zeros=st.sampled_from([0.0, 0.3, 1.0]),
           gamma=st.sampled_from([0.0, 0.5, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_bitwise_equal(self, mode, n, k, depth, perturb, zeros, gamma,
                           seed):
        # depth 1.0 reaches max_depth, where kernels outgrow the signal;
        # an unperturbed model reconstructs exactly, so residuals are zero
        rng = np.random.default_rng(seed)
        model = WaveletNet(1 + round(depth * (max_depth(n) - 1)), mode.scheme.kernel_size or k,
                           mode, gamma=gamma)
        vec = model.get_parameters()
        model = model.with_parameters(vec + rng.normal(0.0, perturb, vec.size))
        signal = rng.normal(size=n)
        signal[rng.random(n) < zeros] = 0.0
        triple, grads = backward_full(signal, model)
        expect_triple, expect_grads = _backward_written_out(signal, model, gamma)
        assert np.array(triple).tobytes() == np.array(expect_triple).tobytes()
        assert grads.tobytes() == expect_grads.tobytes()


def _trace_arrays(trace):
    """Every per-window array a forward trace holds, in a fixed order."""
    return (trace.inputs + [trace.details_pre, trace.details, *trace.gates,
                            trace.approx] + trace.recon_chain)


class TestBlockPath:
    """A (B, N) block runs every row through the same level ops as a lone
    window and adds the rows' gradients in row order, as the per-window loop
    does."""

    @settings(max_examples=100, deadline=None)
    @given(mode=st.sampled_from(list(SharingMode)),
           n=st.integers(2, 300),
           k=st.sampled_from([2, 4, 8, 16]),
           full_depth=st.booleans(),
           rows=st.integers(1, 9),
           perturb=st.sampled_from([0.0, 0.02, 0.3]),
           zeros=st.sampled_from([0.0, 0.3, 1.0]),
           gamma=st.sampled_from([0.0, 0.5, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_block_equals_its_rows(self, mode, n, k, full_depth, rows, perturb,
                                   zeros, gamma, seed):
        rng = np.random.default_rng(seed)
        depth = max_depth(n) if full_depth else max(1, max_depth(n) // 2)
        model = WaveletNet(depth, mode.scheme.kernel_size or k, mode, gamma=gamma)
        vec = model.get_parameters()
        model = model.with_parameters(vec + rng.normal(0.0, perturb, vec.size))
        block = rng.normal(size=(rows, n))
        block[rng.random(block.shape) < zeros] = 0.0

        triple, grads = backward_full(block, model)
        column_major = backward_full(np.asfortranarray(block), model)
        assert column_major[1].tobytes() == grads.tobytes()
        per_row = [backward_full(x, model) for x in block]
        for got, terms in ((np.array(triple), [np.array(t) for t, _ in per_row]),
                           (grads, [g for _, g in per_row])):
            scale = sum(np.abs(t) for t in terms)
            assert np.all(np.abs(got - sum(terms)) <= 1e-12 * scale)

        trace = forward_trace(model, block)
        assert ([a.shape[-1] for a in trace.inputs]
                == [a.shape[-1] for a in forward_trace(model, block[0]).inputs])
        for b, x in enumerate(block):
            for got, alone in zip(_trace_arrays(trace), _trace_arrays(forward_trace(model, x))):
                assert got[b].shape == alone.shape
                assert np.all(np.abs(got[b] - alone) <= 1e-12 * np.abs(alone))

    def test_block_path_follows_the_per_window_loop(self, detect_training,
                                                     detect_runs, monkeypatch):
        # the acceptance run trains on one (8, 1024) block per Adam step;
        # train again feeding `backward_full` one window at a time
        train_x, _, config = detect_training
        real = training.backward_full
        windows = []

        def per_window(block, model, plan=None):
            total, grad = np.zeros(3), 0.0
            for x in block:
                triple, flat = real(x, model)
                total, grad = total + triple, grad + flat
            windows.append(len(block))
            return tuple(total), grad

        monkeypatch.setattr("wavelearn.training.backward_full", per_window)
        loop = np.array(train(train_x, SharingMode.PER_LEVEL_CQF_HT,
                              config).loss_history)
        assert sum(windows) == config.epochs * len(train_x)
        block = np.array(detect_runs["first"]["report"].loss_history)
        assert loop.shape == block.shape == (config.epochs, 3)
        assert np.max(np.abs(block - loop) / np.abs(loop)) <= 1e-4


def _perturbed(mode, levels, rng, k=8):
    model = WaveletNet(levels, mode.scheme.kernel_size or k, mode, gamma=0.7)
    vec = model.get_parameters()
    return model.with_parameters(vec + rng.normal(0.0, 0.05, vec.size))


def _assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCascadePlans:
    """A plan only lends scratch: every array of a trace, the loss triple and
    the gradient are byte for byte those of the no-plan path, and none of
    them is part of the plan, so later calls on it leave them alone."""

    @pytest.mark.parametrize("mode", list(SharingMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("shape", [(7,), (33,), (3, 100), (625,), (2, 1024)])
    @pytest.mark.parametrize("k", [2, 8])
    def test_equal_to_the_no_plan_path(self, mode, shape, k):
        # full depth, where the deepest kernels wrap around their inputs
        rng = np.random.default_rng(shape[-1] + k)
        model = _perturbed(mode, max_depth(shape[-1]), rng, k)
        x = rng.normal(size=shape)
        plan = CascadePlan(shape, model.levels, model.kernel_size)
        want = _trace_arrays(forward_trace(model, x))
        triple, grad = backward_full(x, model)
        for _ in range(2):  # a fresh plan and a used one
            _assert_same_bytes(_trace_arrays(forward_trace(model, x, plan)), want)
            got_triple, got_grad = backward_full(x, model, plan)
            assert got_triple == triple
            assert got_grad.tobytes() == grad.tobytes()

    def test_results_outlive_later_calls_on_the_plan(self):
        rng = np.random.default_rng(1)
        model = _perturbed(SharingMode.PER_LEVEL_CQF_HT, 10, rng)
        x, y, z = rng.normal(size=(3, 8, 1024))
        plan = CascadePlan(x.shape, 10, 8)
        trace = forward_trace(model, x, plan)
        kept = [a.copy() for a in _trace_arrays(trace)]
        _, grad = backward_full(x, model, plan)
        kept_grad = grad.copy()
        forward_trace(model, y, plan)
        backward_full(z, model, plan)
        _assert_same_bytes(_trace_arrays(trace), kept)
        assert grad.tobytes() == kept_grad.tobytes()

    def test_two_threads_with_two_plans_give_the_serial_results(self):
        rng = np.random.default_rng(2)
        model = _perturbed(SharingMode.FREE_HT, 8, rng)
        blocks = rng.normal(size=(2, 6, 4, 300))
        serial = [[backward_full(x, model)[1] for x in rows] for rows in blocks]
        results = [[], []]

        def run(t):
            plan = CascadePlan(blocks[t, 0].shape, 8, 8)
            for _ in range(5):
                results[t].append([backward_full(x, model, plan)[1] for x in blocks[t]])

        threads = [threading.Thread(target=run, args=(t,)) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for t in range(2):
            assert len(results[t]) == 5
            for grads in results[t]:
                _assert_same_bytes(grads, serial[t])

    def test_two_threads_scoring_one_model_without_a_plan_give_the_serial_results(self):
        # the read path: one window's features and a 2-row block's trace per
        # step, the gather indices derived while both threads run
        rng = np.random.default_rng(3)
        model = _perturbed(SharingMode.PER_LEVEL_CQF_HT, 10, rng)
        windows = rng.normal(size=(2, 6, 2, 1024))

        def score(blocks):
            return [[extract_features(x[0], model).vector(),
                     *_trace_arrays(forward_trace(model, x))] for x in blocks]

        serial = [score(blocks) for blocks in windows]
        wavelet._gather_index.cache_clear()
        start, results = threading.Barrier(2), [[], []]

        def run(t):
            start.wait()
            for _ in range(5):
                results[t].append(score(windows[t]))

        threads = [threading.Thread(target=run, args=(t,)) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for t in range(2):
            assert len(results[t]) == 5
            for scored in results[t]:
                for got, want in zip(scored, serial[t]):
                    _assert_same_bytes(got, want)

    @pytest.mark.parametrize("shape, levels, taps", [
        ((8, 1024), 10, 8), ((1024,), 10, 8), ((8, 512), 10, 8), ((8, 1024), 9, 8),
        ((8, 1024), 10, 4)])
    def test_plan_of_another_shape_rejected(self, shape, levels, taps):
        model = WaveletNet(10, 8, SharingMode.PER_LEVEL_CQF_HT)
        x = np.zeros((8, 1024))
        plan = CascadePlan(shape, levels, taps)
        if plan.key == (x.shape, 10, 8):
            assert forward_trace(model, x, plan).reconstruction.shape == x.shape
            return
        with pytest.raises(ConfigError, match="plan"):
            forward_trace(model, x, plan)
        with pytest.raises(ConfigError, match="plan"):
            backward_full(x, model, plan)


class TestCallCounts:
    """Exact call counts of one warm call at L = 10, measured with numpy
    2.4.6; they include numpy's own Python wrappers, so another numpy
    version may move them.

    History, at (8, 1 024) unless said. Before the level ops took plans and
    precomputed operands, despawn's forward made 95 Python-level and 214
    C-level calls and its backward 256 and 494, db4-ht's backward 255 and
    495. Before a model derived its level-first operands in one pass and
    `upsample_conv` padded its gradient operand inline, despawn's backward
    made 193 and 384 (153 and 156 with a plan), and a new model's first
    planned backward 196 and 202 (db4-ht), 208 and 213 (decwn), 216 and 211
    (despawn), 205 and 204 (despawn2), 206 and 204 (free). Before the fixed
    scheme's db4 bank was derived once at import, db4-ht's first planned
    backward made 179 and 186. Before `LatentFeatures` held one vector built
    in one concatenate, `extract_features` at (1 024,) made 97 and 212.
    Before the level ops gathered the copies of blocks of at most `GATHER`
    samples (levels 8 to 10 at (8, 1 024), 5 to 10 at (1 024,)), despawn's
    forward made 80 and 184 (60 and 70 with a plan) and its backward 183 and
    384 (143 and 156), db4-ht's backward 182 and 375 (142 and 147); a train
    step 311 and 427 (despawn) and 287 and 402 (db4-ht); a new model's first
    planned backward 158 and 172 (db4-ht), 181 and 197 (decwn), 180 and 195
    (despawn), 169 and 188 (despawn2), 170 and 188 (free); `extract_features`
    94 and 209 and `dict_classify` 105 and 208. A gathered level makes more
    C-level calls than a planned strided one (the ``take``, in synthesis the
    channels' concatenate, and the transposed view) and fewer Python-level
    ones than an unplanned one, so the planned C-level counts rose."""

    @staticmethod
    def _tally(calls):
        return (sum(kind == "python" for kind, _ in calls),
                sum(kind == "c" for kind, _ in calls))

    @pytest.mark.parametrize("mode, planned, forward, backward", [
        ("despawn", False, (71, 156), (165, 331)),
        ("despawn", True, (57, 79), (137, 177)),
        ("db4-ht", False, (71, 156), (164, 319)),
        ("db4-ht", True, (57, 79), (136, 165)),
    ])
    def test_counts(self, count_calls, mode, planned, forward, backward):
        model = _perturbed(SharingMode(mode), 10, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(8, 1024))
        plan = (CascadePlan(x.shape, 10, 8),) if planned else ()
        assert self._tally(count_calls(forward_trace, model, x, *plan)) == forward
        assert self._tally(count_calls(backward_full, x, model, *plan)) == backward

    @pytest.mark.parametrize("mode, planned, forward, backward", [
        ("despawn", False, (86, 199), (199, 418)),
        ("despawn", True, (66, 74), (159, 168)),
        ("db4-ht", False, (86, 199), (194, 405)),
        ("db4-ht", True, (66, 74), (154, 155)),
    ])
    def test_counts_over_three_tiles(self, count_calls, mode, planned, forward, backward):
        # level 1 of a (1, 40 000) window has 20 000 outputs per channel, so
        # its level ops run three tiles of `TILE`, level 2's two
        model = _perturbed(SharingMode(mode), 10, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(1, 40000))
        plan = (CascadePlan(x.shape, 10, 8),) if planned else ()
        assert self._tally(count_calls(forward_trace, model, x, *plan)) == forward
        assert self._tally(count_calls(backward_full, x, model, *plan)) == backward

    @pytest.mark.parametrize("mode, adam, step", [
        ("despawn", (16, 15), (299, 406)), ("db4-ht", (16, 15), (275, 378))])
    def test_an_adam_step_and_a_train_step(self, count_calls, mode, adam, step):
        # the step is a `train` run of one epoch over one batch of 8 windows:
        # a new model and plan, one backward and one Adam step
        mode = SharingMode(mode)
        model = _perturbed(mode, 10, np.random.default_rng(0))
        config = TrainConfig(epochs=1, batch_size=8, levels=10)
        grads = np.random.default_rng(2).normal(size=model.parameter_count())
        state = AdamState.zeros(grads.size)
        assert self._tally(count_calls(adam_step, model, grads, state, config)) == adam
        windows = list(np.random.default_rng(3).normal(size=(8, 1024)))
        assert self._tally(count_calls(train, windows, mode, config)) == step

    @pytest.mark.parametrize("mode, counts", [
        ("db4-ht", (152, 190)), ("decwn", (175, 218)), ("despawn", (174, 216)),
        ("despawn2", (163, 209)), ("free", (164, 209)),
    ])
    def test_a_new_models_first_backward(self, count_calls, mode, counts):
        # a training step runs on the model the last Adam step made, so its
        # backward derives that model's operands; one mode per kernel scheme
        model = _perturbed(SharingMode(mode), 10, np.random.default_rng(0))
        vec = model.get_parameters()
        x = np.random.default_rng(1).normal(size=(8, 1024))
        plan = CascadePlan(x.shape, 10, 8)
        calls = count_calls(lambda: backward_full(x, model.with_parameters(vec), plan))
        assert self._tally(calls) == counts

    def test_read_path(self, count_calls):
        # one window's features, and its losses under a 2-class dictionary
        model = _perturbed(SharingMode.PER_LEVEL_CQF_HT, 10, np.random.default_rng(0))
        dictionary = DictionaryModel(class_models={
            c: _perturbed(SharingMode.PER_LEVEL_CQF_HT, 10, np.random.default_rng(i))
            for i, c in enumerate("AB")})
        x = np.random.default_rng(1).normal(size=1024)
        assert self._tally(count_calls(extract_features, x, model)) == (76, 157)
        assert self._tally(count_calls(dict_classify, x, dictionary)) == (90, 164)


class TestProperties:
    """Perfect reconstruction and exact gradients over drawn lengths, kernel
    sizes, depths and block heights. A central difference that straddles an
    |x| kink legitimately disagrees with the subgradient, so the gradient is
    compared by the rule of `gradient_check`: the step shrinks while it
    straddles one, and a scalar still at a kink is not compared."""

    @settings(max_examples=80, deadline=None)
    @given(mode=st.sampled_from(list(SharingMode)),
           n=st.integers(2, 600),
           k=st.sampled_from([2, 4, 8, 16]),
           depth=st.floats(0.0, 1.0),
           rows=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_fresh_model_reconstructs_perfectly(self, mode, n, k, depth, rows,
                                                seed):
        model = WaveletNet(1 + round(depth * (max_depth(n) - 1)), mode.scheme.kernel_size or k,
                           mode)
        block = np.random.default_rng(seed).normal(size=(rows, n))
        recon = forward_trace(model, block).reconstruction
        assert np.max(np.abs(recon - block)) <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(TRAINABLE_MODES),
           n=st.integers(8, 300),
           k=st.sampled_from([2, 4, 8, 16]),
           depth=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_gradient_matches_finite_differences(self, mode, n, k, depth,
                                                 seed):
        rng = np.random.default_rng(seed)
        model = WaveletNet(1 + round(depth * (max_depth(n) - 1)), mode.scheme.kernel_size or k,
                           mode)
        vec = model.get_parameters()
        model = model.with_parameters(vec + rng.normal(0.0, 0.02, vec.size))
        vec = model.get_parameters()
        signal = rng.normal(size=n)
        _, grads = backward_full(signal, model)
        for i in rng.choice(vec.size, size=min(6, vec.size), replace=False):
            steps = [step * max(1.0, abs(vec[i])) for step in training.GRAD_CHECK_STEPS]
            fd = kink_free_difference(signal, model, int(i), steps)
            if fd is not None:
                assert abs(grads[i] - fd) <= max(1e-7, 1e-4 * max(abs(fd), abs(grads[i])))

    def test_kink_straddled_by_the_first_step_is_stepped_past(self):
        # lcwn, N = 96, L = 3: taps 1 and 2 of level 0 move a residual of
        # 2.07e-6 across zero within the 1e-6 step, and the central
        # difference there misses the gradient by 5e-3
        rng = np.random.default_rng(879038057)
        model = WaveletNet(3, 8, SharingMode.PER_LEVEL_CQF)
        vec = model.get_parameters()
        model = model.with_parameters(vec + rng.normal(0.0, 0.02, vec.size))
        signal = rng.normal(size=96)
        _, grads = backward_full(signal, model)
        for i in (1, 2):
            (up, down), straddles = training._bumped_losses(signal, model, i, 1e-6)
            assert straddles
            straddled = (up - down) / 2e-6
            assert abs(grads[i] - straddled) > 1e-3
            fd = kink_free_difference(signal, model, i, training.GRAD_CHECK_STEPS)
            assert abs(grads[i] - fd) <= 1e-4 * abs(grads[i])
            # no smaller step: the scalar is at a kink, not a pass or failure
            assert kink_free_difference(signal, model, i, [1e-6]) is None


class TestFiniteDifferenceOracle:
    def test_no_trainables_is_an_empty_domain(self):
        model = WaveletNet(3, 8, SharingMode.DB4_FIXED)
        assert model.get_parameters().size == 0
        with pytest.raises(IndexError):
            kink_free_difference(np.ones(16), model, 0, [1e-6])

    def test_constant_loss_region_gives_zero(self):
        model = WaveletNet(3, 8, SharingMode.DB4_FIXED_HT)
        assert kink_free_difference(np.zeros(16), model, 0, [1e-6]) == 0.0

    def test_twenty_random_parameter_picks(self):
        rng = np.random.default_rng(21)
        model = WaveletNet(8, 8, SharingMode.PER_LEVEL_CQF_HT)
        vec = model.get_parameters()
        model = model.with_parameters(vec + rng.normal(0, 0.02, vec.size))
        vec = model.get_parameters()
        signal = rng.normal(size=256)
        _, grads = backward_full(signal, model)
        for i in rng.choice(vec.size, size=20, replace=False):
            step = 1e-6 * max(1.0, abs(vec[i]))
            fd = kink_free_difference(signal, model, int(i), [step])
            assert fd is not None
            assert abs(grads[i] - fd) <= max(1e-7, 1e-4 * max(abs(fd), abs(grads[i])))

    def test_restores_parameters_exactly(self):
        # the bumped parameters go to models of their own: the oracle's
        # model keeps its parameters and its banks bitwise, even when a
        # forward pass of a bumped model raises
        for mode in TRAINABLE_MODES:
            model = WaveletNet(4, 8, mode)
            before = {name: value.tobytes() for name, value in model.params.items()}
            operands = model.operands
            kink_free_difference(np.random.default_rng(0).normal(size=64), model, 3, [1e-6])
            with pytest.raises(InvalidDepthError):
                kink_free_difference(np.ones(8), model, 3, [1e-6])
            assert {name: value.tobytes() for name, value in model.params.items()} == before
            assert model.operands is operands


class TestAdam:
    def _config(self, lr=1e-3):
        return TrainConfig(learning_rate=lr)

    def test_zero_gradient_from_rest_keeps_parameters(self):
        model = WaveletNet(3, 8, SharingMode.PER_LEVEL_CQF_HT)
        before = model.get_parameters()
        state = AdamState.zeros(before.size)
        stepped, state = adam_step(model, np.zeros(before.size), state, self._config())
        assert np.array_equal(stepped.get_parameters(), before)
        assert np.array_equal(state.m, np.zeros_like(state.m))

    def test_zero_gradient_decays_moments(self):
        model = WaveletNet(3, 8, SharingMode.PER_LEVEL_CQF_HT)
        n = model.get_parameters().size
        state = AdamState(m=np.full(n, 0.5), v=np.full(n, 0.5))
        adam_step(model, np.zeros(n), state, self._config())
        assert np.all(state.m < 0.5) and np.all(state.v < 0.5)
        assert np.all(state.m > 0.0) and np.all(state.v > 0.0)

    def test_first_step_magnitude(self):
        model = WaveletNet(2, 8, SharingMode.SHARED_CQF)
        before = model.get_parameters()
        grads = np.full(before.size, 0.37)
        state = AdamState.zeros(before.size)
        lr = 1e-2
        stepped, state = adam_step(model, grads, state, self._config(lr))
        delta = stepped.get_parameters() - before
        # bias-corrected m/sqrt(v) is sign(g) on the first step
        np.testing.assert_allclose(delta, -lr * np.ones_like(delta), rtol=1e-6)
        # a new model: the given one keeps its parameters
        assert stepped is not model
        assert np.array_equal(model.get_parameters(), before)

    def test_shape_mismatch_rejected(self):
        model = WaveletNet(2, 8, SharingMode.SHARED_CQF)
        state = AdamState.zeros(model.get_parameters().size)
        with pytest.raises(ConfigError):
            adam_step(model, np.zeros(3), state, self._config())

    def test_deterministic(self):
        results = []
        for _ in range(2):
            model = WaveletNet(3, 8, SharingMode.PER_LEVEL_CQF_HT)
            state = AdamState.zeros(model.get_parameters().size)
            rng = np.random.default_rng(17)
            for _ in range(5):
                model, state = adam_step(model, rng.normal(size=state.m.size), state,
                                         self._config())
            results.append(model.get_parameters())
        assert np.array_equal(results[0], results[1])


def _sinusoid_set(n_signals=12, n=256, noise=0.1, seed=5):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return [np.sin(2 * np.pi * 0.07 * t) + rng.normal(0, noise, n)
            for _ in range(n_signals)]


class TestTrainLoop:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ConfigError):
            train(_sinusoid_set(), SharingMode.PER_LEVEL_CQF_HT,
                  TrainConfig(epochs=0))

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", np.nan), ("learning_rate", np.inf),
        ("learning_rate", -1e-3), ("gamma", np.nan), ("gamma", np.inf),
        ("gamma", -1.0), ("epochs", 2.5), ("batch_size", 2.5), ("batch_size", 0),
        ("kernel_size", 8.0), ("kernel_size", 3), ("levels", 2.5), ("levels", 0),
        ("seed", -1), ("seed", 3.5), ("seed", True), ("learning_rate", True),
    ])
    def test_bad_hyper_parameter_rejected_before_any_step(self, field, value,
                                                          monkeypatch):
        steps = []
        monkeypatch.setattr("wavelearn.training.backward_full",
                            lambda *args: steps.append(1))
        with pytest.raises(ConfigError):
            train(_sinusoid_set(n_signals=2), SharingMode.PER_LEVEL_CQF_HT,
                  TrainConfig(**{"epochs": 1, "levels": 5, field: value}))
        assert not steps

    def test_windows_of_unequal_length_rejected_before_any_step(self,
                                                               monkeypatch):
        steps = []
        monkeypatch.setattr("wavelearn.training.backward_full",
                            lambda *args: steps.append(1))
        signals = _sinusoid_set(n_signals=4)
        signals[2] = signals[2][:-1]
        with pytest.raises(ConfigError):
            train(signals, SharingMode.PER_LEVEL_CQF_HT,
                  TrainConfig(epochs=1, levels=5))
        assert not steps

    def test_a_batch_runs_in_blocks_of_at_most_block_samples(self,
                                                             monkeypatch):
        real = training.backward_full
        shapes, plans = [], {}

        def recorded(block, model, plan=None):
            shapes.append(block.shape)
            assert plans.setdefault(block.shape, plan) is plan
            return real(block, model, plan)

        monkeypatch.setattr("wavelearn.training.backward_full", recorded)
        monkeypatch.setattr("wavelearn.training.BLOCK_SAMPLES", 3 * 256)
        train(_sinusoid_set(n_signals=12), SharingMode.PER_LEVEL_CQF_HT,
              TrainConfig(epochs=1, levels=5, batch_size=8))
        assert shapes == [(3, 256), (3, 256), (2, 256), (3, 256), (1, 256)]
        # one plan per block shape, kept for the whole run
        assert {shape: plan.key for shape, plan in plans.items()} == {
            shape: (shape, 5, 8) for shape in shapes}
        assert len(set(map(id, plans.values()))) == 3
        shapes.clear()
        plans.clear()
        monkeypatch.setattr("wavelearn.training.BLOCK_SAMPLES", 100)
        train(_sinusoid_set(n_signals=3), SharingMode.PER_LEVEL_CQF_HT,
              TrainConfig(epochs=1, levels=5, batch_size=2))
        assert shapes == [(1, 256)] * 3

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            train([], SharingMode.PER_LEVEL_CQF_HT, TrainConfig(epochs=1))
        with pytest.raises(ConfigError, match="empty"):
            train(np.zeros((0, 256)), SharingMode.PER_LEVEL_CQF_HT, TrainConfig(epochs=1))

    def test_a_block_of_windows_trains_as_their_list(self):
        # a (B, N) array is B windows, not a truth value numpy refuses
        signals = _sinusoid_set(n_signals=5)
        config = TrainConfig(epochs=2, levels=5, batch_size=2)
        want = train(signals, SharingMode.PER_LEVEL_CQF_HT, config)
        got = train(np.stack(signals), SharingMode.PER_LEVEL_CQF_HT, config)
        assert got.final_model.get_parameters().tobytes() == \
            want.final_model.get_parameters().tobytes()
        assert got.loss_history == want.loss_history

    def test_zero_learning_rate_is_a_noop(self):
        signals = _sinusoid_set()
        config = TrainConfig(epochs=1, learning_rate=0.0, levels=6)
        report = train(signals, SharingMode.PER_LEVEL_CQF_HT, config)
        fresh = WaveletNet(6, 8, SharingMode.PER_LEVEL_CQF_HT)
        assert np.array_equal(report.final_model.get_parameters(),
                              fresh.get_parameters())
        assert len(report.loss_history) == 1
        # recorded history equals the initial loss (parameters never moved)
        expect = np.mean([
            loss_terms(model_forward(s, fresh), s, config.gamma)[0]
            for s in signals
        ])
        assert report.loss_history[0][0] == pytest.approx(expect, rel=1e-12)

    def test_loss_decreases_on_sinusoids(self):
        signals = _sinusoid_set(n_signals=16)
        config = TrainConfig(epochs=25, levels=6, seed=2)
        report = train(signals, SharingMode.PER_LEVEL_CQF_HT, config)
        assert len(report.loss_history) == 25
        assert report.loss_history[-1][0] < report.loss_history[0][0]

    def test_thresholds_activate_on_noisy_sinusoids(self):
        signals = _sinusoid_set(n_signals=16, noise=0.2)
        config = TrainConfig(epochs=30, levels=6, seed=2)
        report = train(signals, SharingMode.DB4_FIXED_HT, config)
        b_plus = report.final_model.params["b_plus"]
        b_minus = report.final_model.params["b_minus"]
        assert np.all(np.concatenate([b_plus, b_minus]) != 0.0)
        assert b_plus.mean() > 0.0 and b_minus.mean() > 0.0

    def test_deterministic_for_identical_config(self):
        signals = _sinusoid_set()
        config = TrainConfig(epochs=4, levels=6, seed=13)
        r1 = train(signals, SharingMode.PER_LEVEL_CQF_HT, config)
        r2 = train(signals, SharingMode.PER_LEVEL_CQF_HT, config)
        assert np.array_equal(r1.final_model.get_parameters(),
                              r2.final_model.get_parameters())
        assert r1.loss_history == r2.loss_history

    def test_constraints_hold_after_training(self):
        signals = _sinusoid_set(n_signals=6)
        config = TrainConfig(epochs=3, levels=5, seed=0)
        report = train(signals, SharingMode.PER_LEVEL_CQF_HT, config)
        model = report.final_model
        for bank in np.stack(model.operands[:2], -3):
            (h, g), (h_bar, g_bar) = bank[0], bank[1, :, ::-1]
            n = np.arange(h.size)
            assert np.array_equal(g, (-1.0) ** n * h[::-1])
            assert np.array_equal(h_bar, h[::-1])
            assert np.array_equal(g_bar, (-1.0) ** (n + 1) * h)

    def test_free_mode_exposes_gain_ratios(self):
        signals = _sinusoid_set(n_signals=6)
        report = train(signals, SharingMode.FREE_HT,
                       TrainConfig(epochs=2, levels=5, seed=0))
        ratios = report.final_model.synthesis_gain_ratios()
        assert ratios.shape == (5,)
        assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_signal_rejected_before_any_step(bad):
    signals = _sinusoid_set(n_signals=4)
    signals[2][100] = bad
    model = WaveletNet(5, 8, SharingMode.PER_LEVEL_CQF_HT)
    with pytest.raises(InvalidSignalError):
        model_forward(signals[2], model)
    with pytest.raises(InvalidSignalError):
        backward_full(signals[2], model)
    with pytest.raises(InvalidSignalError):
        train(signals, SharingMode.PER_LEVEL_CQF_HT,
              TrainConfig(epochs=1, levels=5))
