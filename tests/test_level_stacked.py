"""The level-stacked forward and backward passes against the per-level code
they replaced.

The oracle below is the earlier `forward_trace`, `loss_terms` and
`backward_full`: one bank derivation, one gate call and one gate backward
per level, the gate in sigmoid form with an exact-identity branch for zero
thresholds. The level ops (`strided_corr`, `upsample_conv`, with the
kernel gradients they return) are shared, and have oracles of their own in
test_wavelet.py; the oracle splits their channels and cuts their outputs
itself.

What moved, and by how much (float64 epsilon eps = 2.2e-16):

* the bank, the level inputs, the pre-gate details and the final
  approximation are computed as before: byte for byte equal;
* the gate is y = x (1 + (t - u)/2) instead of x (q + p): both brackets lie
  within an eps of the exact one, so |dy| <= GATE_EPS eps |x|, and the tanh
  terms give the sigmoid terms p = (1 + t)/2 and q = (1 - u)/2 within eps;
* the decoder synthesizes the moved details: each decoder output and each
  feature within ARRAY_REL m, where m is the largest magnitude among the
  signal, the pre-gate details and the final approximation;
* the sparsity sum runs over the whole pyramid at once, the features'
  per-level means and the threshold gradients are sequential sums per
  level (`np.add.reduceat`) instead of pairwise ones: each loss term within
  LOSS_REL (|term| + m), per row;
* the gate's partials are formed from 1 - t and 1 + t instead of from
  1 - p, which rounds away the relative accuracy of a gate term near 0 or
  1: each partial moves by up to a few eps a |d| (a = `SHARPNESS`), so every
  gradient entry stays within GRAD_REL of the gradient's largest entry plus
  GATE_GRAD eps a m max(1, m). A gradient made of such saturated terms
  alone moved by up to 1.4e-10 of its largest entry, all of it the
  oracle's rounding.

Each bound is 12 to 16 times the worst case seen over 6 000 random draws
like the ones below (gate 1.0 eps |d|, p and q exact, decoder 5.9e-16 m,
gradient 2.3e-15 of its largest entry or 1.3 eps a m max(1, m)).

The drawn thresholds stay below 1 with sharpness 10, clear of the dead zone
where both tanh terms round to +-1 and the two brackets can round to zero
on different sides of a tiny coefficient (`ht_activation`).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from wavelearn.analysis import DictionaryModel, extract_features
from wavelearn.network import (
    SHARPNESS,
    SharingMode,
    WaveletNet,
    forward_trace,
    loss_terms,
    sigmoid,
)
from wavelearn.training import backward_full, residual_sign
from wavelearn.wavelet import (
    analysis_cascade,
    cascade_input,
    max_depth,
    polyphase,
    strided_corr,
    synthesis_cascade,
    upsample_conv,
)

EPS = np.finfo(float).eps
GATE_EPS = 2
ARRAY_REL = 1e-14
LOSS_REL = 1e-14
GRAD_REL = 3e-14
GATE_GRAD = 16


# ---------------------------------------------------------------------------
# the per-level oracle


def oracle_gate(x, b_plus, b_minus):
    p = sigmoid(SHARPNESS * (x - b_plus))
    q = sigmoid(-SHARPNESS * (x + b_minus))
    identity = (b_plus == 0.0) & (b_minus == 0.0)
    return np.where(identity, x, x * (q + p)), p, q


def oracle_gate_derivatives(x, p, q):
    dp = p * (1.0 - p)
    dq = q * (1.0 - q)
    return ((p + q) + SHARPNESS * x * (dp - dq), -SHARPNESS * x * dp,
            -SHARPNESS * x * dq)


def oracle_bank(model, level):
    """Level `level`'s bank, derived from its own slice of the kernel array."""
    bank = model.mode.scheme.derive(model.params["kernels"][..., level:level + 1, :, :])
    return bank[..., 0, :, :, :]


def oracle_forward(model, signal):
    signal = cascade_input(signal, model.levels)
    if model.mode.scheme.shared:
        banks = [oracle_bank(model, 0)] * model.levels
    else:
        banks = [oracle_bank(model, l) for l in range(model.levels)]
    inputs, details_pre, approx = analysis_cascade(signal, [b[..., 0, :, :] for b in banks])
    pre_lengths = [a.shape[-1] for a in inputs]
    details, gates = details_pre, []
    if model.mode.trains_thresholds:
        details = []
        b_plus, b_minus = model.params["b_plus"], model.params["b_minus"]
        for l, d in enumerate(details_pre):
            y, p, q = oracle_gate(d, b_plus[..., l, None], b_minus[..., l, None])
            details.append(y)
            gates.append((p, q))
    return dict(banks=banks, inputs=inputs, pre_lengths=pre_lengths,
                details_pre=details_pre, details=details, gates=gates,
                approx=approx,
                recon_chain=synthesis_cascade(approx, details, pre_lengths,
                                              [polyphase(b[..., 1, :, :]) for b in banks]))


def oracle_loss_terms(trace, signal, gamma):
    recon = np.abs(signal - trace["recon_chain"][0]).mean(-1)
    coeff_sum = sum(np.abs(d).sum(-1) for d in trace["details"])
    coeff_sum += np.abs(trace["approx"]).sum(-1)
    count = sum(d.shape[-1] for d in trace["details"]) + trace["approx"].shape[-1]
    sparsity = coeff_sum / count
    return recon + gamma * sparsity, recon, sparsity


def oracle_backward(signal, model, gamma):
    signal = np.asarray(signal, dtype=float)
    trace = oracle_forward(model, signal)
    total, recon, sparsity = (float(t.sum()) for t in
                              oracle_loss_terms(trace, signal, gamma))
    details, approx = trace["details"], trace["approx"]
    m_coeff = sum(d.shape[-1] for d in details) + approx.shape[-1]
    scheme = model.mode.scheme
    grads = {name: np.zeros(signal.shape[:-1] + model.params[name].shape)
             for name in model.trainable_names()}
    dec_grads = [None] * model.levels
    bank_grads = [None] * model.levels
    g_x = -residual_sign(signal, trace["recon_chain"][0], model.levels) / signal.shape[-1]
    grad_d = []
    for l in range(model.levels):
        upstream = (trace["recon_chain"][l + 1], details[l])
        dec_grads[l] = np.empty(signal.shape[:-1] + trace["banks"][l].shape[-2:])
        out = strided_corr(g_x, trace["banks"][l][..., 1, :, :], upstream, dec_grads[l])
        g_x, g_d = out[..., 0, :], out[..., 1, :]
        grad_d.append(gamma / m_coeff * np.sign(details[l]) + g_d)
    g_a = g_x + gamma / m_coeff * np.sign(approx)
    for l in range(model.levels - 1, -1, -1):
        if model.mode.trains_thresholds:
            dy_dx, dy_dbp, dy_dbm = oracle_gate_derivatives(
                trace["details_pre"][l], *trace["gates"][l])
            g_dpre = grad_d[l] * dy_dx
            grads["b_plus"][..., l] = np.sum(grad_d[l] * dy_dbp, axis=-1)
            grads["b_minus"][..., l] = np.sum(grad_d[l] * dy_dbm, axis=-1)
        else:
            g_dpre = grad_d[l]
        grad = np.empty(signal.shape[:-1] + trace["banks"][l].shape[-1:] + (2,))
        out = upsample_conv((g_a, g_dpre), polyphase(trace["banks"][l][..., 0, :, :]),
                            trace["inputs"][l], grad)
        grad = polyphase(grad.reshape(*grad.shape[:-2], 2, -1)).reshape(*grad.shape[:-2], 2, -1)
        g_a = out[..., :trace["pre_lengths"][l]]
        bank_grads[l] = np.stack((grad, dec_grads[l]), -3)
    for l, bank_grad in enumerate(bank_grads):
        grads["kernels"][..., 0 if scheme.shared else l, :, :] += scheme.fold(bank_grad)
    flat = model.flatten(grads)
    return (total, recon, sparsity), sum(flat) if flat.ndim > 1 else flat


# ---------------------------------------------------------------------------
# comparisons


def assert_bytes_equal(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_near(got, want, scale):
    """|got - want| <= scale, elementwise."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= scale)


def assert_same_trace(got, want):
    """Every array of two forward traces byte for byte equal."""
    for name in ("inputs", "details_pre", "details", "gates", "approx", "recon_chain"):
        a, b = getattr(got, name), getattr(want, name)
        a, b = (a, b) if isinstance(a, (list, tuple)) else ([a], [b])
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_bytes_equal(x, y)


def magnitude(trace, signal):
    """m of the module notes: the largest of |signal|, the pre-gate details
    and the final approximation."""
    return max(np.max(np.abs(a)) for a in (signal, trace.details_pre, trace.approx))


def assert_matches_oracle(model, trace, expect, signal):
    """The model's banks and every array of its forward trace against the
    oracle's, per level."""
    assert [a.shape[-1] for a in trace.inputs] == expect["pre_lengths"]
    enc, dec, enc_taps, dec_taps = model.operands
    assert len(enc) == len(expect["banks"])
    for l, want in enumerate(expect["banks"]):
        assert_bytes_equal(np.stack((enc[l], dec[l]), -3), want)
        assert_bytes_equal(enc_taps[l], polyphase(want[..., 0, :, :]))
        assert_bytes_equal(dec_taps[l], polyphase(want[..., 1, :, :]))
    for got, want in zip(trace.inputs, expect["inputs"]):
        assert_bytes_equal(got, want)
    for got, want in zip(trace.levels(trace.details_pre), expect["details_pre"]):
        assert_bytes_equal(got, want)
    assert_bytes_equal(trace.approx, expect["approx"])
    pre = trace.levels(trace.details_pre)
    for l, (got, want) in enumerate(zip(trace.levels(trace.details), expect["details"])):
        assert_near(got, want, GATE_EPS * EPS * np.abs(pre[l]))
    assert len(trace.gates) == 2 * bool(expect["gates"])
    if expect["gates"]:
        t, u = (trace.levels(term) for term in trace.gates)
        for l, (p, q) in enumerate(expect["gates"]):
            assert_near(0.5 + 0.5 * t[l], p, EPS)
            assert_near(0.5 - 0.5 * u[l], q, EPS)
    for got, want in zip(trace.recon_chain, expect["recon_chain"]):
        assert_near(got, want, ARRAY_REL * magnitude(trace, signal))


def perturbed_model(rng, mode, levels, k, thresholds, rows=None, gamma=1.0):
    """A model with nudged kernels and zero, nonzero or mixed thresholds;
    with `rows`, each parameter carries a leading row axis of that size."""
    model = WaveletNet(levels, mode.scheme.kernel_size or k, mode, gamma=gamma)
    vec = model.get_parameters()
    params = dict(model.with_parameters(vec + rng.normal(0.0, 0.1, vec.size)).params)
    shape = (levels,) if rows is None else (rows, levels)
    for name in ("b_plus", "b_minus"):  # drawn in every mode, kept in HT modes
        zero = {"zero": True, "nonzero": False,
                "mixed": rng.random(shape) < 0.5}[thresholds]
        params[name] = np.where(zero, 0.0, rng.uniform(0.05, 1.0, shape))
    if rows is not None:
        kernels = params["kernels"]
        params["kernels"] = kernels + rng.normal(0.0, 0.1, (rows, *kernels.shape))
    return model.with_parameters(model.flatten(params))


DRAWS = dict(
    mode=st.sampled_from(list(SharingMode)),
    n=st.integers(2, 400),
    k=st.sampled_from([2, 4, 8, 16]),
    depth=st.floats(0.0, 1.0),
    thresholds=st.sampled_from(["zero", "nonzero", "mixed"]),
    zeros=st.sampled_from([0.0, 0.3, 1.0]),
    seed=st.integers(0, 2**32 - 1))


def _levels(n, depth):
    return 1 + round(depth * (max_depth(n) - 1))


class TestAgainstPerLevelOracle:
    @settings(max_examples=150, deadline=None)
    @given(rows=st.sampled_from([None, 1, 4]),
           gamma=st.sampled_from([0.0, 0.5, 1.0]), **DRAWS)
    def test_window_and_block(self, in_new_thread, mode, n, k, depth, thresholds, zeros, seed,
                              rows, gamma):
        # rows None is one window, else a (rows, n) block under one model
        rng = np.random.default_rng(seed)
        model = perturbed_model(rng, mode, _levels(n, depth), k, thresholds, gamma=gamma)
        signal = rng.normal(size=n if rows is None else (rows, n))
        signal[rng.random(signal.shape) < zeros] = 0.0

        trace = forward_trace(model, signal)
        expect = oracle_forward(model, signal)
        m = magnitude(trace, signal)
        assert_matches_oracle(model, trace, expect, signal)
        for got, want in zip(loss_terms(trace, signal, gamma),
                             oracle_loss_terms(expect, signal, gamma)):
            assert_near(got, want, LOSS_REL * (np.abs(want) + m))

        triple, grads = backward_full(signal, model)
        # a cold arena's scratch changes no bit of the trace, losses or gradient
        assert_same_trace(in_new_thread(forward_trace, model, signal), trace)
        cold_triple, cold_grads = in_new_thread(backward_full, signal, model)
        assert cold_triple == triple and cold_grads.tobytes() == grads.tobytes()
        expect_triple, expect_grads = oracle_backward(signal, model, gamma)
        assert_near(np.array(triple), np.array(expect_triple),
                    LOSS_REL * (np.abs(expect_triple) + (rows or 1) * m))
        assert_near(grads, expect_grads,
                    GRAD_REL * np.max(np.abs(expect_grads), initial=0.0)
                    + GATE_GRAD * EPS * SHARPNESS * m * max(1.0, m))

    @settings(max_examples=100, deadline=None)
    @given(classes=st.integers(2, 5), **DRAWS)
    def test_row_stacked_models(self, in_new_thread, mode, n, k, depth, thresholds, zeros, seed,
                                classes):
        # C models stacked row by row, a different window per row
        rng = np.random.default_rng(seed)
        model = perturbed_model(rng, mode, _levels(n, depth), k, thresholds,
                                rows=classes)
        block = rng.normal(size=(classes, n))
        block[rng.random(block.shape) < zeros] = 0.0
        trace = forward_trace(model, block)
        expect = oracle_forward(model, block)
        assert_matches_oracle(model, trace, expect, block)
        assert_same_trace(in_new_thread(forward_trace, model, block), trace)
        for got, want in zip(loss_terms(trace, block, 1.0),
                             oracle_loss_terms(expect, block, 1.0)):
            assert_near(got, want, LOSS_REL * (np.abs(want) + magnitude(trace, block)))

    @settings(max_examples=60, deadline=None)
    @given(**DRAWS)
    def test_features(self, mode, n, k, depth, thresholds, zeros, seed):
        rng = np.random.default_rng(seed)
        model = perturbed_model(rng, mode, _levels(n, depth), k, thresholds)
        x = rng.normal(size=n)
        x[rng.random(n) < zeros] = 0.0
        features = extract_features(x, model)
        expect = oracle_forward(model, x)
        residual = np.abs(x - expect["recon_chain"][0])
        scale = ARRAY_REL * magnitude(forward_trace(model, x), x)
        head, l1_mean, l1_max = np.split(features.vector(), [2, 2 + model.levels])
        assert_near(head, np.array([residual.mean(), residual.max()]), scale)
        assert_near(l1_mean, np.array([np.abs(d).mean() for d in expect["details"]]), scale)
        assert_near(l1_max, np.array([np.abs(d).max() for d in expect["details"]]), scale)


def test_dictionary_stack_matches_the_oracle_rows():
    # the per-label losses of one row-stacked pass against each class
    # model's own per-level pass
    rng = np.random.default_rng(5)
    models = {c: perturbed_model(rng, SharingMode.SHARED_CQF_HT, 6, 8, "nonzero")
              for c in "ABC"}
    dictionary = DictionaryModel(class_models=models)
    x = rng.normal(size=256)
    block = np.broadcast_to(x, (3, x.size))
    trace = forward_trace(dictionary.stacked(), block)
    totals = loss_terms(trace, block, 1.0)[0]
    for total, label in zip(totals, dictionary.labels()):
        want = oracle_loss_terms(oracle_forward(models[label], x), x, 1.0)[0]
        assert abs(total - want) <= LOSS_REL * (abs(want) + magnitude(trace, block))
