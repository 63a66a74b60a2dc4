"""Gradient machinery and the unsupervised training loop.

`backward_full` computes the exact gradient of the training loss with
respect to every trainable scalar, for one window or summed over a (B, N)
block of them, by reverse traversal of the cascade: absolute-value terms
contribute their sign (with sign(0) = 0), the gate its analytic partials
(formed from the tanh terms the forward trace kept, so the gate is not
evaluated twice), and each level's transpose is the other level op on the
same kernel stack (`wavelet` module notes): `strided_corr` on the decoder
stack, `upsample_conv` on the encoder stack. Each also gives the level's
kernel gradient from the window copy it makes anyway: a level copies its
windows once going down and once coming back. Only the level ops run once
per level: the details' gradients fill one pyramid laid out like
`ForwardTrace.details`, whose sparsity signs, gate partials and threshold
gradients take one pass each. The levels' bank gradients, stacked into one
``(..., L, 2, 2, K)`` array, fold back onto the model's kernel array in one
call of the mode's kernel scheme (`KERNEL_SCHEMES` in `network.py`). The
independent brute-force oracle `kink_free_difference` verifies all of it.

Where the cascade reconstructs perfectly (a fresh model does) the residual
is rounding noise, and its sign would steer the gradient: one ulp on one
tap could flip it. So `residual_sign` counts a residual within
``eps * L * max|x|`` of zero (float64 epsilon, depth L, ``max|x|`` per
window) as exactly zero, the kink's subgradient.

`train` feeds each mini-batch to `backward_full` as (B, N) blocks of at most
`BLOCK_SAMPLES` samples (one window at least): one call for a batch of short
windows, memory O(N) for any batch size. `train` owns a `wavelet.CascadePlan`
per block shape and `gradient_check` one for all its passes; a plan lends
scratch only, so no trace, loss or gradient aliases it. A block whose loss
or gradient is not finite stops training with `DivergenceError` before the
update.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, as_integer, as_real, as_signal
from .network import (
    SharingMode,
    WaveletNet,
    default_levels_for,
    forward_trace,
    ht_gate_derivatives,
    loss_terms,
)
from .wavelet import CascadePlan, polyphase, strided_corr, upsample_conv

# most samples `train` passes to one `backward_full` call
BLOCK_SAMPLES = 2 ** 16


def residual_sign(signal: np.ndarray, reconstruction: np.ndarray,
                  levels: int) -> np.ndarray:
    """sign(signal - reconstruction), with residuals within
    eps * levels * max|signal| of their window counted as zero."""
    residual = signal - reconstruction
    tol = np.finfo(float).eps * levels * np.max(np.abs(signal), axis=-1, keepdims=True)
    return np.where(np.abs(residual) <= tol, 0.0, np.sign(residual))


def backward_full(signal, model: WaveletNet, plan: CascadePlan | None = None):
    """Loss triple, under the model's `gamma`, plus the flat gradient
    vector, aligned with `model.get_parameters()`, of one window or, for a
    (B, N) block, both summed over its rows, in `plan`'s scratch if given."""
    signal = as_signal(signal)
    trace = forward_trace(model, signal, plan)
    triple = tuple(float(term.sum()) for term in loss_terms(trace, signal, model.gamma))
    scale = model.gamma / (trace.details.shape[-1] + trace.approx.shape[-1])
    _, dec, enc_taps, _ = model.operands
    details = trace.levels(trace.details)
    # the levels' bank gradients, keeping the block's row axis until the rows
    # are added; a fixed bank's level ops get no operand and make none
    trains = bool(model.mode.scheme.kinds)
    bank_grad = np.empty((*signal.shape[:-1], model.levels, 2, 2, model.kernel_size))

    g_x = -residual_sign(signal, trace.reconstruction, model.levels) / signal.shape[-1]
    # decoder, shallow to deep: chain[l] was built from chain[l+1] and
    # details[l]; the details' gradients fill one pyramid
    g_details = np.empty_like(trace.details)
    for l, g_d in enumerate(trace.levels(g_details)):
        upstream = (trace.recon_chain[l + 1], details[l]) if trains else None
        out = strided_corr(g_x, dec[l], upstream, bank_grad[..., l, 1, :, :],
                           plan and plan.corr[l])
        g_x, g_d[...] = out[..., 0, :], out[..., 1, :]
    # every detail's sparsity term, then the gate, over the whole pyramid
    # (in place: on a long window each fresh pyramid is a megabyte to fault in)
    g_details += scale * np.sign(trace.details)
    grads = {}
    g_pre = g_details
    if model.mode.trains_thresholds:
        partials = ht_gate_derivatives(trace.details_pre, *trace.gates)
        for partial in partials:
            partial *= g_details
        g_pre, dy_dbp, dy_dbm = partials
        grads["b_plus"] = np.add.reduceat(dy_dbp, trace.offsets[:-1], axis=-1)
        grads["b_minus"] = np.add.reduceat(dy_dbm, trace.offsets[:-1], axis=-1)

    # gradient on the approximation: decoder entry point plus sparsity
    g_a = g_x + scale * np.sign(trace.approx)
    # encoder, deep to shallow; the level ops give the encoder stacks'
    # gradients on their polyphase taps, which `polyphase` maps back
    pre = trace.levels(g_pre)
    enc_grad = bank_grad[..., 0, :, :]
    for l in range(model.levels - 1, -1, -1):
        x = trace.inputs[l]
        g_a = upsample_conv((g_a, pre[l]), enc_taps[l], x if trains else None,
                            enc_grad[..., l, :, :].reshape(*x.shape[:-1], -1, 2),
                            plan and plan.conv[l])[..., :x.shape[-1]]
    enc_grad[...] = polyphase(enc_grad).reshape(enc_grad.shape)

    # fold the level-stacked bank gradient onto the kernels it was derived
    # from; a shared kernel sums the levels' parts in level order
    scheme = model.mode.scheme
    kernels = scheme.fold(bank_grad)
    grads["kernels"] = kernels.sum(-3, keepdims=True) if scheme.shared else kernels
    flat = model.flatten(grads)
    # a block adds its rows' gradients in row order, as a loop over its
    # windows would, so training on blocks follows the per-window loop
    return triple, sum(flat) if flat.ndim > 1 else flat


def _bumped_losses(signal, model: WaveletNet, param_index: int, step: float, plan=None):
    """Total loss with one trainable scalar moved by +step and by -step, and
    whether an argument of one of the loss's |.| terms (a residual, gated
    detail or final approximation) changes sign between the two."""
    vec = model.get_parameters()
    if param_index < 0 or param_index >= vec.size:
        raise IndexError(f"parameter index {param_index} out of range for {vec.size} trainables")
    values, signs = [], []
    for delta in (step, -step):
        bumped = vec.copy()
        bumped[param_index] += delta
        trace = forward_trace(model.with_parameters(bumped), signal, plan)
        values.append(float(loss_terms(trace, signal, model.gamma)[0].sum()))
        signs.append([np.sign(t) for t in (signal - trace.reconstruction,
                                           trace.details, trace.approx)])
    straddles = any(np.any(up != down) for up, down in zip(*signs))
    return values, straddles


def kink_free_difference(signal, model: WaveletNet, param_index: int,
                         steps, plan: CascadePlan | None = None) -> float | None:
    """Central difference of the total loss along one trainable scalar, the
    brute-force oracle for `backward_full`, at the first of the decreasing
    `steps` across which no |.| term of the loss changes sign, or None when
    every step straddles one: the scalar is at a kink, where the difference
    mixes the slopes of both sides and no subgradient has to match it."""
    for step in steps:
        values, straddles = _bumped_losses(signal, model, param_index, step, plan)
        if not straddles:
            return (values[0] - values[1]) / (2.0 * step)
    return None


# `gradient_check`'s signal length, absolute error floor, the spread of the
# normal nudge applied to the initial parameters, and its
# central-difference steps relative to max(1, |p|), tried in order while the
# step straddles a kink (at 1e-8 the rounding of a loss near 1 is still
# within the error floor)
GRAD_CHECK_LENGTH = 256
GRAD_CHECK_ABS_TOL = 1e-7
GRAD_CHECK_PERTURB = 0.02
GRAD_CHECK_STEPS = (1e-6, 1e-7, 1e-8)


@dataclass
class GradCheckReport:
    mode: SharingMode
    seeds: list[int]
    checked: int
    failures: list[tuple[int, int, float, float]]  # (seed, index, analytic, fd)
    max_ratio: float  # worst |analytic - fd| / tolerance; > 1 means failure
    kinks: list[tuple[int, int]] = field(default_factory=list)  # (seed, index), not checked

    @property
    def passed(self) -> bool:
        return not self.failures


def gradient_check(mode: SharingMode, seed: int = 0, n_seeds: int = 5,
                   rel_tol: float = 1e-4) -> GradCheckReport:
    """Compare `backward_full` against the finite-difference oracle over every
    trainable scalar on random signals of `GRAD_CHECK_LENGTH` samples, each
    scalar within `rel_tol` relative or `GRAD_CHECK_ABS_TOL` absolute error.

    The model is nudged away from its initialization first: at the exact
    starting point the reconstruction is perfect and the absolute-value terms
    sit on their kinks, where a subgradient and a central difference
    legitimately disagree. A scalar whose every step in `GRAD_CHECK_STEPS`
    straddles a kink (`kink_free_difference`) is reported in `kinks`,
    neither checked nor failed.
    """
    seed = as_integer(seed, "seed", 0)
    n_seeds = as_integer(n_seeds, "number of seeds", 1)
    rel_tol = as_real(rel_tol, "tolerance", strict=True)
    seeds = list(range(seed, seed + n_seeds))
    failures, kinks = [], []
    checked = 0
    max_ratio = 0.0
    # every pass of the check has one shape, so one plan serves them all
    start = WaveletNet(default_levels_for(GRAD_CHECK_LENGTH), 8, mode)
    plan = CascadePlan((GRAD_CHECK_LENGTH,), start.levels, start.kernel_size)
    for s in seeds:
        rng = np.random.default_rng(s)
        vec = start.get_parameters()
        model = start.with_parameters(vec + rng.normal(0.0, GRAD_CHECK_PERTURB, vec.size))
        signal = rng.normal(size=GRAD_CHECK_LENGTH)
        vec = model.get_parameters()
        _, grads = backward_full(signal, model, plan)
        for i in range(vec.size):
            steps = [step * max(1.0, abs(vec[i])) for step in GRAD_CHECK_STEPS]
            fd = kink_free_difference(signal, model, i, steps, plan)
            if fd is None:
                kinks.append((s, i))
                continue
            err = abs(grads[i] - fd)
            tol = max(GRAD_CHECK_ABS_TOL, rel_tol * max(abs(fd), abs(grads[i])))
            max_ratio = max(max_ratio, err / tol)
            if err > tol:
                failures.append((s, i, float(grads[i]), float(fd)))
            checked += 1
    return GradCheckReport(mode=mode, seeds=seeds, checked=checked,
                           failures=failures, max_ratio=max_ratio, kinks=kinks)


# ---------------------------------------------------------------------------
# optimizer and loop

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class TrainConfig:
    """Settings of one `train` run. The model checks its own structure
    settings (levels, kernel size, gamma) when `train` builds it."""

    epochs: int = 100
    learning_rate: float = 1e-3
    batch_size: int = 8
    seed: int = 0          # seeds the per-epoch window order
    gamma: float = 1.0
    levels: int | None = None      # None: nearest log2 of the window length
    kernel_size: int = 8

    def validate(self) -> None:
        as_integer(self.epochs, "epochs", 1)
        as_integer(self.batch_size, "batch size", 1)
        as_integer(self.seed, "seed", 0)
        as_real(self.learning_rate, "learning rate")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0)


def adam_step(model: WaveletNet, grads: np.ndarray, state: AdamState,
              config: TrainConfig):
    """One bias-corrected Adam update of the model's trainable parameters.
    Models are immutable, so it returns (a new model holding the updated
    parameters, state) and leaves the given model as it was."""
    params = model.get_parameters()
    if grads.shape != params.shape or state.m.shape != params.shape:
        raise ConfigError(f"gradient/state shape {grads.shape}/{state.m.shape} does not "
                          f"match {params.shape} parameters")
    state.t += 1
    state.m = ADAM_BETA1 * state.m + (1 - ADAM_BETA1) * grads
    state.v = ADAM_BETA2 * state.v + (1 - ADAM_BETA2) * grads * grads
    m_hat = state.m / (1 - ADAM_BETA1 ** state.t)
    v_hat = state.v / (1 - ADAM_BETA2 ** state.t)
    params = params - config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return model.with_parameters(params), state


@dataclass
class TrainReport:
    loss_history: list[tuple[float, float, float]]  # per-epoch mean (total, recon, sparsity)
    final_model: WaveletNet
    wall_time: float


def train(signals, mode: SharingMode, config: TrainConfig) -> TrainReport:
    """Mini-batch loop: gradients averaged over each batch, the windows
    permuted every epoch by a generator seeded from the config. The windows
    must share one length, because a batch runs as (B, N) blocks."""
    config.validate()
    if len(signals) == 0:  # a (0, N) array as well as an empty list
        raise ConfigError("training set is empty")
    signals = [as_signal(s) for s in signals]
    shape = signals[0].shape
    if len(shape) != 1 or any(s.shape != shape for s in signals):
        raise ConfigError("training windows must be 1-D and share one length")
    levels = config.levels
    if levels is None:
        levels = default_levels_for(signals[0].size)
    model = WaveletNet(levels, config.kernel_size, mode, gamma=config.gamma)
    state = AdamState.zeros(model.get_parameters().size)
    rng = np.random.default_rng(config.seed)
    history: list[tuple[float, float, float]] = []
    start = time.perf_counter()
    n = len(signals)
    rows = max(1, BLOCK_SAMPLES // signals[0].size)
    plans = {}  # one per block shape
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_losses = np.zeros(3)
        for lo in range(0, n, config.batch_size):
            batch = order[lo:lo + config.batch_size]
            grad_sum = np.zeros_like(state.m)
            for first in range(0, batch.size, rows):
                block = np.stack([signals[i] for i in batch[first:first + rows]])
                if block.shape not in plans:
                    plans[block.shape] = CascadePlan(block.shape, levels, model.kernel_size)
                triple, flat = backward_full(block, model, plans[block.shape])
                if not (np.all(np.isfinite(triple)) and np.all(np.isfinite(flat))):
                    raise DivergenceError(
                        f"training diverged at epoch {epoch + 1}, batch "
                        f"{lo // config.batch_size + 1}: non-finite loss or gradient")
                grad_sum += flat
                epoch_losses += triple
            model, state = adam_step(model, grad_sum / batch.size, state, config)
        history.append(tuple(epoch_losses / n))
    wall = time.perf_counter() - start
    return TrainReport(loss_history=history, final_model=model, wall_time=wall)
