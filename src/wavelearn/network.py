"""Learnable wavelet cascade model.

A model owns its filter kernels and a pair of soft hard-threshold biases per
level. The forward pass is a cascade encoder (strided correlations, details
gated by the threshold activation) followed by the mirror decoder fed
through skip connections.

Only the level ops run once per level. The details of every level sit in
one ``(..., M)`` pyramid buffer, level 1 first (`ForwardTrace.levels` gives
per-level views), and the activation gates the whole pyramid in one call,
each coefficient under its level's thresholds. Its slope is the fixed
a = `SHARPNESS` of the paper's gate. It is written in tanh terms,
t = tanh(a/2 (x - b+)) and u = tanh(a/2 (x + b-)), which it returns with its
output; the forward trace keeps them, so the backward pass forms the gate's
partials from them, again in one call over the pyramid.

The sharing modes differ only in their kernel scheme: which kernels train,
and how each level's filter bank follows from them. The table
`KERNEL_SCHEMES` is the one place those relations live; construction, the
forward pass, the gradient and persistence read it and never branch on the
mode. A model keeps its kernels as one level-stacked array,
``params["kernels"]``, whose level axis has length 1 when the scheme shares
one set across levels (layout in `KernelScheme`). `WaveletNet.operands`
derives every level's stacks from it in one call of the scheme, level
first, and the backward pass folds the level-stacked bank gradient back onto
that array in one call. A model is immutable (new parameters make a new
model), so it derives its operands once, on first use.

The forward pass is row-stacked: a model's parameters may carry a leading
row axis, C models of one structure stacked row by row, and then every bank
and threshold holds one entry per row. A forward of a (C, N) block runs row
r under model r, and row r of every array it keeps is byte for byte what a
forward of model r alone over that row gives; that is how one pass scores a
window against every class model of a dictionary.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from types import MappingProxyType
from typing import Callable

import numpy as np

from .errors import ConfigError, InvalidSignalError, as_integer, as_real, as_signal
from .wavelet import (
    DB4_SCALING,
    HAAR_SCALING,
    analysis_cascade,
    as_kernel,
    cascade_input,
    cqf_fold,
    cqf_from_scaling,
    max_depth,
    polyphase,
    synthesis_cascade,
)

# the slope a of the hard-threshold gate, fixed as in the paper
SHARPNESS = 10.0


@dataclass(frozen=True)
class KernelScheme:
    """How a model's filter banks follow from its trainable kernels.

    A model stores its kernels as one array, ``params["kernels"]``: one
    kernel of each of the `kinds` (a prefix of ``h``, ``g``, ``hb``, ``gb``)
    along its second-to-last axis, taps last, and one such set per level
    before them: ``(L, len(kinds), K)``, or ``(1, len(kinds), K)`` when
    `shared` (one set serves every level), with a leading row axis for a
    row-stacked model. `derive(kernels)` maps that array to a
    ``(..., 2, 2, K)`` bank (`wavelet` module notes), whose two stacks are
    equal except in the free scheme, with the same leading axes (the fixed
    scheme's one db4 bank has a level axis of length 1 and no row axis);
    its transpose `fold(bank_grad)` maps a gradient on such a bank back to
    the kernels' shape. `kernel_size`, when set, is the only length it takes."""

    kinds: tuple[str, ...]
    derive: Callable[[np.ndarray], np.ndarray]
    fold: Callable[[np.ndarray], np.ndarray]
    shared: bool = False
    kernel_size: int | None = None


# the fixed scheme's one db4 bank, derived once and shared by its models
_DB4_BANK = cqf_from_scaling(DB4_SCALING[None])
_DB4_BANK.flags.writeable = False

# the lambdas look their functions up at call time, so a rebound module
# name (a tracer's or a test's wrapper) is what the table calls
KERNEL_SCHEMES = {
    "fixed": KernelScheme(
        (), lambda k: _DB4_BANK,
        lambda grad: grad[..., 0, :0, :],
        shared=True, kernel_size=DB4_SCALING.size),
    "shared_h": KernelScheme(
        ("h",), lambda k: cqf_from_scaling(k[..., 0, :]),
        lambda grad: cqf_fold(grad)[..., None, :], shared=True),
    "per_level_h": KernelScheme(
        ("h",), lambda k: cqf_from_scaling(k[..., 0, :]),
        lambda grad: cqf_fold(grad)[..., None, :]),
    # synthesis is the analysis pair reversed: both stacks are [h, g]
    "per_level_hg": KernelScheme(
        ("h", "g"), lambda k: np.stack([as_kernel(k)] * 2, -3),
        lambda grad: grad[..., 0, :, :] + grad[..., 1, :, :]),
    # the decoder stack is [hb, gb] index-reversed, and the fold reverses back
    "per_level_all": KernelScheme(
        ("h", "g", "hb", "gb"),
        lambda k: np.stack((as_kernel(k)[..., :2, :], k[..., 2:, ::-1]), -3),
        lambda grad: np.concatenate((grad[..., 0, :, :], grad[..., 1, :, ::-1]), -2)),
}


class SharingMode(enum.Enum):
    """Which tensors are trainable and how synthesis kernels are derived:
    a kernel scheme plus whether the thresholds train.

    Value strings double as the CLI names.
    """

    DB4_FIXED = "db4", "fixed", False                   # fixed db4 bank, no thresholds
    DB4_FIXED_HT = "db4-ht", "fixed", True              # fixed db4 bank, learnable thresholds
    SHARED_CQF = "cwn", "shared_h", False               # one scaling kernel for all levels
    SHARED_CQF_HT = "decwn", "shared_h", True           # shared kernel + thresholds
    PER_LEVEL_CQF = "lcwn", "per_level_h", False        # one scaling kernel per level
    PER_LEVEL_CQF_HT = "despawn", "per_level_h", True   # per-level kernel + thresholds
    PER_LEVEL_TWO_KERNEL_HT = "despawn2", "per_level_hg", True  # per-level (h, g), synthesis reversed
    FREE_HT = "free", "per_level_all", True             # all four kernels free per level

    def __new__(cls, name: str, scheme: str, trains_thresholds: bool):
        mode = object.__new__(cls)
        mode._value_ = name
        mode.scheme = KERNEL_SCHEMES[scheme]
        mode.trains_thresholds = trains_thresholds
        return mode

    @classmethod
    def _missing_(cls, name):  # `SharingMode(name)` of an unknown name
        raise ConfigError(f"unknown mode {name!r}; expected one of "
                          + ", ".join(m.value for m in cls))


def sigmoid(t: np.ndarray) -> np.ndarray:
    """Logistic function in its tanh form, 1/2 + tanh(t/2)/2: tanh cannot
    overflow and saturates to exactly +-1, so the result lies in [0, 1]
    for every input, infinities included, with no branch on the sign."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return 0.5 + 0.5 * np.tanh(0.5 * t)


def ht_activation(x: np.ndarray, b_plus, b_minus):
    """Soft hard-threshold gate y = x * (p + q), with p = sigmoid(a*(x-b+)),
    q = sigmoid(-a*(x+b-)) and a = `SHARPNESS`, in tanh terms: returns
    (y, t, u) with t = tanh(a/2 (x - b+)) and u = tanh(a/2 (x + b-)), so
    p = (1 + t)/2, q = (1 - u)/2 and y = x * (1 + (t - u)/2); the backward
    pass reuses t and u instead of evaluating the gate again.

    Thresholds broadcast against `x`: a scalar pair, one pair per row
    (shape (..., 1)), or one per coefficient. Where both are zero, t and u
    are the same number, so y is x unchanged (exact identity, not merely
    approximate). The bracket is good to an eps absolute, not relative: in
    the dead zone of thresholds above about 38/a, where t and u both round
    to -1 and 1, it is exactly zero.
    """
    # in place, as the expressions above: on a pyramid of a long window
    # every fresh temporary is another megabyte to fault in
    half = 0.5 * SHARPNESS
    t = np.subtract(x, b_plus)
    t *= half
    np.tanh(t, out=t)
    u = np.add(x, b_minus)
    u *= half
    np.tanh(u, out=u)
    y = t - u
    y *= 0.5
    y += 1.0
    y *= x
    return y, t, u


def ht_gate_derivatives(x: np.ndarray, t: np.ndarray, u: np.ndarray):
    """Partial derivatives of the activation output y = x * (1 + (t - u)/2),
    formed from the tanh terms `ht_activation` returned for the same `x`:
    with p and q its sigmoid terms, p (1 - p) = (1 + t)(1 - t)/4 and
    q (1 - q) = (1 + u)(1 - u)/4, so dy/db+ = -a x p (1 - p),
    dy/db- = -a x q (1 - q) and dy/dx = 1 + (t - u)/2 - dy/db+ + dy/db-.

    Returns (dy/dx, dy/db_plus, dy/db_minus) evaluated elementwise.
    """
    c = (-0.25 * SHARPNESS) * x
    dy_dbp = (1.0 + t) * (1.0 - t)
    dy_dbp *= c
    dy_dbm = (1.0 + u) * (1.0 - u)
    dy_dbm *= c
    dy_dx = t - u
    dy_dx *= 0.5
    dy_dx += 1.0
    dy_dx -= dy_dbp
    dy_dx += dy_dbm
    return dy_dx, dy_dbp, dy_dbm


def _init_scaling(k_n: int) -> np.ndarray:
    """Initial scaling kernel of length k_n: db4 when it fits, Haar otherwise,
    zero-padded to length. Zero padding keeps the even-shift orthonormality,
    so the initial model is still a perfect-reconstruction bank."""
    base = DB4_SCALING if k_n >= DB4_SCALING.size else HAAR_SCALING
    out = np.zeros(k_n)
    out[: base.size] = base
    return out


class WaveletNet:
    """Learnable cascade auto-encoder; assigning an attribute raises.

    Parameters are stored in `params`, a read-only mapping of non-writeable
    arrays: the mode's kernels as one array ``kernels``, level by level
    (`KernelScheme`), and the threshold vectors ``b_plus`` / ``b_minus``
    (length L, trainable only in HT modes). The flat parameter vector is the
    kernels in C order (level by level, kind by kind within a level), then
    the thresholds. A fresh model starts at the db4 bank (or a padded Haar
    for short kernels) with zero thresholds, so its forward pass is a plain
    fixed-filter transform. Row-stacked parameters (module notes) give one
    bank and one threshold pair per row. `gamma` weighs the sparsity term of
    the model's training loss; the gradient and the dictionary classifier
    read it from here.
    """

    def __init__(self, levels: int, kernel_size: int, mode: SharingMode,
                 gamma: float = 1.0):
        levels = as_integer(levels, "levels", 1)
        kernel_size = as_integer(kernel_size, "kernel size", 2)
        if kernel_size % 2:
            raise ConfigError(f"kernel size must be even and >= 2, got {kernel_size}")
        gamma = as_real(gamma, "gamma")
        pinned = mode.scheme.kernel_size or kernel_size
        if pinned != kernel_size:
            raise ConfigError(f"mode {mode.value} takes {pinned}-tap kernels, got {kernel_size}")
        bank0 = cqf_from_scaling(_init_scaling(kernel_size))
        # the kinds are a prefix of (h, g, hb, gb)
        kernels = np.concatenate((bank0[0], bank0[1, :, ::-1]))[:len(mode.scheme.kinds)]
        # thresholds always exist; they stay at zero unless the mode trains them
        self._settle({"kernels": np.tile(kernels, (1 if mode.scheme.shared else levels, 1, 1)),
                      "b_plus": np.zeros(levels), "b_minus": np.zeros(levels)},
                     levels=levels, kernel_size=kernel_size, mode=mode, gamma=gamma)

    def _settle(self, params: dict[str, np.ndarray], **settings) -> "WaveletNet":
        # the one way in past `__setattr__`, with arrays nobody else holds
        for value in params.values():
            value.flags.writeable = False
        vars(self).update(settings, params=MappingProxyType(params))
        return self

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a WaveletNet is immutable; cannot set {name!r}")

    __delattr__ = __setattr__

    # -- parameter plumbing --------------------------------------------------

    def trainable_names(self) -> list[str]:
        return ["kernels", "b_plus", "b_minus"] if self.mode.trains_thresholds else ["kernels"]

    def parameter_count(self) -> int:
        return sum(self.params[name].size for name in self.trainable_names())

    def get_parameters(self) -> np.ndarray:
        return self.flatten(self.params)

    def flatten(self, tensors) -> np.ndarray:
        """The trainable entries of `tensors`, keyed like `params`, as one
        flat vector in `get_parameters` order (one per row when the tensors
        carry a leading row axis)."""
        kernels = tensors["kernels"]
        return np.concatenate([kernels.reshape(*kernels.shape[:-3], -1)]
                              + [tensors[n] for n in self.trainable_names()[1:]], axis=-1)

    def with_parameters(self, flat) -> "WaveletNet":
        """A new model, of this one's structure and gamma, holding the
        trainable parameters `flat` in `get_parameters` order: a vector, or
        a (C, P) array for a row-stacked model (module notes)."""
        flat = np.asarray(flat, dtype=float)
        count, params, pos = self.parameter_count(), dict(self.params), 0
        if flat.ndim > 2 or flat.shape[-1:] != (count,):
            raise ConfigError(f"parameter vector has {flat.size} entries, model has {count}")
        if not np.isfinite(flat).all():
            raise ConfigError("parameter vector holds non-finite entries")
        for name in self.trainable_names():
            old = params[name]
            # a copy: the model never shares memory with the caller's vector
            params[name] = flat[..., pos:pos + old.size].reshape(flat.shape[:-1] + old.shape).copy()
            pos += old.size
        return object.__new__(WaveletNet)._settle(
            params, levels=self.levels, kernel_size=self.kernel_size, mode=self.mode,
            gamma=self.gamma)

    # -- derived structure ----------------------------------------------------

    @cached_property
    def operands(self) -> tuple[np.ndarray, ...]:
        """The level ops' operands, level first and read-only: the encoder
        and decoder stacks, ``(L, ..., 2, K)``, then their polyphase taps,
        ``(L, ..., K, 2)``, derived on first use in one call of the mode's
        scheme, so no relation can drift; a shared set serves every level."""
        bank = self.mode.scheme.derive(self.params["kernels"])
        # stacks first, then levels: `repeat` copies in that order, each stack contiguous
        enc, dec = bank.transpose(-3, -4, *range(bank.ndim - 4), -2, -1).repeat(
            self.levels // bank.shape[-4], 1)
        ops = enc, dec, polyphase(enc), polyphase(dec)
        for op in ops:
            op.flags.writeable = False
        return ops

    def synthesis_gain_ratios(self) -> np.ndarray:
        """Per-level ||h_bar|| / ||h||; diverging ratios flag the known
        instability of fully unconstrained banks."""
        return np.array([np.linalg.norm(dec[..., 0, ::-1]) / np.linalg.norm(enc[..., 0, :])
                         for enc, dec in zip(*self.operands[:2])])


@dataclass
class ForwardTrace:
    """One forward pass: the gated coefficients, the reconstruction (of the
    input's exact shape) and every intermediate the backward pass needs
    besides the model's operands, the level inputs unpadded. Arrays keep the
    input's leading axis, ``(n,)`` for one window, ``(B, n)`` for a block.
    The details of all levels sit in one ``(..., M)`` pyramid, level 1 (the
    highest frequency) first, level l at ``[..., offsets[l]:offsets[l + 1]]``."""

    inputs: list[np.ndarray]          # encoder input of each level, odd lengths unpadded
    offsets: list[int]                # where each level's details start in a pyramid, then M
    details_pre: np.ndarray           # detail pyramid before gating
    details: np.ndarray               # detail pyramid after gating (`details_pre` without HT)
    gates: tuple                      # (t, u) tanh gate terms over the pyramid; empty without HT
    approx: np.ndarray
    recon_chain: list[np.ndarray]     # decoder outputs, index l = signal at depth l

    @property
    def reconstruction(self) -> np.ndarray:
        return self.recon_chain[0]

    def levels(self, pyramid: np.ndarray) -> list[np.ndarray]:
        """Per-level views of a pyramid laid out like `details`."""
        return [pyramid[..., lo:hi] for lo, hi in zip(self.offsets, self.offsets[1:])]


def forward_trace(model: WaveletNet, signal) -> ForwardTrace:
    """Encoder-decoder pass over one window or a (B, N) block of them, every
    row under the same banks, or row r under model r of a row-stacked model
    (module notes): details are gated before being stored and
    skip-connected, the final approximation is passed through untouched."""
    signal = cascade_input(signal, model.levels)
    enc, _, _, dec_taps = model.operands
    inputs, details, approx = analysis_cascade(signal, enc)
    sizes = [d.shape[-1] for d in details]
    offsets = list(accumulate(sizes, initial=0))
    details_pre = np.concatenate(details, -1)
    gated, gates = details_pre, ()
    if model.mode.trains_thresholds:
        # each coefficient under its level's pair (one pair per row of a
        # row-stacked model)
        gated, t, u = ht_activation(
            details_pre, np.repeat(model.params["b_plus"], sizes, axis=-1),
            np.repeat(model.params["b_minus"], sizes, axis=-1))
        gates = (t, u)
        details = [gated[..., lo:hi] for lo, hi in zip(offsets, offsets[1:])]
    return ForwardTrace(
        inputs=inputs,
        offsets=offsets,
        details_pre=details_pre,
        details=gated,
        gates=gates,
        approx=approx,
        recon_chain=synthesis_cascade(approx, details, [a.shape[-1] for a in inputs], dec_taps),
    )


def model_forward(signal, model: WaveletNet) -> ForwardTrace:
    """`forward_trace` taking the signal first, like the analysis helpers."""
    return forward_trace(model, signal)


def loss_terms(trace: ForwardTrace, signal, gamma: float):
    """(total, reconstruction, sparsity) of each row, as arrays of the
    input's leading shape: mean absolute residual plus gamma times the mean
    absolute value over all retained coefficients (details and final
    approximation together)."""
    signal = as_signal(signal)
    if signal.shape != trace.reconstruction.shape:
        raise InvalidSignalError(
            f"signal shape {signal.shape} != reconstruction "
            f"{trace.reconstruction.shape}"
        )
    recon = np.abs(signal - trace.reconstruction).mean(-1)
    coeff_sum = np.abs(trace.details).sum(-1) + np.abs(trace.approx).sum(-1)
    sparsity = coeff_sum / (trace.details.shape[-1] + trace.approx.shape[-1])
    return recon + gamma * sparsity, recon, sparsity


def default_levels_for(length: int) -> int:
    """Customary depth: nearest integer to log2 of the window length."""
    if length < 2:
        raise InvalidSignalError(f"signal too short: {length}")
    return min(max(1, round(math.log2(length))), max_depth(length))
