"""Filter-bank and cascade transform tests.

Hand-derived values are frozen inline; property checks run over seeded
random signals.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavelearn import wavelet
from wavelearn.errors import InvalidDepthError, InvalidKernelError, InvalidSignalError
from wavelearn.network import SharingMode, WaveletNet
from wavelearn.training import backward_full
from wavelearn.wavelet import (
    DB4_SCALING,
    HAAR_SCALING,
    CascadePlan,
    analysis_cascade,
    cascade_input,
    cqf_from_scaling,
    max_depth,
    polyphase,
    strided_corr,
    synthesis_cascade,
    upsample_conv,
)

S = math.sqrt(0.5)
# a bank from independent low- and high-pass kernels [h, g], synthesis tied
# by reversal: h_bar[n] = h[K-1-n], g_bar[n] = g[K-1-n]
two_kernel_bank = SharingMode.PER_LEVEL_TWO_KERNEL_HT.scheme.derive
DB4_BANK = cqf_from_scaling(DB4_SCALING)


def corr(x, f, upstream=None, **kwargs):
    """`strided_corr`; given `upstream`, (out, the kernel gradient it writes)."""
    if upstream is None:
        return strided_corr(x, f, **kwargs)
    grad = np.empty((*x.shape[:-1], len(upstream), f.shape[-1]))
    return strided_corr(x, f, upstream, grad, **kwargs), grad


def synth(v, f, x=None, **kwargs):
    """`upsample_conv` under the (..., 2, K) kernel stack `f`, through its
    polyphase taps; given `x`, (out, the kernel gradient it writes, mapped
    back onto the stack by `polyphase` as well)."""
    if x is None:
        return upsample_conv(v, polyphase(f), **kwargs)
    grad = np.empty((*v[0].shape[:-1], f.shape[-1], 2))
    out = upsample_conv(v, polyphase(f), x, grad, **kwargs)
    stack = grad.reshape(*grad.shape[:-2], 2, -1)
    return out, polyphase(stack).reshape(stack.shape)


def kernels(bank):
    """(h, g, h_bar, g_bar) of a (..., 2, 2, K) bank: its encoder stack
    and its decoder stack, index-reversed back."""
    return (bank[..., 0, 0, :], bank[..., 0, 1, :], bank[..., 1, 0, ::-1],
            bank[..., 1, 1, ::-1])


# Daubechies-4 wavelet (high-pass) filter from the published table, in the
# alternating-flip orientation g[n] = (-1)^n h[K-1-n].
DB4_WAVELET_TABLE = np.array([
    -0.010597401785069032,
    -0.0328830116668852,
    0.030841381835560764,
    0.18703481171909309,
    -0.027983769416859854,
    -0.6308807679298589,
    0.7148465705529157,
    -0.2303778133088965,
])


class TestCqfConstruction:
    def test_haar_relations_by_hand(self):
        h, g, h_bar, g_bar = kernels(cqf_from_scaling([S, S]))
        assert np.array_equal(h, [S, S])
        assert np.array_equal(g, [S, -S])
        assert np.array_equal(h_bar, [S, S])
        assert np.array_equal(g_bar, [-S, S])

    def test_relations_hold_bitwise(self):
        for bank in (cqf_from_scaling(HAAR_SCALING), DB4_BANK):
            h, g, h_bar, g_bar = kernels(bank)
            n = np.arange(h.size)
            assert np.array_equal(g, (-1.0) ** n * h[::-1])
            assert np.array_equal(h_bar, h[::-1])
            assert np.array_equal(g_bar, (-1.0) ** (n + 1) * h)

    def test_db4_matches_published_wavelet_filter(self):
        assert np.array_equal(kernels(DB4_BANK)[1], DB4_WAVELET_TABLE)

    def test_h_bar_double_reversal_is_identity(self):
        h, _, h_bar, _ = kernels(DB4_BANK)
        assert np.array_equal(h_bar[::-1], h)

    def test_db4_normalization(self):
        h, g, _, _ = kernels(DB4_BANK)
        assert abs(h.sum() - math.sqrt(2)) <= 1e-12
        assert abs((h ** 2).sum() - 1.0) <= 1e-12
        assert abs(g.sum()) <= 1e-12

    def test_partial_matches_full_construction(self):
        full = cqf_from_scaling(DB4_SCALING)
        partial = two_kernel_bank(full[0])
        for got, want in zip(kernels(partial), kernels(full)):
            assert np.array_equal(got, want)

    def test_partial_haar_by_hand(self):
        _, _, h_bar, g_bar = kernels(two_kernel_bank(np.array([[S, S], [S, -S]])))
        assert np.array_equal(h_bar, [S, S])
        assert np.array_equal(g_bar, [-S, S])

    def test_invalid_kernels_rejected(self):
        with pytest.raises(InvalidKernelError):
            cqf_from_scaling([1.0, 2.0, 3.0])  # odd length
        with pytest.raises(InvalidKernelError):
            cqf_from_scaling([])
        with pytest.raises(InvalidKernelError):
            cqf_from_scaling([1.0, np.nan])


def decompose(x, bank, levels):
    """(level input lengths, details, approximation) of a `levels`-deep
    cascade with one bank at every level."""
    inputs, details, approx = analysis_cascade(cascade_input(x, levels), [bank[0]] * levels)
    return [a.shape[-1] for a in inputs], details, approx


def roundtrip(x, bank, levels):
    """`x` decomposed `levels` deep with one bank and reconstructed."""
    lengths, details, approx = decompose(x, bank, levels)
    return synthesis_cascade(approx, details, lengths, [polyphase(bank[1])] * levels)[0]


def analyze(x, bank):
    """(approximation, detail) of a one-level cascade."""
    _, details, approx = decompose(x, bank, 1)
    return approx, details[0]


def synthesize(a, d, bank, n):
    """Inverse of a one-level cascade, truncated to `n` samples."""
    return synthesis_cascade(np.asarray(a, dtype=float), [np.asarray(d, dtype=float)],
                             [n], [polyphase(bank[1])])[0]


class TestAnalyzeLevel:
    def test_haar_hand_example(self):
        bank = cqf_from_scaling(HAAR_SCALING)
        a, d = analyze([1.0, 2.0, 3.0, 4.0], bank)
        np.testing.assert_allclose(a, [3 * S, 7 * S], rtol=0, atol=1e-15)
        np.testing.assert_allclose(d, [-S, -S], rtol=0, atol=1e-15)

    def test_constant_signal_has_zero_details(self):
        _, d = analyze(np.full(64, 5.0), DB4_BANK)
        assert np.abs(d).max() <= 1e-10

    def test_delta_kernels_select_strided_samples(self):
        h, g = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        # synthesis kernels the reversed analysis ones: both stacks are [h, g]
        a, d = analyze([1.0, 0.0, 0.0, 0.0], np.stack([np.stack((h, g))] * 2))
        assert np.array_equal(a, [1.0, 0.0])
        assert np.array_equal(d, [0.0, 0.0])

    def test_empty_signal_rejected(self):
        bank = cqf_from_scaling(HAAR_SCALING)
        with pytest.raises(InvalidSignalError):
            analyze([], bank)


class TestSynthesizeLevel:
    def test_haar_inverse_of_hand_example(self):
        bank = cqf_from_scaling(HAAR_SCALING)
        x = synthesize([3 * S, 7 * S], [-S, -S], bank, 4)
        np.testing.assert_allclose(x, [1.0, 2.0, 3.0, 4.0], rtol=0, atol=1e-12)

    def test_zero_coefficients_give_zero_signal(self):
        x = synthesize(np.zeros(8), np.zeros(8), DB4_BANK, 16)
        assert np.array_equal(x, np.zeros(16))

    def test_roundtrip_even_lengths(self):
        bank = DB4_BANK
        rng = np.random.default_rng(42)
        for n in (2, 4, 10, 64, 256):
            x = rng.normal(size=n)
            a, d = analyze(x, bank)
            back = synthesize(a, d, bank, n)
            np.testing.assert_allclose(back, x, rtol=0, atol=1e-10)


class TestAdjointness:
    def test_analysis_synthesis_are_transposes(self):
        # holds for any bank whose synthesis kernels are reversed analysis
        # kernels, which the CQF and two-kernel schemes guarantee
        rng = np.random.default_rng(7)
        banks = [cqf_from_scaling(HAAR_SCALING), DB4_BANK]
        banks.append(two_kernel_bank(rng.normal(size=(2, 6))))
        for bank in banks:
            for n in (6, 16, 63, 128):
                u = rng.normal(size=n)
                half = (n + 1) // 2
                v = rng.normal(size=half)
                w = rng.normal(size=half)
                a, d = analyze(u, bank)
                lhs = np.dot(a, v) + np.dot(d, w)
                rhs = np.dot(u, synthesize(v, w, bank, n))
                assert abs(lhs - rhs) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 400), k=st.sampled_from([2, 4, 6, 8, 10, 16]),
           seed=st.integers(0, 2**32 - 1))
    def test_synthesis_on_swapped_stacks_transposes_full_cascade(self, n, k,
                                                                 seed):
        # four unrelated kernels per level, at full depth, so the deep
        # levels' kernels are longer than their inputs; with its two stacks
        # swapped, a bank's decoder runs the encoder stack
        rng = np.random.default_rng(seed)
        banks = [rng.normal(size=(2, 2, k)) for _ in range(max_depth(n))]
        u = rng.normal(size=n)
        inputs, details, approx = analysis_cascade(u, [bank[0] for bank in banks])
        lengths = [a.shape[-1] for a in inputs]
        w_d = [rng.normal(size=d.size) for d in details]
        w_a = rng.normal(size=approx.size)
        lhs = np.dot(approx, w_a) + sum(np.dot(d, w) for d, w in zip(details, w_d))
        swapped = [polyphase(bank[::-1][1]) for bank in banks]
        rhs = np.dot(u, synthesis_cascade(w_a, w_d, lengths, swapped)[0])
        scale = abs(np.dot(approx, w_a)) + sum(
            abs(np.dot(d, w)) for d, w in zip(details, w_d))
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestCascade:
    def test_haar_length8_hand_example(self):
        signal = np.arange(1.0, 9.0)
        _, details, approx = decompose(signal, cqf_from_scaling(HAAR_SCALING), 3)
        assert [d.size for d in details] == [4, 2, 1]
        assert approx.size == 1
        np.testing.assert_allclose(
            approx[0], signal.sum() / (2 * math.sqrt(2)),
            rtol=0, atol=1e-12,
        )

    def test_single_level_equals_analyze(self):
        bank = DB4_BANK
        x = np.random.default_rng(0).normal(size=32)
        _, details, cascade_approx = decompose(x, bank, 1)
        approx, detail = strided_corr(x, bank[0])
        assert np.array_equal(cascade_approx, approx)
        assert np.array_equal(details[0], detail)

    def test_length10_padding_arithmetic(self):
        lengths, details, approx = decompose(np.arange(10.0),
                                             cqf_from_scaling(HAAR_SCALING), 3)
        assert lengths == [10, 5, 3]
        assert [d.size for d in details] == [5, 3, 2]
        assert approx.size == 2

    def test_depth_limit(self):
        haar = cqf_from_scaling(HAAR_SCALING)
        with pytest.raises(InvalidDepthError):
            decompose(np.arange(8.0), haar, 4)
        with pytest.raises(InvalidDepthError):
            decompose(np.arange(8.0), haar, 0)
        # padding headroom: length 10 supports 4 levels, not 3
        decompose(np.arange(10.0), haar, 4)
        assert max_depth(10) == 4

    def test_max_depth_matches_the_halving_loop(self):
        def halvings(length):
            # the loop max_depth was once written as
            if length < 2:
                return 0
            depth = 0
            while length > 1:
                length = (length + 1) // 2
                depth += 1
            return depth

        assert [max_depth(n) for n in range(4097)] == [halvings(n) for n in range(4097)]
        assert max_depth(np.int64(160_000)) == halvings(160_000) == 18

    def test_zero_pyramid_inverts_to_zero(self):
        assert np.array_equal(roundtrip(np.zeros(16), DB4_BANK, 3), np.zeros(16))

    def test_perfect_reconstruction_random_suite(self):
        bank = DB4_BANK
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(100):
            x = rng.normal(size=1024)
            back = roundtrip(x, bank, 5)
            worst = max(worst, np.abs(back - x).max())
        assert worst <= 1e-8

    def test_perfect_reconstruction_all_small_lengths(self):
        rng = np.random.default_rng(11)
        for bank in (cqf_from_scaling(HAAR_SCALING), DB4_BANK):
            for n in range(2, 70):
                x = rng.normal(size=n)
                levels = max_depth(n)
                back = roundtrip(x, bank, levels)
                np.testing.assert_allclose(back, x, rtol=0, atol=1e-8)

    def test_odd_length_roundtrips_through_padding(self):
        bank = DB4_BANK
        rng = np.random.default_rng(5)
        for n in (10, 625, 1001):
            x = rng.normal(size=n)
            back = roundtrip(x, bank, 4)
            np.testing.assert_allclose(back, x, rtol=0, atol=1e-8)

    def test_energy_preservation_power_of_two(self):
        bank = DB4_BANK
        rng = np.random.default_rng(9)
        for n in (64, 256, 1024):
            x = rng.normal(size=n)
            _, details, approx = decompose(x, bank, 5)
            energy = sum(float(np.sum(d ** 2)) for d in details)
            energy += float(np.sum(approx ** 2))
            assert abs(energy - float(np.sum(x ** 2))) <= 1e-8


def roll_upsample_conv(v, f):
    """Zero-interpolate `v`, then convolve periodically with `f`, one rolled
    copy per tap: the direct form the polyphase `upsample_conv` replaces."""
    n_out = 2 * v.size
    u = np.zeros(n_out)
    u[::2] = v
    out = np.zeros(n_out)
    for tap in range(f.size):
        out += f[tap] * np.roll(u, tap)
    return out


def roll_sum(v, f):
    """`roll_upsample_conv` of each channel of a (2, half) stack under its
    kernel of a (2, K) stack, summed."""
    return roll_upsample_conv(v[0], f[0]) + roll_upsample_conv(v[1], f[1])


class TestPolyphaseSynthesis:
    """`upsample_conv` is the direct form, both channels summed, computed as
    one matmul, so its sums run in another order."""

    @settings(max_examples=300, deadline=None)
    @given(half=st.one_of(st.integers(1, 16), st.integers(1, 4096)),
           taps=st.sampled_from([2, 4, 6, 8, 10, 16]),
           seed=st.integers(0, 2**32 - 1),
           zeros=st.floats(0.0, 1.0),
           reversed_view=st.booleans())
    def test_equal_to_roll_loop_within_rounding(self, half, taps, seed, zeros,
                                                reversed_view):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(2, half))
        # +0.0 and -0.0 samples, as -sign(residual)/N carries in the backward
        v[rng.random(v.shape) < zeros] = 0.0
        v[rng.random(v.shape) < zeros / 2] = -0.0
        synthesis = rng.normal(size=(2, taps))
        f = synthesis[:, ::-1] if reversed_view else synthesis
        got = synth(tuple(v), f)
        # each output sums K products either way, so each side is within
        # (K/2) eps of the exact sum of absolute terms (float64 unit
        # roundoff eps/2 per addition); the two differ by at most K eps
        bound = taps * np.finfo(float).eps * roll_sum(np.abs(v), np.abs(f))
        assert np.all(np.abs(got - roll_sum(v, f)) <= bound)
        planned = synth(tuple(v), f, scratch=CascadePlan((2 * half,), 1, taps).conv[0])
        assert planned.tobytes() == got.tobytes()

    def test_negative_zero_gradient_gives_the_roll_loop_values(self):
        # with 8 samples every product is exact (g = +-1/8) and at most two
        # per output are nonzero, so any summation order gives these values
        residual = np.array([0.0, 1.0, 0.0, -2.0, 0.0, 0.0, 0.0, 0.0])
        g = -np.sign(residual) / residual.size
        assert np.signbit(g[0])  # -0.0 in the input
        v = np.stack((g, np.zeros_like(g)))
        for f in (DB4_BANK[0], DB4_BANK[1], cqf_from_scaling(HAAR_SCALING)[0]):
            assert np.array_equal(synth(tuple(v), f), roll_sum(v, f))

    @pytest.mark.parametrize("lead", [(), (8,)], ids=["window", "block"])
    def test_reversed_view_of_a_stack_gives_its_bytes(self, lead):
        # one output pair per row: the polyphase taps of a negatively strided
        # stack, were they not copied, reach a matmul path that rounds the
        # one-row tile another way
        for seed in range(5):
            rng = np.random.default_rng(seed)
            f = rng.normal(size=(2, 8))
            view = np.ascontiguousarray(f[:, ::-1])[:, ::-1]
            assert view.strides[-1] < 0 and np.array_equal(view, f)
            v = rng.normal(size=(*lead, 2, 1))
            pair = (v[..., 0, :], v[..., 1, :])
            assert synth(pair, view).tobytes() == synth(pair, f).tobytes()

    def test_kernel_longer_than_output_wraps(self):
        v = np.array([[1.5, -2.0], [0.5, 3.0]])
        f = np.arange(1.0, 21.0).reshape(2, 10)  # 10 taps fold onto 4 outputs
        expect = np.zeros(4)
        for c in range(2):
            for k in range(v.shape[1]):
                for n in range(f.shape[1]):
                    expect[(2 * k + n) % 4] += v[c, k] * f[c, n]
        np.testing.assert_allclose(synth(tuple(v), f), expect, rtol=0,
                                   atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 8), half=st.integers(1, 40),
           taps=st.sampled_from([2, 4, 6, 8, 16, 32]), per_row=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_adjoint_of_strided_corr(self, rows, half, taps, per_row, seed):
        # <strided_corr(x, f), y> == <x, upsample_conv(y, f)> for a (2, K)
        # stack and a (B, 2, K) one; half < K/2 gives kernels longer than
        # the output
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, 2 * half))
        y = rng.normal(size=(rows, 2, half))
        f = rng.normal(size=(rows, 2, taps) if per_row else (2, taps))
        lhs = np.sum(strided_corr(x, f) * y)
        rhs = np.sum(x * synth((y[:, 0], y[:, 1]), f))
        # either side sums each of its (K + B N) absolute terms at most once
        # per rounding, so each is within (K + B N) eps/2 of the exact sum
        terms = np.sum(strided_corr(np.abs(x), np.abs(f)) * np.abs(y))
        assert abs(lhs - rhs) <= (taps + x.size) * np.finfo(float).eps * terms

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 200), taps=st.integers(1, 66).map(lambda t: 2 * t))
    def test_periodic_ext_is_modular_indexing(self, n, taps):
        # the extensions whose windows the level ops copy: the zero-padded
        # input, then its first K - 2 samples in analysis; each channel after
        # its last K/2 - 1 in synthesis; wrapping several times when the
        # kernel outgrows the input. A small block gathers its windows
        # through a cached index, any other fills the extension in scratch
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        m = n + n % 2
        extended = np.arange(m + taps - 2) % m
        wrapped = np.arange(1 - taps // 2, m // 2) % (m // 2)
        v = rng.normal(size=(2, m // 2))
        corr_index = wavelet._gather_index(1, m, taps, False)
        if corr_index is not None:
            k = np.arange(m // 2)
            assert np.array_equal(corr_index, extended[2 * k + np.arange(taps)[:, None]])
            conv_index = wavelet._gather_index(1, m, taps, True)
            s = np.arange(taps // 2)[:, None]
            assert np.array_equal(conv_index, np.concatenate(
                [c * (m // 2) + wrapped[k + s] for c in (0, 1)]))
            return
        corr = wavelet._scratch((), n, taps, False)
        strided_corr(x, np.ones((2, taps)), scratch=corr)
        padded = np.concatenate([x, np.zeros(n % 2)])
        assert corr[0].tobytes() == padded[extended].tobytes()
        conv = wavelet._scratch((), n, taps, True)
        upsample_conv(tuple(v), np.ones((taps, 2)), scratch=conv)
        assert conv[0].tobytes() == v[:, wrapped].tobytes()


def corr_sum(x, f):
    """out[..., c, k] = sum_n f[..., c, n] * x[..., (2k + n) mod N], written
    out as a loop over the taps in index order: the sum `strided_corr`
    computes as one matmul."""
    n = x.shape[-1]
    out = 0.0
    for tap in range(f.shape[-1]):
        samples = x[..., (2 * np.arange(n // 2) + tap) % n]
        out = out + f[..., tap, None] * (samples if f.ndim == 1 else samples[..., None, :])
    return out


class TestStridedCorr:
    """`strided_corr` is the written-out strided periodic sum, computed as one
    matmul, so its sums run in another order."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 4), half=st.one_of(st.integers(1, 16), st.integers(1, 2048)),
           taps=st.sampled_from([2, 4, 6, 8, 10, 16, 32]),
           stack=st.sampled_from(["one", "pair", "per_row"]), one_window=st.booleans(),
           reversed_view=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equal_to_written_out_sum_within_rounding(self, rows, half, taps, stack,
                                                      one_window, reversed_view, seed):
        # half < K/2 gives kernels longer than the signal, which wrap
        rng = np.random.default_rng(seed)
        per_row = stack == "per_row"
        x = rng.normal(size=(2 * half,) if one_window and not per_row else (rows, 2 * half))
        shape = {"one": (taps,), "pair": (2, taps), "per_row": (rows, 2, taps)}[stack]
        kernels = rng.normal(size=shape)
        f = kernels[..., ::-1] if reversed_view else kernels
        got = strided_corr(x, f)
        want = corr_sum(x, f)
        assert got.shape == want.shape
        # each output sums K products either way, so the two differ by at
        # most K eps of the exact sum of absolute terms
        bound = taps * np.finfo(float).eps * corr_sum(np.abs(x), np.abs(f))
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("n", [7, 64, 1001])
    @pytest.mark.parametrize("k", [2, 8])
    def test_level_ops_ignore_the_block_layout(self, n, k):
        # a broadcast block (as `dict_classify` builds one) and a column-major
        # one give the bytes of their C-contiguous copies
        rng = np.random.default_rng(n + k)
        bank = cqf_from_scaling(rng.normal(size=(3, k)))
        encoder, decoder = bank[:, 0], bank[:, 1]
        x = rng.normal(size=n)
        half = (n + 1) // 2
        a, d = rng.normal(size=(2, half))
        cases = [
            (np.broadcast_to(x, (3, n)), np.broadcast_to(a, (3, half)),
             np.broadcast_to(d, (3, half))),
            (np.asfortranarray(rng.normal(size=(3, n))),
             np.asfortranarray(rng.normal(size=(3, half))),
             np.asfortranarray(rng.normal(size=(3, half)))),
        ]
        # the other operand of the kernel gradients the backward pass asks
        # the level ops for: an upstream pair and a level input, unpadded
        up, signal = rng.normal(size=(2, half)), rng.normal(size=n)
        cases = [case + extra for case, extra in zip(cases, [
            (*(np.broadcast_to(u, (3, half)) for u in up), np.broadcast_to(signal, (3, n))),
            tuple(np.asfortranarray(rng.normal(size=(3, m))) for m in (half, half, n)),
        ])]
        for block, approx, detail, up_a, up_d, x in cases:
            copies = [np.ascontiguousarray(v) for v in (block, approx, detail, up_a, up_d, x)]
            got = strided_corr(block, encoder)
            want = strided_corr(copies[0], encoder)
            assert got.tobytes() == want.tobytes()
            got = synth((approx, detail), decoder)[..., :n]
            want = synth((copies[1], copies[2]), decoder)[..., :n]
            assert got.tobytes() == want.tobytes()
            for got, want in zip(corr(block, encoder, (up_a, up_d)),
                                 corr(copies[0], encoder, copies[3:5])):
                assert got.tobytes() == want.tobytes()
            for got, want in zip(synth((approx, detail), decoder, x),
                                 synth((copies[1], copies[2]), decoder, copies[5])):
                assert got.tobytes() == want.tobytes()


class TestOddLengthsPadInside:
    """Each level op zero-pads an odd-length level input by one sample
    itself: `strided_corr` its input, `upsample_conv` its gradient operand,
    byte for byte as on the explicitly padded input."""

    @settings(max_examples=100, deadline=None)
    @given(lead=st.sampled_from([(), (1,), (3,)]), half=st.integers(1, 200),
           k=st.sampled_from([2, 4, 8, 16]), seed=st.integers(0, 2**32 - 1))
    def test_equals_explicit_pad(self, lead, half, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(*lead, 2 * half - 1))
        padded = np.concatenate([x, np.zeros((*lead, 1))], -1)
        stack = rng.normal(size=(2, k))
        up = tuple(rng.normal(size=(2, *lead, half)))
        out = strided_corr(x, stack)
        assert out.shape == (*lead, 2, half)
        assert out.tobytes() == strided_corr(padded, stack).tobytes()
        for got, want in zip(corr(x, stack, up), corr(padded, stack, up)):
            assert got.tobytes() == want.tobytes()
        out, grad = synth(up, stack, x)
        assert out.shape == padded.shape
        assert out.tobytes() == synth(up, stack).tobytes()
        for got, want in zip((out, grad), synth(up, stack, padded)):
            assert got.tobytes() == want.tobytes()


def grad_sum(u, x, taps):
    """grad[..., c, n] = sum_k u[..., c, k] * x[..., (2k + n) mod N] for n
    in [0, taps), written out as a loop over k in index order: the kernel
    gradient `strided_corr` and `upsample_conv` compute as one matmul."""
    n = x.shape[-1]
    out = 0.0
    for k in range(u.shape[-1]):
        out = out + u[..., k, None] * x[..., None, (2 * k + np.arange(taps)) % n]
    return out


class TestKernelGradient:
    """Given the other operand, `strided_corr` (the upstream) and
    `upsample_conv` (the signal) also return the kernel gradient, the
    written-out sum, as one matmul on the window copy each makes for its
    own output, so its sums run in another order."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 4), half=st.one_of(st.integers(1, 16), st.integers(1, 2048)),
           taps=st.sampled_from([2, 4, 6, 8, 10, 16, 32]),
           layout=st.sampled_from(["window", "block", "column_major"]),
           per_row=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equal_to_written_out_sum_within_rounding(self, rows, half, taps, layout,
                                                      per_row, seed):
        # half < K/2 gives kernels longer than the signal, which wrap
        rng = np.random.default_rng(seed)
        lead = () if layout == "window" else (rows,)
        x = rng.normal(size=(*lead, 2 * half))
        u = rng.normal(size=(*lead, 2, half))
        if layout == "column_major":
            x, u = np.asfortranarray(x), np.asfortranarray(u)
        f = rng.normal(size=(*lead, 2, taps) if per_row else (2, taps))
        want = grad_sum(u, x, taps)
        # each entry sums N/2 products either way (not K: the sum runs over
        # the samples), so the two differ by at most (N/2) eps of the exact
        # sum of absolute terms
        bound = half * np.finfo(float).eps * grad_sum(np.abs(u), np.abs(x), taps)
        pair = (u[..., 0, :], u[..., 1, :])
        out, corr_grad = corr(x, f, pair)
        assert out.tobytes() == strided_corr(x, f).tobytes()
        out, conv_grad = synth(pair, f, x)
        assert out.tobytes() == synth(pair, f).tobytes()
        for got in (corr_grad, conv_grad):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= bound)

    def test_kernel_longer_than_signal_wraps(self):
        # 10 taps over 4 samples: entry n reads x[(2k + n) mod 4]
        x = np.array([1.0, -2.0, 0.5, 3.0])
        u = np.array([[1.5, -2.0], [0.5, 3.0]])
        expect = np.zeros((2, 10))
        for c in range(2):
            for k in range(2):
                for n in range(10):
                    expect[c, n] += u[c, k] * x[(2 * k + n) % 4]
        f = np.ones((2, 10))
        for got in (corr(x, f, tuple(u))[1], synth(tuple(u), f, x)[1]):
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


def conv_sum(v, f):
    """`roll_sum` of each row of a (..., 2, half) channel stack under its own
    row of a (..., 2, K) kernel stack, or under one (2, K) stack."""
    if v.ndim == 2:
        return roll_sum(v, f)
    return np.stack([conv_sum(v[r], f if f.ndim == 2 else f[r]) for r in range(len(v))])


# (leading axes, outputs per row, taps, one kernel stack per row): one window,
# blocks under one stack and under a stack per row, two-tap kernels, and
# kernels longer than the input
TILE_CASES = [((), 11, 8, False), ((3,), 13, 4, False), ((3,), 12, 8, True),
              ((3,), 7, 2, False), ((2,), 3, 16, False), ((2,), 2, 32, True)]


class TestTiles:
    """A level op makes its window copy one tile of `TILE` outputs per row at
    a time. With `TILE` patched small, short inputs span several tiles, the
    last of them a remainder."""

    @staticmethod
    def operands(lead, half, taps, per_row):
        rng = np.random.default_rng(half * taps + len(lead))
        x = rng.normal(size=(*lead, 2 * half))
        u = rng.normal(size=(*lead, 2, half))
        f = rng.normal(size=(*lead, 2, taps) if per_row else (2, taps))
        return x, u, f

    @pytest.mark.parametrize("tile", [1, 3, 5])
    @pytest.mark.parametrize("lead, half, taps, per_row", TILE_CASES)
    def test_equal_to_written_out_sums_within_rounding(self, monkeypatch, tile, lead,
                                                       half, taps, per_row):
        # the bounds of the untiled tests: K products per output, N/2 per
        # gradient entry, whatever the order of their sums
        x, u, f = self.operands(lead, half, taps, per_row)
        pair = (u[..., 0, :], u[..., 1, :])
        eps = np.finfo(float).eps
        monkeypatch.setattr(wavelet, "TILE", tile)
        out, corr_grad = corr(x, f, pair)
        assert out.tobytes() == strided_corr(x, f).tobytes()
        plan = CascadePlan(x.shape, 1, taps)
        for got, want in ((corr(x, f, pair, scratch=plan.corr[0]), (out, corr_grad)),
                          (synth(pair, f, x, scratch=plan.conv[0]), synth(pair, f, x))):
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
        assert np.all(np.abs(out - corr_sum(x, f))
                      <= taps * eps * corr_sum(np.abs(x), np.abs(f)))
        out, conv_grad = synth(pair, f, x)
        assert out.tobytes() == synth(pair, f).tobytes()
        assert np.all(np.abs(out - conv_sum(u, f))
                      <= taps * eps * conv_sum(np.abs(u), np.abs(f)))
        want = grad_sum(u, x, taps)
        for got in (corr_grad, conv_grad):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= half * eps * grad_sum(np.abs(u), np.abs(x), taps))

    @pytest.mark.parametrize("lead, per_row", [((), False), ((3,), False), ((3,), True)])
    def test_aligned_tiles_keep_every_output_bit(self, monkeypatch, lead, per_row):
        # 197 outputs per row are three tiles of 64 and a remainder of 5.
        # BLAS rounds a column the same in any tile whose width is a multiple
        # of its kernels' column blocking, a power of two, as is the default
        # `TILE`; only the gradients add their tiles' partial sums
        x, u, f = self.operands(lead, 197, 8, per_row)
        pair = (u[..., 0, :], u[..., 1, :])
        untiled = (corr(x, f, pair), synth(pair, f, x))
        monkeypatch.setattr(wavelet, "TILE", 64)
        tiled = (corr(x, f, pair), synth(pair, f, x))
        for (out, grad), (want_out, want_grad) in zip(tiled, untiled):
            assert out.tobytes() == want_out.tobytes()
            assert np.max(np.abs(grad - want_grad)) <= 1e-13 * np.max(np.abs(want_grad))
        # the four tiles of a plan's scratch keep every bit of the tiled ops
        plan = CascadePlan(x.shape, 1, 8)
        planned = (corr(x, f, pair, scratch=plan.corr[0]),
                   synth(pair, f, x, scratch=plan.conv[0]))
        for got, want in zip(planned, tiled):
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("mode", [m for m in SharingMode if m.scheme.kinds],
                             ids=lambda m: m.value)
    def test_backward_full_under_aligned_tiles(self, monkeypatch, mode):
        rng = np.random.default_rng(4)
        model = WaveletNet(12, 8, mode, gamma=0.1)
        model = model.with_parameters(model.get_parameters()
                                      + rng.normal(0.0, 0.01, model.parameter_count()))
        x = rng.normal(size=(2, 4096))
        losses, grad = backward_full(x, model)
        monkeypatch.setattr(wavelet, "TILE", 64)
        tiled_losses, tiled_grad = backward_full(x, model)
        assert np.array(tiled_losses).tobytes() == np.array(losses).tobytes()
        assert np.max(np.abs(tiled_grad - grad)) <= 1e-13 * np.max(np.abs(grad))


class TestGather:
    """A level op over a block of at most `GATHER` zero-padded samples, or
    under a kernel longer than its input, gathers its window copy through a
    cached read-only index; it is the strided copy's, so every output and
    kernel gradient keeps its bytes."""

    @pytest.mark.parametrize("rows", [1, 2, 8])
    @pytest.mark.parametrize("taps", [2, 8, 16])
    def test_bitwise_equal_to_the_strided_copy(self, monkeypatch, rows, taps):
        rng = np.random.default_rng(rows * taps)
        cases = []
        for n in range(2, 131):
            for per_row in (False, True):
                lead = () if rows == 1 and not per_row else (rows,)
                x = rng.normal(size=(*lead, n))
                u = rng.normal(size=(*lead, 2, (n + 1) // 2))
                f = rng.normal(size=(rows, 2, taps) if per_row else (2, taps))
                cases.append((x, (u[..., 0, :], u[..., 1, :]), f))

        def outputs():
            return [(*corr(x, f, pair), *synth(pair, f, x)) for x, pair, f in cases]

        gathered = outputs()
        # with `GATHER` 0 only the inputs a kernel outgrows gather; the index
        # cache holds the rule's answer, so it starts empty on each side
        monkeypatch.setattr(wavelet, "GATHER", 0)
        wavelet._gather_index.cache_clear()
        try:
            strided = outputs()
        finally:
            monkeypatch.undo()
            wavelet._gather_index.cache_clear()
        compared = 0
        for (x, _, _), got, want in zip(cases, gathered, strided):
            m = x.shape[-1] + x.shape[-1] % 2
            compared += rows * m <= wavelet.GATHER and m >= taps
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        # each even m from K to GATHER / rows changes path, in two or more cases
        assert compared >= 2 * len(range(taps, wavelet.GATHER // rows + 1, 2))

    @pytest.mark.parametrize("synthesis", [False, True], ids=["analysis", "synthesis"])
    def test_index_is_cached_and_read_only(self, synthesis):
        idx = wavelet._gather_index(2, 16, 8, synthesis)
        assert idx.shape == (8, 8) and not idx.flags.writeable
        with pytest.raises(ValueError):
            idx[0, 0] = 1
        assert wavelet._gather_index(2, 16, 8, synthesis) is idx
        assert wavelet._gather_index(2, 1024, 8, synthesis) is None

    def test_a_plan_holds_scratch_for_the_strided_levels_only(self):
        # (8, 1 024) at L = 10: levels 8 to 10 (inputs of 8, 4 and 2
        # samples) make at most 64 samples over the block's rows
        plan = CascadePlan((8, 1024), 10, 8)
        for levels in (plan.corr, plan.conv):
            assert [scratch is None for scratch in levels] == [False] * 7 + [True] * 3
        assert CascadePlan((3,), 2, 2).corr == [None, None]


class TestOneBankPerRow:
    """(B, K) kernels hold one bank per row: row r of every result is byte
    for byte that of row r alone under bank r."""

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 5), n=st.integers(2, 300),
           k=st.sampled_from([2, 4, 8, 16]), two_kernels=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_level_ops_equal_their_rows(self, rows, n, k, two_kernels, seed):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(rows, k))
        g = rng.normal(size=(rows, k))
        bank = (two_kernel_bank(np.stack((h, g), -2)) if two_kernels
                else cqf_from_scaling(h))
        lone = [two_kernel_bank(np.stack((h[r], g[r]))) if two_kernels
                else cqf_from_scaling(h[r]) for r in range(rows)]
        x = rng.normal(size=(rows, n))
        x[rng.random(x.shape) < 0.2] = 0.0
        out = strided_corr(x, bank[:, 0])
        a, d = out[..., 0, :], out[..., 1, :]
        back = synth((a, d), bank[:, 1])[..., :n]
        plan = CascadePlan(x.shape, 1, k)
        assert strided_corr(x, bank[:, 0], scratch=plan.corr[0]).tobytes() == out.tobytes()
        assert synth((a, d), bank[:, 1], scratch=plan.conv[0])[..., :n].tobytes() == back.tobytes()
        for r in range(rows):
            for got, want in zip(kernels(bank), kernels(lone[r])):
                assert got[r].tobytes() == want.tobytes()
            expect = strided_corr(x[r], lone[r][0])
            for got, want in zip((a, d), expect):
                assert got[r].tobytes() == want.tobytes()
            want = synth((expect[0], expect[1]), lone[r][1])[..., :n]
            assert back[r].tobytes() == want.tobytes()

    def test_one_kernel_serves_every_row(self):
        v = np.random.default_rng(3).normal(size=(3, 2, 16))
        f = np.random.default_rng(4).normal(size=(2, 8))
        out = synth((v[:, 0], v[:, 1]), np.tile(f, (3, 1, 1)))
        assert out.tobytes() == synth((v[:, 0], v[:, 1]), f).tobytes()

    def test_odd_or_mismatched_row_kernels_rejected(self):
        with pytest.raises(InvalidKernelError):
            cqf_from_scaling(np.ones((2, 3)))
