"""Properties of the kernel-scheme table, over every sharing mode."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wavelearn.network import SharingMode, WaveletNet, forward_trace
from wavelearn.wavelet import max_depth, polyphase

# flat parameter layout of each mode: (per-level kernel kinds, one shared
# set for all levels, thresholds trained); kinds interleave level by level
LAYOUT = {
    SharingMode.DB4_FIXED: ((), True, False),
    SharingMode.DB4_FIXED_HT: ((), True, True),
    SharingMode.SHARED_CQF: (("h",), True, False),
    SharingMode.SHARED_CQF_HT: (("h",), True, True),
    SharingMode.PER_LEVEL_CQF: (("h",), False, False),
    SharingMode.PER_LEVEL_CQF_HT: (("h",), False, True),
    SharingMode.PER_LEVEL_TWO_KERNEL_HT: (("h", "g"), False, True),
    SharingMode.FREE_HT: (("h", "g", "hb", "gb"), False, True),
}

modes = st.sampled_from(list(SharingMode))
kernel_sizes = st.integers(1, 6).map(lambda half: 2 * half)


def taps(shape):
    return arrays(np.float64, shape, elements=st.floats(-4.0, 4.0))


@settings(max_examples=150, deadline=None)
@given(mode=modes, size=kernel_sizes, levels=st.sampled_from([None, 1, 3]),
       data=st.data())
def test_fold_is_the_transpose_of_derive(mode, size, levels, data):
    # derive is affine (constant for the fixed bank), so the identity is
    # taken on derive(p) - derive(0), which is derive(p) for the others;
    # `levels` None is one level's kernels, else a level-stacked array
    scheme = mode.scheme
    size = scheme.kernel_size or size
    lead = () if levels is None else (levels,)
    p = data.draw(taps((*lead, len(scheme.kinds), size)))
    d_bank = data.draw(taps((*lead, 2, 2, size)))
    bank = scheme.derive(p)
    base = scheme.derive(np.zeros_like(p))
    # the fixed bank broadcasts to the level axis, hence the broadcast
    lhs = np.vdot(*np.broadcast_arrays(d_bank, bank - base))
    folded = scheme.fold(d_bank)
    assert folded.shape == p.shape
    rhs = sum(np.vdot(grad, kernel) for grad, kernel in zip(folded, p))
    # one level's kernels to 1e-12, as many level sums as levels else
    assert abs(lhs - rhs) <= 1e-12 * (levels or 1)


@settings(max_examples=60, deadline=None)
@given(mode=modes, size=kernel_sizes, levels=st.integers(1, 6),
       extra=st.integers(0, 40), data=st.data())
def test_trace_keeps_the_banks_bank_for_level_derives(mode, size, levels, extra, data):
    model = WaveletNet(levels, mode.scheme.kernel_size or size, mode)
    model = model.with_parameters(data.draw(taps(model.parameter_count())))
    length = 2 ** levels + extra
    assert max_depth(length) >= levels
    signal = data.draw(arrays(np.float64, length, elements=st.floats(-10.0, 10.0)))
    trace = forward_trace(model, signal)
    enc, dec, enc_taps, dec_taps = model.operands
    assert len(enc) == len(dec) == len(enc_taps) == len(dec_taps) == levels
    scheme = model.mode.scheme
    for level in range(levels):
        # the level's bank derived from its own slice of the kernel array
        # (the one set of a shared scheme) equals its stacks, and their
        # polyphase taps follow from them
        own = 0 if scheme.shared else level
        again = scheme.derive(model.params["kernels"][..., own:own + 1, :, :])
        assert np.array_equal(np.stack((enc[level], dec[level]), -3), again[..., 0, :, :, :])
        assert np.array_equal(enc_taps[level], polyphase(enc[level]))
        assert np.array_equal(dec_taps[level], polyphase(dec[level]))


@settings(max_examples=60, deadline=None)
@given(mode=modes, size=kernel_sizes, levels=st.sampled_from([None, 1, 3]),
       rows=st.sampled_from([(), (2,)]), data=st.data())
def test_derive_gives_equal_stacks_or_free_fold_inverts_it(mode, size, levels, rows, data):
    # every CQF scheme and the two-kernel one derive a decoder stack that is
    # the encoder stack bit for bit; the free scheme's derive and fold are
    # each other's inverse, bit for bit
    scheme = mode.scheme
    size = scheme.kernel_size or size
    lead = () if levels is None else (levels,)
    k = data.draw(taps((*rows, *lead, len(scheme.kinds), size)))
    bank = scheme.derive(k)
    if mode is SharingMode.FREE_HT:
        assert scheme.fold(bank).tobytes() == k.tobytes()
    else:
        assert bank[..., 1, :, :].tobytes() == bank[..., 0, :, :].tobytes()


@settings(max_examples=60, deadline=None)
@given(mode=modes, size=kernel_sizes, levels=st.integers(1, 12))
def test_trainable_names_keep_the_interleaved_layout(mode, size, levels):
    model = WaveletNet(levels, mode.scheme.kernel_size or size, mode)
    kinds, shared, thresholds = LAYOUT[mode]
    assert (model.mode.scheme.kinds, model.mode.scheme.shared) == (kinds, shared)
    assert model.trainable_names() == ["kernels"] + ["b_plus", "b_minus"] * thresholds
    kernel = model.kernel_size
    count = len(kinds) * kernel * (1 if shared else levels) + 2 * levels * thresholds
    assert model.parameter_count() == count
    sets = 1 if shared else levels
    assert model.params["kernels"].shape == (sets, len(kinds), kernel)
    # the flat order: level by level (one set when shared), kind by kind
    # within a level, tap by tap, then b_plus and b_minus level by level
    model = model.with_parameters(np.arange(float(count)))
    kernels = model.params["kernels"]
    flat = [kernels[l, i, n] for l in range(sets)
            for i in range(len(kinds)) for n in range(kernel)]
    if thresholds:
        flat += [model.params[name][l] for name in ("b_plus", "b_minus")
                 for l in range(levels)]
    assert flat == list(range(count))
    assert np.array_equal(model.get_parameters(), np.arange(count))
