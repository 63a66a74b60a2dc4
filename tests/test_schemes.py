"""Properties of the kernel-scheme table, over every sharing mode."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from wavelearn.network import SharingMode, WaveletNet, forward_trace
from wavelearn.wavelet import FilterBank, max_depth

BANK_FIELDS = ("h", "g", "h_bar", "g_bar")

# flat parameter layout of each mode: (per-level kernel kinds, one shared
# set for all levels, thresholds trained); kinds interleave level by level
LAYOUT = {
    SharingMode.DB4_FIXED: ((), False, False),
    SharingMode.DB4_FIXED_HT: ((), False, True),
    SharingMode.SHARED_CQF: (("h",), True, False),
    SharingMode.SHARED_CQF_HT: (("h",), True, True),
    SharingMode.PER_LEVEL_CQF: (("h",), False, False),
    SharingMode.PER_LEVEL_CQF_HT: (("h",), False, True),
    SharingMode.PER_LEVEL_TWO_KERNEL_HT: (("h", "g"), False, True),
    SharingMode.FREE_HT: (("h", "g", "hb", "gb"), False, True),
}

modes = st.sampled_from(list(SharingMode))
kernel_sizes = st.integers(1, 6).map(lambda half: 2 * half)


def taps(size):
    return arrays(np.float64, size, elements=st.floats(-4.0, 4.0))


def expected_names(mode, levels):
    kinds, shared, thresholds = LAYOUT[mode]
    if shared:
        names = [f"{kind}.shared" for kind in kinds]
    else:
        names = [f"{kind}.{l}" for l in range(levels) for kind in kinds]
    return names + (["b_plus", "b_minus"] if thresholds else [])


@settings(max_examples=150, deadline=None)
@given(mode=modes, size=kernel_sizes, data=st.data())
def test_fold_is_the_transpose_of_derive(mode, size, data):
    # derive is affine (constant for the fixed bank), so the identity is
    # taken on derive(p) - derive(0), which is derive(p) for the others
    scheme = mode.scheme
    size = scheme.kernel_size or size
    p = [data.draw(taps(size)) for _ in scheme.kinds]
    d = [data.draw(taps(size)) for _ in BANK_FIELDS]
    d_bank = FilterBank(np.stack(d[:2]), np.stack(d[2:]))
    bank = scheme.derive(*p)
    base = scheme.derive(*(np.zeros(size) for _ in scheme.kinds))
    lhs = sum(np.dot(getattr(d_bank, f), getattr(bank, f) - getattr(base, f))
              for f in BANK_FIELDS)
    folded = scheme.fold(d_bank)
    assert len(folded) == len(scheme.kinds)
    rhs = sum(np.dot(grad, kernel) for grad, kernel in zip(folded, p))
    assert abs(lhs - rhs) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(mode=modes, size=kernel_sizes, levels=st.integers(1, 6),
       extra=st.integers(0, 40), data=st.data())
def test_trace_keeps_the_banks_bank_for_level_derives(mode, size, levels, extra, data):
    model = WaveletNet(levels, size, mode)
    model.set_parameters(data.draw(taps(model.parameter_count())))
    length = 2 ** levels + extra
    assert max_depth(length) >= levels
    signal = data.draw(arrays(np.float64, length, elements=st.floats(-10.0, 10.0)))
    trace = forward_trace(model, signal)
    assert len(trace.banks) == levels
    scheme = model.mode.scheme
    for level, bank in enumerate(trace.banks):
        # the level's bank derived alone equals its view of the stacked one
        again = scheme.derive(*(model.params[n] for n in scheme.names(level)))
        for f in BANK_FIELDS:
            assert np.array_equal(getattr(bank, f), getattr(again, f))


@settings(max_examples=60, deadline=None)
@given(mode=modes, size=kernel_sizes, levels=st.integers(1, 12))
def test_trainable_names_keep_the_interleaved_layout(mode, size, levels):
    model = WaveletNet(levels, size, mode)
    assert model.trainable_names() == expected_names(mode, levels)
    kernel = model.kernel_size
    kinds, shared, thresholds = LAYOUT[mode]
    assert model.parameter_count() == (
        len(kinds) * kernel * (1 if shared else levels) + 2 * levels * thresholds)
