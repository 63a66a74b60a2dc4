"""Learnable wavelet cascade networks for sparse decomposition, denoising,
anomaly detection and classification of 1-D signals.

Importing the package raises glibc's malloc thresholds once, for the whole
process: arrays under 32 MiB come from the heap rather than from their own
mappings, and up to 64 MiB of freed heap stays mapped. A training step frees
megabyte temporaries that the next step allocates again; at glibc's defaults
the heap hands those pages back to the kernel and faults them in anew on every
step. The two values are the ceilings glibc's own adaptive policy reaches on
64-bit. On any other C library nothing changes."""

import ctypes
import os

from .wavelet import (
    DB4_SCALING,
    HAAR_SCALING,
    cqf_from_scaling,
    max_depth,
)
from .network import (
    ForwardTrace,
    SharingMode,
    WaveletNet,
    default_levels_for,
    ht_activation,
    model_forward,
)
from .training import (
    AdamState,
    TrainConfig,
    TrainReport,
    adam_step,
    gradient_check,
    train,
)
from .analysis import (
    DictionaryModel,
    LatentFeatures,
    OneClassElm,
    dict_classify,
    dict_train,
    elm_fit,
    elm_score,
    extract_features,
    roc_auc,
)
from .audio import decimate, read_wav, window_split, write_wav
from .datasets import (
    DatasetManifest,
    ManifestEntry,
    SyntheticSpec,
    WindowRecord,
    generate_synthetic,
    load_manifest,
    load_windows,
    save_manifest,
)
from .persist import (
    load_dictionary,
    load_elm,
    load_model,
    read_features_csv,
    read_scores_csv,
    save_dictionary,
    save_elm,
    save_model,
    write_features_csv,
    write_scores_csv,
)

__version__ = "0.1.0"

# mallopt's parameter numbers, from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap_mapped() -> None:
    """Set glibc's mmap threshold to 32 MiB and its trim threshold to 64 MiB.
    Does nothing, and never raises or warns, on any other C library or where
    the C library cannot be loaded; calling it again sets the same values."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        libc.mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    except (AttributeError, OSError, ValueError):  # no confstr, libc or mallopt
        pass


_keep_freed_heap_mapped()
