"""Learnable wavelet cascade networks for sparse decomposition, denoising,
anomaly detection and classification of 1-D signals."""

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
    loss,
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
