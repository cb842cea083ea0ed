"""Noise-robust voice activity projection turn-taking engine."""

from .audio import (
    SAMPLE_RATE,
    StereoDialogue,
    VadTrack,
    Waveform,
    load_wav,
    mean_power,
    save_wav,
    vad_from_energy,
)
from .codebook import (
    BinConfig,
    ProjectionWindow,
    decode_state,
    encode_state,
    p_now,
    p_now_pair,
    window_from_labels,
)
from .endpointing import (
    SttSimConfig,
    TurnEvent,
    VapEndpointerConfig,
    arbitrate,
    stt_decide,
    vap_decide,
)
from .features import extract_features
from .model import FrameBatch, ModelConfig, PredictionOutput, forward, grad_check, init_params, loss
from .noise import Condition, NoiseBank, mix_at_snr, sample_condition, split_dataset, synthetic_noise_bank
from .simulate import (
    DialogueScript,
    ResponseTimeRecord,
    SessionStats,
    generate_dialogue,
    generate_scripted_dialogue,
    run_session,
    summarize,
)
from .stats import SampleDist, rank_sum_test
from .streaming import FrameResult, NonFiniteAudioError, StreamContext, replay, run_stream
from .training import AugmentConfig, eval_per_snr, fit, load_checkpoint, save_checkpoint

__version__ = "0.1.0"
