"""Noise-robust voice activity projection turn-taking engine."""

from .audio import SAMPLE_RATE, VadTrack, Waveform, load_wav, save_wav
from .codebook import p_now_pair
from .endpointing import SttSimConfig, VapEndpointerConfig, arbitrate, stt_decide, vap_decide
from .features import extract_features
from .model import FrameBatch, ModelConfig, forward, init_params
from .noise import Condition, NoiseBank, sample_condition, split_dataset, synthetic_noise_bank
from .simulate import (
    DialogueScript,
    ResponseTimeRecord,
    ScriptedDialogue,
    SessionStats,
    generate_scripted_dialogue,
    run_session,
    summarize,
)
from .stats import SampleDist, rank_sum_test
from .streaming import FrameResult, NonFiniteAudioError, StreamContext, replay, run_stream
from .training import AugmentConfig, eval_per_snr, fit, load_checkpoint, save_checkpoint

__version__ = "0.1.0"
