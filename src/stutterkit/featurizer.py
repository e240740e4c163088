"""Log-Mel featurization for 16 kHz mono speech clips.

Converts fixed-length (padded/truncated) audio into a globally normalized
log-Mel spectrogram: Hann-windowed frames, magnitude-squared FFT, triangular
mel filterbank over [0, 8000] Hz, natural log, then a dynamic-range clamp and
affine rescale, each fixed by Whisper (N_FFT .. AFFINE_SCALE). FeaturizerConfig
holds only n_mels and the chunk length, and owns every front-end rule. All
functions are pure and deterministic.

The STFT's cost follows the clip's audio, not the chunk: a frame that starts
past the clip's last sample holds only zeros, so its power row is exactly 0
and log_mel leaves it so without a window, FFT or |.|^2. The frames that hold
audio go through the FFT in blocks of STFT_BLOCK frames, small enough for L2.
The mel product then runs once over every frame, so its bits do not depend
on the clip's length (BLAS picks its kernel by the row count). The values
equal those of the whole-chunk computation bit for bit.
"""

from __future__ import annotations

import functools
import math
import wave
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .headers import read_arrays, read_config, read_header, write_file

SAMPLE_RATE = 16000
PCM_SCALE = 32768.0
STFT_BLOCK = 64  # frames per FFT block: about 200 KB of float64


class UnsupportedFormat(ValueError):
    """Audio is not 16-bit PCM, mono, 16 kHz."""


class CorruptFile(ValueError):
    """WAV container is malformed or truncated."""


class EmptyClip(ValueError):
    """Clip has zero samples."""


class ConfigMismatch(ValueError):
    """Featurizer config is internally inconsistent or incompatible with the clip."""


@dataclass
class AudioClip:
    """Mono PCM samples in [-1, 1] at 16 kHz."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise UnsupportedFormat("expected mono (1-D) samples")
        # written so that NaN fails it too; min and max make no |x| copy
        bound = 1.0 + 1e-9
        if self.samples.size and not -bound <= self.samples.min() <= self.samples.max() <= bound:
            raise UnsupportedFormat("sample amplitudes exceed [-1, 1] or are not finite")

    @property
    def duration_s(self) -> float:
        return self.samples.size / SAMPLE_RATE


# Whisper's front end (Radford et al., arXiv 2212.04356), its encoder's input contract:
# a 25 ms window every 10 ms, a floor before the log, a clamp to 8 below the max, (x + 4) / 4.
N_FFT = 400  # samples per window, also the FFT size
HOP = 160
LOG_FLOOR = 1e-10
CLAMP_RANGE = 8.0
AFFINE_SHIFT = 4.0
AFFINE_SCALE = 4.0


@dataclass(frozen=True)
class FeaturizerConfig:
    n_mels: int = 80
    chunk_length_s: float = 6.0

    def __post_init__(self) -> None:
        if not 1 <= self.n_mels <= N_FFT // 2 + 1:
            raise ConfigMismatch(f"n_mels must be in 1..{N_FFT // 2 + 1}, the FFT's bins")
        if not 0 < self.chunk_length_s * SAMPLE_RATE < math.inf:
            raise ConfigMismatch("chunk_length_s must be positive with a finite sample count")
        if self.chunk_samples % HOP:
            raise ConfigMismatch("chunk length must be a whole number of hops")
        if N_FFT > self.chunk_samples:
            raise ConfigMismatch(f"n_fft={N_FFT} exceeds chunk of {self.chunk_samples} samples")

    @property
    def chunk_samples(self) -> int:
        return int(round(self.chunk_length_s * SAMPLE_RATE))

    @property
    def chunk_frames(self) -> int:
        return self.chunk_samples // HOP


@dataclass
class LogMelSpectrogram:
    """[n_mels x n_frames] matrix of (possibly normalized) log-Mel energies."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ConfigMismatch(f"values shape {self.values.shape} is not [n_mels x n_frames]")

    @property
    def n_mels(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# WAV I/O


def load_wav(path: str | Path) -> AudioClip:
    """Read a RIFF/WAV file (PCM s16le, mono, 16 kHz) into an AudioClip.

    Samples are scaled to [-1, 1] by dividing by 32768.
    """
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getcomptype() != "NONE":
                raise UnsupportedFormat(f"{path}: compressed WAV not supported")
            if wf.getnchannels() != 1:
                raise UnsupportedFormat(f"{path}: expected mono, got {wf.getnchannels()} channels")
            if wf.getsampwidth() != 2:
                raise UnsupportedFormat(f"{path}: expected 16-bit PCM")
            if wf.getframerate() != SAMPLE_RATE:
                raise UnsupportedFormat(f"{path}: expected {SAMPLE_RATE} Hz, got {wf.getframerate()}")
            n_frames = wf.getnframes()
            raw = wf.readframes(n_frames)
    except wave.Error as exc:
        # wave reports unrecognized encodings as "unknown format"
        if "unknown format" in str(exc):
            raise UnsupportedFormat(f"{path}: {exc}") from exc
        raise CorruptFile(f"{path}: {exc}") from exc
    except EOFError as exc:
        raise CorruptFile(f"{path}: truncated header") from exc
    if len(raw) != 2 * n_frames:
        raise CorruptFile(f"{path}: data chunk truncated ({len(raw)} bytes for {n_frames} frames)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    samples /= PCM_SCALE
    return AudioClip(samples=samples)


def save_wav(path: str | Path, samples: np.ndarray) -> None:
    """Write mono float samples in [-1, 1] as 16 kHz PCM s16le."""
    pcm = np.clip(np.round(np.asarray(samples, dtype=np.float64) * PCM_SCALE), -32768, 32767)
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm.astype("<i2").tobytes())


# ---------------------------------------------------------------------------
# Mel filterbank


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: FeaturizerConfig) -> np.ndarray:
    """[n_mels x (N_FFT//2 + 1)] triangular filters, mel-spaced over [0, 8000] Hz.

    Filters are unnormalized (each peaks at 1 where a bin lands on its center).
    """
    return _filterbank(cfg.n_mels)


def _filterbank(n_mels: int) -> np.ndarray:
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(SAMPLE_RATE / 2), n_mels + 2))
    bin_freqs = np.arange(N_FFT // 2 + 1) * SAMPLE_RATE / N_FFT
    fb = np.zeros((n_mels, bin_freqs.size))
    for m in range(n_mels):
        left, center, right = edges[m], edges[m + 1], edges[m + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


def mel_center_frequencies(cfg: FeaturizerConfig) -> np.ndarray:
    """Center frequency (Hz) of each mel filter."""
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(SAMPLE_RATE / 2), cfg.n_mels + 2))
    return edges[1:-1]


# ---------------------------------------------------------------------------
# Featurization


def hann_window(n: int) -> np.ndarray:
    # periodic Hann, the STFT convention
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


@functools.cache
def _stft_constants(n_mels: int) -> tuple[np.ndarray, np.ndarray]:
    """log_mel's Hann window and mel filterbank, built once per n_mels and read-only."""
    window, fb = hann_window(N_FFT), _filterbank(n_mels)
    window.flags.writeable = fb.flags.writeable = False
    return window, fb


def pad_or_truncate(samples: np.ndarray, target: int) -> np.ndarray:
    if samples.size >= target:
        return samples[:target]
    return np.concatenate([samples, np.zeros(target - samples.size)])


def log_mel(clip: AudioClip, cfg: FeaturizerConfig) -> LogMelSpectrogram:
    """Raw (pre-normalization) log-Mel spectrogram of a clip.

    The clip is zero-padded or truncated to the configured chunk length, so
    n_frames == chunk_samples // HOP regardless of input duration. Frame t
    covers samples [t*HOP, t*HOP + N_FFT), zero-padded past the chunk end.
    Frames that start past the clip's end get log(LOG_FLOOR) without an FFT.
    """
    if clip.samples.size == 0:
        raise EmptyClip("cannot featurize a clip with zero samples")
    n_frames = cfg.chunk_frames
    n = min(clip.samples.size, cfg.chunk_samples)
    padded = np.zeros(cfg.chunk_samples + N_FFT - HOP)
    padded[:n] = clip.samples[:n]
    frames = np.lib.stride_tricks.sliding_window_view(padded, N_FFT)[::HOP]
    window, fb = _stft_constants(cfg.n_mels)
    power = np.zeros((n_frames, N_FFT // 2 + 1))
    live = min(n_frames, -(-n // HOP))  # frames that start before the clip ends
    for start in range(0, live, STFT_BLOCK):
        stop = min(start + STFT_BLOCK, live)
        np.abs(np.fft.rfft(frames[start:stop] * window, axis=1), out=power[start:stop])
        power[start:stop] **= 2
    mel_energy = power @ fb.T
    np.maximum(mel_energy, LOG_FLOOR, out=mel_energy)
    return LogMelSpectrogram(values=np.log(mel_energy, out=mel_energy).T)


def normalize(spec: LogMelSpectrogram) -> LogMelSpectrogram:
    """Clamp below at (global max - CLAMP_RANGE), then map x -> (x + AFFINE_SHIFT) / AFFINE_SCALE.

    So the output range never exceeds CLAMP_RANGE / AFFINE_SCALE = 2.
    Returns a new array; spec is left as it is.
    """
    floor = float(spec.values.max()) - CLAMP_RANGE
    values = np.maximum(spec.values, floor)
    values += AFFINE_SHIFT
    values /= AFFINE_SCALE
    return LogMelSpectrogram(values=values)


def featurize(clip: AudioClip, cfg: FeaturizerConfig) -> LogMelSpectrogram:
    """log_mel followed by normalize: the encoder-ready representation."""
    return normalize(log_mel(clip, cfg))


# ---------------------------------------------------------------------------
# Spectrogram dumps


def dump_spectrogram(path: str | Path, spec: LogMelSpectrogram, cfg: FeaturizerConfig) -> None:
    header = {"n_mels": spec.n_mels, "n_frames": spec.n_frames, "config": asdict(cfg)}
    write_file(path, header, [spec.values])


def load_spectrogram(path: str | Path) -> tuple[LogMelSpectrogram, FeaturizerConfig]:
    """A dump written by dump_spectrogram, with the config it was made under.

    Raises CorruptFile unless the header holds a valid FeaturizerConfig
    (exactly its fields, each of its type) and int sizes that match it, and
    the blob holds exactly that many finite values (headers.read_arrays)."""
    with open(path, "rb") as f:
        header = read_header(f, path, CorruptFile, ("n_mels", "n_frames", "config"))
        cfg = read_config(FeaturizerConfig, header["config"], CorruptFile)
        n_mels, n_frames = header["n_mels"], header["n_frames"]
        if type(n_mels) is not int or type(n_frames) is not int:
            raise CorruptFile(f"{path}: n_mels and n_frames must be ints")
        if (n_mels, n_frames) != (cfg.n_mels, cfg.chunk_frames):
            raise CorruptFile(
                f"{path}: {n_mels}x{n_frames} values, config makes {cfg.n_mels}x{cfg.chunk_frames}"
            )
        [values] = read_arrays(f, path, {"values": (n_mels, n_frames)}, CorruptFile)
    return LogMelSpectrogram(values=values.astype(np.float64)), cfg
