"""Featurizer tests: WAV decoding, mel filterbank geometry, framing counts,
log-Mel values against a direct-summation DFT oracle, and normalization."""

import json
import math
import os
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    json_bytes,
    naive_dft_magnitude,
    naive_log_mel,
    rewrite_header,
    traced_memory,
    whole_chunk_log_mel,
    without,
    write_pcm_wav,
    write_tone_wav,
)
from stutterkit import cli
from stutterkit import featurizer as featurizer_mod
from stutterkit.featurizer import (
    AFFINE_SCALE,
    AFFINE_SHIFT,
    CLAMP_RANGE,
    HOP,
    LOG_FLOOR,
    N_FFT,
    SAMPLE_RATE,
    STFT_BLOCK,
    AudioClip,
    ConfigMismatch,
    CorruptFile,
    EmptyClip,
    FeaturizerConfig,
    UnsupportedFormat,
    dump_spectrogram,
    featurize,
    hann_window,
    hz_to_mel,
    load_spectrogram,
    load_wav,
    log_mel,
    mel_center_frequencies,
    mel_filterbank,
    mel_to_hz,
    normalize,
    pad_or_truncate,
    save_wav,
)
from stutterkit.model import ModelConfig
from stutterkit.trainer import TrainConfig

CFG = FeaturizerConfig()


# ---------------------------------------------------------------------------
# WAV I/O


def test_load_silence(tmp_path):
    path = tmp_path / "silence.wav"
    write_pcm_wav(path, np.zeros(3 * SAMPLE_RATE, dtype=np.int16))
    clip = load_wav(path)
    assert clip.samples.size == 48000
    assert np.all(clip.samples == 0.0)
    assert clip.duration_s == 3.0


def test_load_scale_boundary(tmp_path):
    path = tmp_path / "boundary.wav"
    write_pcm_wav(path, [-32768])
    clip = load_wav(path)
    assert clip.samples.tolist() == [-1.0]


def test_load_full_scale_sine_max(tmp_path):
    # 440 Hz at full scale for 1 s; with 11 cycles per 400 samples the peak
    # sample lands exactly on sin == 1, so max == 32767/32768.
    n = SAMPLE_RATE
    pcm = np.round(32767.0 * np.sin(2.0 * np.pi * 440.0 * np.arange(n) / SAMPLE_RATE))
    path = tmp_path / "sine.wav"
    write_pcm_wav(path, pcm.astype(np.int16))
    clip = load_wav(path)
    assert clip.samples.size == 16000
    closed_form = max(
        round(32767.0 * math.sin(2.0 * math.pi * 440.0 * t / SAMPLE_RATE)) / 32768.0
        for t in range(n)
    )
    assert clip.samples.max() == closed_form == 32767.0 / 32768.0


def test_load_rejects_wrong_formats(tmp_path):
    stereo = tmp_path / "stereo.wav"
    with wave.open(str(stereo), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(b"\x00" * 400)
    with pytest.raises(UnsupportedFormat):
        load_wav(stereo)

    wrong_rate = tmp_path / "rate.wav"
    write_pcm_wav(wrong_rate, np.zeros(100, dtype=np.int16), sample_rate=8000)
    with pytest.raises(UnsupportedFormat):
        load_wav(wrong_rate)

    eight_bit = tmp_path / "depth.wav"
    with wave.open(str(eight_bit), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(b"\x00" * 100)
    with pytest.raises(UnsupportedFormat):
        load_wav(eight_bit)


def test_load_rejects_truncated_data(tmp_path):
    path = tmp_path / "whole.wav"
    write_pcm_wav(path, np.zeros(1000, dtype=np.int16))
    raw = path.read_bytes()
    cut = tmp_path / "cut.wav"
    cut.write_bytes(raw[:-500])  # header intact, data chunk short
    with pytest.raises(CorruptFile):
        load_wav(cut)


def test_load_rejects_non_wav(tmp_path):
    path = tmp_path / "noise.wav"
    path.write_bytes(b"this is not RIFF data at all")
    with pytest.raises((UnsupportedFormat, CorruptFile)):
        load_wav(path)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.uniform(-0.9, 0.9, size=5000)
    path = tmp_path / "rt.wav"
    save_wav(path, samples)
    back = load_wav(path)
    # one PCM quantization step of error at most
    assert np.max(np.abs(back.samples - samples)) <= 1.0 / 32768.0


def test_audio_clip_invariants():
    with pytest.raises(UnsupportedFormat):
        AudioClip(samples=np.zeros((2, 10)))
    with pytest.raises(UnsupportedFormat):
        AudioClip(samples=np.array([1.5]))
    clip = AudioClip(samples=np.zeros(SAMPLE_RATE // 2))
    assert clip.duration_s == 0.5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_audio_clip_refuses_a_non_finite_sample(bad):
    samples = np.full(100, 0.25)
    samples[37] = bad
    with pytest.raises(UnsupportedFormat, match="not finite"):
        AudioClip(samples=samples)


def test_audio_clip_bounds_are_inclusive_on_both_sides():
    AudioClip(samples=np.array([-1.0, 1.0, 0.0]))
    with pytest.raises(UnsupportedFormat):
        AudioClip(samples=np.array([0.0, -1.01]))


# ---------------------------------------------------------------------------
# Config and filterbank


def test_config_validation():
    with pytest.raises(ConfigMismatch):
        FeaturizerConfig(n_mels=0)


@pytest.mark.parametrize("seconds", [1e308, 1.7e304])
def test_chunk_length_without_a_finite_sample_count_is_refused(seconds):
    # 1e308 s is finite, but 1e308 * 16000 samples overflows to inf
    with pytest.raises(ConfigMismatch, match="chunk_length_s"):
        FeaturizerConfig(chunk_length_s=seconds)


def test_n_fft_is_one_window():
    assert N_FFT == 400  # Whisper's 25 ms window at 16 kHz


def test_config_digest_distinguishes_configs():
    # the run manifest's config digest is the one digest of a featurizer config
    def digest(cfg):
        return cli._config_digest(ModelConfig(), TrainConfig(), cfg)

    assert digest(CFG) != digest(FeaturizerConfig(chunk_length_s=3.0))
    assert digest(CFG) == digest(FeaturizerConfig())


def test_mel_scale_round_trip():
    freqs = np.array([0.0, 100.0, 1000.0, 4000.0, 8000.0])
    assert np.allclose(mel_to_hz(hz_to_mel(freqs)), freqs, atol=1e-9)
    # spot value of the mel formula
    assert hz_to_mel(1000.0) == pytest.approx(2595.0 * math.log10(1.0 + 1000.0 / 700.0))


def test_filterbank_geometry():
    fb = mel_filterbank(CFG)
    assert fb.shape == (80, 201)
    assert np.all(fb >= 0.0)
    assert np.all(fb.sum(axis=1) > 0.0)
    peaks = fb.argmax(axis=1)
    assert np.all(np.diff(peaks) >= 0)  # filter peaks move up in frequency
    centers = mel_center_frequencies(CFG)
    assert centers.shape == (80,)
    assert np.all(np.diff(centers) > 0)
    assert centers[-1] < SAMPLE_RATE / 2


def test_stft_constants_are_shared_but_public_arrays_are_fresh():
    clip = AudioClip(samples=np.sin(np.arange(CFG.chunk_samples) * 0.05) * 0.3)
    before = log_mel(clip, CFG).values
    fb, w = mel_filterbank(CFG), hann_window(N_FFT)
    fb[:] = 0.0  # the caller's copies; log_mel's constants must not change
    w[:] = 0.0
    assert np.array_equal(log_mel(clip, CFG).values, before)
    assert mel_filterbank(CFG) is not mel_filterbank(CFG)
    assert mel_filterbank(CFG).flags.writeable and hann_window(400).flags.writeable


def test_hann_window_is_periodic():
    w = hann_window(400)
    assert w[0] == 0.0
    assert w[200] == pytest.approx(1.0)
    # periodic convention: w[n] = 0.5*(1-cos(2 pi n / N)), so w[N] would be 0
    assert w[399] == pytest.approx(0.5 * (1.0 - math.cos(2.0 * math.pi * 399 / 400)))


def test_pad_or_truncate():
    assert pad_or_truncate(np.ones(5), 3).tolist() == [1, 1, 1]
    padded = pad_or_truncate(np.ones(3), 5)
    assert padded.tolist() == [1, 1, 1, 0, 0]


# ---------------------------------------------------------------------------
# log_mel


def test_silence_hits_log_floor():
    clip = AudioClip(samples=np.zeros(CFG.chunk_samples))
    spec = log_mel(clip, CFG)
    assert spec.values.shape == (80, 600)
    assert np.all(spec.values == math.log(LOG_FLOOR))


def test_frame_counts_for_common_durations():
    for seconds, frames in ((1.0, 600), (3.0, 600), (6.0, 600), (7.5, 600)):
        clip = AudioClip(samples=np.zeros(int(seconds * SAMPLE_RATE)) + 1e-3)
        assert log_mel(clip, CFG).n_frames == frames
    short_cfg = FeaturizerConfig(chunk_length_s=3.0)
    clip = AudioClip(samples=np.ones(100) * 1e-3)
    assert log_mel(clip, short_cfg).n_frames == 300
    assert short_cfg.chunk_frames == short_cfg.chunk_samples // HOP


def test_empty_clip_rejected():
    with pytest.raises(EmptyClip):
        log_mel(AudioClip(samples=np.zeros(0)), CFG)


def test_nfft_larger_than_chunk_rejected():
    with pytest.raises(ConfigMismatch, match="n_fft=400 exceeds chunk of 320 samples"):
        FeaturizerConfig(chunk_length_s=0.02)  # 320 samples < n_fft 400


def test_sine_at_mel_center_wins_its_bin():
    # Bins away from the lowest filters, where triangles span several FFT
    # bins; argmax over mel bins must equal the target bin at every frame.
    centers = mel_center_frequencies(CFG)
    t = np.arange(CFG.chunk_samples) / SAMPLE_RATE
    for m in (10, 17, 24, 31, 38, 45, 52, 59, 66, 73):
        clip = AudioClip(samples=0.5 * np.sin(2.0 * np.pi * centers[m] * t))
        spec = log_mel(clip, CFG)
        assert np.all(spec.values.argmax(axis=0) == m), f"bin {m}"


@pytest.mark.parametrize(
    "cfg",
    [CFG, FeaturizerConfig(chunk_length_s=3.0), FeaturizerConfig(n_mels=12)],
    ids=["default", "3s-chunk", "12-mels"],
)
def test_log_mel_equals_the_whole_chunk_expression(cfg):
    """Skipping the padding frames and running the FFT in blocks keeps every
    bit. The lengths cover 1, 2 and 3 live frames, exactly one block of live
    frames and one block plus one, and a clip just short of, at and past the
    chunk."""
    rng = np.random.default_rng(15)
    hop, chunk = HOP, cfg.chunk_samples
    for n in (1, hop - 1, hop, hop + 1, N_FFT, STFT_BLOCK * hop, STFT_BLOCK * hop + 1,
              chunk - 1, chunk, chunk + 1):
        samples = rng.uniform(-1.0, 1.0, size=n)
        before = samples.copy()
        values = log_mel(AudioClip(samples=samples), cfg).values
        assert values.shape == (cfg.n_mels, cfg.chunk_frames)
        assert np.array_equal(values, whole_chunk_log_mel(samples, cfg)), n
        assert np.array_equal(samples, before)


def test_padding_frames_hold_the_log_floor():
    # one block of frames holds noise; frame STFT_BLOCK holds one sample,
    # which the window's zero at its start silences
    samples = np.random.default_rng(4).uniform(-0.5, 0.5, size=STFT_BLOCK * HOP + 1)
    spec = log_mel(AudioClip(samples=samples), CFG).values
    assert np.all(spec[:, STFT_BLOCK:] == math.log(LOG_FLOOR))
    assert np.all(spec[:, :STFT_BLOCK] > math.log(LOG_FLOOR))


@pytest.mark.parametrize("seconds, rows", [(1.0, 100), (6.0, 600), (9.0, 600)])
def test_fft_runs_only_on_frames_that_start_inside_the_clip(monkeypatch, seconds, rows):
    # a 1 s clip has ceil(16000 / 160) = 100 frames that start before its end
    transformed = []
    rfft = np.fft.rfft

    def counting(a, *args, **kwargs):
        transformed.append(a.shape[0])
        assert a.shape[0] <= STFT_BLOCK
        return rfft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting)
    clip = AudioClip(samples=np.full(int(seconds * SAMPLE_RATE), 0.1))
    assert log_mel(clip, CFG).n_frames == 600
    assert sum(transformed) == rows


def test_log_mel_of_a_padded_clip_matches_naive_dft_oracle():
    # 250 samples in an 800-sample chunk: frames 0 and 1 hold audio (frame 1
    # only partly), frames 2-4 are padding that log_mel never transforms
    cfg = FeaturizerConfig(chunk_length_s=0.05, n_mels=12)
    samples = np.random.default_rng(43).uniform(-0.5, 0.5, size=250)
    fast = log_mel(AudioClip(samples=samples), cfg).values
    slow = naive_log_mel(samples, cfg)
    assert fast.shape == slow.shape == (12, 5)
    assert np.max(np.abs(fast - slow)) < 1e-6


def test_log_mel_matches_naive_dft_oracle():
    # short chunk, full path recomputed with direct DFT summation
    cfg = FeaturizerConfig(chunk_length_s=0.05, n_mels=12)  # 800 samples, 5 frames
    rng = np.random.default_rng(42)
    samples = rng.uniform(-0.5, 0.5, size=cfg.chunk_samples)
    fast = log_mel(AudioClip(samples=samples), cfg).values
    slow = naive_log_mel(samples, cfg)
    assert fast.shape == slow.shape
    assert np.max(np.abs(fast - slow)) < 1e-6


def test_fft_magnitude_matches_naive_dft():
    rng = np.random.default_rng(7)
    for n in (256, 400):
        for _ in range(3):
            frame = rng.uniform(-1.0, 1.0, size=n)
            fast = np.abs(np.fft.rfft(frame))
            slow = naive_dft_magnitude(frame)
            assert np.max(np.abs(fast - slow)) < 1e-6


def test_determinism_bit_identical():
    rng = np.random.default_rng(3)
    samples = rng.uniform(-1.0, 1.0, size=CFG.chunk_samples)
    a = featurize(AudioClip(samples=samples), CFG).values
    b = featurize(AudioClip(samples=samples.copy()), CFG).values
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# normalize


def _spec_from(values):
    values = np.asarray(values, dtype=np.float64)
    from stutterkit.featurizer import LogMelSpectrogram

    return LogMelSpectrogram(values=values)


def test_normalize_affine_fixed_point():
    spec = _spec_from(np.full((4, 5), -4.0))
    out = normalize(spec)
    assert np.all(out.values == 0.0)


def test_normalize_clamp_hand_case():
    values = np.zeros((2, 3))
    values[1, 2] = -20.0  # below max - 8 -> clamped to -8 -> (-8+4)/4 = -1
    out = normalize(_spec_from(values))
    assert out.values[1, 2] == -1.0
    assert out.values[0, 0] == 1.0  # (0+4)/4


def test_normalize_range_bound_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        values = rng.uniform(-60.0, 10.0, size=(8, 12))
        out = normalize(_spec_from(values))
        assert out.values.max() - out.values.min() <= 2.0 + 1e-12


@settings(max_examples=60, deadline=None)
# log-Mel values run from log(LOG_FLOOR) up to a few tens
@given(values=arrays(np.float64, (8, 12), elements=st.floats(math.log(LOG_FLOOR), 30.0)))
def test_normalize_range_bound_over_configs(values):
    out = normalize(_spec_from(values)).values
    assert np.isfinite(out).all()
    assert out.max() - out.min() <= CLAMP_RANGE / AFFINE_SCALE * (1 + 1e-12)


def test_normalize_leaves_its_input_as_it_is():
    values = np.random.default_rng(12).uniform(-30.0, 5.0, size=(6, 9))
    spec = _spec_from(values.copy())
    out = normalize(spec)
    assert np.array_equal(spec.values, values)
    assert not np.shares_memory(out.values, spec.values)
    expected = (np.maximum(values, values.max() - CLAMP_RANGE) + AFFINE_SHIFT) / AFFINE_SCALE
    assert np.array_equal(out.values, expected)


_FAULT_SCRIPT = """
import resource, sys
import numpy as np
from stutterkit.featurizer import SAMPLE_RATE, AudioClip, FeaturizerConfig, featurize
cfg = FeaturizerConfig()
rng = np.random.default_rng(0)
clips = [AudioClip(rng.uniform(-0.5, 0.5, int(rng.uniform(1, 6) * SAMPLE_RATE))) for _ in range(20)]
featurize(clips[0], cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for clip in clips:
    featurize(clip, cfg)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(clips))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads Linux minor-fault counts")
def test_featurize_faults_in_few_fresh_pages():
    """featurize on 1-6 s clips does no FFT work for padding frames and
    allocates each per-clip array once. Whole-chunk arrays for every step
    took 1,237 minor faults per clip (x86-64 Linux, numpy 2.4, one BLAS
    thread); this code takes about 430."""
    src = Path(featurizer_mod.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT],
                          env=env, capture_output=True, text=True, check=True)
    assert float(proc.stdout) <= 1_237 / 2


def test_featurize_is_normalized_log_mel():
    rng = np.random.default_rng(5)
    samples = rng.uniform(-0.8, 0.8, size=CFG.chunk_samples)
    clip = AudioClip(samples=samples)
    direct = normalize(log_mel(clip, CFG)).values
    assert np.array_equal(featurize(clip, CFG).values, direct)


# ---------------------------------------------------------------------------
# dump / load


def test_spectrogram_dump_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    clip = AudioClip(samples=rng.uniform(-0.5, 0.5, size=CFG.chunk_samples))
    spec = featurize(clip, CFG)
    path = tmp_path / "clip.melspec"
    dump_spectrogram(path, spec, CFG)
    back, cfg_back = load_spectrogram(path)
    assert cfg_back == CFG
    assert back.n_frames == spec.n_frames
    # storage is f32, so round-tripped values are the f32 quantization
    assert np.array_equal(back.values, spec.values.astype("<f4").astype(np.float64))

    header = path.read_bytes().split(b"\n", 1)[0]
    parsed = json.loads(header)
    assert set(parsed) == {"n_mels", "n_frames", "config"}


OLD_FRONT_END_KEYS = {"window_ms": 25, "hop_ms": 10, "log_floor": 1e-10, "clamp_range": 8.0,
                      "affine_shift": 4.0, "affine_scale": 4.0}


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda h, blob: (b"not json", blob),
        lambda h, blob: (b"\xff\xfe", blob),
        lambda h, blob: (b"[]", blob),
        lambda h, blob: (json_bytes(without(h, "n_mels")), blob),
        lambda h, blob: (json_bytes(without(h, "n_frames")), blob),
        lambda h, blob: (json_bytes(without(h, "config")), blob),
        lambda h, blob: (json_bytes(dict(h, config=[])), blob),
        lambda h, blob: (json_bytes(dict(h, n_mels="80")), blob),
        lambda h, blob: (json_bytes(dict(h, n_frames=600.0)), blob),
        lambda h, blob: (json_bytes(dict(h, n_mels=-80, n_frames=-600)), blob),
        lambda h, blob: (json_bytes(dict(h, n_mels=40)), blob[: len(blob) // 2]),
        lambda h, blob: (json_bytes(dict(h, config=dict(h["config"], dither=0.0))), blob),
        # a dump whose header still stores the FFT size, which Whisper fixes
        lambda h, blob: (json_bytes(dict(h, config=dict(h["config"], n_fft=400))), blob),
        lambda h, blob: (json_bytes(dict(h, config=without(h["config"], "chunk_length_s"))), blob),
        lambda h, blob: (json_bytes(dict(h, config=dict(h["config"], n_mels="80"))), blob),
        lambda h, blob: (json_bytes(dict(h, config=dict(h["config"], chunk_length_s=6))), blob),
        lambda h, blob: (json_bytes(dict(h, config=dict(h["config"], n_mels=0))), blob),
        lambda h, blob: (json_bytes(dict(h, config=dict(h["config"], chunk_length_s=1e308))), blob),
        # a dump whose header still stores the window, hop, floor, clamp and rescale
        lambda h, blob: (json_bytes(dict(h, config=dict(h["config"], **OLD_FRONT_END_KEYS))), blob),
        lambda h, blob: (json_bytes(h), blob + b"\0\0\0\0"),
        lambda h, blob: (json_bytes(h), np.float32(np.nan).tobytes() + blob[4:]),
    ],
    ids=["not-json", "not-utf8", "not-object", "no-n-mels", "no-n-frames", "no-config",
         "config-not-object", "mistyped-n-mels", "mistyped-n-frames", "negative-sizes",
         "sizes-disagree-with-config", "unknown-config-key", "n-fft-config-key",
         "missing-config-key", "mistyped-config-value", "int-for-float-config-value",
         "invalid-config", "uncountable-chunk-length", "old-eight-key-config",
         "trailing-bytes", "non-finite-value"],
)
def test_spectrogram_load_rejects_corrupt_file(tmp_path, corrupt):
    clip = AudioClip(samples=np.zeros(CFG.chunk_samples) + 0.01)
    path = tmp_path / "clip.melspec"
    dump_spectrogram(path, featurize(clip, CFG), CFG)
    rewrite_header(path, corrupt)
    with pytest.raises(CorruptFile):
        load_spectrogram(path)


def test_spectrogram_load_refuses_a_long_tail_before_reading_it(tmp_path):
    """A valid dump followed by 32 MB of zero bytes is refused from its size:
    reading everything after the header first took the traced peak to 64 MB."""
    path = tmp_path / "clip.melspec"
    dump_spectrogram(path, featurize(AudioClip(samples=np.zeros(CFG.chunk_samples) + 0.01), CFG), CFG)
    os.truncate(path, path.stat().st_size + 32 * 2**20)

    def load():
        with pytest.raises(CorruptFile):
            load_spectrogram(path)

    _, peak = traced_memory(load)
    assert peak < 8 * 2**20, peak


def test_spectrogram_load_rejects_truncated(tmp_path):
    clip = AudioClip(samples=np.zeros(CFG.chunk_samples) + 0.01)
    spec = featurize(clip, CFG)
    path = tmp_path / "clip.melspec"
    dump_spectrogram(path, spec, CFG)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(CorruptFile):
        load_spectrogram(path)
