"""Curation tests: unanimity cleaning with reason precedence, exhaustive
ordered-pair construction, per-speaker fluent-pair balancing, split plans,
and manifest I/O."""

import csv
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from helpers import curation_fixture, inventory_row, write_inventory_csv
from stutterkit.curation import (
    INVENTORY_FIELDS,
    NO_STUTTER_KEY,
    PART_SAMPLES,
    PLANS,
    PRUNED_LABELS,
    SPLIT_FIELDS,
    TARGET_SAMPLES,
    ClipRecord,
    MultiStutterClip,
    SpeakerLeak,
    SplitPlan,
    balance_no_stutter,
    build_splits,
    clean,
    combination_count_report,
    no_stutter_targets,
    pair,
    pair_part,
    read_inventory,
    read_split,
    write_split,
)
from stutterkit.featurizer import AudioClip, load_wav
from stutterkit.headers import write_json
from stutterkit.labels import DISFLUENT_LABELS, LABELS, NO_STUTTER


def _rec(clip_id, votes, duration=4.0, n_speakers=1, episode="ep0", speaker="s0"):
    return ClipRecord(
        clip_id=clip_id,
        episode_id=episode,
        speaker_id=speaker,
        duration_s=duration,
        annotator_votes=votes,
        n_speakers_in_clip=n_speakers,
    )


def _cleaned(clip_id, label, episode="ep0", speaker="s0"):
    r = _rec(clip_id, {label: 3}, episode=episode, speaker=speaker)
    r.label = label
    return r


# ---------------------------------------------------------------------------
# ClipRecord validation


def test_clip_record_validation():
    with pytest.raises(ValueError):
        _rec("c", {"Block": 3}, duration=0.0)
    with pytest.raises(ValueError):
        _rec("c", {"Block": 4})
    with pytest.raises(ValueError):
        _rec("c", {"Block": -1})
    for duration in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            _rec("c", {"Block": 3}, duration=duration)
    with pytest.raises(ValueError, match="n_speakers"):
        _rec("c", {"Block": 3}, n_speakers=0)


# ---------------------------------------------------------------------------
# clean


def test_clean_keeps_single_unanimous_label():
    kept, report = clean([_rec("c1", {"Block": 3, "WordRep": 1})])
    assert len(kept) == 1
    assert kept[0].label == "Block"
    assert report == {}


def test_clean_rejection_reasons():
    records = [
        _rec("short", {"Block": 3}, duration=2.5),
        _rec("crowd", {"Block": 3}, n_speakers=2),
        _rec("two", {"Block": 3, "WordRep": 3}),
        _rec("pause", {"NaturalPause": 3}),
        _rec("other", {"PoorMicPlacement": 3}),
        _rec("split_vote", {"Block": 2, "WordRep": 1}),
    ]
    kept, report = clean(records)
    assert kept == []
    assert report == {
        "too_short": 1,
        "multiple_speakers": 1,
        "multiple_unanimous": 1,
        "pruned_label": 1,
        "unretained_label": 1,
        "no_unanimity": 1,
    }


def test_clean_label_checks_precede_duration_and_speakers():
    # a short clip with two unanimous labels fails on the label check
    kept, report = clean([_rec("c", {"Block": 3, "WordRep": 3}, duration=1.0, n_speakers=2)])
    assert report == {"multiple_unanimous": 1}
    # duration is checked before the speaker count
    kept, report = clean([_rec("c", {"Block": 3}, duration=1.0, n_speakers=2)])
    assert report == {"too_short": 1}


def test_clean_retained_label_wins_over_co_occurring_rare_label():
    kept, report = clean([_rec("c", {"Block": 3, "NaturalPause": 3})])
    assert len(kept) == 1 and kept[0].label == "Block"
    assert report == {}


def test_clean_boundary_duration():
    kept, _ = clean([_rec("c", {"Block": 3}, duration=3.0)])
    assert len(kept) == 1  # exactly 3 s is long enough


def test_clean_does_not_mutate_input():
    r = _rec("c", {"Block": 3})
    clean([r])
    assert r.label is None


def test_clean_all_five_fixed_pruned_labels():
    records = [_rec(f"c{i}", {name: 3}) for i, name in enumerate(PRUNED_LABELS)]
    kept, report = clean(records)
    assert kept == []
    assert report == {"pruned_label": len(PRUNED_LABELS)}


def test_clean_frequency_prune_mode():
    # How rare a label is does not matter: only the fixed list prunes. 'Hum'
    # is unanimous on one record in ten and still counts as unretained.
    records = (
        [_rec(f"e{i}", {"Echo": 3}) for i in range(2)]
        + [_rec("h0", {"Hum": 3}), _rec("m0", {"Music": 3})]
        + [_rec(f"b{i}", {"Block": 3}) for i in range(6)]
    )
    kept, report = clean(records)
    assert len(kept) == 6
    assert report == {"unretained_label": 3, "pruned_label": 1}


def test_clean_is_idempotent_on_kept_records():
    kept, _ = clean([_rec("c1", {"Block": 3}), _rec("c2", {"NoStutteredWords": 3})])
    again, report = clean(kept)
    assert report == {}
    assert [(r.clip_id, r.label) for r in again] == [(r.clip_id, r.label) for r in kept]


# ---------------------------------------------------------------------------
# pair


def test_pair_five_distinct_disfluencies_all_ordered_pairs():
    records = [_cleaned(f"c_{l}", l) for l in DISFLUENT_LABELS]
    pairs = pair(records)
    assert len(pairs) == 20  # 5 * 4 ordered pairs
    keys = [p.combination_key for p in pairs]
    for a in DISFLUENT_LABELS:
        for b in DISFLUENT_LABELS:
            if a != b:
                assert keys.count(f"{a}_{b}_") == 1
    # ordered-pair symmetry: X,Y and Y,X both present
    ids = {(p.left_clip_id, p.right_clip_id) for p in pairs}
    assert all((r, l) in ids for l, r in ids)


def test_pair_same_disfluent_label_excluded():
    records = [_cleaned("b1", "Block"), _cleaned("b2", "Block")]
    assert pair(records) == []


def test_pair_fluent_pairs_kept_with_single_label():
    records = [_cleaned(f"n{i}", NO_STUTTER) for i in range(3)]
    pairs = pair(records)
    assert len(pairs) == 6  # 3 * 2
    for p in pairs:
        assert p.combination_key == NO_STUTTER_KEY
        assert p.labels == (0, 0, 0, 0, 0, 1)


def test_pair_disfluent_with_fluent_excluded():
    records = [_cleaned("b", "Block"), _cleaned("n", NO_STUTTER)]
    assert pair(records) == []


def test_pair_requires_same_episode_and_speaker():
    base = [
        _cleaned("a", "Block", episode="ep0", speaker="s0"),
        _cleaned("b", "WordRep", episode="ep1", speaker="s0"),
        _cleaned("c", "SoundRep", episode="ep0", speaker="s1"),
    ]
    assert pair(base) == []
    # same episode and speaker does pair
    base[1].episode_id = "ep0"
    base[1].speaker_id = "s0"
    assert len(pair(base)) == 2


def test_pair_concatenation_geometry(tmp_path):
    # left clip 2 s (padded), right clip 4 s (truncated); the written WAVs
    # hold the pair audio
    records = [_cleaned("l", "Block"), _cleaned("r", "WordRep")]
    left = pair_part(AudioClip(np.full(32000, 0.25)))
    right = pair_part(AudioClip(np.full(64000, -0.25)))
    pairs = pair(records)
    rows = read_split(write_split(tmp_path, "train", pairs, {"l": left, "r": right}))
    by_key = {
        p.combination_key: (p, load_wav(row["path"]).samples) for p, row in zip(pairs, rows)
    }
    p, samples = by_key["Block_WordRep_"]
    assert samples.shape == (TARGET_SAMPLES,)
    assert np.all(samples[:32000] == 0.25)
    assert np.all(samples[32000:PART_SAMPLES] == 0.0)  # zero padding
    assert np.all(samples[PART_SAMPLES:] == -0.25)  # first 3 s of the right clip
    assert p.labels == (1, 0, 0, 0, 1, 0)  # Block + WordRep
    assert p.pair_id == "l__r"
    # the mirror pair flips the halves
    _, mirror = by_key["WordRep_Block_"]
    assert np.all(mirror[:PART_SAMPLES] == -0.25)


def test_pair_union_labels_for_every_combination():
    records = [_cleaned(f"c_{l}", l) for l in DISFLUENT_LABELS]
    for p in pair(records):
        want = tuple(
            int(LABELS[i] in (p.combination_key.split("_")[0], p.combination_key.split("_")[1]))
            for i in range(6)
        )
        assert p.labels == want
        assert sum(p.labels) == 2


def test_pair_requires_cleaned_records():
    with pytest.raises(ValueError):
        pair([_rec("c", {"Block": 3})])


def test_pairing_memory_is_bounded_on_a_200_clip_speaker():
    # 198 fluent clips make 198 * 197 ordered fluent pairs; the two distinct
    # disfluencies add 2 more, and balancing keeps those 2 plus one fluent
    # pair. Pairs hold ids only, so the peak stays far below the 30 GB the
    # pair audio would need.
    records = [_cleaned(f"n{i:03d}", NO_STUTTER) for i in range(198)]
    records += [_cleaned("d0", "Block"), _cleaned("d1", "WordRep")]
    tracemalloc.start()
    try:
        pairs = pair(records)
        n_pairs = len(pairs)
        kept = balance_no_stutter(pairs, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n_pairs == 39008
    assert len(kept) == 3
    assert peak < 100 * 2**20


def test_pair_output_order_is_input_order_independent():
    records = [_cleaned(f"c_{l}", l) for l in DISFLUENT_LABELS]
    forward_ids = [p.pair_id for p in pair(records)]
    reversed_ids = [p.pair_id for p in pair(list(reversed(records)))]
    assert forward_ids == reversed_ids
    assert forward_ids == sorted(forward_ids)


# ---------------------------------------------------------------------------
# balancing


def _nsw_pair(i, speaker="s0"):
    return MultiStutterClip(
        left_clip_id=f"n{i}a", right_clip_id=f"n{i}b",
        labels=(0, 0, 0, 0, 0, 1),
        combination_key=NO_STUTTER_KEY,
        speaker_id=speaker, episode_id="ep0",
    )


def _disfluent_pair(i, key="Block_WordRep_", speaker="s0"):
    return MultiStutterClip(
        left_clip_id=f"d{i}a", right_clip_id=f"d{i}b",
        labels=(1, 0, 0, 0, 1, 0),
        combination_key=key,
        speaker_id=speaker, episode_id="ep0",
    )


def test_no_stutter_targets_rounded_mean():
    pairs = (
        [_disfluent_pair(i, "Block_WordRep_") for i in range(10)]
        + [_disfluent_pair(10 + i, "Block_SoundRep_") for i in range(6)]
        + [_disfluent_pair(16 + i, "WordRep_Block_") for i in range(8)]
        + [_nsw_pair(i) for i in range(50)]
    )
    assert no_stutter_targets(pairs) == {"s0": 8}  # mean(10, 6, 8)


def test_no_stutter_targets_zero_without_disfluent_pairs():
    assert no_stutter_targets([_nsw_pair(i) for i in range(4)]) == {"s0": 0}


def test_balance_keeps_exactly_target_per_speaker():
    pairs = (
        [_disfluent_pair(i, "Block_WordRep_") for i in range(10)]
        + [_disfluent_pair(10 + i, "Block_SoundRep_") for i in range(6)]
        + [_disfluent_pair(16 + i, "WordRep_Block_") for i in range(8)]
        + [_nsw_pair(i) for i in range(50)]
    )
    kept = balance_no_stutter(pairs, seed=0)
    nsw = [p for p in kept if p.combination_key == NO_STUTTER_KEY]
    assert len(nsw) == 8
    assert len([p for p in kept if p.combination_key != NO_STUTTER_KEY]) == 24
    # original order preserved: kept is a subsequence of the input
    it = iter(pairs)
    assert all(any(p is q for q in it) for p in kept)


def test_balance_same_seed_is_deterministic():
    pairs = [_disfluent_pair(0)] + [_nsw_pair(i) for i in range(20)]
    a = [p.pair_id for p in balance_no_stutter(pairs, seed=5)]
    b = [p.pair_id for p in balance_no_stutter(pairs, seed=5)]
    assert a == b


def test_balance_zero_disfluent_speaker_loses_all_fluent_pairs():
    pairs = [_nsw_pair(i) for i in range(5)]
    assert balance_no_stutter(pairs, seed=0) == []


def test_balance_target_at_or_above_pool_keeps_all():
    pairs = [_disfluent_pair(i) for i in range(4)] + [_nsw_pair(i) for i in range(2)]
    # single combination group of size 4 -> target 4 > 2 available
    assert len(balance_no_stutter(pairs, seed=0)) == 6


def test_balance_respects_explicit_targets():
    # one disfluent group of 3 pairs sets the speaker's target to 3
    pairs = [_disfluent_pair(i) for i in range(3)] + [_nsw_pair(i) for i in range(10)]
    kept = balance_no_stutter(pairs, seed=1)
    assert sum(p.combination_key == NO_STUTTER_KEY for p in kept) == 3
    assert len(kept) == 6


def test_balance_is_per_speaker():
    pairs = (
        [_disfluent_pair(i, speaker="s0") for i in range(3)]
        + [_nsw_pair(i, speaker="s0") for i in range(9)]
        + [_nsw_pair(100 + i, speaker="s1") for i in range(7)]
    )
    kept = balance_no_stutter(pairs, seed=2)
    by_speaker = {}
    for p in kept:
        if p.combination_key == NO_STUTTER_KEY:
            by_speaker[p.speaker_id] = by_speaker.get(p.speaker_id, 0) + 1
    # s0 keeps mean({3}) = 3; s1 has no disfluent pairs and keeps none
    assert by_speaker == {"s0": 3}


# ---------------------------------------------------------------------------
# splits


GROUPS = {
    "4-DS": ["sA"],
    "DS-Set 1": ["sB"],
    "DS-Set 2": ["sC"],
    "FB": ["sD"],
}


def _one_pair_per_speaker():
    return [_disfluent_pair(i, speaker=s) for i, s in enumerate(["sA", "sB", "sC", "sD"])]


def test_split_plan_names():
    assert sorted(PLANS) == [
        "SEP-28k-D", "SEP-28k-E", "SEP-28k-E-merged", "SEP-28k-T", "SEP-28k-T-merged",
    ]


def test_build_splits_all_five_plans_route_speakers():
    want = {
        "SEP-28k-E": ({"sA"}, {"sB"}, {"sC"}),
        "SEP-28k-T": ({"sB"}, {"sC"}, {"sA"}),
        "SEP-28k-D": ({"sC"}, {"sB"}, {"sA"}),
        "SEP-28k-E-merged": ({"sA", "sB"}, {"sC"}, {"sD"}),
        "SEP-28k-T-merged": ({"sB", "sC"}, {"sA"}, {"sD"}),
    }
    pairs = _one_pair_per_speaker()
    for name, (train, val, test) in want.items():
        manifests = build_splits(pairs, GROUPS, PLANS[name])
        got = tuple({p.speaker_id for p in manifests[s]} for s in ("train", "val", "test"))
        assert got == (train, val, test), name


def test_build_splits_no_speaker_leaks_in_any_plan():
    pairs = _one_pair_per_speaker()
    for plan in PLANS.values():
        manifests = build_splits(pairs, GROUPS, plan)
        speaker_sets = [{p.speaker_id for p in manifests[s]} for s in ("train", "val", "test")]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (speaker_sets[i] & speaker_sets[j]), plan.name


def test_build_splits_rejects_speaker_in_two_groups():
    groups = {**GROUPS, "FB": ["sA"]}
    with pytest.raises(SpeakerLeak):
        build_splits(_one_pair_per_speaker(), groups, PLANS["SEP-28k-E"])


def test_build_splits_rejects_group_in_two_partitions():
    plan = SplitPlan("degenerate", ("4-DS",), ("4-DS",), ("DS-Set 2",))
    with pytest.raises(SpeakerLeak):
        build_splits(_one_pair_per_speaker(), GROUPS, plan)


def test_build_splits_rejects_unknown_group_and_speaker():
    with pytest.raises(ValueError):
        build_splits(_one_pair_per_speaker(), {"4-DS": ["sA"]}, PLANS["SEP-28k-E"])
    with pytest.raises(ValueError):
        build_splits([_disfluent_pair(0, speaker="ghost")], GROUPS, PLANS["SEP-28k-E"])


def test_build_splits_drops_speakers_outside_plan():
    manifests = build_splits(_one_pair_per_speaker(), GROUPS, PLANS["SEP-28k-E"])
    counted = sum(len(v) for v in manifests.values())
    assert counted == 3  # sD (FB) is in no partition of this plan


def test_combination_count_report():
    manifests = {
        "train": [_disfluent_pair(0), _disfluent_pair(1), _nsw_pair(0)],
        "val": [_disfluent_pair(2, key="Block_SoundRep_")],
        "test": [],
    }
    report = combination_count_report(manifests)
    assert report["train"] == {"Block_WordRep_": 2, NO_STUTTER_KEY: 1, "total": 3}
    assert report["val"] == {"Block_SoundRep_": 1, "total": 1}
    assert report["test"] == {"total": 0}


# ---------------------------------------------------------------------------
# manifest I/O


def test_read_inventory_round_trip(tmp_path):
    rows = [
        inventory_row("c1", "ep0", "s0", 3.5, label="Block"),
        inventory_row("c2", "ep0", "s0", 2.0, label="WordRep", n_speakers=2),
        inventory_row("c3", "ep1", "s1", 4.0, other_votes={"NaturalPause": 3}),
    ]
    path = tmp_path / "inv.csv"
    write_inventory_csv(path, rows)
    records = read_inventory(path)
    assert [r.clip_id for r in records] == ["c1", "c2", "c3"]
    assert records[0].annotator_votes["Block"] == 3
    assert records[1].duration_s == 2.0
    assert records[1].n_speakers_in_clip == 2
    assert records[2].annotator_votes["NaturalPause"] == 3
    assert records[0].label is None


def test_read_inventory_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("clip_id,episode_id\nc1,ep0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_inventory(path)


def test_read_inventory_rejects_malformed_rows(tmp_path):
    path = tmp_path / "inv.csv"
    good = inventory_row("c1", "ep0", "s0", 3.5, label="Block")
    block = INVENTORY_FIELDS.index("votes_Block")
    repeat = inventory_row("c1", "ep0", "s0", 3.5, label="SoundRep")
    for bad_row in (
        good[:-3], [*good[:-1], '["Music"]'], [*good[:-1], '{"Music": null}'],
        [*good[:-1], '{"Music": "x"}'], [*good[:3], "abc", *good[4:]],
        [*good[:4], "1.0", *good[5:]], [*good[:block], "x", *good[block + 1:]],
        # clip ids that would make audio/<left>__<right>.wav ambiguous or leave audio/
        *([bad_id, *good[1:]] for bad_id in ("", "a__b", "_a", "a_", "a/b", "/abs", "a\\b")),
        repeat,
    ):
        write_inventory_csv(path, [good, bad_row])
        with pytest.raises(ValueError, match="line 3"):
            read_inventory(path)
    with pytest.raises(ValueError, match="line 3: clip 'c1' repeats line 2"):
        read_inventory(path)
    other = {"Block": 0, "WordRep": 3}
    write_inventory_csv(path, [good, inventory_row("c2", "ep0", "s0", 3.5, "Block", other_votes=other)])
    with pytest.raises(ValueError, match=r"line 3: .* names retained labels \['Block', 'WordRep'\]"):
        read_inventory(path)


def _split_csv(path, header, *rows):
    path.write_text("\n".join(",".join(r) for r in (header, *rows)) + "\n", encoding="utf-8")
    return path


def test_read_split_rejects_malformed_manifest(tmp_path):
    good = ["audio/x.wav", "1", "0", "0", "0", "1", "0", "Block_WordRep_", "s0"]
    assert read_split(_split_csv(tmp_path / "ok.csv", SPLIT_FIELDS, good))[0]["labels"] == (
        1, 0, 0, 0, 1, 0,
    )
    for column in SPLIT_FIELDS:
        keep = [i for i, f in enumerate(SPLIT_FIELDS) if f != column]
        path = _split_csv(
            tmp_path / "cols.csv", [SPLIT_FIELDS[i] for i in keep], [good[i] for i in keep]
        )
        with pytest.raises(ValueError, match=column):
            read_split(path)
    bad_bit = ["audio/x.wav", "2", "0", "0", "0", "1", "0", "Block_WordRep_", "s0"]
    for row in (bad_bit, good[:-2], [*good[:1], "x", *good[2:]], [*good[:1], "1.0", *good[2:]]):
        with pytest.raises(ValueError, match="line 3"):
            read_split(_split_csv(tmp_path / "rows.csv", SPLIT_FIELDS, good, row))


def test_csv_readers_name_the_file_for_unparsable_rows_and_bytes(tmp_path):
    """An over-long field and a byte that is not UTF-8 are ValueErrors that
    name the file (and, for csv's own errors, the line)."""
    huge = "x" * (csv.field_size_limit() + 1)
    good = inventory_row("c1", "ep0", "s0", 3.5, label="Block")
    inv = tmp_path / "inv.csv"
    write_inventory_csv(inv, [good, [*good[:-1], huge]])
    with pytest.raises(ValueError, match=f"inventory {re.escape(str(inv))} line 3: field larger"):
        read_inventory(inv)
    write_inventory_csv(inv, [good])
    inv.write_bytes(inv.read_bytes() + b"c\xff2,ep0\n")
    with pytest.raises(ValueError, match=f"inventory {re.escape(str(inv))}: not UTF-8"):
        read_inventory(inv)
    split = ["audio/x.wav", "1", "0", "0", "0", "1", "0", "Block_WordRep_", "s0"]
    manifest = _split_csv(tmp_path / "m.csv", SPLIT_FIELDS, split, [*split[:-1], huge])
    with pytest.raises(ValueError, match=f"split manifest {re.escape(str(manifest))} line 3: field larger"):
        read_split(manifest)
    manifest.write_bytes(b"\xff" + manifest.read_bytes())
    with pytest.raises(ValueError, match=f"split manifest {re.escape(str(manifest))}: not UTF-8"):
        read_split(manifest)


def test_write_and_read_split_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    clips = []
    audio = {}
    for i in range(3):
        audio[f"a{i}"] = rng.uniform(-0.5, 0.5, size=PART_SAMPLES)
        audio[f"b{i}"] = rng.uniform(-0.5, 0.5, size=PART_SAMPLES)
        clips.append(
            MultiStutterClip(
                left_clip_id=f"a{i}", right_clip_id=f"b{i}",
                labels=(1, 0, 0, 0, 1, 0),
                combination_key="Block_WordRep_", speaker_id="s0", episode_id="ep0",
            )
        )
    manifest = write_split(tmp_path, "train", clips, audio)
    assert manifest == tmp_path / "train" / "manifest.csv"
    rows = read_split(manifest)
    assert len(rows) == 3
    for row, clip in zip(rows, clips):
        assert row["labels"] == clip.labels
        assert row["combination_key"] == clip.combination_key
        assert row["speaker_id"] == "s0"
        loaded = load_wav(row["path"])
        assert loaded.samples.shape == (TARGET_SAMPLES,)
        samples = np.concatenate([audio[clip.left_clip_id], audio[clip.right_clip_id]])
        assert np.max(np.abs(loaded.samples - samples)) <= 1.0 / 32768.0


def test_write_count_report(tmp_path):
    path = tmp_path / "counts.json"
    report = {"train": {"total": 2, "DS": 1}}
    write_json(path, report)
    assert path.read_text(encoding="utf-8") == json.dumps(report, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# end-to-end on the standard fixture


def test_full_curation_flow_on_fixture(tmp_path):
    inventory_path, audio_dir, groups_path = curation_fixture(tmp_path)
    records = read_inventory(inventory_path)
    kept, report = clean(records)
    assert len(kept) == len(records)  # fixture is all clean
    audio = {r.clip_id: pair_part(load_wav(audio_dir / f"{r.clip_id}.wav")) for r in kept}
    pairs = pair(kept)
    # per speaker: 5 distinct disfluent labels -> 20 pairs, 3 fluent -> 6
    assert len(pairs) == 4 * 26
    balanced = balance_no_stutter(pairs, seed=0)
    # twenty combination groups of size 1 -> target 1 fluent pair per speaker
    assert len(balanced) == 4 * 21
    groups = json.loads(groups_path.read_text())
    manifests = build_splits(balanced, groups, PLANS["SEP-28k-E-merged"])
    assert {s: len(v) for s, v in manifests.items()} == {"train": 42, "val": 21, "test": 21}
    for split, clips in manifests.items():
        for row in read_split(write_split(tmp_path / "out", split, clips, audio)):
            assert load_wav(row["path"]).samples.shape == (TARGET_SAMPLES,)
