"""Property tests over generated inventories: cleaning keeps and rejects
exactly what a per-clip oracle says, pairing joins only compatible
same-speaker/same-episode clips and finds every such ordered pair,
balancing keeps the documented counts, and splitting never shares a
speaker between partitions. Pairing needs no audio, so each example is
cheap."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from stutterkit.curation import (
    NO_STUTTER_KEY,
    PLANS,
    PRUNED_LABELS,
    ClipRecord,
    _compatible,
    balance_no_stutter,
    build_splits,
    clean,
    pair,
)
from stutterkit.labels import DISFLUENT_LABELS, LABELS, NO_STUTTER

SPEAKERS = ("s0", "s1", "s2")
SPEAKER_GROUPS = sorted({g for p in PLANS.values() for g in p.train + p.val + p.test})
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def raw_inventories(draw, max_clips=8):
    """Records as read_inventory makes them: votes on the six retained labels
    and on pruned and other labels, durations around the 3 s minimum, one
    or two speakers."""
    votes = st.sampled_from((0, 1, 2, 3, 3))
    other_names = (*PRUNED_LABELS, "Echo", "Laughter")
    return [
        ClipRecord(
            clip_id=f"c{i:02d}",
            episode_id="ep0",
            speaker_id="s0",
            duration_s=draw(st.sampled_from((0.5, 2.99, 3.0, 3.01, 20.0))),
            annotator_votes={
                **{l: draw(votes) for l in draw(st.sets(st.sampled_from(LABELS), max_size=3))},
                **{l: draw(votes) for l in draw(st.sets(st.sampled_from(other_names), max_size=2))},
            },
            n_speakers_in_clip=draw(st.integers(1, 2)),
        )
        for i in range(draw(st.integers(0, max_clips)))
    ]


def _oracle_reason(record):
    """None when clean() must keep the record, else its rejection reason."""
    unanimous = {l for l, v in record.annotator_votes.items() if v == 3}
    retained = unanimous & set(LABELS)
    if len(retained) > 1:
        return "multiple_unanimous"
    if retained:
        if record.duration_s < 3.0:
            return "too_short"
        return "multiple_speakers" if record.n_speakers_in_clip > 1 else None
    if unanimous & set(PRUNED_LABELS):
        return "pruned_label"
    return "unretained_label" if unanimous else "no_unanimity"


@PROPERTY_SETTINGS
@given(raw_inventories())
def test_clean_matches_the_per_clip_oracle(records):
    kept, report = clean(records)
    reasons = [_oracle_reason(r) for r in records]
    want_kept = [r for r, reason in zip(records, reasons) if reason is None]
    assert [r.clip_id for r in kept] == [r.clip_id for r in want_kept]
    for r in kept:
        assert r.annotator_votes[r.label] == 3 and r.label in LABELS
    assert report == Counter(reason for reason in reasons if reason is not None)
    assert sum(report.values()) == len(records) - len(kept)


@st.composite
def cleaned_inventories(draw, max_clips=14):
    """Records as clean() leaves them: unique ids, one unanimous label."""
    records = []
    for i in range(draw(st.integers(0, max_clips))):
        label = draw(st.sampled_from(LABELS))
        r = ClipRecord(
            clip_id=f"c{i:02d}",
            episode_id=draw(st.sampled_from(("ep0", "ep1"))),
            speaker_id=draw(st.sampled_from(SPEAKERS)),
            duration_s=4.0,
            annotator_votes={label: 3},
        )
        r.label = label
        records.append(r)
    return records


def _brute_force_pair_count(records):
    n = 0
    for a in records:
        for b in records:
            if a is b or (a.episode_id, a.speaker_id) != (b.episode_id, b.speaker_id):
                continue
            both_fluent = a.label == b.label == NO_STUTTER
            distinct_disfluent = (
                a.label != b.label and a.label in DISFLUENT_LABELS and b.label in DISFLUENT_LABELS
            )
            n += both_fluent or distinct_disfluent
    return n


@PROPERTY_SETTINGS
@given(cleaned_inventories())
def test_pairs_join_distinct_compatible_clips_of_one_speaker_and_episode(records):
    by_id = {r.clip_id: r for r in records}
    for p in pair(records):
        a, b = by_id[p.left_clip_id], by_id[p.right_clip_id]
        assert a.clip_id != b.clip_id
        assert a.speaker_id == b.speaker_id == p.speaker_id
        assert a.episode_id == b.episode_id == p.episode_id
        assert _compatible(a, b)
        assert p.combination_key == f"{a.label}_{b.label}_"


@PROPERTY_SETTINGS
@given(cleaned_inventories())
def test_pair_count_equals_brute_force_count(records):
    assert len(pair(records)) == _brute_force_pair_count(records)


@PROPERTY_SETTINGS
@given(cleaned_inventories(), st.integers(0, 2**32 - 1))
def test_balance_keeps_disfluent_pairs_and_target_fluent_pairs(records, seed):
    pairs = pair(records)
    kept = balance_no_stutter(pairs, seed=seed)
    disfluent = [p for p in pairs if p.combination_key != NO_STUTTER_KEY]
    assert [p for p in kept if p.combination_key != NO_STUTTER_KEY] == disfluent
    groups = Counter((p.speaker_id, p.combination_key) for p in disfluent)
    fluent = Counter(p.speaker_id for p in pairs if p.combination_key == NO_STUTTER_KEY)
    kept_fluent = Counter(p.speaker_id for p in kept if p.combination_key == NO_STUTTER_KEY)
    for speaker in SPEAKERS:
        sizes = [n for (s, _), n in groups.items() if s == speaker]
        target = round(sum(sizes) / len(sizes)) if sizes else 0
        assert kept_fluent[speaker] == min(target, fluent[speaker])
    # kept pairs keep their input order
    position = {id(p): i for i, p in enumerate(pairs)}
    assert [position[id(p)] for p in kept] == sorted(position[id(p)] for p in kept)


@PROPERTY_SETTINGS
@given(
    cleaned_inventories(),
    st.lists(st.sampled_from(SPEAKER_GROUPS), min_size=len(SPEAKERS), max_size=len(SPEAKERS)),
    st.sampled_from(sorted(PLANS)),
)
def test_build_splits_never_shares_a_speaker(records, assignment, plan_name):
    group_of = dict(zip(SPEAKERS, assignment))
    speaker_groups = {g: [s for s in SPEAKERS if group_of[s] == g] for g in SPEAKER_GROUPS}
    plan = PLANS[plan_name]
    pairs = pair(records)
    manifests = build_splits(pairs, speaker_groups, plan)
    speakers = {split: {p.speaker_id for p in clips} for split, clips in manifests.items()}
    assert not speakers["train"] & speakers["val"]
    assert not speakers["train"] & speakers["test"]
    assert not speakers["val"] & speakers["test"]
    for split in ("train", "val", "test"):
        want = [p for p in pairs if group_of[p.speaker_id] in getattr(plan, split)]
        assert manifests[split] == want
