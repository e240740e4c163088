"""Property tests over generated cleaned inventories: pairing joins only
compatible same-speaker/same-episode clips and finds every such ordered
pair, balancing keeps the documented counts, and splitting never shares a
speaker between partitions. Pairing needs no audio, so each example is
cheap."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from stutterkit.curation import (
    NO_STUTTER_KEY,
    PLANS,
    SPEAKER_GROUPS,
    ClipRecord,
    _compatible,
    balance_no_stutter,
    build_splits,
    pair,
)
from stutterkit.labels import DISFLUENT_LABELS, LABELS, NO_STUTTER

SPEAKERS = ("s0", "s1", "s2")
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


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
