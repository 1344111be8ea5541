"""Tests of the benchmark's own arithmetic and its WAV corpus generator.

    PYTHONPATH=src python -m pytest perfbench
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402
import summary  # noqa: E402
import wavcorpus  # noqa: E402
import worker  # noqa: E402
from tinyst import FrontendConfig, RngStream, logmel  # noqa: E402
from tinyst.audio import read_wav  # noqa: E402
from tinyst.data import read_manifest  # noqa: E402


# -- generator ----------------------------------------------------------------


def _generate(tmp_path, name, seed):
    out = tmp_path / name
    paths = wavcorpus.generate(RngStream(seed), out, {"train": [40, 47],
                                                      "dev": [44]})
    return out, paths


def _files(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_generator_same_seed_same_bytes(tmp_path):
    a, _ = _generate(tmp_path, "a", 5)
    b, _ = _generate(tmp_path, "b", 5)
    assert _files(a) == _files(b)


def test_generator_seed_changes_content_not_lengths(tmp_path):
    a, pa = _generate(tmp_path, "a", 5)
    b, pb = _generate(tmp_path, "b", 6)
    assert _files(a) != _files(b)
    for split in ("train", "dev"):
        ea, eb = read_manifest(pa[split]), read_manifest(pb[split])
        assert [len(e.transcript.split()) for e in ea] == \
               [len(e.transcript.split()) for e in eb]


def test_generator_manifest_frames_match_logmel(tmp_path):
    out, paths = _generate(tmp_path, "a", 3)
    for e in read_manifest(paths["train"]):
        wave, rate = read_wav(out / e.features)
        assert rate == wavcorpus.SAMPLE_RATE
        assert logmel(wave, FrontendConfig()).shape[0] == e.n_frames
        symbols = e.transcript.split()
        assert 7 * len(symbols) <= e.n_frames <= 13 * len(symbols)
        assert all(x != y for x, y in zip(symbols, symbols[1:]))


def test_spread_counts_cover_the_range():
    assert wavcorpus.spread_counts(3) == [40, 75, 110]
    mid = wavcorpus.spread_counts(4, offset=0.5)
    assert mid == sorted(mid) and 40 < mid[0] and mid[-1] < 110


def test_clustered_counts_are_distinct_and_in_range():
    counts = wavcorpus.clustered_counts(5, 4)
    assert len(set(counts)) == 20
    assert wavcorpus.MIN_SYMBOLS <= min(counts) and max(counts) <= wavcorpus.MAX_SYMBOLS
    assert counts[:4] == [counts[0] + k for k in range(4)]


# -- tail rule ------------------------------------------------------------------


def test_tail_leaves_ten_samples_beyond():
    values = list(range(100, 0, -1))
    value, percentile, n = summary.tail(values)
    assert (value, percentile, n) == (90, 90.0, 100)
    assert sum(v > value for v in values) == summary.TAIL_BEYOND


def test_tail_of_twenty_is_the_lower_median():
    assert summary.tail(range(1, 21)) == (10, 50.0, 20)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        summary.tail(range(19))


def test_spread_is_iqr_over_median():
    assert summary.spread([1, 2, 3, 4, 5]) == pytest.approx(
        (4.5 - 1.5) / 3.0)


# -- decode order -----------------------------------------------------------------


def test_round_robin_takes_one_of_each_block_per_round():
    assert worker.round_robin([[1, 2], [3, 4], [5, 6]]) == [1, 3, 5, 2, 4, 6]
    with pytest.raises(ValueError):
        worker.round_robin([[1, 2], [3]])


def test_ensemble_takes_half_of_every_stratum_spread_over_rounds():
    strata, rounds = 5, 4
    picks = worker.ensemble_positions(strata * rounds, strata, 2)
    for s in range(strata):
        chosen = [i // strata for i in sorted(picks) if i % strata == s]
        assert len(chosen) == rounds // 2
        assert chosen[1] - chosen[0] == 2


@pytest.mark.parametrize("classes, per_class", [
    (worker.LONG.dev_strata, worker.decode_rounds("long", 20)),
    (worker.LONG_TRAIN_CLUSTERS[0],
     worker.LONG_TRAIN_CLUSTERS[1] * worker.LONG.train.epochs),
], ids=["decoded-utterances", "training-steps"])
def test_long_median_and_tail_fall_inside_a_cost_class(classes, per_class):
    # Sorted by cost, the samples come in `classes` runs of `per_class`; a
    # rank at the edge of a run would be set by whichever class is slower
    # at that moment rather than by several samples of one class.
    n = classes * per_class
    for rank in (n - summary.TAIL_BEYOND, n // 2, n // 2 + 1):
        assert 0 < (rank - 1) % per_class < per_class - 1


# -- span arithmetic --------------------------------------------------------------


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


NESTED = [
    _span("phase.train", 0.0, 10.0, -1),    # 0
    _span("model.forward", 1.0, 4.0, 0),    # 1
    _span("model.attention", 2.0, 3.0, 1),  # 2
    _span("tensor.backward", 5.0, 9.0, 0),  # 3
    _span("phase.decode", 10.0, 12.0, -1),  # 4
    _span("model.attention", 10.5, 11.0, 4),  # 5
]


def test_self_time_subtracts_direct_children():
    assert spans.self_times(NESTED) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5, 0.5])


def test_layer_self_times_sum_to_wall_time():
    layers = spans.layer_self_times(NESTED)
    assert layers == pytest.approx({"phase": 4.5, "model": 3.5, "tensor": 4.0})
    assert sum(layers.values()) == pytest.approx(12.0)


def test_coverage_is_share_in_child_spans():
    assert spans.coverage(NESTED) == pytest.approx(
        {"phase.train": 0.7, "phase.decode": 0.25})


def test_inclusive_totals_by_phase_without_double_counting():
    recursive = [_span("phase.train", 0.0, 10.0, -1),
                 _span("model.encode", 1.0, 6.0, 0),
                 _span("model.encode", 2.0, 3.0, 1)]
    assert spans.inclusive_totals(recursive)[("model.encode", "phase.train")] == 5.0
    totals = spans.inclusive_totals(NESTED)
    assert totals[("model.attention", "phase.train")] == 1.0
    assert totals[("model.attention", "phase.decode")] == 0.5


def test_tracer_wrap_records_nesting_and_ids():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = spans.Tracer()
    tracer.wrap(Box, "outer", "model.outer")
    tracer.wrap(Box, "inner", "model.inner",
                after=lambda result, _: tracer.count("inner.calls"))
    tracer.item = "utt-1"
    with tracer.span("phase.decode"):
        assert Box().outer() == 2
    names = [(s[spans.NAME], s[spans.PARENT], s[spans.ID]) for s in tracer.spans]
    assert names == [("phase.decode", -1, "utt-1"), ("model.outer", 0, "utt-1"),
                     ("model.inner", 1, "utt-1")]
    assert all(s[spans.END] >= s[spans.START] for s in tracer.spans)
    assert tracer.counts["inner.calls"] == 1
    assert tracer.root() is None
