"""A scaling census: an input knob doubled, its work counted.

Each row runs one knob at three sizes, each twice the one before, and
bounds the growth per doubling of a deterministic count of work, not of
time.  2.3 per doubling admits O(n log n) and refuses O(n^2), which
gives 4.  A number in the config that is not a size is a knob whose work
does not grow at all.
"""

import random
from fractions import Fraction
from pathlib import Path

from lefbench import disc, fibration, minpos, wrapping
from lefbench.cli import main
from lefbench.config import NESTING_LIMIT
from lefbench.exactgeom import (closed_segments_touch, first_contact,
                                segments_overlap_collinear)
from lefbench.minpos import compute_crossings, intersection_profile
from test_cli import _chain_config, _count_calls, _edited, shipped
from test_minimal_position import punctured_zigzag_pair, zigzag_pair

PER_DOUBLING = 2.3


def test_zigzag_fraction_comparisons_grow_linearly(monkeypatch):
    """The zig-zag of W0's A across B through k points: (k - 1) / 2 bigon
    surgeries reduce its k - 1 crossings to none.  The crossings all lie
    on B's middle segment, so ordering them along B compares Fraction
    positions; the reduction does that once, not once per surgery."""
    count = [0]
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        def counted(self, other, real=getattr(Fraction, name)):
            count[0] += 1
            return real(self, other)
        monkeypatch.setattr(Fraction, name, counted)
    counts = []
    for k in (159, 319, 639):
        disc, a, b = zigzag_pair(k, random.Random(k))
        count[0] = 0
        assert intersection_profile(a, b, disc) == 0
        counts.append(count[0])
    assert all(n > 0 for n in counts), counts
    assert all(m <= PER_DOUBLING * n for n, m in zip(counts, counts[1:])), \
        counts


def test_zigzag_reduction_work_grows_linearly(monkeypatch):
    """The zig-zag again, at k = 639 / 1279 / 2559: the items minpos hands
    to sorted plus the pairs eliminate_bigon queues grow linearly, so no
    surgery re-sorts or copies the crossings left.  On it and on the
    punctured zig-zag, whose lenses below B hold punctures, no pair's lens
    is built twice, and there are at most two lenses per crossing."""
    work, lenses = [0], []

    def counted_sorted(items, **kwargs):
        items = list(items)
        work[0] += len(items)
        return sorted(items, **kwargs)

    def eliminate(bigon, chains, queue, real=minpos.eliminate_bigon):
        queued = len(queue)
        real(bigon, chains, queue)
        work[0] += len(queue) - queued

    def lens(a, b, x, y, real=minpos._lens):
        lenses.append((x.a_rank, y.a_rank))
        return real(a, b, x, y)
    monkeypatch.setattr(minpos, "sorted", counted_sorted, raising=False)
    monkeypatch.setattr(minpos, "eliminate_bigon", eliminate)
    monkeypatch.setattr(minpos, "_lens", lens)
    counts = []
    for k in (639, 1279, 2559):
        disc, a, b = zigzag_pair(k, random.Random(k))
        work[0], lenses[:] = 0, []
        assert intersection_profile(a, b, disc) == 0
        counts.append(work[0])
        assert len(set(lenses)) == len(lenses) <= 2 * (k - 1)
    assert all(n > 0 for n in counts), counts
    assert all(m <= PER_DOUBLING * n for n, m in zip(counts, counts[1:])), \
        counts
    # each lens here is walked along the input arcs, so the walk grows
    # quadratically: sizes kept small
    for k in (127, 255, 511):
        disc, a, b = punctured_zigzag_pair(k, random.Random(k))
        lenses[:] = []
        intersection_profile(a, b, disc)
        assert len(set(lenses)) == len(lenses) <= 2 * len(
            compute_crossings(a, b))


def test_nested_total_space_derivations_grow_linearly(monkeypatch, tmp_path,
                                                      capsys):
    """homology on a chain of total-space fibers n deep, up to the nesting
    limit: each level reduces its attachment matrix once and reads its
    matching classes from its handle model, so the Smith forms and the
    matching classes derived grow linearly in n."""
    count = {"smith_form": 0, "matching_cycle_class": 0}
    for name in count:
        def counted(*args, name=name, real=getattr(fibration, name)):
            count[name] += 1
            return real(*args)
        monkeypatch.setattr(fibration, name, counted)
    counts = []
    cfg = tmp_path / "chain.cfg"
    for n in (8, 16, NESTING_LIMIT):
        cfg.write_text(_chain_config(n))
        count.update(dict.fromkeys(count, 0))
        assert main(["homology", str(cfg)]) == 0
        assert f"fiber: total-space(f{n - 1})\n" in capsys.readouterr().out
        counts.append(dict(count))
    assert NESTING_LIMIT == 32
    for name in count:
        row = [c[name] for c in counts]
        assert all(m > 0 for m in row), (name, row)
        assert all(m <= PER_DOUBLING * k for k, m in zip(row, row[1:])), \
            (name, row)


def test_a_fiber_rank_is_not_a_matrix_size(monkeypatch, tmp_path, capsys):
    """homology on W0 with H_2 of rank N declared for the inner fiber, where
    it is the degree of the inner cells: each inner matching class is its
    cell cycle, one entry per critical value, so the attachment matrices
    hold as many entries at N = 10**20 as at N = 10."""
    entries = []

    def counted(rows, real=fibration.smith_form):
        entries[-1].append(sum(len(row) for row in rows))
        return real(rows)
    monkeypatch.setattr(fibration, "smith_form", counted)
    text = Path(shipped("W0.cfg")).read_text()
    cfg = tmp_path / "rank.cfg"
    for n in (10, 10 ** 6, 10 ** 20):
        cfg.write_text(text.replace("homology 1 = 1\n",
                                    f"homology 1 = 1\nhomology 2 = {n}\n"))
        entries.append([])
        assert main(["homology", str(cfg)]) == 0
        assert f"H2: Z^{n + 1}\n" in capsys.readouterr().out
    # three inner cells on one row, then two outer cells on three rows
    assert entries == [[3, 6]] * 3, entries


def test_a_refused_deep_spiral_tests_segment_pairs_linearly(monkeypatch,
                                                           tmp_path, capsys):
    """render on W1 at resolution 16 with levels {0, m}, m = 96 / 192 /
    384: the spiral of the first tower at level m meets its head.  Both
    the exact contact tests and the segment pairs listed for them grow
    linearly: wrap lists the O(m) pairs its proof leaves open, where the
    full check of the spiral would list the O(m^2) pairs whose boxes
    meet."""
    tested, listed = [], [0]
    for fn in (closed_segments_touch, segments_overlap_collinear):
        _count_calls(monkeypatch, fn, tested)

    def listing(hs, pairs, real=first_contact):
        pairs = list(pairs)
        listed[0] += len(pairs)
        return real(hs, pairs)
    for mod in (disc, wrapping):
        monkeypatch.setattr(mod, "first_contact", listing)
    counts = []
    for m in (96, 192, 384):
        cfg = _edited(tmp_path, "W1", "levels = 0 1 2 3", f"levels = 0 {m}")
        tested.clear()
        listed[0] = 0
        assert main(["render", str(cfg), "--resolution", "16",
                     "--svg", str(tmp_path / f"svg-{m}")]) == 1
        assert "between segments 0 and 17 " in capsys.readouterr().err
        counts.append((len(tested), listed[0]))
    for row in zip(*counts):
        assert all(n > 0 for n in row), counts
        assert all(m <= PER_DOUBLING * n for n, m in zip(row, row[1:])), \
            counts
