"""Acceptance gate: the seven headline checks, tolerance zero.

Each test prints exactly one ``ACCEPTANCE C<k> PASS|FAIL`` line straight to
the terminal (bypassing capture) so a test-run transcript shows the gate
status at a glance.  Everything asserted here is integer equality.
"""

import random
import re
from contextlib import contextmanager
from fractions import Fraction as Q
from importlib import resources
from pathlib import Path

import pytest

import oracles
from lefbench.cli import main
from lefbench.config import load_config
from lefbench.fibration import total_space_homology
from lefbench.minpos import intersection_profile, minimal_position
from lefbench.rank_calculus import (FsHomRanks, _directed_twist, analyze,
                                    fs_hom_ranks, triangle_rank)
from lefbench.tower import build_stage
from lefbench.wrapping import wrap

from test_minimal_position import (Chains, compute_crossings,
                                   eliminate_bigon, find_empty_bigons,
                                   random_band_pair, survivors)
from test_tower import crits_of, inventory

GOLDEN = Path(__file__).parent / "golden" / "w1_all.txt"
PAIRS = (("b", "b"), ("a", "a"), ("a", "b"))
LEVELS = (0, 1, 2, 3)


def shipped(name: str) -> str:
    return str(resources.files("lefbench") / "scenarios" / name)


@pytest.fixture(scope="module")
def cfgs():
    return {v: load_config(shipped(f"{v}.cfg")) for v in ("W0", "W1")}


@contextmanager
def announce(capsys, k: int, desc: str):
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        with capsys.disabled():
            print(f"\nACCEPTANCE C{k} {status} — {desc}")


def test_c1_thimble_pair_rank_two(capsys, cfgs):
    with announce(capsys, 1, "floer-ranks reports HF(A,B) = 2 for both scenarios"):
        for v in ("W0", "W1"):
            assert main(["floer-ranks", shipped(f"{v}.cfg")]) == 0
            out = capsys.readouterr().out
            assert "HF(A,B): 2" in out


def test_c2_twist_and_fs_ranks(capsys, cfgs):
    with announce(capsys, 2, "twist rank 2 (W0) / 4 (W1); FS hom ranks (1, 2, 3) both"):
        expected = {"W0": 2, "W1": 4}
        for v, cfg in cfgs.items():
            out = analyze(cfg.fibration)
            a, b = out.labels
            assert out.twist == expected[v]
            assert _directed_twist(cfg.fibration.oracle, a, b)[2] == expected[v]
            assert out.fs == FsHomRanks(1, 2, 3)


def test_c3_unit_fate_and_wrapped_verdicts(capsys, cfgs):
    with announce(capsys, 3, "unit Survives (W0) / Dies (W1); all three HW"
                             " verdicts nonzero (W0) / zero (W1)"):
        for v, cfg in cfgs.items():
            out = analyze(cfg.fibration)
            flag = v == "W0"
            assert out.labels[1] == "B"
            assert out.hw == {"B": flag, "A": flag}
            assert out.hw_mixed is flag
            # and the CLI report carries the same three verdicts
            assert main(["all", shipped(f"{v}.cfg")]) == 0
            text = capsys.readouterr().out
            want = "nonzero" if flag else "0"
            for pair in ("Th(B),Th(B)", "Th(A),Th(A)", "Th(A),Th(B)"):
                assert f"HW({pair}): {want}" in text
            assert f"unit fate: {'Survives' if flag else 'Dies'}\n" in text


def test_c4_closed_lagrangian_obstruction(capsys, cfgs):
    with announce(capsys, 4, "obstruction Obstructed (W1) / NoConclusion (W0)"):
        assert analyze(cfgs["W1"].fibration).obstructed is True
        assert analyze(cfgs["W0"].fibration).obstructed is False
        # and the CLI report spells each verdict
        for v, kind in (("W1", "Obstructed"), ("W0", "NoConclusion")):
            assert main(["hw", shipped(f"{v}.cfg")]) == 0
            assert f"obstruction: {kind}\n" in capsys.readouterr().out


def test_c5_homology_agreement(capsys, cfgs):
    with announce(capsys, 5, "W0 and W1 homology equal over Z and Z/2 with"
                             " euler 1; plain cotangent scenario gives a"
                             " three-sphere"):
        h0 = total_space_homology(cfgs["W0"].fibration)
        h1 = total_space_homology(cfgs["W1"].fibration)
        assert h0.groups == h1.groups                    # degreewise over Z
        assert h0.mod2_table() == h1.mod2_table()        # degreewise over Z/2
        assert h0.euler() == 1 and h1.euler() == 1
        ts3 = total_space_homology(load_config(shipped("ts3.cfg")).fibration)
        assert ts3.groups == ((0, 1, ()), (3, 1, ()))


def test_c6_property_suites(capsys, cfgs):
    with announce(capsys, 6, "property suites: bigon order-independence,"
                             " cone-rank oracle, stage inventories,"
                             " certificate parity, refinement invariance"):
        # (a) bigon elimination reaches the same minimal crossing count in a
        # random order as in canonical order, on 100 random arc pairs
        for seed in range(100):
            rng = random.Random(seed)
            disc, f, g = random_band_pair(rng)
            crossings = compute_crossings(f, g)
            chains = Chains.of(crossings)
            while bigons := list(find_empty_bigons(f, g, disc, crossings)):
                eliminate_bigon(rng.choice(bigons), chains, [])
                crossings = survivors(chains)
            assert len(crossings) == len(minimal_position(f, g, disc))

        # (b) the exact-triangle rank formula agrees with a brute mapping-cone
        # homology computation on 1000 random GF(2) complexes of rank <= 6
        rng = random.Random(0xACCE97)
        for _ in range(1000):
            nk, nl = rng.randint(0, 6), rng.randint(0, 6)
            dk = oracles.random_differential(nk, rng)
            dl = oracles.random_differential(nl, rng)
            fmap = oracles.random_chain_map(dk, dl, nk, nl, rng)
            hk = oracles.homology_rank(dk, nk)
            hl = oracles.homology_rank(dl, nl)
            fstar = oracles.induced_map_rank(fmap, dk, dl, nk, nl)
            assert triangle_rank(hk, hl, fstar) == \
                oracles.cone_homology_rank(fmap, dk, dl, nk, nl)

        # (c) + (d): identical stage inventories across the two scenarios at
        # every level, and certificate parity equals inventory parity
        stages = {}
        certified = 0
        for v, cfg in cfgs.items():
            f = cfg.fibration
            fs = fs_hom_ranks(f)
            for x, y in PAIRS:
                for m in LEVELS:
                    s = build_stage(f, *crits_of(f, x, y), m, fs)
                    stages[v, x, y, m] = s
                    if s.rank_certificate is not None:
                        certified += 1
                        assert s.rank_certificate % 2 == s.count % 2
                        assert s.rank_certificate <= s.count
        # b:b and a:a at m = 0, 1 and a:b at m = 1, in both scenarios
        assert certified == 10
        for x, y in PAIRS:
            for m in LEVELS:
                assert inventory(stages["W0", x, y, m]) == \
                    inventory(stages["W1", x, y, m])

        # (e) the crossing count of every intersection profile is
        # unchanged when the boundary grid is twice as fine
        for v, cfg in cfgs.items():
            f = cfg.fibration
            fine = cfg.wrap._replace(resolution=2 * cfg.wrap.resolution)
            for x, y in PAIRS:
                for m in LEVELS:
                    got = []
                    for params in (cfg.wrap, fine):
                        moved = wrap(f.crit_for(x).path, m, params, f.disc,
                                     bend=x == y)
                        got.append(intersection_profile(
                            moved, f.crit_for(y).path, f.disc))
                    assert got[0] == got[1]


def test_c7_trace_fidelity(capsys, cfgs, tmp_path):
    with announce(capsys, 7, "W1 proof trace steps in order, golden-file"
                             " compared"):
        target = tmp_path / "w1_all.txt"
        assert main(["all", shipped("W1.cfg"), "--out", str(target)]) == 0
        text = target.read_text()
        tags = re.findall(r"^  \d+\. \[([a-z-]+)\]", text, re.MULTILINE)
        assert tags == ["twist-triangle", "evaluation-cone", "unit-fate",
                        "unit-death", "module-vanishing", "obstruction"]
        assert target.read_bytes() == GOLDEN.read_bytes()
