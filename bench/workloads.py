"""Workload inputs and output expectations for the lefbench benchmark.

Every workload is a list of rounds; a round is a list of requests, each one
in-process call of ``lefbench.cli.main(argv)``.  The closed loop in run.py
runs whole rounds only, so every request kind appears equally often in a
run.

Inputs come from the shipped scenarios or from generators seeded by the
workload seed.  The program only ever sees the config files written here.
Expectations never come from an earlier run of the code under test: they
are the golden report committed under ``tests/golden``, the acceptance
values C1-C5 stated in the README and tests, and counts the generators
derive from their own construction (sign changes, handle counts).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction as Q
from pathlib import Path
from typing import Callable

WORKLOADS = ("headline-all", "bigon-surgery", "classical-mix")

SCENARIOS = Path("src/lefbench/scenarios")
GOLDEN_W1 = Path("tests/golden/w1_all.txt")

# C1-C4 for W0 (README, tests/test_acceptance.py)
W0_FLOER = {
    "HF(A,B)": "2",
    "HF(B, tw_A B)": "2",
    "Hom_FS(Th(B),Th(B))": "1",
    "Hom_FS(Th(A),Th(B))": "2",
    "Hom_FS(Th_1(B),Th(B))": "3",
}
W1_FLOER = dict(W0_FLOER, **{"HF(B, tw_A B)": "4"})
W0_HW = {
    "unit fate": "Survives",
    "HW(Th(B),Th(B))": "nonzero",
    "HW(Th(A),Th(A))": "nonzero",
    "HW(Th(A),Th(B))": "nonzero",
    "obstruction": "NoConclusion",
}
# W0.cfg: fibration main-W0 over aux-W0, towers b:b a:a a:b, levels 0-3
W0_SVGS = (["main-W0-base.svg", "main-W0-fiber-aux-W0.svg"]
           + [f"main-W0-tower-{x}-{y}-m{m}.svg"
              for x, y in (("b", "b"), ("a", "a"), ("a", "b"))
              for m in range(4)])

# C5 (README, tests/test_acceptance.py): W0 and W1 total spaces agree, ts3
# is a homology three-sphere, and the empty fibration is its fiber T*S^1.
HOMOLOGY = {
    "W0": {"H0": "Z", "H2": "Z", "H3": "Z", "euler": "1",
           "mod2 H0": "1", "mod2 H2": "1", "mod2 H3": "1"},
    "W1": {"H0": "Z", "H2": "Z", "H3": "Z", "euler": "1",
           "mod2 H0": "1", "mod2 H2": "1", "mod2 H3": "1"},
    "ts3": {"H0": "Z", "H3": "Z", "euler": "0",
            "mod2 H0": "1", "mod2 H3": "1"},
    "empty-fibration": {"H0": "Z", "H1": "Z", "euler": "0",
                        "mod2 H0": "1", "mod2 H1": "1"},
}
VALIDATE_OK = {"violations": "0", "validation": "ok"}

BIGON_KS = tuple(range(9, 22, 2))   # zig-zag vertex counts, all odd
FAN_NS = tuple(range(4, 17))        # critical values per fan, >= 3
POOL_ROUNDS = {"bigon-surgery": 12, "classical-mix": 6}


@dataclass
class Request:
    """One call of ``main(argv)`` and what its result must be."""
    argv: list[str]
    exit_code: int
    expect: dict[str, str] = field(default_factory=dict)
    # extra check on (stdout, svg dir); returns a failure reason or None
    check: Callable[[str, Path | None], str | None] | None = None
    svg_dir: Path | None = None
    surgeries: int | None = None    # eliminate_bigon calls, traced runs only

    def verify(self, out: str) -> str | None:
        """Why the report on stdout is wrong, or None."""
        if self.exit_code != 0:
            return "unexpected report on stdout" if out else None
        got = report_fields(out)
        for key, want in self.expect.items():
            if got.get(key) != want:
                return f"{key}: {got.get(key)!r}, expected {want!r}"
        if self.check is not None:
            return self.check(out, self.svg_dir)
        return None


def report_fields(text: str) -> dict[str, str]:
    """``key: value`` lines of a report; repeated keys keep the first."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and not line.startswith(" "):
            out.setdefault(key, value)
    return out


# --------------------------------------------------------------------------
# headline-all: the two README commands
# --------------------------------------------------------------------------

def _headline(work: Path) -> list[list[Request]]:
    golden = GOLDEN_W1.read_text(encoding="utf-8")

    def same_as_golden(out: str, _svg) -> str | None:
        return None if out == golden else f"report differs from {GOLDEN_W1}"

    def svgs_written(out: str, svg_dir: Path) -> str | None:
        names = [line[len("svg: "):] for line in out.splitlines()
                 if line.startswith("svg: ")]
        if names != W0_SVGS:
            return f"svg lines {names}"
        for name in names:
            head = (svg_dir / name).read_text(encoding="utf-8")[:200]
            if not head.startswith("<?xml") or "<svg" not in head:
                return f"{name} is not an SVG document"
        return None

    svg_dir = work / "svg"
    return [[
        Request(["all", str(SCENARIOS / "W1.cfg")], 0, check=same_as_golden),
        Request(["all", str(SCENARIOS / "W0.cfg"), "--svg", str(svg_dir)], 0,
                expect=dict(W0_FLOER, **W0_HW), check=svgs_written,
                svg_dir=svg_dir),
    ]]


# --------------------------------------------------------------------------
# bigon-surgery: W0 with matching A zig-zagging across B
# --------------------------------------------------------------------------

_MATCHING_A = re.compile(r"^matching A = c-left c-right \|.*$", re.MULTILINE)
B_LEVEL = Q(-1, 5)   # B runs along y = -1/5 for x in [-3/20, 3/20]


def zigzag(k: int, rng: random.Random) -> list[tuple[Q, Q]]:
    """k interior vertices of A, strictly increasing in x inside B's
    straight middle stretch, alternately above and below it, first and last
    above.  Lows stay above y = -3/8, clear of c-out at (0, -1/2), so every
    lens between A and B is free of punctures.  Heights are odd multiples
    of 1/40 prime to 5, so every variant's coordinates have the same
    denominators and the cost of its exact arithmetic varies little."""
    pts = []
    for i in range(1, k + 1):
        x = Q(-3, 20) + Q(3, 10) * Q(i, k + 1)
        highs, lows = (-7, -3, -1, 1, 3, 7, 9), (-13, -11, -9)   # B: -8
        pts.append((x, Q(rng.choice(highs if i % 2 else lows), 40)))
    return pts


def sign_changes(pts: list[tuple[Q, Q]]) -> int:
    sides = [y > B_LEVEL for _, y in pts]
    if any(y == B_LEVEL for _, y in pts):
        raise ValueError("zig-zag vertex on B")
    return sum(a != b for a, b in zip(sides, sides[1:]))


def _bigon(work: Path, seed: int) -> list[list[Request]]:
    base = (SCENARIOS / "W0.cfg").read_text(encoding="utf-8")
    if len(_MATCHING_A.findall(base)) != 1:
        raise ValueError("W0.cfg no longer declares matching A as expected")
    rng = random.Random(seed)
    rounds = []
    for r in range(POOL_ROUNDS["bigon-surgery"]):
        ks = list(BIGON_KS)
        rng.shuffle(ks)
        requests = []
        for k in ks:
            pts = zigzag(k, rng)
            mids = " ; ".join(f"{x} {y}" for x, y in pts)
            text = _MATCHING_A.sub(
                f"matching A = c-left c-right | {mids}", base)
            path = work / f"bigon-r{r}-k{k}.cfg"
            path.write_text(text, encoding="utf-8")
            # A and B share both endpoints and bound no puncture, so minimal
            # position leaves no interior crossing: each surgery removes two
            requests.append(Request(["floer-ranks", str(path)], 0,
                                    expect=W0_FLOER,
                                    surgeries=sign_changes(pts) // 2))
        rounds.append(requests)
    return rounds


# --------------------------------------------------------------------------
# classical-mix: shipped scenarios plus seeded fans
# --------------------------------------------------------------------------

FAN_TAUS = [Q(k, 50) for k in range(29, 47)]   # lower boundary arc, gap 1/50
FAN_XS = [Q(k, 40) for k in range(-24, 25)]    # puncture line y = 0


def fan_paths(n: int, rng: random.Random):
    """n punctures on y = 0 with 3-segment vanishing paths going down.

    Path i runs (x_i, 0) -> (x_i, -1/8) -> (X_i, -1/4) -> boundary angle
    tau_i with x_i, X_i and tau_i all increasing in i.  In each horizontal
    band the segments keep their left-to-right order.  Every angle in
    FAN_TAUS lies below y = -1/3 on the circle, so the last segments are
    non-interleaved chords of the convex cap below y = -1/4.  Hence the
    paths are pairwise disjoint.  Angles differ by at least 1/50, more than
    the default wrap delta 1/64, and the reference angle 1/4 is far off.
    """
    xs = sorted(rng.sample(FAN_XS, n))
    taus = sorted(rng.sample(FAN_TAUS, n))
    # X = 9x/8 + 1/100 never equals x on the grid, so no joint is straight
    return [(x, tau, [(x, Q(-1, 8)), (x * Q(9, 8) + Q(1, 100), Q(-1, 4))])
            for x, tau in zip(xs, taus)]


def fan_config(name: str, paths) -> str:
    out = ["# seeded fan: critical values on a line, disjoint vanishing"
           " paths", "", "[disc fan-disc]"]
    out += [f"puncture p{i} = {x} 0" for i, (x, _, _) in enumerate(paths)]
    out += ["resolution = 16", "",
            "[fiber circle-cotangent]", "dim = 2", "homology 0 = 1",
            "homology 1 = 1", "class belt = 1", "",
            f"[fibration {name}]", "disc = fan-disc",
            "fiber = circle-cotangent", "reference-angle = 1/4"]
    for i, (_, tau, mids) in enumerate(paths):
        pts = " ; ".join(f"{x} {y}" for x, y in mids)
        out.append(f"crit p{i} = belt | {tau} | {pts}")
    out += ["", "[run]", f"fibration = {name}", ""]
    return "\n".join(out)


def fan_homology(n: int) -> dict[str, str]:
    """T*S^1 has H0 = H1 = Z.  Attaching n 2-handles along the belt circle
    kills H1 with the first handle and adds a free H2 class with each of
    the other n - 1, so euler = 0 + n."""
    return {"critical values": str(n), "H0": "Z", "H2": f"Z^{n - 1}",
            "euler": str(n), "mod2 H0": "1", "mod2 H2": str(n - 1)}


def _homology_exact(expect: dict[str, str]):
    keys = {k for k in expect if k != "critical values"}

    def check(out: str, _svg) -> str | None:
        got = {k for k in report_fields(out)
               if re.fullmatch(r"(mod2 )?H\d+|euler", k)}
        return None if got == keys else f"homology lines {sorted(got)}"
    return check


def _classical(work: Path, seed: int) -> list[list[Request]]:
    shipped = []
    for name in ("W0", "W1", "ts3", "empty-fibration"):
        cfg = str(SCENARIOS / f"{name}.cfg")
        floer = {"W0": W0_FLOER, "W1": W1_FLOER}.get(name)
        shipped += [
            Request(["validate", cfg], 0, expect=VALIDATE_OK),
            Request(["homology", cfg], 0, expect=HOMOLOGY[name],
                    check=_homology_exact(HOMOLOGY[name])),
            # ts3 and the empty fibration carry no oracle: undecidable
            Request(["floer-ranks", cfg], 0 if floer else 2,
                    expect=floer or {}),
        ]
    rng = random.Random(seed)
    rounds = []
    for r in range(POOL_ROUNDS["classical-mix"]):
        requests = list(shipped)
        for n in FAN_NS:
            name = f"fan-r{r}-n{n}"
            path = work / f"{name}.cfg"
            path.write_text(fan_config(name, fan_paths(n, rng)),
                            encoding="utf-8")
            expect = fan_homology(n)
            requests += [
                Request(["validate", str(path)], 0, expect=VALIDATE_OK),
                Request(["homology", str(path)], 0, expect=expect,
                        check=_homology_exact(expect)),
            ]
        rng.shuffle(requests)
        rounds.append(requests)
    return rounds


def build(workload: str, seed: int, work: Path) -> list[list[Request]]:
    """Write the workload's inputs under ``work`` and return its rounds.

    Every config a request names is loaded once through ``load_config``
    as a self-test; an invalid generated input stops the benchmark.
    Paths are relative to the repository root, the working directory.
    """
    from lefbench.config import load_config
    work.mkdir(parents=True, exist_ok=True)
    if workload == "headline-all":
        rounds = _headline(work)
    elif workload == "bigon-surgery":
        rounds = _bigon(work, seed)
    elif workload == "classical-mix":
        rounds = _classical(work, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for cfg in sorted({req.argv[1] for rnd in rounds for req in rnd}):
        load_config(cfg)
    return rounds
