"""The benchmark's tracer patches lefbench functions by name; these tests
fail when a change to the package would break a traced run (``bench/run.py
--trace 1``), or a gate that run applies.  The tracer and the workloads are
loaded from their files, as the benchmark runs them."""

import importlib
import importlib.util
import sys
from importlib import resources
from pathlib import Path

import pytest

import lefbench.cli  # imports every traced module

ROOT = Path(__file__).resolve().parents[1]


def _bench_module(name: str):
    """bench/<name>.py, loaded from its file and registered under its own
    name, which its dataclasses look up."""
    spec = importlib.util.spec_from_file_location(
        f"lefbench_bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _bench_module("tracer")


def _target(modname: str, attr: str):
    """The object a SPANS entry names ("Class.method" reads the class)."""
    owner = importlib.import_module(modname)
    cls, _, name = attr.rpartition(".")
    if cls:
        return vars(getattr(owner, cls)).get(name)
    return getattr(owner, name, None)


def _bindings() -> dict:
    """Every module and class attribute the tracer could patch."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "lefbench" or modname.startswith("lefbench."):
            for attr, value in vars(mod).items():
                out[modname, attr] = value
                if isinstance(value, type):
                    for name, member in vars(value).items():
                        out[modname, attr, name] = member
    return out


def test_every_span_target_resolves(tracer):
    for name, (modname, attr) in tracer.SPANS.items():
        fn = _target(modname, attr)
        assert callable(fn), f"span {name}: {modname}.{attr} is gone"


def test_every_query_method_exists(tracer):
    oracle_cls = importlib.import_module("lefbench.oracle").FiberOracle
    for method in tracer.QUERIES:
        assert callable(vars(oracle_cls).get(method)), method


def test_install_then_uninstall_restores_every_binding(tracer):
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        for modname, attr in tracer.SPANS.values():
            fn = _target(modname, attr)
            assert fn is not before[(modname, *attr.split("."))], (
                f"{modname}.{attr} was not patched")
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_traced_run_counts_every_layer_call(tracer, tmp_path, capsys):
    # a traced all W0 --svg sees each of the 12 stages (3 towers x 4
    # levels) once in tower.build_stage and once in wrapping.wrap, which
    # only the diagrams call, so a binding the tracer misses shows as 0
    cfg = resources.files("lefbench") / "scenarios" / "W0.cfg"
    t = tracer.Tracer()
    t.install()
    try:
        t.begin_request()
        code = lefbench.cli.main(["all", str(cfg), "--svg", str(tmp_path)])
        t.end_request()
    finally:
        t.uninstall()
    capsys.readouterr()
    assert code == 0
    assert t.counts["wrapping.wrap"] == 12
    assert t.counts["tower.build_stage"] == 12


def test_traced_floer_ranks_count_each_zigzag_surgery(tracer, tmp_path,
                                                      monkeypatch, capsys):
    # run.py refuses a traced bigon-surgery request whose eliminate_bigon
    # calls differ from the surgeries its zig-zag's sign changes predict;
    # workloads name their inputs relative to the repository root
    monkeypatch.chdir(ROOT)
    workloads = _bench_module("workloads")
    requests = workloads.build("bigon-surgery", 3, tmp_path)[0]
    t = tracer.Tracer()
    t.install()
    try:
        for req in requests:
            t.begin_request()
            code = lefbench.cli.main(req.argv)
            t.end_request()
            assert code == req.exit_code == 0, req.argv
            assert req.verify(capsys.readouterr().out) is None, req.argv
            assert t.in_request["minpos.eliminate_bigon"] == req.surgeries, (
                req.argv, req.surgeries)
    finally:
        t.uninstall()
    assert len(requests) == len(workloads.BIGON_KS)
