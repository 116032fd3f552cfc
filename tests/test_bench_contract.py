"""The benchmark's traced mode looks up library names by string; a clean-up
that deletes or renames one of them must fail here, not in the benchmark."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import kregular
from kregular import Scalar, catalog_build

from conftest import vec

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
RUN = BENCH / "run.py"


def _load_bench(name):
    """bench/<name>.py as a fresh module, read without importing bench."""
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass looks its module up by name while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _lookup(name):
    module, qual = name.split(".", 1)
    owner = sys.modules[f"kregular.{module}"]
    if "." in qual:
        cls_name, attr = qual.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, qual)


def test_every_traced_name_installs_and_restores():
    spans = _load_bench("spans")
    before = {name: _lookup(name) for name in spans.TRACED}
    dunders = {attr: Scalar.__dict__[attr] for attr in spans.SCALAR_DUNDERS}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, original in before.items():
            assert _lookup(name) is not original, name
        alg, cd = catalog_build("split-sl", 2)
        z = vec(3, e0=1, e1=1, e2=-1)
        # bench/run.py passes jobs=1 to all three entry points, looked up
        # on the package, where the tracer rebinds them
        assert kregular.is_k_regular(alg, cd, z, jobs=1).verdict == "k-regular"
        assert kregular.nilcone_test(alg, cd, z, jobs=1).verdict == "k-regular"
        assert kregular.verify_suite(alg, cd, "appendix", samples=1,
                                     jobs=1).ok
    finally:
        tracer.uninstall()
    for name, original in before.items():
        assert _lookup(name) is original, name
    for name in ("certify.is_k_regular", "certify.nilcone_test",
                 "verify.verify_suite", "roots.construct_regular"):
        assert tracer.stats[name][0] >= 1, name
    assert tracer.scalar_ops[0] > 0
    assert all(Scalar.__dict__[attr] is f for attr, f in dunders.items())


def test_setup_probe_prints_one_float():
    # the cold set-up probe behind setup_s, read from bench/run.py without
    # importing it and run as run.setup_seconds runs it, on this checkout
    tree = ast.parse(RUN.read_text())
    probe = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["SETUP_PROBE"])
    proc = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(ROOT / "src"), "2", "3", "4"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stdout.splitlines()
    assert len(lines) == 1, proc.stdout
    assert float(lines[0]) > 0


def test_nilcone_exponents_match_the_bench_checker():
    # the seed-1 sl4-reduced nil pool: each element is x + y for n x n
    # matrices x and y, and bench/checks.py recomputes the nilpotency
    # exponents of ad x and ad y from them over its own Z[i] products
    workloads = _load_bench("workloads")
    checks = _load_bench("checks")
    alg, cd = catalog_build("split-sl", 4)
    for op in workloads.pool("sl4-reduced", 1)["nil"]:
        e = op.element
        cert = kregular.nilcone_test(alg, cd, tuple(
            Scalar(re, im) for re, im in e.coords))
        assert cert.verdict == "nil-k", op.key
        stated = (cert.witnesses["ad_x_exponent"],
                  cert.witnesses["ad_y_exponent"])
        assert stated == tuple(checks.nilpotency_exponent(
            checks.ad_operator(m)) for m in (e.x_mat, e.y_mat)), op.key
