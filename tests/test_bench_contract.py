"""The benchmark's traced mode looks up library names by string; a clean-up
that deletes or renames one of them must fail here, not in the benchmark."""

import importlib.util
import sys
from pathlib import Path

import kregular
from kregular import Scalar, catalog_build

from conftest import vec

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(name):
    module, qual = name.split(".", 1)
    owner = sys.modules[f"kregular.{module}"]
    if "." in qual:
        cls_name, attr = qual.split(".")
        return getattr(owner, cls_name).__dict__[attr]
    return getattr(owner, qual)


def test_every_traced_name_installs_and_restores():
    spans = _load_spans()
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
