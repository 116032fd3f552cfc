import ast
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import kregular
from kregular import io as kio
from kregular.algebra import LieAlgebra
from kregular.catalog import catalog_build
from kregular import certify, cli
from kregular.cli import main
from kregular.errors import SoundnessError
from kregular.roots import catalog_datum

from conftest import MALFORMED_CATALOG_NAMES, count_filtrations, vec


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def z_regular(tmp_path):
    path = tmp_path / "z_regular.json"
    kio.write_json(str(path), kio.dump_element(vec(3, e0=1, e1=1, e2=-1)))
    return str(path)


@pytest.fixture
def z_nil(tmp_path):
    path = tmp_path / "z_nil.json"
    kio.write_json(str(path), {
        "coeffs": [[1, 1, 0, 1], [0, 1, 1, 1], [0, 1, 1, 1]]})  # h + i(e+f)
    return str(path)


def test_algebra_info(runner):
    result = runner.invoke(main, ["algebra", "info", "-a", "sl3"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["dim"] == 8 and doc["dim_k"] == 3 and doc["dim_p"] == 5


def test_algebra_validate_catalog(runner):
    result = runner.invoke(main, ["algebra", "validate", "-a", "sl2"])
    assert result.exit_code == 0
    assert json.loads(result.output)["ok"] is True


def test_algebra_dump_and_file_round_trip(runner, tmp_path):
    dumped = runner.invoke(main, ["algebra", "dump", "-a", "sl2"])
    assert dumped.exit_code == 0
    path = tmp_path / "sl2.json"
    path.write_text(dumped.output)
    result = runner.invoke(main, ["algebra", "validate", "-f", str(path)])
    assert result.exit_code == 0


def test_algebra_validate_file_runs_validate_once(runner, tmp_path,
                                                monkeypatch):
    path = tmp_path / "sl3.json"
    kio.write_json(str(path), kio.dump_algebra(*catalog_build("split-sl", 3)))
    calls = []
    original = cli.validate

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (cli, kio):
        monkeypatch.setattr(module, "validate", counting)
    result = runner.invoke(main, ["algebra", "validate", "-f", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["ok"] is True
    assert len(calls) == 1


def _refuses_abelian(runner, tmp_path, dim, dim_k):
    """A valid shape: dim, no brackets, theta = diag(1^dim_k, -1^rest);
    `algebra validate -f` refuses it for its zero Killing form."""
    zero, one, minus = [0, 1, 0, 1], [1, 1, 0, 1], [-1, 1, 0, 1]
    path = tmp_path / "abelian.json"
    path.write_text(json.dumps({
        "name": "abelian", "dim": dim, "structure": [],
        "theta": [[(one if i < dim_k else minus) if i == j else zero
                   for j in range(dim)] for i in range(dim)]}))
    result = runner.invoke(main, ["algebra", "validate", "-f", str(path)])
    assert result.exit_code == 2
    assert json.loads(result.output) == {
        "ok": False, "failed_check": "killing-nondegenerate",
        "detail": f"rank 0 of {dim}"}


def test_algebra_validate_refuses_zero_killing_form(runner, tmp_path):
    _refuses_abelian(runner, tmp_path, 40, 40)


def test_algebra_validate_refuses_dim_80_split_theta(runner, tmp_path):
    # the theta checks pair all 3160 basis pairs, each with a zero bracket
    _refuses_abelian(runner, tmp_path, 80, 40)


def test_algebra_validate_rejects_corrupt_file(runner, tmp_path):
    dumped = runner.invoke(main, ["algebra", "dump", "-a", "sl2"])
    doc = json.loads(dumped.output)
    doc["theta"][0] = [[2, 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1]]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["algebra", "validate", "-f", str(path)])
    assert result.exit_code == 2
    assert json.loads(result.output)["failed_check"] == "theta-involution"


@pytest.mark.parametrize("key", ["structure", "theta", "basis_labels"])
def test_algebra_file_with_non_list_field_is_input_error(runner, tmp_path, key):
    dumped = runner.invoke(main, ["algebra", "dump", "-a", "sl2"])
    doc = json.loads(dumped.output)
    doc[key] = 5
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["algebra", "info", "-f", str(path)])
    assert result.exit_code == 2
    assert key in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("command", [["gram"], ["regular", "test"],
                                     ["nilcone", "test"]])
def test_jobs_below_one_is_input_error(runner, z_regular, command):
    result = runner.invoke(
        main, [*command, "-a", "sl2", "-e", z_regular, "--jobs", "0"])
    assert result.exit_code == 2
    assert "No such option" in result.output and "--jobs" in result.output
    assert "Traceback" not in result.output


def test_unknown_algebra_is_input_error(runner):
    result = runner.invoke(main, ["algebra", "info", "-a", "e8"])
    assert result.exit_code == 2


@pytest.mark.parametrize("name", MALFORMED_CATALOG_NAMES)
def test_malformed_catalog_name_is_input_error(runner, name):
    # only ASCII [0-9]+ after 'sl' or 'split-sl:' names a catalog algebra
    result = runner.invoke(main, ["algebra", "info", "-a", name])
    assert result.exit_code == 2
    assert result.output.startswith("error: unrecognized catalog algebra name")
    assert "Traceback" not in result.output


@pytest.mark.parametrize("name", ["sl3", "split-sl:3", "sl03"])
def test_catalog_name_spellings_of_sl3(runner, name):
    result = runner.invoke(main, ["algebra", "info", "-a", name])
    assert result.exit_code == 0
    assert json.loads(result.output)["dim"] == 8


def test_hall(runner):
    result = runner.invoke(main, ["hall", "--degree", "4"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert [d["count"] for d in doc["degrees"]] == [2, 1, 2, 3]
    assert doc["total"] == 8
    deg3 = {w["word"]: w["bracketing"] for w in doc["degrees"][2]["words"]}
    assert deg3 == {"XXY": "[X,[X,Y]]", "XYY": "[[X,Y],Y]"}


@pytest.mark.parametrize("command", [["hall"], ["separate", "-a", "sl2"]])
@pytest.mark.parametrize("degree", ["0", "17"])
def test_word_degree_out_of_range_is_input_error(runner, z_regular, command,
                                                 degree):
    elements = ["-e", z_regular, "-e2", z_regular] if len(command) > 1 else []
    result = runner.invoke(main, [*command, *elements, "--degree", degree])
    assert result.exit_code == 2
    assert "--degree" in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def test_hall_at_the_degree_bound(runner):
    result = runner.invoke(main, ["hall", "--degree", "16"])
    assert result.exit_code == 0
    assert json.loads(result.output)["total"] == 8800


def test_eval(runner, z_regular):
    result = runner.invoke(
        main, ["eval", "-a", "sl2", "-w", "XY", "-e", z_regular])
    assert result.exit_code == 0
    assert json.loads(result.output)["value"] == ["0", "-2", "-2"]


def test_eval_rejects_non_lyndon(runner, z_regular):
    result = runner.invoke(
        main, ["eval", "-a", "sl2", "-w", "YX", "-e", z_regular])
    assert result.exit_code == 2


def test_subalg(runner, z_regular):
    result = runner.invoke(main, ["subalg", "-a", "sl2", "-e", z_regular])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["dim"] == 3
    assert doc["stabilization_degree"] == 2


def test_gram_modes(runner, z_regular):
    full = runner.invoke(main, ["gram", "-a", "sl2", "-e", z_regular])
    reduced = runner.invoke(
        main, ["gram", "-a", "sl2", "-e", z_regular, "--reduced"])
    assert full.exit_code == reduced.exit_code == 0
    d_full = json.loads(full.output)
    d_reduced = json.loads(reduced.output)
    assert d_full["mode"] == "full" and d_reduced["mode"] == "reduced"
    assert d_full["rank"] == d_reduced["rank"] == 3


def test_gram_full_matrix_is_exact(runner, z_regular):
    result = runner.invoke(
        main, ["gram", "-a", "sl2", "-e", z_regular, "--full-matrix"])
    doc = json.loads(result.output)
    assert len(doc["gram"]) == 5
    # B(x, x) = B(e - f, e - f) = -8, exactly
    assert doc["gram"][0][0] == [-8, 1, 0, 1]


def test_regular_test_exit_codes(runner, z_regular, tmp_path):
    assert runner.invoke(
        main, ["regular", "test", "-a", "sl2", "-e", z_regular]).exit_code == 0
    zero = tmp_path / "zero.json"
    kio.write_json(str(zero), kio.dump_element(vec(3)))
    assert runner.invoke(
        main, ["regular", "test", "-a", "sl2", "-e", str(zero)]).exit_code == 1
    assert runner.invoke(
        main, ["regular", "test", "-a", "sl2", "-e", "/no/such.json"]).exit_code == 2


def test_regular_construct(runner, tmp_path):
    out = tmp_path / "constructed.json"
    result = runner.invoke(
        main, ["regular", "construct", "-a", "sl2", "--out", str(out)])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["certificate"]["verdict"] == "k-regular"
    assert doc["element_pretty"] == ["1", "1", "-1"]
    assert kio.read_json(str(out)) == doc["element"]


@pytest.mark.parametrize("command", [["regular", "construct"],
                                     ["verify", "--suite", "appendix"]])
@pytest.mark.parametrize("field, value", [
    ("positive", [5]), ("positive", 0), ("positive", ["0"]),
    ("a_basis", 3), ("hm_basis", 1), ("roots", 7)])
def test_malformed_datum_is_input_error(runner, tmp_path, command, field,
                                        value):
    doc = kio.dump_datum(catalog_datum(*catalog_build("split-sl", 2)))
    doc[field] = value
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, [*command, "-a", "sl2", "--datum", str(path)])
    assert result.exit_code == 2
    assert field in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


@pytest.fixture
def user_sl2(runner, tmp_path):
    """sl(2) saved as a user algebra: no catalog family, so no datum."""
    doc = json.loads(runner.invoke(main, ["algebra", "dump", "-a", "sl2"]).output)
    doc["name"] = "my-algebra"
    path = tmp_path / "user.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("suite", ["appendix", "all"])
def test_verify_user_algebra_without_datum_is_input_error(runner, user_sl2,
                                                          suite, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "verify_suite", lambda *a, **k: ran.append(a))
    result = runner.invoke(main, ["verify", "-f", user_sl2, "--suite", suite,
                                  "--samples", "1"])
    assert result.exit_code == 2
    assert "--datum" in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not ran


def test_verify_user_algebra_runs_datum_free_suites(runner, user_sl2):
    result = runner.invoke(main, ["verify", "-f", user_sl2, "--suite",
                                  "regularity", "--samples", "2"])
    assert result.exit_code == 0
    assert json.loads(result.output)["algebra"] == "my-algebra"


def test_regular_construct_certifies_once(runner, monkeypatch):
    # one Gram certificate; in full mode it runs no exact filtration
    calls = count_filtrations(monkeypatch)
    grams = []
    original = certify.gram_matrix

    def counting(*args, **kwargs):
        grams.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(certify, "gram_matrix", counting)
    result = runner.invoke(main, ["regular", "construct", "-a", "sl3"])
    assert result.exit_code == 0
    assert json.loads(result.output)["certificate"]["verdict"] == "k-regular"
    assert (len(grams), len(calls)) == (1, 0)


def test_nilcone_exit_codes(runner, z_regular, z_nil):
    good = runner.invoke(main, ["nilcone", "test", "-a", "sl2", "-e", z_nil])
    assert good.exit_code == 0
    assert json.loads(good.output)["verdict"] == "nil-k"
    bad = runner.invoke(main, ["nilcone", "test", "-a", "sl2", "-e", z_regular])
    assert bad.exit_code == 1


def test_bounds(runner):
    result = runner.invoke(main, ["bounds", "-a", "sl4"])
    assert json.loads(result.output) == {
        "n": 15, "two_n": 30, "dim_p": 9, "r": 3915}


def test_separate(runner, z_regular, tmp_path, z_nil):
    scaled = tmp_path / "scaled.json"
    kio.write_json(str(scaled), kio.dump_element(vec(3, e0=1, e1=2, e2=-2)))
    result = runner.invoke(
        main, ["separate", "-a", "sl2", "-e", z_regular, "-e2", str(scaled)])
    doc = json.loads(result.output)
    assert doc["separator"]["kind"] == "word-pair"
    same = runner.invoke(
        main, ["separate", "-a", "sl2", "-e", z_regular, "-e2", z_regular])
    assert json.loads(same.output)["separator"] is None


def test_element_from_stdin(runner):
    doc = json.dumps(kio.dump_element(vec(3, e0=1, e1=1, e2=-1)))
    result = runner.invoke(
        main, ["regular", "test", "-a", "sl2", "-e", "-"], input=doc)
    assert result.exit_code == 0


def test_verify_csv_and_exit(runner):
    result = runner.invoke(
        main, ["verify", "-a", "sl2", "--suite", "witt", "--samples", "1", "--csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0].startswith("suite,algebra,seed")
    assert len(lines) == 3


@pytest.mark.parametrize("flag, value", [("--box", "-1"), ("--samples", "-5"),
                                         ("--samples", "0"), ("--jobs", "0")])
def test_verify_rejects_out_of_range_flags(runner, flag, value):
    result = runner.invoke(
        main, ["verify", "-a", "sl2", "--suite", "stabilization", flag, value])
    assert result.exit_code == 2
    assert flag in result.output
    assert "Traceback" not in result.output


def _refused_as_input(result):
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def test_unwritable_output_path_is_input_error(runner, tmp_path):
    out = tmp_path / "missing" / "z.json"
    _refused_as_input(runner.invoke(
        main, ["regular", "construct", "-a", "sl2", "-o", str(out)]))


@pytest.mark.parametrize("content", [
    b'{"coeffs": [\xff]}',
    b"[" * 100000,
    b'{"coeffs": [[' + b"7" * 5000 + b', 1, 0, 1], [0, 1, 0, 1], [0, 1, 0, 1]]}',
], ids=["not-utf8", "deep-nesting", "5000-digit-literal"])
def test_undecodable_element_file_is_input_error(runner, tmp_path, content):
    path = tmp_path / "z.json"
    path.write_bytes(content)
    result = runner.invoke(main, ["subalg", "-a", "sl2", "-e", str(path)])
    _refused_as_input(result)
    assert str(path) in result.stderr


def test_huge_declared_dim_is_refused_before_the_algebra_is_built(
        runner, tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("LieAlgebra built before the shape checks")

    monkeypatch.setattr(LieAlgebra, "__init__", never)
    path = tmp_path / "huge.json"
    path.write_text('{"name":"x","dim":1000000,"structure":[],"theta":[]}')
    result = runner.invoke(main, ["algebra", "info", "-f", str(path)])
    _refused_as_input(result)
    assert "theta" in result.stderr


@pytest.mark.parametrize("degree", ["0", "-3"])
def test_gram_degree_below_one_is_input_error(runner, z_regular, degree):
    result = runner.invoke(
        main, ["gram", "-a", "sl2", "-e", z_regular, "--degree", degree])
    assert result.exit_code == 2
    assert "--degree" in result.output
    assert isinstance(result.exception, SystemExit)


def test_gram_degree_past_the_limit_names_the_ways_out(runner, z_regular):
    result = runner.invoke(
        main, ["gram", "-a", "sl2", "-e", z_regular, "--degree", "20000"])
    _refused_as_input(result)
    for part in ("d(20000)", "1500", "degree cap", "reduced mode"):
        assert part in result.stderr


@pytest.mark.parametrize("error", [ValueError("a bug"), SoundnessError("a bug")])
def test_library_bugs_are_not_input_errors(runner, z_regular, monkeypatch,
                                           error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "gram_matrix", broken)
    result = runner.invoke(main, ["gram", "-a", "sl2", "-e", z_regular])
    assert result.exit_code == 1
    assert result.exception is error


# Hard inputs: malformed documents fed through stdin, in process.
_SL2 = catalog_build("split-sl", 2)
_VALID = {
    "algebra": kio.dump_algebra(*_SL2),
    "element": kio.dump_element(vec(3, e0=1, e1=1, e2=-1)),
    "datum": kio.dump_datum(catalog_datum(*_SL2)),
}
_COMMANDS = {
    "algebra": ["algebra", "info", "-f", "-"],
    "element": ["subalg", "-a", "sl2", "-e", "-"],
    "datum": ["regular", "construct", "-a", "sl2", "--datum", "-"],
}
_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10 ** 6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
_quad_parts = st.one_of(
    st.integers(-3, 3), st.booleans(), _junk,
    st.sampled_from(["7", "-2", "+0", "1_0", " 1", "\u0663", "x", "9" * 5000]))
_quads = st.one_of(st.lists(_quad_parts, min_size=4, max_size=4),
                   st.lists(st.integers(-3, 3), max_size=6))
_bad_values = st.one_of(
    _junk, _quads, st.lists(_quads, max_size=4),
    st.integers(-2, 4), st.just(10 ** 6))


def _paths(doc, prefix=()):
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@st.composite
def _malformed(draw, kind):
    """A valid sl(2) document with one value replaced or one key dropped,
    a document of junk, or bytes that may not decode at all."""
    how = draw(st.sampled_from(("mutate", "mutate", "mutate", "junk", "bytes")))
    if how == "bytes":
        return draw(st.binary(max_size=24))
    if how == "junk":
        return json.dumps(draw(_junk))
    doc = copy.deepcopy(_VALID[kind])
    # top-level keys (dim, theta, roots, ...) as often as any deeper path
    path = draw(st.sampled_from(list(_paths(doc)))
                | st.sampled_from([(key,) for key in doc]))
    if not path:
        return json.dumps(draw(_bad_values))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(_bad_values)
    return json.dumps(doc)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(_COMMANDS)).flatmap(
    lambda kind: st.tuples(st.just(kind), _malformed(kind))))
def test_malformed_documents_never_escape_the_cli(case):
    kind, document = case
    result = CliRunner().invoke(main, _COMMANDS[kind], input=document)
    assert result.exit_code in (0, 1, 2)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


PACKAGE_DIR = Path(kregular.__file__).resolve().parent


def test_package_has_no_assert_statements():
    """Soundness checks raise SoundnessError; python -O strips asserts."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


ENVIRONMENT_READERS = {"environ", "environb", "getenv"}


def test_package_reads_no_environment_variables():
    """A certificate depends on its inputs alone."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [n.lineno for n in ast.walk(tree)
                 if (isinstance(n, ast.Attribute) and n.attr in ENVIRONMENT_READERS
                     and isinstance(n.value, ast.Name) and n.value.id == "os")
                 or (isinstance(n, ast.ImportFrom) and n.module == "os"
                     and {a.name for a in n.names} & ENVIRONMENT_READERS)]
        assert not lines, f"{path.name}: environment read at lines {lines}"


def _unread_imports(tree):
    """(name, line) of each name a module imports and never reads; skips
    `from __future__` and imports under `if TYPE_CHECKING:`."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            skipped.update(id(n) for n in ast.walk(node))
    imported = {}
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or id(node) in skipped
                or getattr(node, "module", None) == "__future__"):
            continue
        for alias in node.names:
            imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((name, line) for name, line in imported.items()
                  if name not in read)


def test_package_modules_read_every_name_they_import():
    """__init__.py is exempt: its imports are re-exports."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(), str(path))
            assert not _unread_imports(tree), path.name


def test_only_verify_suite_seeds_a_random_generator():
    """Only the suites' samples are random, no oracle is: a random.Random
    (or any other random.* call) is made only inside verify.verify_suite,
    from the suite's own seed."""
    calls = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        allowed = {id(n) for d in tree.body
                   if path.name == "verify.py"
                   and isinstance(d, ast.FunctionDef) and d.name == "verify_suite"
                   for n in ast.walk(d)}
        calls += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                  if isinstance(n, ast.Call) and id(n) not in allowed
                  and (ast.unparse(n.func).startswith("random.")
                       or ast.unparse(n.func).endswith("Random"))]
    assert not calls


def test_only_algebra_reads_the_scalar_killing_matrix():
    """Every Killing pairing outside algebra.py reads the form as the
    algebra clears it once, LieAlgebra.gaussian_killing()."""
    reads = [f"{path.name}:{n.lineno}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             if path.name != "algebra.py"
             for n in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(n, ast.Attribute) and n.attr == "killing"]
    assert not reads


def _system_trees():
    """Parsed modules of the package, the benchmark and the demos: the
    code whose reads make a public name part of the system."""
    repo = PACKAGE_DIR.parent.parent
    paths = [*PACKAGE_DIR.glob("*.py"), *(repo / "bench").glob("*.py"),
             *(repo / "demos").glob("*.py")]
    return {p: ast.parse(p.read_text(), str(p)) for p in paths}


def _traced_names(trees):
    """module.qualified_name strings of bench/spans.py's TRACED: the
    tracer looks each one up by name, which is a read."""
    spans = PACKAGE_DIR.parent.parent / "bench" / "spans.py"
    for node in trees[spans].body:
        if (isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["TRACED"]):
            return set(ast.literal_eval(node.value))
    return set()


def _registered_by_decorator(d):
    """A click command or group: its decorator registers it with the CLI."""
    return any(isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute)
               and dec.func.attr in ("command", "group")
               for dec in d.decorator_list)


def _unreferenced_public_names(trees):
    """module.qualified_name of the public functions, classes and methods
    defined in the package that no tree reads outside the name's own
    definition: a function or class as a name or an attribute, a method
    as an attribute only, so a local variable of the same name does not
    count.  A name that TRACED lists or a click decorator registers is
    read; the methods of a private class, such as the click hook
    cli._InputBoundary.invoke, are not public."""
    names, attrs = {}, {}
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                names.setdefault(n.id, []).append(id(n))
            elif isinstance(n, ast.Attribute):
                attrs.setdefault(n.attr, []).append(id(n))
    traced = _traced_names(trees)
    unread = set()
    for module in sorted(PACKAGE_DIR.glob("*.py")):
        body = trees[module].body
        defs = [(f"{module.stem}.", n) for n in body]
        defs += [(f"{module.stem}.{c.name}.", n) for c in body
                 if isinstance(c, ast.ClassDef) and not c.name.startswith("_")
                 for n in c.body]
        for prefix, d in defs:
            if (not isinstance(d, (ast.FunctionDef, ast.ClassDef))
                    or d.name.startswith("_")
                    or prefix + d.name in traced
                    or _registered_by_decorator(d)):
                continue
            is_method = prefix.count(".") > 1
            reads = attrs.get(d.name, []) + (
                [] if is_method else names.get(d.name, []))
            inside = {id(n) for n in ast.walk(d)}
            if all(r in inside for r in reads):
                unread.add(prefix + d.name)
    return unread


# Public names that stay although nothing in the system reads them, each
# with its reason
UNREAD_EXEMPT = {
    # the one writer of the --datum wire format that io.load_datum reads;
    # `regular construct --datum` documents are built with it
    "io.dump_datum",
}


def test_kernel_modules_define_no_unused_public_function():
    """Every public function, class or method of every package module is
    read somewhere in the package, the benchmark or the demos."""
    unread = _unreferenced_public_names(_system_trees())
    assert not unread - UNREAD_EXEMPT


def test_package_exports_only_names_the_system_reads():
    """Every __all__ entry but __version__ is read outside __init__.py
    in the package, the benchmark or the demos, or traced by name."""
    trees = _system_trees()
    init = trees[PACKAGE_DIR / "__init__.py"]
    exported_from = {alias.name: node.module for node in init.body
                     if isinstance(node, ast.ImportFrom)
                     for alias in node.names}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for path, tree in trees.items() if path.name != "__init__.py"
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}
    traced = _traced_names(trees)
    unread = [name for name in kregular.__all__
              if name != "__version__" and name not in read
              and f"{exported_from[name]}.{name}" not in traced]
    assert not unread


def test_unread_import_scan_flags_only_unread_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path, json as j\n"
        "from typing import TYPE_CHECKING, Optional, Sequence\n"
        "if TYPE_CHECKING:\n"
        "    from x import Y\n"
        "def f(a: Sequence) -> None:\n"
        "    os.path.join(a)\n"
        "    if TYPE_CHECKING:\n"
        "        pass\n")
    assert _unread_imports(tree) == [("Optional", 3), ("j", 2)]


def _cli_subprocess(*args):
    """Run python args in a subprocess that imports this package."""
    env = dict(os.environ)
    paths = [str(PACKAGE_DIR.parent), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=300)


def test_verify_all_passes_under_optimize():
    proc = _cli_subprocess("-O", "-m", "kregular.cli", "verify", "-a", "sl2",
                           "--suite", "all", "--samples", "5")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["failures"] == 0
    assert all(r["checks_run"] > 0 for r in doc["records"])


def test_stabilization_suite_gives_the_same_body_under_optimize():
    # the F_p constants are checked by a raise, which -O keeps
    bodies = []
    for flags in ((), ("-O",)):
        proc = _cli_subprocess(*flags, "-m", "kregular.cli", "verify", "-a",
                               "sl3", "--suite", "stabilization")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        del doc["wall_time_s"]
        bodies.append(doc)
    assert bodies[0] == bodies[1]
    assert bodies[0]["records"][0]["checks_run"] == 100
