"""Command-line surface.

Every number printed is an exact fraction string; nothing is ever shown
as a decimal.  Exit codes: 0 all pass, 1 property/certificate failure,
2 input or validation error.
"""

from __future__ import annotations

import json
import sys

import click

from . import io as kio
from .algebra import decompose, validate
from .catalog import catalog_build, parse_algebra_name
from .certify import (
    degree_bounds,
    generated_subalgebra,
    gram_matrix,
    is_k_regular,
    nilcone_test,
    separation_probe,
)
from .errors import InputError
from .roots import catalog_datum, construct_regular
from .verify import SUITES, verify_suite
from .words import LyndonWord, WordEvaluator, is_lyndon, lyndon_basis

EXIT_FAILURE = 1
EXIT_INPUT = 2

# lyndon_basis(d) holds about 2^d / d words of degree d: 8,800 in all at 16
MAX_WORD_DEGREE = 16


class _InputBoundary(click.Group):
    """The one place where an InputError or OSError raised by any command
    becomes `error: <message>` on stderr and exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (InputError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_INPUT)


def _resolve_algebra(name, file):
    if file is not None:
        return kio.load_algebra(kio.read_json(file))
    if name is None:
        raise InputError("specify --algebra NAME or --file PATH")
    return catalog_build(*parse_algebra_name(name))


def _load_element(path, dim):
    return kio.load_element(kio.read_json(path), dim)


def _emit(doc):
    click.echo(json.dumps(doc, indent=2))


algebra_opt = click.option("--algebra", "-a", default=None,
                           help="catalog name, e.g. sl2 or split-sl:3")
file_opt = click.option("--file", "-f", default=None, type=click.Path(),
                        help="algebra JSON file")


def degree_opt(note=""):
    return click.option("--degree", "-d", default=6, show_default=True,
                        type=click.IntRange(1, MAX_WORD_DEGREE),
                        help="largest Lyndon-word degree" + note)


@click.group(cls=_InputBoundary)
def main():
    """Exact certificates for K-regularity and the K-unstable cone."""


@main.group()
def algebra():
    """Inspect and validate algebras."""


@algebra.command("info")
@algebra_opt
@file_opt
def algebra_info(algebra, file):
    alg, cd = _resolve_algebra(algebra, file)
    _emit({
        "name": alg.name,
        "dim": alg.dim,
        "dim_k": cd.dim_k,
        "dim_p": cd.dim_p,
        "basis_labels": list(alg.basis_labels),
    })


@algebra.command("validate")
@algebra_opt
@file_opt
def algebra_validate(algebra, file):
    if file is not None:
        alg, cd = kio.build_algebra(kio.read_json(file))
    else:
        alg, cd = _resolve_algebra(algebra, None)
    report = validate(alg, cd)
    bad = report.first_failure
    if bad is None:
        _emit(report.to_dict())
    else:
        # a failed check is this command's report, printed on stdout
        _emit({"ok": False, "failed_check": bad.name, "detail": bad.detail})
        sys.exit(EXIT_INPUT)


@algebra.command("dump")
@algebra_opt
def algebra_dump(algebra):
    """Serialize a catalog algebra to the JSON schema."""
    alg, cd = _resolve_algebra(algebra, None)
    _emit(kio.dump_algebra(alg, cd))


@main.command()
@degree_opt()
def hall(degree):
    """List the Lyndon-word basis by degree, with bracketings."""
    groups = lyndon_basis(degree)
    _emit({
        "degrees": [
            {
                "degree": j + 1,
                "count": len(group),
                "words": [
                    {"word": str(w), "bracketing": w.bracket_string()}
                    for w in group
                ],
            }
            for j, group in enumerate(groups)
        ],
        "total": sum(len(g) for g in groups),
    })


@main.command("eval")
@algebra_opt
@file_opt
@click.option("--word", "-w", required=True, help="Lyndon word, e.g. XXY")
@click.option("--element", "-e", "element_path", required=True,
              type=click.Path(), help="element JSON file")
def eval_word(algebra, file, word, element_path):
    """Evaluate a word's bracketing at the k-/p-parts of an element."""
    alg, cd = _resolve_algebra(algebra, file)
    if not is_lyndon(tuple(word)) or any(c not in "XY" for c in word):
        raise InputError(f"{word!r} is not a Lyndon word over X, Y")
    z = _load_element(element_path, alg.dim)
    ez = decompose(cd, z)
    result = WordEvaluator(alg, ez.x, ez.y).value(LyndonWord.parse(word))
    _emit({
        "word": word,
        "value": [str(c) for c in result],
        "value_quads": [c.to_quad() for c in result],
    })


@main.command()
@algebra_opt
@file_opt
@click.option("--element", "-e", "element_path", required=True, type=click.Path())
def subalg(algebra, file, element_path):
    """Report the subalgebra generated by the k- and p-parts."""
    alg, cd = _resolve_algebra(algebra, file)
    z = _load_element(element_path, alg.dim)
    rep = generated_subalgebra(alg, cd, z)
    doc = rep.to_dict()
    doc["basis"] = [[str(c) for c in v] for v in rep.basis]
    _emit(doc)


@main.command()
@algebra_opt
@file_opt
@click.option("--element", "-e", "element_path", required=True, type=click.Path())
@click.option("--reduced", is_flag=True, help="pair only filtration vectors")
@click.option("--degree", "-d", default=None, type=click.IntRange(min=1),
              help="degree cap (default: dim g)")
@click.option("--full-matrix", is_flag=True, help="dump all Gram entries")
def gram(algebra, file, element_path, reduced, degree, full_matrix):
    """Exact Gram matrix of word evaluations under the Killing form."""
    alg, cd = _resolve_algebra(algebra, file)
    z = _load_element(element_path, alg.dim)
    cert = gram_matrix(alg, cd, z, degree_cap=degree,
                       mode="reduced" if reduced else "full")
    _emit(cert.to_dict(include_matrix=full_matrix))


@main.group()
def regular():
    """K-regularity certificates."""


@regular.command("test")
@algebra_opt
@file_opt
@click.option("--element", "-e", "element_path", required=True, type=click.Path())
def regular_test(algebra, file, element_path):
    alg, cd = _resolve_algebra(algebra, file)
    z = _load_element(element_path, alg.dim)
    cert = is_k_regular(alg, cd, z)
    _emit(cert.to_dict())
    sys.exit(0 if cert.verdict == "k-regular" else EXIT_FAILURE)


@regular.command("construct")
@algebra_opt
@file_opt
@click.option("--datum", "datum_path", default=None, type=click.Path(),
              help="restricted-root datum JSON (required for non-catalog algebras)")
@click.option("--out", "-o", default=None, type=click.Path(),
              help="write the element JSON here as well")
def regular_construct(algebra, file, datum_path, out):
    alg, cd = _resolve_algebra(algebra, file)
    if datum_path is not None:
        datum = kio.load_datum(kio.read_json(datum_path), alg, cd)
    else:
        datum = catalog_datum(alg, cd)
    ez = construct_regular(alg, cd, datum)
    doc = {
        "element": kio.dump_element(ez.z),
        "element_pretty": [str(c) for c in ez.z],
        "certificate": ez.certificate.to_dict(),
    }
    if out is not None:
        kio.write_json(out, kio.dump_element(ez.z))
    _emit(doc)


@main.group()
def nilcone():
    """Membership in the K-unstable cone."""


@nilcone.command("test")
@algebra_opt
@file_opt
@click.option("--element", "-e", "element_path", required=True, type=click.Path())
def nilcone_test_cmd(algebra, file, element_path):
    alg, cd = _resolve_algebra(algebra, file)
    z = _load_element(element_path, alg.dim)
    cert = nilcone_test(alg, cd, z)
    _emit(cert.to_dict())
    sys.exit(0 if cert.verdict == "nil-k" else EXIT_FAILURE)


@main.command()
@algebra_opt
@file_opt
def bounds(algebra, file):
    """Report dim g, 2 dim g, dim p, and the generation degree bound."""
    alg, cd = _resolve_algebra(algebra, file)
    _emit(degree_bounds(alg, cd).to_dict())


@main.command()
@algebra_opt
@file_opt
@click.option("--element", "-e", "element_path", required=True, type=click.Path())
@click.option("--element2", "-e2", "element2_path", required=True, type=click.Path())
@degree_opt("; degrees above 2 dim g - 1 add nothing, as a word pair "
            "needs deg t + deg t' <= 2 dim g")
def separate(algebra, file, element_path, element2_path, degree):
    """Search for an invariant separating two elements (inconclusive if none)."""
    alg, cd = _resolve_algebra(algebra, file)
    z = _load_element(element_path, alg.dim)
    zp = _load_element(element2_path, alg.dim)
    sep = separation_probe(alg, cd, z, zp, degree_cap=degree)
    if sep is None:
        _emit({"separator": None,
               "note": "no separator found at this cap; inconclusive"})
    else:
        _emit({"separator": sep.to_dict()})


@main.command()
@algebra_opt
@file_opt
@click.option("--suite", "-s", default="all", show_default=True,
              type=click.Choice(SUITES))
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--samples", default=100, show_default=True,
              type=click.IntRange(min=1))
@click.option("--box", default=3, show_default=True,
              type=click.IntRange(min=0), help="sampling box half-width")
@click.option("--csv", "csv_out", is_flag=True, help="emit a CSV summary")
@click.option("--datum", "datum_path", default=None, type=click.Path())
def verify(algebra, file, suite, seed, samples, box, csv_out, datum_path):
    """Run a seeded verification suite; exit 1 on any property failure."""
    alg, cd = _resolve_algebra(algebra, file)
    datum = None
    if datum_path is not None:
        datum = kio.load_datum(kio.read_json(datum_path), alg, cd)
    elif suite in ("appendix", "all") and alg.family != "split-sl":
        raise InputError(f"--suite {suite} needs --datum for a non-catalog algebra")
    report = verify_suite(alg, cd, suite, seed=seed, samples=samples,
                          box=box, datum=datum)
    if csv_out:
        click.echo(report.to_csv(), nl=False)
    else:
        _emit(report.to_dict())
    sys.exit(0 if report.ok else EXIT_FAILURE)


if __name__ == "__main__":
    main()
