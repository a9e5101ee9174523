"""Command line front end.

Every command reads algebra documents (files, bundled names, or stdin),
prints a deterministic report on stdout, and signals through the exit
code: 0 for success, 1 when the mathematics says no (invalid tables,
failed statements), 2 for an internal consistency bug, 64 for unusable
input or arguments.  Timing goes to stderr so stdout stays byte for
byte reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from collections.abc import Iterator

from .algebra import InvalidAlgebraError, ResiduatedLattice
from .alpha import (alpha_closure, alpha_family, is_alpha_filter,
                    prime_alpha_filters, transfer_roundtrip_check)
from .classify import (VERDICTS, classification, congruence_classes_named,
                       element_kernel_by_coannulet, element_lattice,
                       filter_kernel_spectral, filter_lattice, structure_maps)
from .coann import (all_ideals, coannihilator_family, coannihilator_lattice,
                    coannulet, coannulet_family, omega_family)
from .errors import InternalCheckError, PreconditionError
from .filters import all_filters, principal_generator
from .io import (BUNDLED, NamedAlgebra, ParseError, bundled_names,
                 check_stream, iter_stream, load_bundled, render_algebra,
                 render_stream)
from .report import ReportBuilder
from .search import MAX_CARRIER, ZERO_STATS, mine
from .spectrum import (hull_topology, is_compact, is_totally_disconnected,
                       is_zero_dimensional, maximal_filters, minimal_primes,
                       prime_core, prime_filters, topologies_equal)
from .subsets import elements
from .suite import (registry_entries, registry_groups, registry_idents,
                    verify_suite)
from .views import is_boolean

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INTERNAL = 2
EXIT_USAGE = 64


class _DomainError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise PreconditionError(message)


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}" if n == 1 else f"{n} {noun}s"


def _names(alg: ResiduatedLattice, mask: int) -> list[str]:
    return [alg.names[i] for i in elements(mask)]


# -- input handling --------------------------------------------------------

def _read_source(token: str) -> tuple[str, str]:
    """Return (stem for fallback labels, document text)."""
    if token == "-":
        return "stdin", sys.stdin.read()
    if os.path.exists(token):
        base = os.path.basename(token)
        stem = base.rsplit(".", 1)[0] if "." in base else base
        try:
            with open(token, encoding="utf-8") as fh:
                return stem, fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise PreconditionError(f"cannot read {token!r}: {exc}") from exc
    if token in BUNDLED:
        doc = load_bundled(token)
        return token, render_algebra(doc.algebra, doc.label)
    raise PreconditionError(
        f"no such file or bundled algebra: {token!r} "
        f"(bundled names: {', '.join(bundled_names())})")


def _label_docs(stem, docs):
    """(label, document) per document: its own label, else the source's
    stem, numbered when the source holds more than one document."""
    docs = iter(docs)
    ahead = next(docs, None)
    i = 0
    while ahead is not None:
        doc, ahead = ahead, next(docs, None)
        i += 1
        label = doc.label
        if label is None:
            label = stem if i == 1 and ahead is None else f"{stem}#{i}"
        yield label, doc


def _load_algebras(tokens) -> Iterator[tuple[str, ResiduatedLattice]]:
    """Every document of every source, each parsed when reached."""
    for token in tokens:
        stem, text = _read_source(token)
        try:
            for label, doc in _label_docs(stem, iter_stream(text)):
                yield label, doc.algebra
        except InvalidAlgebraError as exc:
            raise _DomainError(f"{token}: {exc}") from exc


# -- commands --------------------------------------------------------------

def _cmd_validate(args) -> int:
    rep = ReportBuilder("validate")
    items = []
    bad = 0
    for token in args.inputs:
        stem, text = _read_source(token)
        for label, ck in _label_docs(stem, check_stream(text)):
            item = {"label": label, "valid": ck.valid}
            if ck.valid:
                rep.line(f"{label}: valid ({ck.algebra.n} elements)")
                item["elements"] = ck.algebra.n
            else:
                bad += 1
                laws = sorted({v.law for v in ck.violations})
                rep.line(f"{label}: INVALID ({', '.join(laws)})")
                for v in ck.violations:
                    rep.line(f"  {v.law}: {v.detail}")
                item["violations"] = [
                    {"law": v.law, "witness": list(v.witness),
                     "detail": v.detail}
                    for v in ck.violations]
            items.append(item)
    rep.set("documents", items)
    rep.set("invalid", bad)
    sys.stdout.write(rep.emit(args.format))
    return EXIT_DOMAIN if bad else EXIT_OK


def _covers_text(alg: ResiduatedLattice) -> str:
    by_lower: dict[int, list[str]] = {}
    for x, y in alg.covers():
        by_lower.setdefault(x, []).append(alg.names[y])
    return "; ".join(f"{alg.names[x]} < {', '.join(ups)}"
                     for x, ups in sorted(by_lower.items()))


def _per_doc(command, args, build) -> int:
    """Shared frame: one text block and one data record per document.

    Documents are parsed one at a time, and each algebra, with all that
    was derived from it, is freed before the next one is analysed.
    """
    rep = ReportBuilder(command)
    items = []
    worst = EXIT_OK
    for i, (label, alg) in enumerate(_load_algebras(args.inputs)):
        if i:
            rep.line()
        item = {"label": label}
        worst = max(worst, build(args, rep, item, label, alg) or EXIT_OK)
        items.append(item)
    rep.set("algebras", items)
    sys.stdout.write(rep.emit(args.format))
    return worst


def _build_info(args, rep, item, label, alg):
    verdicts = {name: verdict(alg) for name, verdict in VERDICTS.items()}
    rep.line(f"{label}: {alg.n} elements, bottom {alg.names[alg.bottom]}, "
             f"top {alg.names[alg.top]}")
    if alg.n > 1:
        rep.line(f"  order: {_covers_text(alg)}")
    rep.line(f"  dense elements: {alg.subset_str(alg.dense_elements)}")
    rep.line(f"  nilpotents: {alg.subset_str(alg.nilpotents)}")
    rep.line(f"  boolean center: {alg.subset_str(alg.boolean_center)}")
    counts = {
        "filters": len(all_filters(alg)),
        "prime filters": len(prime_filters(alg)),
        "minimal primes": len(minimal_primes(alg)),
        "maximal filters": len(maximal_filters(alg)),
        "coannulets": len(coannulet_family(alg)),
        "coannihilators": len(coannihilator_family(alg)),
        "lattice ideals": len(all_ideals(alg)),
        "alpha filters": len(alpha_family(alg)),
    }
    rep.line("  " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    rep.line(f"  quasicomplemented {_yes(verdicts['quasicomplemented'])}, "
             f"disjunctive {_yes(verdicts['disjunctive'])}, "
             f"weakly disjunctive {_yes(verdicts['weakly_disjunctive'])}")
    rep.line(f"  element lattice Boolean {_yes(verdicts['lattice_boolean'])}, "
             f"filter lattice Boolean {_yes(verdicts['filter_lattice_boolean'])}")
    item.update({
        "elements": list(alg.names),
        "bottom": alg.names[alg.bottom],
        "top": alg.names[alg.top],
        "covers": [[alg.names[x], alg.names[y]] for x, y in alg.covers()],
        "dense": _names(alg, alg.dense_elements),
        "nilpotents": _names(alg, alg.nilpotents),
        "boolean_center": _names(alg, alg.boolean_center),
        "counts": {k.replace(" ", "_"): v for k, v in counts.items()},
        **verdicts,
    })


def _build_filters(args, rep, item, label, alg):
    fam = all_filters(alg)
    primes = prime_filters(alg)
    maxima = maximal_filters(alg)
    minima = minimal_primes(alg)
    alphas = alpha_family(alg)
    rep.line(f"{label}: {_count(len(fam), 'filter')}")
    rows = []
    for f in fam:
        gen = alg.names[principal_generator(alg, f)]
        flags = []
        if f in primes:
            flags.append("prime")
        if f in minima:
            flags.append("minimal")
        if f in maxima:
            flags.append("maximal")
        if f in alphas:
            flags.append("alpha")
        tail = f"; {' '.join(flags)}" if flags else ""
        rep.line(f"  {alg.subset_str(f)}: generator {gen}{tail}")
        rows.append({
            "members": _names(alg, f),
            "generator": gen,
            "prime": f in primes,
            "minimal_prime": f in minima,
            "maximal": f in maxima,
            "alpha": f in alphas,
        })
    item["filters"] = rows


def _point_set(mask: int, count: int) -> str:
    inside = ", ".join(f"P{i}" for i in range(count) if mask >> i & 1)
    return "{" + inside + "}"


def _build_spectrum(args, rep, item, label, alg):
    primes = prime_filters(alg)
    minima = minimal_primes(alg)
    maxima = maximal_filters(alg)
    rep.line(f"{label}: {_count(len(primes), 'prime filter')}")
    rows = []
    for p in primes:
        flags = "".join(
            [" minimal" if p in minima else "",
             " maximal" if p in maxima else ""])
        core = prime_core(alg, p)
        rep.line(f"  {alg.subset_str(p)}: prime{flags}, core {alg.subset_str(core)}")
        rows.append({
            "members": _names(alg, p),
            "minimal": p in minima,
            "maximal": p in maxima,
            "core": _names(alg, core),
        })
    topo = hull_topology(alg)
    k = len(topo.points)
    legend = ", ".join(f"P{i} = {alg.subset_str(p)}"
                       for i, p in enumerate(topo.points))
    rep.line(f"  points: {legend}" if k else "  points: none")
    rep.line("  opens: " + "; ".join(_point_set(u, k) for u in topo.opens))
    verdicts = {
        "compact": is_compact(topo),
        "zero_dimensional": is_zero_dimensional(topo),
        "totally_disconnected": is_totally_disconnected(topo),
        "dual_topology_agrees": topologies_equal(alg),
    }
    rep.line(f"  compact {_yes(verdicts['compact'])}, "
             f"zero dimensional {_yes(verdicts['zero_dimensional'])}, "
             f"totally disconnected {_yes(verdicts['totally_disconnected'])}, "
             f"dual topology agrees {_yes(verdicts['dual_topology_agrees'])}")
    item.update({
        "primes": rows,
        "points": [_names(alg, p) for p in topo.points],
        "opens": [[f"P{i}" for i in range(k) if u >> i & 1]
                  for u in topo.opens],
    })
    item.update(verdicts)


def _build_coann(args, rep, item, label, alg):
    rep.line(f"{label}:")
    rep.line("  coannulets:")
    per_element = {}
    for x in range(alg.n):
        cx = coannulet(alg, x)
        rep.line(f"    {alg.names[x]} -> {alg.subset_str(cx)}")
        per_element[alg.names[x]] = _names(alg, cx)
    co_fam = coannihilator_family(alg)
    cu_fam = coannulet_family(alg)
    om_fam = omega_family(alg)
    coincide = tuple(co_fam) == tuple(cu_fam)
    omega_match = tuple(om_fam) == tuple(cu_fam)
    boolean = is_boolean(coannihilator_lattice(alg))
    rep.line(f"  coannihilator family ({len(co_fam)}): "
             + "; ".join(alg.subset_str(f) for f in co_fam))
    rep.line(f"  coannulets give every coannihilator: {_yes(coincide)}")
    rep.line(f"  coannihilator lattice Boolean: {_yes(boolean)}")
    rep.line(f"  ideal sweep filters ({len(om_fam)}) match coannulets: "
             + _yes(omega_match))
    rep.line(f"  lattice ideals: {len(all_ideals(alg))}")
    rep.line(f"  dense elements: {alg.subset_str(alg.dense_elements)}")
    item.update({
        "coannulets": per_element,
        "coannihilators": [_names(alg, f) for f in co_fam],
        "coannulets_cover_family": coincide,
        "coannihilator_lattice_boolean": boolean,
        "ideal_sweep_matches_coannulets": omega_match,
        "lattice_ideals": len(all_ideals(alg)),
        "dense": _names(alg, alg.dense_elements),
    })


def _build_alpha(args, rep, item, label, alg):
    fam = alpha_family(alg)
    rep.line(f"{label}: {_count(len(fam), 'alpha filter')}")
    rep.line("  family: " + "; ".join(alg.subset_str(f) for f in fam))
    closures = []
    for f in all_filters(alg):
        if not is_alpha_filter(alg, f):
            closures.append((f, alpha_closure(alg, f)))
    if closures:
        rep.line("  closures of the non alpha filters:")
        for f, c in closures:
            rep.line(f"    {alg.subset_str(f)} -> {alg.subset_str(c)}")
    else:
        rep.line("  every filter is already alpha closed")
    pa = prime_alpha_filters(alg)
    match_minimal = tuple(pa) == tuple(minimal_primes(alg))
    transfer = transfer_roundtrip_check(alg)
    rep.line(f"  prime alpha filters ({len(pa)}): "
             + ("; ".join(alg.subset_str(p) for p in pa) if len(pa) else "none"))
    rep.line(f"  prime alpha filters are the minimal primes: {_yes(match_minimal)}")
    rep.line(f"  transfer to coannulet lattice filters round trips: {_yes(transfer)}")
    item.update({
        "family": [_names(alg, f) for f in fam],
        "closures": [{"filter": _names(alg, f), "closure": _names(alg, c)}
                     for f, c in closures],
        "prime_alpha": [_names(alg, p) for p in pa],
        "prime_alpha_are_minimal_primes": match_minimal,
        "transfer_round_trips": transfer,
    })


def _build_classify(args, rep, item, label, alg):
    cl = classification(alg)
    verdicts = (
        ("quasicomplemented", cl.quasicomplemented),
        ("disjunctive", cl.disjunctive),
        ("weakly disjunctive", cl.weakly_disjunctive),
        ("lattice Boolean", cl.lattice_boolean),
        ("filter lattice Boolean", cl.filter_lattice_boolean),
    )
    rep.line(f"{label}:")
    for name, verdict in verdicts:
        rep.line(f"  {name}: {_yes(verdict)}")
        for desc, ok in cl.routes[name]:
            rep.line(f"    - {desc}: {_yes(ok)}")
    maps = structure_maps(alg)
    rep.line("  structure maps:")
    map_rows = []
    for name, m in maps.items():
        rep.line(f"    {name}: {m.kind}, injective {_yes(m.injective)}, "
                 f"surjective {_yes(m.surjective)}")
        map_rows.append({"name": name, "kind": m.kind,
                         "injective": m.injective, "surjective": m.surjective})
    named = congruence_classes_named(
        alg, element_kernel_by_coannulet(alg), element_lattice(alg))
    rep.line("  element classes sharing a coannulet: "
             + " | ".join("{" + ", ".join(c) + "}" for c in named))
    spectral = congruence_classes_named(
        alg, filter_kernel_spectral(alg), filter_lattice(alg))
    rep.line("  filter classes sharing a cohull: "
             + " | ".join("{" + ", ".join(c) + "}" for c in spectral))
    item.update({
        "quasicomplemented": cl.quasicomplemented,
        "disjunctive": cl.disjunctive,
        "weakly_disjunctive": cl.weakly_disjunctive,
        "lattice_boolean": cl.lattice_boolean,
        "filter_lattice_boolean": cl.filter_lattice_boolean,
        "routes": {name: [[desc, ok] for desc, ok in routes]
                   for name, routes in cl.routes.items()},
        "maps": map_rows,
        "element_classes_by_coannulet": [list(c) for c in named],
        "filter_classes_by_cohull": [list(c) for c in spectral],
    })


def _selection(known, what):
    """An argparse type: a comma separated list of names from known."""
    def convert(value):
        parts = tuple(p.strip() for p in value.split(",") if p.strip())
        if not parts:
            raise argparse.ArgumentTypeError("empty selection list")
        unknown = set(parts) - set(known)
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown statement {what}: " + ", ".join(sorted(unknown)))
        return parts
    return convert


def _build_verify(args, rep, item, label, alg):
    group_of = {ident: group for ident, _, group in registry_entries()}
    reports = verify_suite(alg, idents=args.only, groups=args.group)
    failed = 0
    rep.line(f"{label}: {_count(len(reports), 'statement')}")
    rows = []
    for r in reports:
        mark = "pass" if r.passed else "FAIL"
        line = f"  {mark} [{group_of[r.ident]}] {r.ident}"
        if not r.passed:
            failed += 1
            line += f" ({r.witness})"
        rep.line(line)
        # Only the JSON rendering reads the rows; text skips building them.
        if args.format == "json":
            rows.append({
                "ident": r.ident,
                "group": group_of[r.ident],
                "statement": r.statement,
                "passed": r.passed,
                "witness": r.witness,
                "sides": [[desc, ok] for desc, ok in r.sides],
            })
    rep.line(f"{label}: {len(reports) - failed} passed, {failed} failed")
    item.update({"results": rows,
                 "passed": len(reports) - failed,
                 "failed": failed})
    return EXIT_DOMAIN if failed else EXIT_OK


def _cmd_search(args) -> int:
    if not 1 <= args.max_size <= MAX_CARRIER:
        raise PreconditionError(f"max size must be between 1 and {MAX_CARRIER}")

    rep = ReportBuilder("search")
    # The summary lines are comments, so that the --render output parses as
    # a document stream.
    rep.line(f"# search through carriers of at most {args.max_size} elements")
    rep.line(f"# predicate: {args.predicate}")
    per_size = []
    # The matching algebras are kept only for --render.
    matches = []
    matching = 0
    lattices = 0
    stats = ZERO_STATS
    for n in range(1, args.max_size + 1):
        res = mine(args.predicate, n, n_min=n)
        per_size.append({
            "size": n,
            "lattices": res.lattices,
            "algebras": res.stats.emitted,
            "matching": len(res.matches),
        })
        rep.line(f"#   size {n}: {_count(res.lattices, 'lattice')}, "
                 f"{_count(res.stats.emitted, 'algebra')}, "
                 f"{len(res.matches)} matching")
        if args.render:
            matches.extend(res.matches)
        matching += len(res.matches)
        lattices += res.lattices
        stats = stats + res.stats
    rep.line(f"# total: {_count(lattices, 'lattice')}, "
             f"{_count(stats.emitted, 'algebra')}, {matching} matching")
    rep.line(f"# tables examined {stats.examined}, branches pruned "
             f"{stats.pruned}, duplicates dropped {stats.iso_rejected}")
    rep.set("max_size", args.max_size)
    rep.set("predicate", args.predicate)
    rep.set("per_size", per_size)
    rep.set("totals", {"lattices": lattices, "algebras": stats.emitted,
                       "matching": matching})
    rep.set("stats", {"examined": stats.examined, "pruned": stats.pruned,
                      "found": stats.found, "emitted": stats.emitted,
                      "iso_rejected": stats.iso_rejected})
    if args.render and matches:
        docs = [NamedAlgebra(f"match-{i}", alg)
                for i, alg in enumerate(matches, start=1)]
        rendered = render_stream(docs)
        rep.line()
        rep.lines(rendered.rstrip("\n").split("\n"))
        rep.set("documents", [
            {"label": d.label, "size": d.algebra.n} for d in docs])
        rep.set("rendered", rendered)
    sys.stdout.write(rep.emit(args.format))
    return EXIT_OK


# -- argument wiring -------------------------------------------------------

def _make_parser() -> _Parser:
    parser = _Parser(prog="reslat",
                     description="finite residuated lattice toolkit")
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="report rendering (default text)")
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add(name, help_text, run, inputs=True):
        p = sub.add_parser(name, parents=[common], help=help_text)
        if inputs:
            p.add_argument("inputs", nargs="+", metavar="INPUT",
                           help="file path, bundled name "
                                f"({', '.join(BUNDLED)}), or - for stdin")
        p.set_defaults(run=run)
        return p

    add("validate", "check documents against every law", _cmd_validate)
    add("info", "one screen overview per algebra",
        lambda a: _per_doc("info", a, _build_info))
    add("filters", "list every filter with its roles",
        lambda a: _per_doc("filters", a, _build_filters))
    add("spectrum", "prime filters and the minimal prime space",
        lambda a: _per_doc("spectrum", a, _build_spectrum))
    add("coann", "coannulets, coannihilators, and dense elements",
        lambda a: _per_doc("coann", a, _build_coann))
    add("alpha", "alpha filters, closures, and the transfer",
        lambda a: _per_doc("alpha", a, _build_alpha))
    add("classify", "verdicts, routes, maps, and kernel classes",
        lambda a: _per_doc("classify", a, _build_classify))
    verify = add("verify", "run the statement suite",
                 lambda a: _per_doc("verify", a, _build_verify))
    verify.add_argument("--only", metavar="IDS",
                        type=_selection(registry_idents(), "ids"),
                        help="comma separated statement ids")
    verify.add_argument("--group", metavar="GROUPS",
                        type=_selection(registry_groups(), "groups"),
                        help="comma separated groups "
                             f"({', '.join(registry_groups())})")
    search = add("search", "enumerate small algebras matching a predicate",
                 _cmd_search, inputs=False)
    search.add_argument("--max-size", type=int, required=True,
                        metavar="N", help=f"largest carrier (1..{MAX_CARRIER})")
    search.add_argument("--predicate", default="true", metavar="EXPR",
                        help="boolean expression over the class names "
                             "(default: true)")
    search.add_argument("--render", action="store_true",
                        help="append the matching algebras as documents")
    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        args = _make_parser().parse_args(argv)
        return args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except PreconditionError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        print(f"elapsed {time.monotonic() - started:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
