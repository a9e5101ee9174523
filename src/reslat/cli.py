"""Command line front end.

Every command reads algebra documents (files, bundled names, or stdin),
writes a deterministic report on stdout, and signals through the exit
code: 0 for success, 1 when the mathematics says no (invalid tables,
failed statements), 2 for an internal consistency bug, 64 for unusable
input or arguments.  Every input is read before the first document is
analysed, so an unusable one writes nothing; then each document's block
is written when it is built, and a document that fails leaves stdout
holding the blocks before it.  Timing goes to stderr so stdout stays
byte for byte reproducible.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import cache
from itertools import starmap
from json.encoder import encode_basestring_ascii

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
from .io import (BUNDLED, NamedAlgebra, ParseError, bundled_text,
                 check_document, render_stream, split_stream)
from .report import ITEM_PAD, Encoded, _dumps, write_report
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

def _read_source(token: str) -> tuple[str, str, str]:
    """Return (token, stem for fallback labels, document text)."""
    if token == "-":
        return token, "stdin", sys.stdin.read()
    if os.path.exists(token):
        base = os.path.basename(token)
        stem = base.rsplit(".", 1)[0] if "." in base else base
        try:
            with open(token, encoding="utf-8") as fh:
                return token, stem, fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise PreconditionError(f"cannot read {token!r}: {exc}") from exc
    if token in BUNDLED:
        return token, token, bundled_text(token)
    raise PreconditionError(
        f"no such file or bundled algebra: {token!r} "
        f"(bundled names: {', '.join(BUNDLED)})")


def _label_docs(sources):
    """(token, label, verdict) per document of the sources read, each
    parsed when reached and not kept.  The label is the document's own,
    or else the source's stem, numbered when the source holds more than
    one document, as the next document's raw lines tell."""
    for token, stem, text in sources:
        docs = split_stream(text)
        ahead = next(docs, None)
        i = 0
        while ahead is not None:
            doc, ahead = ahead, next(docs, None)
            i += 1
            fallback = stem if i == 1 and ahead is None else f"{stem}#{i}"
            # The verdict takes the raw lines' name, which the next round
            # rebinds before it parses: one algebra is alive at a time.
            doc = check_document(*doc)
            yield token, fallback if doc.label is None else doc.label, doc


# -- commands --------------------------------------------------------------

def _cmd_validate(args) -> int:
    sources = [_read_source(token) for token in args.inputs]
    data = {"command": "validate", "invalid": 0}

    def block(token, label, ck):
        item = {"label": label, "valid": ck.valid}
        if ck.valid:
            item["elements"] = ck.algebra.n
            return [f"{label}: valid ({ck.algebra.n} elements)"], item
        data["invalid"] += 1
        laws = sorted({v.law for v in ck.violations})
        item["violations"] = [
            {"law": v.law, "witness": list(v.witness), "detail": v.detail}
            for v in ck.violations]
        return [f"{label}: INVALID ({', '.join(laws)})",
                *(f"  {v.law}: {v.detail}" for v in ck.violations)], item

    write_report(sys.stdout, args.format, data, "documents",
                 starmap(block, _label_docs(sources)), "")
    return EXIT_DOMAIN if data["invalid"] else EXIT_OK


def _covers_text(alg: ResiduatedLattice) -> str:
    by_lower: dict[int, list[str]] = {}
    for x, y in alg.covers():
        by_lower.setdefault(x, []).append(alg.names[y])
    return "; ".join(f"{alg.names[x]} < {', '.join(ups)}"
                     for x, ups in sorted(by_lower.items()))


def _per_doc(command, args, build) -> int:
    """Shared frame: one text block and one data item per document,
    each parsed, analysed and written, and its algebra with all that was
    derived from it freed, before the next one is split off."""
    sources = [_read_source(token) for token in args.inputs]
    codes = {EXIT_OK}

    def block(token, label, ck):
        if not ck.valid:
            raise _DomainError(f"{token}: {InvalidAlgebraError(ck.violations)}")
        lines, item = [], {"label": label}
        codes.add(build(args, lines.append, item, label, ck.algebra) or EXIT_OK)
        return lines, item

    write_report(sys.stdout, args.format, {"command": command}, "algebras",
                 starmap(block, _label_docs(sources)), "\n")
    return max(codes)


def _build_info(args, line, item, label, alg):
    verdicts = {name: verdict(alg) for name, verdict in VERDICTS.items()}
    line(f"{label}: {alg.n} elements, bottom {alg.names[alg.bottom]}, "
         f"top {alg.names[alg.top]}")
    if alg.n > 1:
        line(f"  order: {_covers_text(alg)}")
    line(f"  dense elements: {alg.subset_str(alg.dense_elements)}")
    line(f"  nilpotents: {alg.subset_str(alg.nilpotents)}")
    line(f"  boolean center: {alg.subset_str(alg.boolean_center)}")
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
    line("  " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    line(f"  quasicomplemented {_yes(verdicts['quasicomplemented'])}, "
         f"disjunctive {_yes(verdicts['disjunctive'])}, "
         f"weakly disjunctive {_yes(verdicts['weakly_disjunctive'])}")
    line(f"  element lattice Boolean {_yes(verdicts['lattice_boolean'])}, "
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


def _build_filters(args, line, item, label, alg):
    fam = all_filters(alg)
    primes = prime_filters(alg)
    maxima = maximal_filters(alg)
    minima = minimal_primes(alg)
    alphas = alpha_family(alg)
    line(f"{label}: {_count(len(fam), 'filter')}")
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
        line(f"  {alg.subset_str(f)}: generator {gen}{tail}")
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


def _build_spectrum(args, line, item, label, alg):
    primes = prime_filters(alg)
    minima = minimal_primes(alg)
    maxima = maximal_filters(alg)
    line(f"{label}: {_count(len(primes), 'prime filter')}")
    rows = []
    for p in primes:
        flags = "".join(
            [" minimal" if p in minima else "",
             " maximal" if p in maxima else ""])
        core = prime_core(alg, p)
        line(f"  {alg.subset_str(p)}: prime{flags}, core {alg.subset_str(core)}")
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
    line(f"  points: {legend}" if k else "  points: none")
    line("  opens: " + "; ".join(_point_set(u, k) for u in topo.opens))
    verdicts = {
        "compact": is_compact(topo),
        "zero_dimensional": is_zero_dimensional(topo),
        "totally_disconnected": is_totally_disconnected(topo),
        "dual_topology_agrees": topologies_equal(alg),
    }
    line(f"  compact {_yes(verdicts['compact'])}, "
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


def _build_coann(args, line, item, label, alg):
    line(f"{label}:")
    line("  coannulets:")
    per_element = {}
    for x in range(alg.n):
        cx = coannulet(alg, x)
        line(f"    {alg.names[x]} -> {alg.subset_str(cx)}")
        per_element[alg.names[x]] = _names(alg, cx)
    co_fam = coannihilator_family(alg)
    cu_fam = coannulet_family(alg)
    om_fam = omega_family(alg)
    coincide = tuple(co_fam) == tuple(cu_fam)
    omega_match = tuple(om_fam) == tuple(cu_fam)
    boolean = is_boolean(coannihilator_lattice(alg))
    line(f"  coannihilator family ({len(co_fam)}): "
         + "; ".join(alg.subset_str(f) for f in co_fam))
    line(f"  coannulets give every coannihilator: {_yes(coincide)}")
    line(f"  coannihilator lattice Boolean: {_yes(boolean)}")
    line(f"  ideal sweep filters ({len(om_fam)}) match coannulets: "
         + _yes(omega_match))
    line(f"  lattice ideals: {len(all_ideals(alg))}")
    line(f"  dense elements: {alg.subset_str(alg.dense_elements)}")
    item.update({
        "coannulets": per_element,
        "coannihilators": [_names(alg, f) for f in co_fam],
        "coannulets_cover_family": coincide,
        "coannihilator_lattice_boolean": boolean,
        "ideal_sweep_matches_coannulets": omega_match,
        "lattice_ideals": len(all_ideals(alg)),
        "dense": _names(alg, alg.dense_elements),
    })


def _build_alpha(args, line, item, label, alg):
    fam = alpha_family(alg)
    line(f"{label}: {_count(len(fam), 'alpha filter')}")
    line("  family: " + "; ".join(alg.subset_str(f) for f in fam))
    closures = []
    for f in all_filters(alg):
        if not is_alpha_filter(alg, f):
            closures.append((f, alpha_closure(alg, f)))
    if closures:
        line("  closures of the non alpha filters:")
        for f, c in closures:
            line(f"    {alg.subset_str(f)} -> {alg.subset_str(c)}")
    else:
        line("  every filter is already alpha closed")
    pa = prime_alpha_filters(alg)
    match_minimal = tuple(pa) == tuple(minimal_primes(alg))
    transfer = transfer_roundtrip_check(alg)
    line(f"  prime alpha filters ({len(pa)}): "
         + ("; ".join(alg.subset_str(p) for p in pa) if len(pa) else "none"))
    line(f"  prime alpha filters are the minimal primes: {_yes(match_minimal)}")
    line(f"  transfer to coannulet lattice filters round trips: {_yes(transfer)}")
    item.update({
        "family": [_names(alg, f) for f in fam],
        "closures": [{"filter": _names(alg, f), "closure": _names(alg, c)}
                     for f, c in closures],
        "prime_alpha": [_names(alg, p) for p in pa],
        "prime_alpha_are_minimal_primes": match_minimal,
        "transfer_round_trips": transfer,
    })


def _build_classify(args, line, item, label, alg):
    cl = classification(alg)
    line(f"{label}:")
    # The routes are keyed by each verdict's text name, in VERDICTS order.
    for key, (name, routes) in zip(VERDICTS, cl.routes.items()):
        item[key] = getattr(cl, key)
        line(f"  {name}: {_yes(item[key])}")
        for desc, ok in routes:
            line(f"    - {desc}: {_yes(ok)}")
    maps = structure_maps(alg)
    line("  structure maps:")
    for name, m in maps.items():
        line(f"    {name}: {m.kind}, injective {_yes(m.injective)}, "
             f"surjective {_yes(m.surjective)}")
    named = congruence_classes_named(
        alg, element_kernel_by_coannulet(alg), element_lattice(alg))
    line("  element classes sharing a coannulet: "
         + " | ".join("{" + ", ".join(c) + "}" for c in named))
    spectral = congruence_classes_named(
        alg, filter_kernel_spectral(alg), filter_lattice(alg))
    line("  filter classes sharing a cohull: "
         + " | ".join("{" + ", ".join(c) + "}" for c in spectral))
    item.update({
        "routes": {name: [[desc, ok] for desc, ok in routes]
                   for name, routes in cl.routes.items()},
        "maps": [{"name": name, "kind": m.kind, "injective": m.injective,
                  "surjective": m.surjective} for name, m in maps.items()],
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


# Indents in verify's JSON report: an algebra's "results" list, one row
# of it, the row's keys, its "sides" pairs and the two parts of a pair.
_RESULTS = ITEM_PAD + "  "
_ROW = _RESULTS + "  "
_KEY = _ROW + "  "
_SIDE = _KEY + "  "
_PART = _SIDE + "  "
_TRUTH = {True: "true", False: "false"}


def _json_list(members, pad: str) -> str:
    """A JSON list at indent pad of members already written."""
    if not members:
        return "[]"
    inner = pad + "  "
    return f"[\n{inner}" + f",\n{inner}".join(members) + f"\n{pad}]"


@cache
def _statement_rows() -> dict[str, tuple[str, str, str]]:
    """Per statement id, the parts of its report rows that are the same
    on every algebra: the text line after the mark, and the JSON row's
    keys before "passed" and from "statement" to "witness"."""
    rows = {}
    for ident, text, group in registry_entries():
        rows[ident] = (
            f" [{group}] {ident}",
            f'{{\n{_KEY}"group": {encode_basestring_ascii(group)},\n'
            f'{_KEY}"ident": {encode_basestring_ascii(ident)},\n{_KEY}"passed": ',
            f',\n{_KEY}"statement": {encode_basestring_ascii(text)},\n'
            f'{_KEY}"witness": ')
    return rows


@cache
def _sides_json(sides) -> str:
    """A row's "sides" list.  A run meets few distinct ones: a law's
    sides are one of two, an equivalence's differ only in its verdicts."""
    return _json_list([f"[\n{_PART}{encode_basestring_ascii(desc)},\n"
                       f"{_PART}{_TRUTH[ok]}\n{_SIDE}]" for desc, ok in sides],
                      _KEY)


def _results_json(reports) -> str:
    """One algebra's "results" list, with the bytes ``report._dumps``
    gives the rows as dicts: only passed, sides and witness are encoded
    per row."""
    parts = _statement_rows()
    rows = []
    for r in reports:
        _, head, mid = parts[r.ident]
        rows.append(f'{head}{_TRUTH[r.passed]},\n{_KEY}"sides": '
                    f"{_sides_json(r.sides)}{mid}"
                    f"{encode_basestring_ascii(r.witness)}\n{_ROW}}}")
    return _json_list(rows, _RESULTS)


def _build_verify(args, line, item, label, alg):
    reports = verify_suite(alg, idents=args.only, groups=args.group)
    failed = sum(not r.passed for r in reports)
    if args.format == "json":
        item.update({"results": Encoded(_results_json(reports)),
                     "passed": len(reports) - failed,
                     "failed": failed})
    else:
        parts = _statement_rows()
        line(f"{label}: {_count(len(reports), 'statement')}")
        for r in reports:
            tail = parts[r.ident][0]
            line(f"  pass{tail}" if r.passed
                 else f"  FAIL{tail} ({r.witness})")
        line(f"{label}: {len(reports) - failed} passed, {failed} failed")
    return EXIT_DOMAIN if failed else EXIT_OK


def _cmd_search(args) -> int:
    if not 1 <= args.max_size <= MAX_CARRIER:
        raise PreconditionError(f"max size must be between 1 and {MAX_CARRIER}")

    lines = []
    line = lines.append
    # The summary lines are comments, so that the --render output parses as
    # a document stream.
    line(f"# search through carriers of at most {args.max_size} elements")
    line(f"# predicate: {args.predicate}")
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
        line(f"#   size {n}: {_count(res.lattices, 'lattice')}, "
             f"{_count(res.stats.emitted, 'algebra')}, "
             f"{len(res.matches)} matching")
        if args.render:
            matches.extend(res.matches)
        matching += len(res.matches)
        lattices += res.lattices
        stats = stats + res.stats
    line(f"# total: {_count(lattices, 'lattice')}, "
         f"{_count(stats.emitted, 'algebra')}, {matching} matching")
    line(f"# tables examined {stats.examined}, branches pruned "
         f"{stats.pruned}, duplicates dropped {stats.iso_rejected}")
    data = {"command": "search", "max_size": args.max_size,
            "predicate": args.predicate, "per_size": per_size,
            "totals": {"lattices": lattices, "algebras": stats.emitted,
                       "matching": matching},
            "stats": {"examined": stats.examined, "pruned": stats.pruned,
                      "found": stats.found, "emitted": stats.emitted,
                      "iso_rejected": stats.iso_rejected}}
    if args.render and matches:
        docs = [NamedAlgebra(f"match-{i}", alg)
                for i, alg in enumerate(matches, start=1)]
        data["documents"] = [
            {"label": d.label, "size": d.algebra.n} for d in docs]
        data["rendered"] = render_stream(docs)
    if args.format == "json":
        sys.stdout.write(_dumps(data, "") + "\n")
        return EXIT_OK
    sys.stdout.write("\n".join(lines) + "\n")
    if "rendered" in data:
        sys.stdout.write("\n" + data["rendered"])
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
