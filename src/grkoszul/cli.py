"""Command line front end: file formats, dispatch, and plain-text reports.

Input files are line oriented; blank lines are skipped and `#` starts a
comment anywhere on a line.

`.qalg` describes a quiver presentation and must open with its field line:

    field Q                    # or: field F 5
    vertex 1 length=0 weight=3
    vertex 2 length=1 weight=5
    arrow a 1 2
    arrow b 2 1
    relation 1*b*a             # terms <coef>*<arrow>*... joined by +
    order 1 < 2
    duality a:b b:a            # signed arrow involution; a:-b negates

Paths compose left to right (`b*a` is b then a), like everywhere else in
the package.

`.qrep` describes a right module over a `.qalg` algebra: `vertexdim`
lines first, then one `matrix <arrow>` block per arrow holding
dims[target] rows of dims[source] scalars (fractions `a/b` allowed over
Q).  A block with a zero dimension on either side carries no rows.

Weight set files (alcove and kl commands) hold one weight per line as
whitespace-separated fundamental coordinates.

Reports consist solely of `key=value` lines and `#` comments and open with
a header echoing the artifact version, the subcommand and every argument,
so identical requests produce byte-identical reports.  Exit status: 0 on
success, 2 on malformed input (messages carry file:line locations), 3 on a
failed mathematical precondition (the clause is named) or when memory runs
out, 4 on a violated internal invariant.  Polynomials are printed in
t = q^(1/2): the classical coefficient of q^k appears on t^(2k).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from . import selftest as selftest_battery
from .alcove import (
    RootDatum,
    Weight,
    bounds_report,
    dominance_and_regularity,
    fatten,
    ideal_closure,
    linkage,
    partition_translate,
    root_datum_build,
)
from .algebra_core import (
    FiniteDimAlgebra,
    QuiverPresentation,
    build_algebra,
    gr_algebra,
    radical_generation_check,
    subalgebra_from_generators,
    tight_subalgebra_check,
)
from .errors import (
    InputFormatError,
    InternalCheckError,
    PreconditionError,
    require,
)
from .exactlin import QQ, FieldSpec, _sparse_row
from .klpoly import (
    lcf_character,
    load_or_build_tables,
    predict_layers,
    weight_polynomials,
)
from .qha_engine import (
    WeightPosetIdeal,
    _global_dimension,
    category_kl_and_dual,
    duality_matrix_from_presentation,
    dualize,
    orthogonality_reciprocity_check,
    parity_checks,
    pipeline_checks,
    qha_check,
    standard_modules,
    truncate,
)
from .rep_homology import (
    Representation,
    ext_table,
    gr_ext1_compare,
    is_isomorphic,
    koszul_check,
    layer_dims,
    make_representation,
    minimal_resolution,
    restrict_iso_check,
    socle_series,
    sub_rep,
)


# -- file formats --------------------------------------------------------------------


def _content_lines(text: str):
    """(line number, stripped content) for every non-empty non-comment line."""
    for number, raw in enumerate(text.splitlines(), 1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield number, content


def _fail(source: str, number: int, message: str):
    raise InputFormatError("%s:%d: %s" % (source, number, message))


def _parse_int(source: str, number: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(source, number, "expected an integer, got %r" % token)


def parse_qalg(text: str, source: str = "<qalg>") -> QuiverPresentation:
    """Parse a `.qalg` presentation; errors carry file:line locations."""
    field = None
    vertices: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    relations: list[list[tuple[object, tuple[str, ...]]]] = []
    order_pairs: list[tuple[str, str]] = []
    lengths: dict[str, int] = {}
    weights: dict[str, tuple[int, ...]] = {}
    duality: list[tuple[str, int, str]] = []

    for number, line in _content_lines(text):
        tokens = line.split()
        kind = tokens[0]
        if kind == "field":
            if field is not None:
                _fail(source, number, "duplicate field line")
            if tokens[1:] == ["Q"]:
                field = QQ
            elif len(tokens) == 3 and tokens[1] == "F":
                try:
                    field = FieldSpec(_parse_int(source, number, tokens[2]))
                except InputFormatError as exc:
                    _fail(source, number, str(exc))
            else:
                _fail(source, number, "field line must be 'field Q' or 'field F <p>'")
            continue
        if field is None:
            _fail(source, number, "the field line must come first")
        if kind == "vertex":
            if len(tokens) < 2:
                _fail(source, number, "vertex line needs a label")
            label = tokens[1]
            vertices.append(label)
            for attr in tokens[2:]:
                key, sep, value = attr.partition("=")
                if not sep:
                    _fail(source, number, "vertex attribute %r is not key=value" % attr)
                if key == "length":
                    lengths[label] = _parse_int(source, number, value)
                elif key == "weight":
                    weights[label] = tuple(
                        _parse_int(source, number, c) for c in value.split(",")
                    )
                else:
                    _fail(source, number, "unknown vertex attribute %r" % key)
        elif kind == "arrow":
            if len(tokens) != 4:
                _fail(source, number, "arrow line must be 'arrow <name> <src> <dst>'")
            arrows.append((tokens[1], tokens[2], tokens[3]))
        elif kind == "relation":
            terms: list[tuple[object, tuple[str, ...]]] = []
            chunk: list[str] = []
            for token in tokens[1:] + ["+"]:
                if token != "+":
                    chunk.append(token)
                    continue
                if len(chunk) != 1:
                    _fail(source, number, "relation terms must be single *-joined tokens")
                parts = chunk[0].split("*")
                if len(parts) < 2:
                    _fail(source, number,
                          "relation term %r needs <coef>*<arrow>..." % chunk[0])
                try:
                    coeff = field.parse_scalar(parts[0])
                except InputFormatError:
                    _fail(source, number, "bad coefficient %r" % parts[0])
                terms.append((coeff, tuple(parts[1:])))
                chunk = []
            if not terms:
                _fail(source, number, "empty relation")
            relations.append(terms)
        elif kind == "order":
            if len(tokens) != 4 or tokens[2] != "<":
                _fail(source, number, "order line must be 'order <a> < <b>'")
            order_pairs.append((tokens[1], tokens[3]))
        elif kind == "duality":
            for token in tokens[1:]:
                name, sep, image = token.partition(":")
                if not sep or not name or not image:
                    _fail(source, number, "duality token %r is not <arrow>:<arrow>" % token)
                sign = 1
                if image.startswith("-"):
                    sign, image = -1, image[1:]
                duality.append((name, sign, image))
        else:
            _fail(source, number, "unknown directive %r" % kind)

    if field is None:
        raise InputFormatError("%s: missing field line" % source)
    try:
        return QuiverPresentation(
            field=field, vertices=vertices, arrows=arrows, relations=relations,
            order_pairs=order_pairs, lengths=lengths, weights=weights,
            duality=duality,
        )
    except InputFormatError as exc:
        raise InputFormatError("%s: %s" % (source, exc)) from exc


def write_qalg(pres: QuiverPresentation) -> str:
    """Render a presentation so that parse_qalg returns an equal value."""
    f = pres.field
    out = ["field Q" if f.char == 0 else "field F %d" % f.char]
    for v in pres.vertices:
        parts = ["vertex", v]
        if v in pres.lengths:
            parts.append("length=%d" % pres.lengths[v])
        if v in pres.weights:
            parts.append("weight=" + ",".join(str(c) for c in pres.weights[v]))
        out.append(" ".join(parts))
    for name, src, dst in pres.arrows:
        out.append("arrow %s %s %s" % (name, src, dst))
    for rel in pres.relations:
        terms = ["%s*%s" % (f.format_scalar(f.coerce(c)), "*".join(path))
                 for c, path in rel]
        out.append("relation " + " + ".join(terms))
    for a, b in pres.order_pairs:
        out.append("order %s < %s" % (a, b))
    if pres.duality:
        out.append("duality " + " ".join(
            "%s:%s%s" % (a, "-" if sign < 0 else "", b)
            for a, sign, b in pres.duality))
    return "\n".join(out) + "\n"


def parse_qrep(text: str, algebra: FiniteDimAlgebra,
               source: str = "<qrep>") -> Representation:
    """Parse a `.qrep` module over the given algebra."""
    pres = algebra.presentation
    field = algebra.field
    dims: dict[str, int] = {}
    action: dict[str, list[dict]] = {}  # sparse columns per arrow
    lines = list(_content_lines(text))
    i = 0
    while i < len(lines):
        number, line = lines[i]
        tokens = line.split()
        if tokens[0] == "vertexdim":
            if action:
                _fail(source, number, "vertexdim lines must precede matrix blocks")
            if len(tokens) != 3:
                _fail(source, number, "vertexdim line must be 'vertexdim <label> <int>'")
            label = tokens[1]
            if label not in pres.vertices:
                _fail(source, number, "unknown vertex %r" % label)
            if label in dims:
                _fail(source, number, "duplicate vertexdim for %r" % label)
            dims[label] = _parse_int(source, number, tokens[2])
            i += 1
        elif tokens[0] == "matrix":
            if len(tokens) != 2:
                _fail(source, number, "matrix line must be 'matrix <arrow>'")
            name = tokens[1]
            known = {a[0]: (a[1], a[2]) for a in pres.arrows}
            if name not in known:
                _fail(source, number, "unknown arrow %r" % name)
            if name in action:
                _fail(source, number, "duplicate matrix for %r" % name)
            src, dst = known[name]
            nrows, ncols = dims.get(dst, 0), dims.get(src, 0)
            i += 1
            if nrows == 0 or ncols == 0:
                action[name] = [{} for _ in range(ncols)]
                continue
            rows = []
            for k in range(nrows):
                if i >= len(lines):
                    _fail(source, number, "matrix %r is missing row %d" % (name, k))
                row_number, row_line = lines[i]
                entries = row_line.split()
                if len(entries) != ncols:
                    _fail(source, row_number,
                          "matrix %r row %d needs %d entries, got %d"
                          % (name, k, ncols, len(entries)))
                try:
                    rows.append([field.parse_scalar(tok) for tok in entries])
                except InputFormatError as exc:
                    _fail(source, row_number, str(exc))
                i += 1
            action[name] = [_sparse_row(col) for col in zip(*rows)]  # by columns
        else:
            _fail(source, number, "unknown directive %r" % tokens[0])
    try:
        return make_representation(algebra, dims, action)
    except InputFormatError as exc:
        raise InputFormatError("%s: %s" % (source, exc)) from exc


def parse_weight_list(text: str, rank: int, source: str = "<weights>") -> list[Weight]:
    """One weight per line, whitespace-separated fundamental coordinates."""
    out = []
    for number, line in _content_lines(text):
        coords = tuple(_parse_int(source, number, tok) for tok in line.split())
        if len(coords) != rank:
            _fail(source, number,
                  "weight has %d coordinates, expected %d" % (len(coords), rank))
        out.append(Weight(coords))
    if not out:
        raise InputFormatError("%s: no weights found" % source)
    return out


# -- reports -------------------------------------------------------------------------


def _value_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, Weight):
        return ",".join(str(c) for c in value.coordinates)
    if isinstance(value, (list, tuple)):
        return ",".join(_value_text(v) for v in value)
    return str(value)


def _poly_text(classical: dict[int, int]) -> str:
    """A classical polynomial in q, written in t = q^(1/2)."""
    if not classical:
        return "0"
    parts = []
    for k, coeff in sorted(classical.items()):
        if k == 0:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = "t^%d" % (2 * k)
        else:
            body = "%d*t^%d" % (abs(coeff), 2 * k)
        parts.append(("-" if coeff < 0 else ("+" if parts else "")) + body)
    return "".join(parts)


class Report:
    """key=value lines under a fixed header; rendering is deterministic."""

    def __init__(self, command: str, params: list[tuple[str, object]]):
        self._lines = ["# grkoszul report"]
        self.exit_status = 0
        self.add("version", __version__)
        self.add("command", command)
        for key, value in params:
            self.add("arg." + key, value)
        self._lines.append("#")

    def comment(self, text: str) -> None:
        self._lines.append(("# " + text).rstrip())

    def add(self, key: str, value) -> None:
        self._lines.append("%s=%s" % (key, _value_text(value)))

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


# -- shared loaders ------------------------------------------------------------------


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputFormatError("cannot read %s: %s" % (path, exc)) from exc


def _load_algebra(path: str) -> tuple[QuiverPresentation, FiniteDimAlgebra]:
    pres = parse_qalg(_read_text(path), source=path)
    return pres, build_algebra(pres)


def _load_module(path: str, algebra: FiniteDimAlgebra) -> Representation:
    return parse_qrep(_read_text(path), algebra, source=path)


def _poset_from(pres: QuiverPresentation) -> WeightPosetIdeal:
    lengths = dict(pres.lengths) if pres.lengths else None
    if lengths is not None and set(lengths) != set(pres.vertices):
        lengths = None
    return WeightPosetIdeal(list(pres.vertices), list(pres.order_pairs), lengths)


def _structure(pres: QuiverPresentation, algebra: FiniteDimAlgebra):
    duality = duality_matrix_from_presentation(algebra) if pres.duality else None
    return standard_modules(algebra, _poset_from(pres), duality)


def _vertex_lengths(pres: QuiverPresentation) -> dict[str, int]:
    missing = [v for v in pres.vertices if v not in pres.lengths]
    require(not missing,
            "every vertex needs a length= attribute; missing: %s" % ",".join(missing))
    return dict(pres.lengths)


def _embedding(algebra: FiniteDimAlgebra, spec: str | None):
    """Subalgebra from comma-separated generator tokens: a vertex label for
    its idempotent, or a *-joined arrow path.  No spec means the whole
    algebra."""
    if spec is None:
        return subalgebra_from_generators(
            algebra, [algebra.basis_vector(i) for i in range(algebra.dim)]
        )
    pres = algebra.presentation
    vectors = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token in pres.vertices:
            vectors.append(algebra.basis_vector(algebra.vertex_index[token]))
            continue
        arrows = tuple(token.split("*"))
        unknown = [a for a in arrows if a not in {x[0] for x in pres.arrows}]
        if unknown:
            raise InputFormatError(
                "generator token %r: unknown arrow %s" % (token, unknown[0]))
        src, _ = pres.path_endpoints(arrows)
        vectors.append(algebra.path_to_vector(src, arrows))
    if not vectors:
        raise InputFormatError("no generator tokens given")
    return subalgebra_from_generators(algebra, vectors)


def _datum(args) -> RootDatum:
    return root_datum_build(args.type.upper(), args.rank)


def _weight_arg(text: str, rank: int, flag: str) -> Weight:
    try:
        coords = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InputFormatError("%s must be comma-separated integers, got %r"
                               % (flag, text)) from None
    if len(coords) != rank:
        raise InputFormatError("%s has %d coordinates, expected %d"
                               % (flag, len(coords), rank))
    return Weight(coords)


def _generator_weights(args, rd: RootDatum) -> list[Weight]:
    if args.weights:
        return parse_weight_list(_read_text(args.weights), rd.rank, source=args.weights)
    require(args.lam is not None, "need --lambda or --weights to pick the weights")
    return [_weight_arg(args.lam, rd.rank, "--lambda")]


def _dims_line(rep: Representation) -> list[int]:
    return [rep.dims[v] for v in rep.vertices]


# -- algebra subcommands ---------------------------------------------------------------


def _cmd_algebra_build(args) -> Report:
    pres, algebra = _load_algebra(args.input)
    rp = Report("algebra build", [("input", args.input)])
    rp.add("field", pres.field.describe())
    rp.add("vertices", list(pres.vertices))
    rp.add("arrows", len(pres.arrows))
    rp.add("relations", len(pres.relations))
    rp.add("dim", algebra.dim)
    rp.add("radical_length", algebra.radical_length)
    rp.add("graded_dims", algebra.graded_dims())
    rp.add("grades", algebra.grades())
    for i, bp in enumerate(algebra.basis):
        rp.add("basis.%d" % i, bp.label())
    return rp


def _cmd_algebra_gr(args) -> Report:
    pres, algebra = _load_algebra(args.input)
    graded = gr_algebra(algebra)
    rp = Report("algebra gr", [("input", args.input), ("emit", args.emit)])
    rp.add("source_dim", algebra.dim)
    rp.add("source_graded_dims", algebra.graded_dims())
    rp.add("gr_dim", graded.algebra.dim)
    rp.add("gr_graded_dims", graded.graded_dims())
    rp.add("graded_dims_match", algebra.graded_dims() == graded.graded_dims())
    rp.add("gr_vertices", list(graded.algebra.presentation.vertices))
    rp.add("gr_arrows", len(graded.algebra.presentation.arrows))
    rp.add("gr_relations", len(graded.algebra.presentation.relations))
    if args.emit:
        _write_output(args.emit, write_qalg(graded.algebra.presentation))
    return rp


def _cmd_algebra_koszul(args) -> Report:
    pres, algebra = _load_algebra(args.input)
    report = koszul_check(algebra, bound=args.max_degree)
    bound, exact = _global_dimension(algebra)
    rp = Report("algebra koszul-check",
                [("input", args.input), ("max_degree", args.max_degree)])
    rp.add("koszul", "open" if report.verdict is None else report.verdict)
    rp.add("exact", report.exact)
    rp.add("bound", report.bound)
    if report.witness is not None:
        rp.add("witness", report.witness)
    rp.add("global_dimension", bound if exact else "unreached")
    for v in pres.vertices:
        rp.add("generation.%s" % v,
               ";".join(",".join(map(str, gens)) for gens in report.per_simple[v]))
    return rp


def _cmd_algebra_subalgebra(args) -> Report:
    pres, algebra = _load_algebra(args.input)
    emb = _embedding(algebra, args.generators)
    tight, grades, failures = tight_subalgebra_check(emb)
    rp = Report("algebra subalgebra",
                [("input", args.input), ("generators", args.generators or "all")])
    rp.add("ambient_dim", algebra.dim)
    rp.add("dim", emb.dim)
    rp.add("tight", tight)
    rp.add("normal", emb.is_normal())
    if grades is not None:
        rp.add("grades", grades)
    for i, failure in enumerate(failures):
        rp.add("failure.%d" % i, failure)
    return rp


def _cmd_algebra_radgen(args) -> Report:
    pres, algebra = _load_algebra(args.input)
    emb = _embedding(algebra, args.generators)
    report = radical_generation_check(emb)
    rp = Report("algebra radgen-check",
                [("input", args.input), ("generators", args.generators or "all")])
    rp.add("generates", report.generates)
    for n, same in enumerate(report.per_power, 1):
        rp.add("power.%d" % n, same)
    rp.add("passed", report.passed)
    return rp


# -- module subcommands ----------------------------------------------------------------


def _cmd_module_slices(args) -> Report:
    pres, algebra = _load_algebra(args.algebra)
    rep = _load_module(args.module, algebra)
    rp = Report("module slices",
                [("algebra", args.algebra), ("module", args.module)])
    rp.add("total_dim", rep.total_dim)
    rp.add("dims", _dims_line(rep))
    for i, layer in enumerate(layer_dims(rep)):
        for v in rep.vertices:
            if layer.get(v):
                rp.add("radical.%d.%s" % (i, v), layer[v])
    socle = socle_series(rep)
    below = {v: 0 for v in rep.vertices}
    for i in range(1, len(socle)):
        piece, _ = sub_rep(rep, socle[i])
        for v in rep.vertices:
            if piece.dims[v] > below[v]:
                rp.add("socle.%d.%s" % (i, v), piece.dims[v] - below[v])
            below[v] = piece.dims[v]
    return rp


def _cmd_module_resolve(args) -> Report:
    pres, algebra = _load_algebra(args.algebra)
    rep = _load_module(args.module, algebra)
    res = minimal_resolution(rep, args.max_degree)
    rp = Report("module resolve",
                [("algebra", args.algebra), ("module", args.module),
                 ("max_degree", args.max_degree)])
    rp.add("finite", res.finite)
    rp.add("projective_dimension", res.projective_dimension)
    for n, summands in enumerate(res.summand_vertices):
        rp.add("term.%d" % n, ",".join(summands) if summands else "0")
    return rp


def _cmd_module_ext(args) -> Report:
    pres, algebra = _load_algebra(args.algebra)
    rep = _load_module(args.module, algebra)
    table = ext_table(rep, args.max_degree, graded=args.graded)
    rp = Report("module ext",
                [("algebra", args.algebra), ("module", args.module),
                 ("max_degree", args.max_degree), ("graded", args.graded)])
    rp.add("finite", table.finite)
    rp.add("projective_dimension", table.projective_dimension)
    for (v, n), dim in sorted(table.entries.items(),
                              key=lambda kv: (kv[0][1], kv[0][0])):
        rp.add("ext.%s.%d" % (v, n), dim)
    if table.graded_entries is not None:
        for (v, n, r), dim in sorted(table.graded_entries.items(),
                                     key=lambda kv: (kv[0][1], kv[0][0], kv[0][2])):
            rp.add("ext.%s.%d.grade%d" % (v, n, r), dim)
    return rp


def _cmd_module_grcompare(args) -> Report:
    pres, algebra = _load_algebra(args.algebra)
    rep = _load_module(args.module, algebra)
    report = gr_ext1_compare(rep)
    rp = Report("module grcompare",
                [("algebra", args.algebra), ("module", args.module)])
    for row in report.rows:
        rp.add("ext1.%s.ambient" % row.vertex, row.dim_ambient)
        rp.add("ext1.%s.graded" % row.vertex, row.dim_graded)
        rp.add("ext1.%s.equal" % row.vertex, row.equal)
    rp.add("all_equal", report.all_equal)
    rp.add("truncation_of_projective", report.quotient_of_projective)
    if report.pullback is not None:
        rp.add("pullback", list(report.pullback))
        rp.add("pullback_injective", report.pullback_injective)
    return rp


def _cmd_module_restrict(args) -> Report:
    pres, algebra = _load_algebra(args.algebra)
    rep = _load_module(args.module, algebra)
    emb = _embedding(algebra, args.generators)
    report = restrict_iso_check(rep, emb)
    rp = Report("module restrict",
                [("algebra", args.algebra), ("module", args.module),
                 ("generators", args.generators or "all")])
    rp.add("filtration_agrees", report.filtration_agrees)
    rp.add("restriction_iso_gr", report.restriction_iso_gr)
    rp.add("restricts_projectively", report.restricts_projectively)
    rp.add("n_characters", report.n_characters)
    return rp


# -- qha subcommands -------------------------------------------------------------------


def _cmd_qha_standard(args) -> Report:
    pres, algebra = _load_algebra(args.input)
    h = _structure(pres, algebra)
    rp = Report("qha standard", [("input", args.input)])
    rp.comment("dim vectors list vertex components in declaration order")
    rp.add("weights", list(pres.vertices))
    for name, family in (("simple", h.simples), ("projective", h.projectives),
                         ("standard", h.standards), ("costandard", h.costandards),
                         ("injective", h.injectives)):
        for v in pres.vertices:
            rp.add("%s.%s" % (name, v), _dims_line(family[v]))
    return rp


def _cmd_qha_check(args) -> Report:
    pres, algebra = _load_algebra(args.input)
    h = _structure(pres, algebra)
    report = qha_check(h)
    rp = Report("qha check", [("input", args.input)])
    rp.add("quasi_hereditary", report.passed)
    for v in pres.vertices:
        filt = report.filtrations.get(v)
        rp.add("filtration.%s" % v, ",".join(filt) if filt else "none")
    if report.heredity_chain is not None:
        for i, step in enumerate(report.heredity_chain):
            rp.add("heredity.%d" % i, "%s:%d" % (step.weight, step.ideal_dim))
    for i, failure in enumerate(report.failures):
        rp.add("failure.%d" % i, failure)
    return rp


def _cmd_qha_truncate(args) -> Report:
    pres, algebra = _load_algebra(args.input)
    h = _structure(pres, algebra)
    kept = [v for v in args.keep.split(",") if v]
    hb = truncate(h, kept)
    rp = Report("qha truncate", [("input", args.input), ("keep", args.keep)])
    rp.add("kept", list(hb.poset.elements))
    rp.add("dim", hb.algebra.dim)
    rp.add("quasi_hereditary", qha_check(hb).passed)
    for v in hb.poset.elements:
        rp.add("standard.%s" % v, _dims_line(hb.standards[v]))
        rp.add("projective.%s" % v, _dims_line(hb.projectives[v]))
    return rp


def _cmd_qha_reciprocity(args) -> Report:
    pres, algebra = _load_algebra(args.input)
    h = _structure(pres, algebra)
    report = orthogonality_reciprocity_check(h)
    rp = Report("qha reciprocity", [("input", args.input)])
    rp.add("orthogonality", report.orthogonality_ok)
    rp.add("bound", report.bound)
    rp.add("exact_bound", report.exact_bound)
    rp.add("graded_checked", report.graded_checked)
    rp.add("reciprocity", report.reciprocity_ok)
    for i, (soc, std, shift, count) in enumerate(report.reciprocity):
        rp.add("row.%d" % i, "%s,%s,%d,%d" % (soc, std, shift, count))
    for i, failure in enumerate(report.failures):
        rp.add("failure.%d" % i, failure)
    return rp


def _cmd_qha_parity(args) -> Report:
    pres, algebra = _load_algebra(args.input)
    h = _structure(pres, algebra)
    lengths = _vertex_lengths(pres)
    report = parity_checks(h, lengths)
    rp = Report("qha parity", [("input", args.input)])
    rp.add("lengths", ",".join("%s:%d" % (v, lengths[v]) for v in pres.vertices))
    rp.add("kl", report.kl)
    rp.add("skl_prime", report.skl_prime)
    rp.add("graded_kl", report.graded_kl)
    rp.add("bound", report.bound)
    rp.add("exact_bound", report.exact_bound)
    rp.add("duality_used", report.duality_used)
    for i, failure in enumerate(report.failures):
        rp.add("failure.%d" % i, failure)
    return rp


def _cmd_qha_klpoly(args) -> Report:
    pres, algebra = _load_algebra(args.input)
    h = _structure(pres, algebra)
    lengths = _vertex_lengths(pres)
    report = category_kl_and_dual(h, lengths)
    rp = Report("qha klpoly", [("input", args.input)])
    order = {v: i for i, v in enumerate(pres.vertices)}
    for (lam, mu), poly in sorted(report.polynomials.items(),
                                  key=lambda kv: (order[kv[0][0]], order[kv[0][1]])):
        top = max(poly) if poly else 0
        rp.add("poly.%s.%s" % (lam, mu),
               ",".join(str(poly.get(k, 0)) for k in range(top + 1)))
    rp.add("dual_total_dim", report.dual_total_dim)
    rp.add("dual_degree_dims", report.dual_degree_dims)
    rp.add("gr_dual_degree_dims", report.gr_dual_degree_dims)
    rp.add("duals_match", report.duals_match)
    rp.add("bound", report.bound)
    rp.add("exact_bound", report.exact_bound)
    return rp


def _cmd_qha_dual(args) -> Report:
    pres, algebra = _load_algebra(args.input)
    require(bool(pres.duality), "the presentation declares no duality")
    h = _structure(pres, algebra)
    rp = Report("qha dual", [("input", args.input)])
    for i, bp in enumerate(algebra.basis):
        image = h.duality[i]
        k = min(image)
        sign = "-" if image[k] < 0 else ""
        rp.add("dual.%s" % bp.label(), sign + algebra.basis[k].label())
    for v in pres.vertices:
        flipped = dualize(h, h.standards[v])
        ok, _ = is_isomorphic(flipped, h.costandards[v])
        rp.add("standard_dual_is_costandard.%s" % v, ok)
    return rp


def _cmd_qha_pipeline(args) -> Report:
    pres, algebra = _load_algebra(args.input)
    h = _structure(pres, algebra)
    emb = _embedding(algebra, args.generators)
    kept = [v for v in args.keep.split(",") if v] if args.keep else None
    report = pipeline_checks(h, emb, kept)
    rp = Report("qha pipeline",
                [("input", args.input), ("generators", args.generators or "all"),
                 ("keep", args.keep or "all")])
    rp.add("pair.ambient_qha", report.pair.ambient_qha)
    rp.add("pair.sub_tight", report.pair.sub_tight)
    rp.add("pair.sub_normal", report.pair.sub_normal)
    rp.add("pair.radical_generation", report.pair.radical_generation)
    rp.add("pair.degree_zero_semisimple", report.pair.degree_zero_semisimple)
    rp.add("pair.passed", report.pair.passed)
    for v, ok in sorted(report.restriction.projectives_restrict.items()):
        rp.add("restriction.projective.%s" % v, ok)
    for v, ok in sorted(report.restriction.resolution_terms_restrict.items()):
        rp.add("restriction.resolution.%s" % v, ok)
    rp.add("restriction.bound", report.restriction.bound)
    rp.add("restriction.exact_bound", report.restriction.exact_bound)
    rp.add("restriction.passed", report.restriction.passed)
    rp.add("graded.implied", report.graded_structure.implied)
    rp.add("graded.gr_qha", report.graded_structure.gr_qha)
    rp.add("graded.standards_match", report.graded_structure.standards_match)
    rp.add("graded.holds", report.graded_structure.holds)
    rp.add("parity.implied", report.parity_transfer.implied)
    rp.add("parity.duality_available", report.parity_transfer.duality_available)
    rp.add("parity.sub_koszul", report.parity_transfer.sub_koszul)
    rp.add("parity.kl", report.parity_transfer.kl)
    rp.add("parity.skl_prime", report.parity_transfer.skl_prime)
    rp.add("parity.holds", report.parity_transfer.holds)
    rp.add("graded_transfer.implied", report.graded_transfer.implied)
    rp.add("graded_transfer.graded_kl", report.graded_transfer.graded_kl)
    rp.add("graded_transfer.gr_koszul", report.graded_transfer.gr_koszul)
    rp.add("graded_transfer.standards_linear", report.graded_transfer.standards_linear)
    rp.add("graded_transfer.polynomials_match", report.graded_transfer.polynomials_match)
    rp.add("graded_transfer.holds", report.graded_transfer.holds)
    rp.add("koszul.sub_koszul", report.koszul_pipeline.sub_koszul)
    rp.add("koszul.radical_generation", report.koszul_pipeline.radical_generation)
    rp.add("koszul.regular_restricts", report.koszul_pipeline.regular_restricts)
    rp.add("koszul.implied", report.koszul_pipeline.implied)
    rp.add("koszul.gr_koszul", report.koszul_pipeline.gr_koszul)
    for i, note in enumerate(report.notes):
        rp.add("note.%d" % i, note)
    return rp


# -- alcove subcommands ------------------------------------------------------------------


def _cmd_alcove_roots(args) -> Report:
    rd = _datum(args)
    rp = Report("alcove roots", [("type", args.type.upper()), ("rank", args.rank)])
    rp.add("rank", rd.rank)
    rp.add("coxeter_number", rd.coxeter_number)
    rp.add("positive_roots", len(rd.positive_roots))
    rp.add("symmetrizer", list(rd.symmetrizer))
    for i, row in enumerate(rd.cartan):
        rp.add("cartan.%d" % i, list(row))
    rp.add("rho", rd.rho)
    rp.add("highest_short_root", rd.root_weight(rd.max_short_root))
    rp.add("highest_short_coroot", list(rd.coroot(rd.max_short_root)))
    for j, root in enumerate(rd.positive_roots):
        rp.add("root.%d" % j, rd.root_weight(root))
        rp.add("rootcoords.%d" % j, list(root))
    return rp


def _cmd_alcove_linkage(args) -> Report:
    rd = _datum(args)
    weight = _weight_arg(args.lam, rd.rank, "--lambda")
    info = dominance_and_regularity(rd, args.e, weight)
    link = linkage(rd, args.e, weight)
    rp = Report("alcove linkage",
                [("type", args.type.upper()), ("rank", args.rank),
                 ("e", args.e), ("lambda", args.lam)])
    rp.add("dominant", info.dominant)
    rp.add("regular", info.regular)
    rp.add("restricted", info.restricted)
    rp.add("restricted_part", info.restricted_part)
    rp.add("quotient_part", info.quotient_part)
    rp.add("star", info.star)
    rp.add("antidominant", link.lambda_minus)
    rp.add("carrier_length", link.length)
    rp.add("depth", link.depth)
    for i, (root, m) in enumerate(link.facet):
        rp.add("facet.%d" % i, "%s:%d" % (",".join(map(str, root)), m))
    for i, row in enumerate(link.w.finite_part):
        rp.add("carrier.matrix.%d" % i, list(row))
    rp.add("carrier.translation", list(link.w.translation))
    return rp


def _cmd_alcove_fatten(args) -> Report:
    rd = _datum(args)
    gens = _generator_weights(args, rd)
    ideal = ideal_closure(rd, args.e, gens, regular_only=args.regular)
    report = fatten(rd, args.e, ideal, args.stages)
    rp = Report("alcove fatten",
                [("type", args.type.upper()), ("rank", args.rank), ("e", args.e),
                 ("lambda", args.lam or "-"), ("weights", args.weights or "-"),
                 ("stages", args.stages), ("regular", args.regular)])
    for k, (stage, a1) in enumerate(zip(report.stages, report.a1_values), start=-1):
        rp.add("stage.%d.size" % k, len(stage))
        rp.add("stage.%d.a1" % k, a1)
    rp.add("efat_literal", report.efat_literal)
    rp.add("efat_operational", report.efat_operational)
    for i, w in enumerate(report.stages[-1].weights):
        rp.add("member.%d" % i, w)
    return rp


def _cmd_alcove_bounds(args) -> Report:
    rd = _datum(args)
    gens = _generator_weights(args, rd)
    ideal = ideal_closure(rd, args.e, gens, regular_only=args.regular)
    report = bounds_report(rd, args.e, ideal, m_max=args.m_max,
                           supplied_n=args.gldim)
    rp = Report("alcove bounds",
                [("type", args.type.upper()), ("rank", args.rank), ("e", args.e),
                 ("lambda", args.lam or "-"), ("weights", args.weights or "-"),
                 ("m_max", args.m_max), ("regular", args.regular),
                 ("gldim", args.gldim)])
    rp.add("prime", report.prime)
    rp.add("coxeter_number", report.coxeter_number)
    rp.add("size", len(ideal))
    rp.add("jantzen_bound", report.jantzen_bound)
    rp.add("jantzen_all_inside", all(ok for _, ok in report.jantzen_membership))
    for m, a1 in enumerate(report.a1_values, start=-1):
        rp.add("a1.%d" % m, a1)
    rp.add("ext_vanishing", "%d<%d:%s" % (report.ext_vanishing[0],
                                          report.ext_vanishing[1],
                                          _value_text(report.ext_vanishing[2])))
    rp.add("cover_condition", "%d<%d:%s" % (report.cover_condition[0],
                                            report.cover_condition[1],
                                            _value_text(report.cover_condition[2])))
    rp.add("max_depth", report.max_depth)
    rp.add("global_dim_bound", report.global_dim_bound)
    for m, lhs, rhs, holds in report.growth_rows:
        rp.add("growth.%d" % m, "%d<%d:%s" % (lhs, rhs, _value_text(holds)))
    rp.add("restricted_subset", report.restricted_subset)
    for m, lhs, rhs, holds in report.threshold_rows:
        rp.add("threshold.%d" % m, "%d<%d:%s" % (lhs, rhs, _value_text(holds)))
    for m, hyp, lhs, rhs, holds in report.pair_rows:
        rp.add("pair.%d" % m, "hyp=%s %d<%d:%s"
               % (_value_text(hyp), lhs, rhs, _value_text(holds)))
    for i, (name, value) in enumerate(report.thresholds):
        rp.add("cutoff.%d" % i, "%s:%s" % (name, _value_text(value)))
    return rp


def _cmd_alcove_partition(args) -> Report:
    try:
        parts = [int(tok) for tok in args.parts.split(",") if tok]
    except ValueError:
        raise InputFormatError("--parts must be comma-separated integers, got %r"
                               % args.parts) from None
    weight, chamber = partition_translate(args.n, args.r, parts, args.e)
    rp = Report("alcove partition",
                [("n", args.n), ("r", args.r), ("parts", args.parts), ("e", args.e)])
    rp.add("weight", weight)
    rp.add("chamber_regular", chamber)
    return rp


# -- kl subcommands ----------------------------------------------------------------------


def _kl_rows_report(args, command: str, letter: str) -> Report:
    rd = _datum(args)
    tables = load_or_build_tables(rd, args.e, args.max_length)
    rp = Report(command,
                [("type", args.type.upper()), ("rank", args.rank),
                 ("e", args.e), ("max_length", args.max_length)])
    counts = tables.table.element_count_by_length()
    rp.add("elements", len(tables.table.elements))
    rp.add("count_by_length", list(counts))
    rp.add("intervals_verified", tables.intervals_verified)
    rp.comment("dense classical coefficients, ascending even t-powers")
    for i, (xw, ww, p, q) in enumerate(tables.pair_rows()):
        rp.add("row.%d" % i,
               "x=%s w=%s %s=%s" % (xw, ww, letter, p if letter == "p" else q))
    return rp


def _cmd_kl_table(args) -> Report:
    return _kl_rows_report(args, "kl table", "p")


def _cmd_kl_inverse(args) -> Report:
    return _kl_rows_report(args, "kl inverse", "q")


def _cmd_kl_weightpoly(args) -> Report:
    rd = _datum(args)
    lam = _weight_arg(args.lam, rd.rank, "--lambda")
    mu = _weight_arg(args.mu, rd.rank, "--mu")
    report = weight_polynomials(rd, args.e, mu, lam)
    rp = Report("kl weightpoly",
                [("type", args.type.upper()), ("rank", args.rank), ("e", args.e),
                 ("lambda", args.lam), ("mu", args.mu)])
    rp.add("same_class", report.same_class)
    rp.add("mu_length", report.nu_length)
    rp.add("lambda_length", report.lam_length)
    rp.add("p", _poly_text(report.p_poly))
    rp.add("q", _poly_text(report.q_poly))
    return rp


def _cmd_kl_predict(args) -> Report:
    rd = _datum(args)
    lam = _weight_arg(args.lam, rd.rank, "--lambda")
    gamma = None
    if args.weights:
        gens = parse_weight_list(_read_text(args.weights), rd.rank,
                                 source=args.weights)
        gamma = ideal_closure(rd, args.e, gens)
    prediction = predict_layers(rd, args.e, lam, gamma=gamma)
    rp = Report("kl predict",
                [("type", args.type.upper()), ("rank", args.rank), ("e", args.e),
                 ("lambda", args.lam), ("weights", args.weights or "-")])
    rp.add("antidominant", prediction.lambda_minus)
    rp.add("carrier_length", prediction.carrier_length)
    rp.add("singular", prediction.singular)
    rp.add("support", len(prediction.support))
    for n, layer in enumerate(prediction.layers):
        rp.add("layer.%d" % n,
               ";".join("%s:%d" % (_value_text(w), m) for w, m in layer))
    for w, poly in prediction.polynomials:
        rp.add("qpoly.%s" % _value_text(w), _poly_text(poly))
    return rp


def _cmd_kl_lcf(args) -> Report:
    rd = _datum(args)
    lam = _weight_arg(args.lam, rd.rank, "--lambda")
    report = lcf_character(rd, args.e, lam)
    rp = Report("kl lcf",
                [("type", args.type.upper()), ("rank", args.rank), ("e", args.e),
                 ("lambda", args.lam)])
    rp.add("antidominant", report.lambda_minus)
    rp.add("carrier_length", report.carrier_length)
    rp.add("singular", report.singular)
    for i, (w, sign, value) in enumerate(report.terms):
        rp.add("term.%d" % i, "%s:%+d:%d" % (_value_text(w), sign, value))
    rp.add("dimension", report.dimension)
    rp.add("non_negative", report.non_negative)
    for w, m in report.character.dominant_multiplicities:
        rp.add("mult.%s" % _value_text(w), m)
    for w, m in report.negative_entries:
        rp.add("negative.%s" % _value_text(w), m)
    return rp


# -- selftest ------------------------------------------------------------------------------


def _cmd_selftest(args) -> Report:
    numbers = args.criterion or None
    results = selftest_battery.run_selftest(numbers)
    rp = Report("selftest",
                [("criterion", ",".join(map(str, numbers)) if numbers else "all")])
    for res in results:
        rp.add("criterion.%d.name" % res.number, res.name)
        rp.add("criterion.%d" % res.number, "pass" if res.passed else "fail")
        for i, detail in enumerate(res.details):
            rp.add("criterion.%d.detail.%d" % (res.number, i), detail)
    all_ok = bool(results) and all(res.passed for res in results)
    rp.add("selftest", "pass" if all_ok else "fail")
    if not all_ok:
        rp.exit_status = 4
    return rp


# -- parser and dispatch -------------------------------------------------------------------


def _write_output(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputFormatError("cannot write %s: %s" % (path, exc)) from exc


class _CriterionNumbers:
    """The numbers in `selftest.CRITERIA`, read each time argparse checks or
    lists a `--criterion` value, so a reused parser follows the battery."""

    def __iter__(self):  # `in` falls back to iteration
        return iter([number for number, _, _ in selftest_battery.CRITERIA])


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write the report to this file")

    parser = argparse.ArgumentParser(
        prog="grkoszul",
        description="Exact graded-algebra and alcove-combinatorics toolkit.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    groups = parser.add_subparsers(dest="group", required=True)

    def sub(group, name, handler, **kwargs):
        p = group.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        return p

    algebra = groups.add_parser("algebra").add_subparsers(dest="action", required=True)
    p = sub(algebra, "build", _cmd_algebra_build)
    p.add_argument("input")
    p = sub(algebra, "gr", _cmd_algebra_gr)
    p.add_argument("input")
    p.add_argument("--emit", default=None, help="write the gr presentation here")
    p = sub(algebra, "koszul-check", _cmd_algebra_koszul)
    p.add_argument("input")
    p.add_argument("--max-degree", type=int, default=12)
    p = sub(algebra, "subalgebra", _cmd_algebra_subalgebra)
    p.add_argument("input")
    p.add_argument("--generators", default=None,
                   help="comma-separated vertex labels or *-joined arrow paths")
    p = sub(algebra, "radgen-check", _cmd_algebra_radgen)
    p.add_argument("input")
    p.add_argument("--generators", default=None)

    module = groups.add_parser("module").add_subparsers(dest="action", required=True)
    p = sub(module, "slices", _cmd_module_slices)
    p.add_argument("algebra")
    p.add_argument("module")
    p = sub(module, "resolve", _cmd_module_resolve)
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("--max-degree", type=int, default=8)
    p = sub(module, "ext", _cmd_module_ext)
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("--max-degree", type=int, default=8)
    p.add_argument("--graded", action="store_true")
    p = sub(module, "grcompare", _cmd_module_grcompare)
    p.add_argument("algebra")
    p.add_argument("module")
    p = sub(module, "restrict", _cmd_module_restrict)
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("--generators", default=None)

    qha = groups.add_parser("qha").add_subparsers(dest="action", required=True)
    for name, handler in (("standard", _cmd_qha_standard), ("check", _cmd_qha_check),
                          ("reciprocity", _cmd_qha_reciprocity),
                          ("parity", _cmd_qha_parity), ("klpoly", _cmd_qha_klpoly),
                          ("dual", _cmd_qha_dual)):
        p = sub(qha, name, handler)
        p.add_argument("input")
    p = sub(qha, "truncate", _cmd_qha_truncate)
    p.add_argument("input")
    p.add_argument("--keep", required=True, help="comma-separated weight labels")
    p = sub(qha, "pipeline", _cmd_qha_pipeline)
    p.add_argument("input")
    p.add_argument("--generators", default=None)
    p.add_argument("--keep", default=None)

    def add_datum_flags(p, with_e=True):
        p.add_argument("--type", required=True, help="Cartan type letter A..G")
        p.add_argument("--rank", type=int, required=True)
        if with_e:
            p.add_argument("--e", type=int, required=True)

    alcove = groups.add_parser("alcove").add_subparsers(dest="action", required=True)
    p = sub(alcove, "roots", _cmd_alcove_roots)
    add_datum_flags(p, with_e=False)
    p = sub(alcove, "linkage", _cmd_alcove_linkage)
    add_datum_flags(p)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="comma-separated fundamental coordinates")
    for name, handler in (("fatten", _cmd_alcove_fatten),
                          ("bounds", _cmd_alcove_bounds)):
        p = sub(alcove, name, handler)
        add_datum_flags(p)
        p.add_argument("--lambda", dest="lam", default=None)
        p.add_argument("--weights", default=None, help="weight set file")
        p.add_argument("--regular", action="store_true",
                       help="work in the e-regular universe")
        if name == "fatten":
            p.add_argument("--stages", type=int, default=1)
        else:
            p.add_argument("--m-max", dest="m_max", type=int, default=0)
            p.add_argument("--gldim", type=int, default=None,
                           help="known global dimension for the cutoff table")
    p = sub(alcove, "partition", _cmd_alcove_partition)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--parts", required=True, help="comma-separated partition")
    p.add_argument("--e", type=int, required=True)

    kl = groups.add_parser("kl").add_subparsers(dest="action", required=True)
    for name, handler in (("table", _cmd_kl_table), ("inverse", _cmd_kl_inverse)):
        p = sub(kl, name, handler)
        add_datum_flags(p)
        p.add_argument("--max-length", type=int, required=True)
    p = sub(kl, "weightpoly", _cmd_kl_weightpoly)
    add_datum_flags(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", required=True)
    p = sub(kl, "predict", _cmd_kl_predict)
    add_datum_flags(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--weights", default=None,
                   help="generators of the ambient weight ideal")
    p = sub(kl, "lcf", _cmd_kl_lcf)
    add_datum_flags(p)
    p.add_argument("--lambda", dest="lam", required=True)

    # convenience alias for the layer prediction
    predict = groups.add_parser("predict").add_subparsers(dest="action", required=True)
    p = sub(predict, "layers", _cmd_kl_predict)
    add_datum_flags(p)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--weights", default=None)

    p = groups.add_parser("selftest", parents=[common])
    p.set_defaults(handler=_cmd_selftest)
    p.add_argument("--criterion", type=int, action="append", default=None,
                   choices=_CriterionNumbers(),
                   help="run one criterion (repeatable); default all")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built at the first `main` call (not at import), then reused."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.handler(args)
        text = report.render()
        if args.out:
            _write_output(args.out, text)
        else:
            sys.stdout.write(text)
        return report.exit_status
    except InputFormatError as exc:
        print("error (input): %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("error (precondition): %s" % exc, file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print("error (internal invariant): %s" % exc, file=sys.stderr)
        return 4
    except MemoryError:
        command = " ".join(filter(None, (args.group, getattr(args, "action", None))))
        print("error (resources): out of memory in %s" % command, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
