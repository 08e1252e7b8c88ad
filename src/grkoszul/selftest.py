"""Acceptance battery: the whole cross-validation suite as callable checks.

Each criterion builds its desk-scale instances from scratch, exercises one
slice of the package against an independent oracle, and returns a
CriterionResult whose detail strings are deterministic (no timings, no
paths).  The CLI `selftest` subcommand and the acceptance tests both consume
this module, so the battery has a single authoritative implementation.

A few criteria carry a pinned runtime budget; exceeding it fails the
criterion.  The budgets guard against algorithmic regressions (an accidental
exponential path), not machine noise, so they are checked on the CPU time
of this process: other processes competing for the cores do not count,
while an exponential path still burns CPU and still runs over.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .alcove import (
    Weight,
    bounds_report,
    ideal_closure,
    root_datum_build,
)
from .algebra_core import (
    QuiverPresentation,
    build_algebra,
    gr_algebra,
    subalgebra_from_generators,
)
from .errors import GrkoszulError
from .exactlin import QQ
from .klpoly import (
    lcf_character,
    load_or_build_tables,
    predict_layers,
    weyl_character,
)
from .qha_engine import (
    WeightPosetIdeal,
    category_kl_and_dual,
    duality_matrix_from_presentation,
    orthogonality_reciprocity_check,
    parity_checks,
    pipeline_checks,
    qha_check,
    standard_modules,
)
from .rep_homology import (
    filtration_slice,
    gr_ext1_compare,
    koszul_check,
    layer_dims,
    projective_rep,
    _global_dimension,
)


def _flag(value: bool) -> str:
    return "true" if value else "false"


# -- shared desk-scale instances ----------------------------------------------------


def two_vertex_cycle_presentation() -> QuiverPresentation:
    """The 5-dimensional algebra on 1 <-> 2 with the loop through 1 killed."""
    return QuiverPresentation(
        field=QQ,
        vertices=["1", "2"],
        arrows=[("a", "1", "2"), ("b", "2", "1")],
        relations=[[(1, ("b", "a"))]],
        order_pairs=[("1", "2")],
        lengths={"1": 0, "2": 1},
        duality=[("a", 1, "b"), ("b", 1, "a")],
    )


def three_weight_presentation() -> QuiverPresentation:
    """9-dimensional quasi-hereditary instance on the chain 1 < 2 < 3."""
    return QuiverPresentation(
        field=QQ,
        vertices=["1", "2", "3"],
        arrows=[("a1", "1", "2"), ("b1", "2", "1"),
                ("a2", "2", "3"), ("b2", "3", "2")],
        relations=[[(1, ("a1", "a2"))], [(1, ("b2", "b1"))],
                   [(1, ("b1", "a1"))], [(1, ("b2", "a2"))]],
        order_pairs=[("1", "2"), ("2", "3")],
        lengths={"1": 0, "2": 1, "3": 2},
        duality=[("a1", 1, "b1"), ("b1", 1, "a1"),
                 ("a2", 1, "b2"), ("b2", 1, "a2")],
    )


def truncated_polynomial_presentation(power: int) -> QuiverPresentation:
    """K[x]/(x^power) as a one-vertex quiver algebra."""
    return QuiverPresentation(
        field=QQ,
        vertices=["v"],
        arrows=[("x", "v", "v")],
        relations=[[(1, ("x",) * power)]],
    )


def relabeled_cycle_presentation() -> QuiverPresentation:
    """The 5-dimensional model with vertices named by the weights 3 < 5."""
    return QuiverPresentation(
        field=QQ,
        vertices=["3", "5"],
        arrows=[("a", "3", "5"), ("b", "5", "3")],
        relations=[[(1, ("b", "a"))]],
        order_pairs=[("3", "5")],
    )


def _cycle_structure():
    algebra = build_algebra(two_vertex_cycle_presentation())
    poset = WeightPosetIdeal(["1", "2"], [("1", "2")], {"1": 0, "2": 1})
    return algebra, standard_modules(
        algebra, poset, duality_matrix_from_presentation(algebra)
    )


def _three_weight_structure():
    algebra = build_algebra(three_weight_presentation())
    poset = WeightPosetIdeal(
        ["1", "2", "3"], [("1", "2"), ("2", "3")], {"1": 0, "2": 1, "3": 2}
    )
    return algebra, standard_modules(
        algebra, poset, duality_matrix_from_presentation(algebra)
    )


def _whole_algebra_embedding(algebra):
    return subalgebra_from_generators(
        algebra, [algebra.basis_vector(i) for i in range(algebra.dim)]
    )


# -- the criteria --------------------------------------------------------------------


def criterion_b5_suite():
    """Quasi-heredity, global dimension, Koszulity, gr and the Yoneda dual
    of the 5-dimensional instance, all against hand-computed values."""
    algebra, h = _cycle_structure()
    qha_ok = qha_check(h).passed
    gld, gld_exact = _global_dimension(algebra)
    koszul = koszul_check(algebra)
    koszul_ok = koszul.verdict is True and koszul.exact
    graded = gr_algebra(algebra)
    dims_ok = (
        algebra.graded_dims() == [2, 2, 1]
        and graded.graded_dims() == [2, 2, 1]
        and graded.algebra.dim == algebra.dim
    )
    kd = category_kl_and_dual(h, {"1": 0, "2": 1})
    dual_ok = (
        kd.dual_total_dim == 5
        and kd.dual_degree_dims == [2, 2, 1]
        and kd.gr_dual_degree_dims == [2, 2, 1]
        and kd.duals_match
    )
    par = parity_checks(h, {"1": 0, "2": 1})
    par_ok = par.kl and par.skl_prime and par.graded_kl is True
    flat = parity_checks(h, {"1": 0, "2": 0})
    flat_ok = flat.kl is False
    details = [
        "quasi_hereditary=" + _flag(qha_ok),
        "global_dimension=%d exact=%s" % (gld, _flag(gld_exact)),
        "koszul=" + _flag(koszul_ok),
        "graded_dims=" + ",".join(map(str, algebra.graded_dims())),
        "gr_graded_dims=" + ",".join(map(str, graded.graded_dims())),
        "yoneda_dual_dim=%d" % kd.dual_total_dim,
        "yoneda_degree_dims=" + ",".join(map(str, kd.dual_degree_dims)),
        "gr_dual_match=" + _flag(kd.duals_match),
        "parity_unit_lengths=" + _flag(par_ok),
        "parity_flat_lengths_kl=" + _flag(flat.kl),
    ]
    passed = all([
        qha_ok, (gld, gld_exact) == (2, True), koszul_ok, dims_ok, dual_ok,
        par_ok, flat_ok,
    ])
    return passed, details


def criterion_orthogonality():
    """dim Ext^n(standard, costandard) is the double delta, exactly, on the
    2-weight and the 3-weight instances up to the global dimension."""
    _, h2 = _cycle_structure()
    _, h3 = _three_weight_structure()
    r2 = orthogonality_reciprocity_check(h2)
    r3 = orthogonality_reciprocity_check(h3)
    details = [
        "two_weight=%s bound=%d exact=%s"
        % (_flag(r2.orthogonality_ok), r2.bound, _flag(r2.exact_bound)),
        "three_weight=%s bound=%d exact=%s"
        % (_flag(r3.orthogonality_ok), r3.bound, _flag(r3.exact_bound)),
    ]
    passed = (r2.orthogonality_ok and r2.exact_bound
              and r3.orthogonality_ok and r3.exact_bound)
    return passed, details


def criterion_koszul_discrimination():
    """x^2 truncation Koszul, x^3 truncation not, with the expected witness."""
    quad = koszul_check(build_algebra(truncated_polynomial_presentation(2)))
    cubic = koszul_check(build_algebra(truncated_polynomial_presentation(3)))
    witness = cubic.witness or ""
    details = [
        "square_zero=" + _flag(quad.verdict is True and quad.exact),
        "cube_zero_koszul=" + _flag(bool(cubic.verdict)),
        "witness=" + witness,
    ]
    passed = (
        quad.verdict is True and quad.exact
        and cubic.verdict is False and cubic.exact
        and "degree-2" in witness and "grade 3" in witness
    )
    return passed, details


def criterion_gr_ext1_agreement():
    """Ext^1 of every radical truncation of a projective agrees with Ext^1
    of its gr over gr A, both sides computed independently."""
    passed = True
    details = []
    for tag, pres in (("cubic", truncated_polynomial_presentation(3)),
                      ("two_vertex", two_vertex_cycle_presentation())):
        algebra = build_algebra(pres)
        graded = gr_algebra(algebra)
        agree = True
        rows = 0
        for v in pres.vertices:
            proj = projective_rep(algebra, v)
            for r in range(1, algebra.radical_length + 1):
                report = gr_ext1_compare(filtration_slice(proj, 0, r), graded=graded)
                agree = agree and report.all_equal
                rows += len(report.rows)
        passed = passed and agree
        details.append("%s_rows=%d equal=%s" % (tag, rows, _flag(agree)))
    return passed, details


def criterion_kl_engine():
    """Inversion identity on every Bruhat interval, t^2-parity (every
    q-exponent a non-negative int, so every t-exponent is even), constant
    term 1 and the degree bound, on the two affine reference tables.  Each
    table is built here on a fresh datum, and the build proves the identity
    on every interval and counts them in intervals_verified."""
    passed = True
    details = []
    jobs = (
        ("affine_a1", load_or_build_tables(root_datum_build("A", 1), 5, 8)),
        ("affine_a2", load_or_build_tables(root_datum_build("A", 2), 3, 6)),
    )
    for tag, tables in jobs:
        t = tables.table
        pairs = sum(len(s) for s in t.lower_sets)
        verified = tables.intervals_verified
        shape_ok = even_ok = True
        for store in (tables.kl, tables.inverse):
            for (xi, wi), poly in store.items():
                if not all(type(k) is int and k >= 0 for k in poly):
                    even_ok = False
                if poly.get(0, 0) != 1:
                    shape_ok = False
                gap = t.elements[wi].length - t.elements[xi].length
                if xi != wi and poly and 2 * max(poly) > gap - 1:
                    shape_ok = False
        passed = passed and verified == pairs and shape_ok and even_ok
        details.append(
            "%s_intervals=%d pairs=%d shape=%s parity=%s"
            % (tag, verified, pairs, _flag(shape_ok), _flag(even_ok))
        )
    return passed, details


def criterion_layer_cross_validation():
    """The inverse-polynomial layer prediction for the weight 5 equals the
    radical filtration of the standard module on the relabeled quiver."""
    a1 = root_datum_build("A", 1)

    def predicted(lam):
        pred = predict_layers(a1, 5, Weight((lam,)))
        return tuple(
            tuple(sorted((w.coordinates[0], m) for w, m in layer))
            for layer in pred.layers
        )

    algebra = build_algebra(relabeled_cycle_presentation())
    poset = WeightPosetIdeal(["3", "5"], [("3", "5")])
    h = standard_modules(algebra, poset)

    def computed(lam):
        return tuple(
            tuple(sorted((int(v), d) for v, d in layer.items() if d))
            for layer in layer_dims(h.standards[str(lam)])
        )

    table5 = predicted(5)
    table3 = predicted(3)
    details = [
        "predicted_5=" + ";".join("%d@%d" % (w, n) for n, layer in enumerate(table5)
                                  for w, _ in layer),
        "computed_5=" + ";".join("%d@%d" % (w, n) for n, layer in enumerate(computed(5))
                                 for w, _ in layer),
    ]
    passed = (
        table5 == (((5, 1),), ((3, 1),))
        and computed(5) == table5
        and table3 == (((3, 1),),)
        and computed(3) == table3
    )
    details.append("match=" + _flag(passed))
    return passed, details


def criterion_bound_battery():
    """Fattening growth strict for m >= 0, the restricted-ideal threshold
    whenever its hypothesis holds, and the depth bound dominating the
    computed global dimension on the supplied quiver models, over more than
    one hundred single-generator ideals."""
    a1 = root_datum_build("A", 1)
    a2 = root_datum_build("A", 2)
    count = 0
    growth_ok = threshold_ok = pair_ok = True
    for rd, p, gens in (
        (a1, 5, [Weight((k,)) for k in range(60)]),
        (a2, 7, [Weight((i, j)) for i in range(7) for j in range(7)]),
    ):
        for gen in gens:
            report = bounds_report(rd, p, ideal_closure(rd, p, [gen]), m_max=0)
            count += 1
            growth_ok = growth_ok and all(
                holds and lhs < rhs for _, lhs, rhs, holds in report.growth_rows
            )
            if report.restricted_subset:
                threshold_ok = threshold_ok and all(
                    holds for *_, holds in report.threshold_rows
                )
                pair_ok = pair_ok and all(
                    holds for _, hyp, _, _, holds in report.pair_rows if hyp
                )

    # quiver models of three A1 truncations; the depth bound must dominate
    # the global dimension computed from the model
    models = (
        (3, QuiverPresentation(field=QQ, vertices=["1", "3"], arrows=[])),
        (5, QuiverPresentation(
            field=QQ, vertices=["1", "3", "5"],
            arrows=[("a", "3", "5"), ("b", "5", "3")],
            relations=[[(1, ("b", "a"))]])),
        (7, QuiverPresentation(
            field=QQ, vertices=["1", "3", "5", "7"],
            arrows=[("a", "3", "5"), ("b", "5", "3"),
                    ("c", "1", "7"), ("d", "7", "1")],
            relations=[[(1, ("b", "a"))], [(1, ("d", "c"))]])),
    )
    model_ok = True
    details = ["ideals=%d" % count,
               "growth_strict=" + _flag(growth_ok),
               "threshold=" + _flag(threshold_ok),
               "paired=" + _flag(pair_ok)]
    for top, pres in models:
        report = bounds_report(a1, 5, ideal_closure(a1, 5, [Weight((top,))]), m_max=0)
        gld, exact = _global_dimension(build_algebra(pres))
        ok = (exact and report.global_dim_bound is not None
              and report.global_dim_bound >= gld)
        model_ok = model_ok and ok
        details.append(
            "model_top_%d=bound %s gldim %d ok=%s"
            % (top, report.global_dim_bound, gld, _flag(ok))
        )
    passed = count >= 100 and growth_ok and threshold_ok and pair_ok and model_ok
    return passed, details


def criterion_character_formula():
    """The alternating character formula against the classical character
    oracle: the difference of two Weyl characters in rank 1, equality on the
    lowest cell, and non-negative multiplicities on rank 2 samples."""
    a1 = root_datum_build("A", 1)
    r5 = lcf_character(a1, 5, Weight((5,)))
    delta5 = weyl_character(a1, Weight((5,)))
    delta3 = weyl_character(a1, Weight((3,)))
    dim_ok = r5.dimension == 2 and delta5.dimension - delta3.dimension == 2
    mult_ok = all(
        r5.character.multiplicity(w) == delta5.multiplicity(w) - delta3.multiplicity(w)
        for w in [Weight((k,)) for k in range(0, 6)]
    )
    lowest = lcf_character(a1, 5, Weight((3,)))
    lowest_ok = (
        len(lowest.terms) == 1
        and dict(lowest.character.dominant_multiplicities)
        == dict(weyl_character(a1, Weight((3,))).dominant_multiplicities)
    )
    a2 = root_datum_build("A", 2)
    samples = [
        ("a2_e7_55", lcf_character(a2, 7, Weight((5, 5)))),
        ("a2_e7_66", lcf_character(a2, 7, Weight((6, 6)))),
        ("a2_e3_11", lcf_character(a2, 3, Weight((1, 1)))),
    ]
    sample_ok = all(s.non_negative for _, s in samples)
    steinberg_ok = samples[1][1].dimension == 343
    details = [
        "rank1_dimension=%d oracle=%d" % (r5.dimension,
                                          delta5.dimension - delta3.dimension),
        "rank1_multiplicities=" + _flag(mult_ok),
        "lowest_cell_equality=" + _flag(lowest_ok),
    ]
    details.extend(
        "%s=dim %d non_negative=%s" % (tag, s.dimension, _flag(s.non_negative))
        for tag, s in samples
    )
    passed = dim_ok and mult_ok and lowest_ok and sample_ok and steinberg_ok
    return passed, details


def criterion_pipeline():
    """Transfer pipeline: hypotheses verified and Koszulity of gr confirmed
    on the 5-dimensional instance; on the cubic truncation the first
    hypothesis fails, the conclusion is reported as not implied, and the
    direct check still decides non-Koszulity."""
    algebra, h = _cycle_structure()
    rep = pipeline_checks(h, _whole_algebra_embedding(algebra))
    b5_ok = (
        rep.pair.passed
        and rep.restriction.passed
        and rep.koszul_pipeline.truncation_sub_koszul is True
        and rep.koszul_pipeline.implied
        and rep.koszul_pipeline.gr_koszul is True
    )
    cubic = build_algebra(truncated_polynomial_presentation(3))
    hc = standard_modules(cubic, WeightPosetIdeal(["v"], [], {"v": 0}))
    repc = pipeline_checks(hc, _whole_algebra_embedding(cubic))
    cubic_ok = (
        repc.pair.ambient_qha is False
        and not repc.koszul_pipeline.implied
        and repc.koszul_pipeline.gr_koszul is False
    )
    details = [
        "pair_hypotheses=" + _flag(rep.pair.passed),
        "restriction_hypotheses=" + _flag(rep.restriction.passed),
        "sub_koszul=" + _flag(rep.koszul_pipeline.truncation_sub_koszul is True),
        "gr_koszul=" + _flag(rep.koszul_pipeline.gr_koszul is True),
        "cubic_first_hypothesis=" + _flag(bool(repc.pair.ambient_qha)),
        "cubic_implied=" + _flag(bool(repc.koszul_pipeline.implied)),
        "cubic_direct_koszul=" + _flag(bool(repc.koszul_pipeline.gr_koszul)),
    ]
    return b5_ok and cubic_ok, details


# -- the runner ----------------------------------------------------------------------


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: list[str]
    seconds: float
    budget: float | None


CRITERIA = (
    (1, "b5_suite", criterion_b5_suite),
    (2, "standard_costandard_orthogonality", criterion_orthogonality),
    (3, "koszul_discrimination", criterion_koszul_discrimination),
    (4, "gr_ext1_agreement", criterion_gr_ext1_agreement),
    (5, "kl_inversion_engine", criterion_kl_engine),
    (6, "layer_prediction_cross_validation", criterion_layer_cross_validation),
    (7, "numerical_bound_battery", criterion_bound_battery),
    (8, "character_formula_evaluation", criterion_character_formula),
    (9, "koszulity_transfer_pipeline", criterion_pipeline),
)

_BUDGET_SECONDS = {1: 1.0, 3: 1.0, 5: 60.0, 7: 120.0}


def run_selftest(numbers: list[int] | None = None) -> list[CriterionResult]:
    """Run the chosen criteria (all by default), never raising: a criterion
    that throws a package error is reported as failed with the message."""
    chosen = set(numbers) if numbers else None
    results = []
    for number, name, fn in CRITERIA:
        if chosen is not None and number not in chosen:
            continue
        start = time.process_time()
        try:
            passed, details = fn()
        except GrkoszulError as exc:
            passed, details = False, ["error=%s" % exc]
        seconds = time.process_time() - start
        budget = _BUDGET_SECONDS.get(number)
        if budget is not None and seconds > budget:
            passed = False
            details.append("runtime_budget_exceeded=%.2fs limit=%.0fs"
                           % (seconds, budget))
        results.append(CriterionResult(number, name, passed, details, seconds, budget))
    return results
