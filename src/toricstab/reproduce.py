"""End-to-end verification suite.

Each criterion is a callable returning ``(ok, detail)``; the CLI
``reproduce`` subcommand and the acceptance tests both drive this list,
so there is a single source of truth for what the tool promises.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import integration, invariants, plfunc, report
from .catalog import catalog, hexagon
from .errors import InvalidHexagonParams
from .plfunc import AffineFunction, make_pl
from .destabilizer import ScanConfig, scan

SEED = 20240811

CATALOG_FOR_SUITES = (
    "cp2",
    "cp1xcp1",
    "cp2_1blowup",
    "cp2_2blowup",
    "cp2_3blowup",
    "hexagon(2,3)",
)

# Alternative extremal coefficient sometimes quoted for the one-point
# blow-up; the audit checks it alongside the moment-solve result without
# assuming either.
BLOWUP1_REFERENCE_COEFF = Fraction(5, 29)


def random_rational(rng) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def random_affine(rng, dim) -> AffineFunction:
    return AffineFunction(
        tuple(random_rational(rng) for _ in range(dim)), random_rational(rng)
    )


def random_convex_pl(rng, poly):
    count = rng.randint(2, 4)
    return make_pl([random_affine(rng, poly.dim) for _ in range(count)], poly)


def _crease_x1(poly):
    return make_pl(
        [plfunc.zero_function(poly.dim),
         AffineFunction((Fraction(1), Fraction(0)), Fraction(0))],
        poly,
    )


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_extremal_exactness():
    """Two-point blow-up extremal coefficients are exactly -168/409."""
    start = time.perf_counter()
    poly = catalog("cp2_2blowup")
    rep = report.build_report(poly, name="cp2_2blowup")
    elapsed = time.perf_counter() - start
    want = str(Fraction(-168, 409))
    coeffs = [c["exact"] for c in rep["extremal"]["coefficients"]]
    ok = coeffs == [want, want] and elapsed < 1.0
    return ok, f"a = {coeffs}, elapsed {elapsed:.3f}s"


def criterion_centering_exactness():
    """Two-point blow-up centering constants equal 1/(3 Vol) = 2/21."""
    start = time.perf_counter()
    poly = catalog("cp2_2blowup")
    c = invariants.centering_constants(poly)
    elapsed = time.perf_counter() - start
    want = 1 / (3 * poly.volume)
    ok = c == (want, want) and want == Fraction(2, 21) and elapsed < 1.0
    return ok, f"c = {c}, elapsed {elapsed:.3f}s"


def criterion_curvature_averages():
    """Curvature average 2 on the Fano surfaces; hexagon closed form."""
    failures = []
    for name in ("cp2", "cp1xcp1", "cp2_1blowup", "cp2_2blowup", "cp2_3blowup"):
        rbar = invariants.average_scalar_curvature(catalog(name))
        if rbar != 2:
            failures.append(f"{name}: {rbar}")
    for lam, mu in ((1, 1), (2, 3), (3, 2), (1, 2)):
        rbar = invariants.average_scalar_curvature(hexagon(lam, mu))
        want = Fraction(2 * (mu + lam), 4 * lam * mu - mu**2 - lam**2)
        if rbar != want:
            failures.append(f"hexagon({lam},{mu}): {rbar} != {want}")
    return not failures, "; ".join(failures) or "all exact"


def criterion_condition_suite():
    """Main condition on the Fano surfaces, range bounds, hexagon window."""
    failures = []
    for name in ("cp2", "cp1xcp1", "cp2_3blowup"):
        poly = catalog(name)
        ext = invariants.extremal_field(poly)
        verdict = invariants.check_condition(poly, ext, "c02")
        if ext.norm != 0 or not verdict.holds:
            failures.append(f"{name}: norm {ext.norm}, c02 {verdict.holds}")
    pent = catalog("cp2_2blowup")
    ext = invariants.extremal_field(pent)
    verdict = invariants.check_condition(pent, ext, "c02")
    if not verdict.holds or verdict.margin != Fraction(105, 409):
        failures.append(f"cp2_2blowup margin {verdict.margin}")
    for name in ("cp2_1blowup", "cp2_2blowup"):
        poly = catalog(name)
        ext = invariants.extremal_field(poly)
        if not (-2 < ext.theta_min and ext.theta_max < 1):
            failures.append(
                f"{name}: theta range [{ext.theta_min}, {ext.theta_max}]"
            )
    for lam, mu in ((2, 3), (3, 2)):
        poly = hexagon(lam, mu)
        ext = invariants.extremal_field(poly)
        verdict = invariants.check_condition(poly, ext, "c61")
        if not verdict.holds:
            failures.append(f"hexagon({lam},{mu}) window fails")
    try:
        hexagon(1, 3)
        failures.append("hexagon(1,3) was not rejected")
    except InvalidHexagonParams:
        pass
    return not failures, "; ".join(failures) or "all conditions as expected"


def criterion_affine_kernel():
    """The functional vanishes exactly on 100 random affine functions each."""
    rng = random.Random(SEED)
    failures = 0
    total = 0
    for name in CATALOG_FOR_SUITES:
        poly = catalog(name)
        ext = invariants.extremal_field(poly)
        for _ in range(100):
            u = make_pl([random_affine(rng, poly.dim)], poly)
            total += 1
            if invariants.linear_functional_L(poly, u, ext) != 0:
                failures += 1
    return failures == 0, f"{failures} failures out of {total}"


def criterion_cone_form_agreement():
    """Boundary form equals cone form on 50 random convex PL functions each."""
    rng = random.Random(SEED + 1)
    failures = 0
    total = 0
    for name in CATALOG_FOR_SUITES:
        poly = catalog(name)
        ext = invariants.extremal_field(poly)
        for _ in range(50):
            u = random_convex_pl(rng, poly)
            total += 1
            lhs = invariants.linear_functional_L(poly, u, ext)
            rhs = invariants.linear_functional_L_cone(poly, u, ext)
            if lhs != rhs:
                failures += 1
    return failures == 0, f"{failures} disagreements out of {total}"


def criterion_sign_behaviour():
    """Functional nonnegative on the two-point blow-up; zero only on affine."""
    rng = random.Random(SEED + 2)
    poly = catalog("cp2_2blowup")
    ext = invariants.extremal_field(poly)
    failures = []
    for i in range(200):
        u = random_convex_pl(rng, poly)
        value = invariants.linear_functional_L(poly, u, ext)
        affine_u = plfunc.is_affine(u)
        if value < 0:
            failures.append(f"sample {i}: L = {value} < 0")
        if value == 0 and not affine_u:
            failures.append(f"sample {i}: L = 0 on a non-affine function")
        if not affine_u:
            deg = invariants.relative_futaki(poly, u, ext)
            if not deg.rel_futaki < 0:
                failures.append(f"sample {i}: invariant {deg.rel_futaki} not < 0")
    return not failures, "; ".join(failures[:3]) or "200 samples consistent"


def criterion_relative_futaki_spot():
    """On the plane's polytope with u = max(0, x1) the invariant is -4/27."""
    poly = catalog("cp2")
    ext = invariants.extremal_field(poly)
    deg = invariants.relative_futaki(poly, _crease_x1(poly), ext)
    ok = deg.rel_futaki == Fraction(-4, 27) and deg.L_value == Fraction(4, 3)
    return ok, f"L = {deg.L_value}, invariant = {deg.rel_futaki}"


def criterion_lattice_residuals():
    """Residuals: exactly 1/2 on the square at k in {10,25,50}; bounded on cp2."""
    failures = []
    square = catalog("cp1xcp1")
    phi = _crease_x1(square)
    for k in (10, 25, 50):
        res = integration.ehrhart_residual(square, phi, k)
        if res != Fraction(1, 2):
            failures.append(f"square k={k}: {res}")
    tri = catalog("cp2")
    phi = _crease_x1(tri)
    for k in range(1, 51):
        res = integration.ehrhart_residual(tri, phi, k)
        if abs(res) > 2:
            failures.append(f"cp2 k={k}: {res}")
    return not failures, "; ".join(failures[:4]) or "residuals in bounds"


def criterion_pairing_identity():
    """Boundary integral of the potential equals its squared volume integral."""
    failures = []
    for name in ("cp2_2blowup", "cp2_1blowup"):
        poly = catalog(name)
        ext = invariants.extremal_field(poly)
        theta_poly = ext.theta.form
        lhs = integration.boundary_integral(poly, theta_poly)
        rhs = integration.integrate_polynomial(poly, theta_poly * theta_poly)
        if lhs != rhs:
            failures.append(f"{name}: {lhs} != {rhs}")
    return not failures, "; ".join(failures) or "identity exact"


def criterion_blowup1_audit():
    """One-point blow-up: moment solve vs the quoted alternative coefficient.

    Reports both values; verifies both keep the potential inside (-2, 1)
    and satisfy the main condition, and that the computed one satisfies
    the boundary/self-pairing identity.  Passing is about internal
    consistency, not about the two values agreeing.
    """
    poly = catalog("cp2_1blowup")
    ext = invariants.extremal_field(poly)
    rbar = invariants.average_scalar_curvature(poly)
    failures = []
    if ext.a != (Fraction(6, 11), Fraction(6, 11)):
        failures.append(f"moment solve gave {ext.a}, expected (6/11, 6/11)")

    candidates = {
        "computed": ext.theta,
        "reference": AffineFunction(
            (BLOWUP1_REFERENCE_COEFF, BLOWUP1_REFERENCE_COEFF),
            BLOWUP1_REFERENCE_COEFF * sum(ext.c),
        ),
    }
    n = poly.dim
    bounds = [f.halfspace.bound for f in poly.facets]
    for label, theta in candidates.items():
        values = [theta.evaluate(v) for v in poly.vertices]
        tmin, tmax = min(values), max(values)
        if not (-2 < tmin and tmax < 1):
            failures.append(f"{label}: range [{tmin}, {tmax}] outside (-2, 1)")
        norm = max(abs(tmin), abs(tmax))
        if not all(rbar + norm <= Fraction(n + 1, 1) / b for b in bounds):
            failures.append(f"{label}: main condition fails with norm {norm}")

    theta_poly = ext.theta.form
    lhs = integration.boundary_integral(poly, theta_poly)
    rhs = integration.integrate_polynomial(poly, theta_poly * theta_poly)
    if lhs != rhs:
        failures.append(f"consistency identity fails: {lhs} != {rhs}")
    detail = (
        f"computed a = {ext.a[0]}, reference alternative = "
        f"{BLOWUP1_REFERENCE_COEFF}; " + ("; ".join(failures) or "both admissible")
    )
    return not failures, detail


def criterion_scan_sanity():
    """Default-grid scan of the square: positive estimate, no destabilizer."""
    start = time.perf_counter()
    poly = catalog("cp1xcp1")
    ext = invariants.extremal_field(poly)
    result = scan(poly, ext, ScanConfig())
    elapsed = time.perf_counter() - start
    ok = (
        result.lambda_star_estimate > 0
        and not result.destabilizer_found
        and elapsed < 10.0
    )
    return ok, (
        f"lambda* <= {result.lambda_star_estimate}, "
        f"{result.candidates_evaluated} candidates, elapsed {elapsed:.2f}s"
    )


CRITERIA = (
    ("extremal-field-exactness", criterion_extremal_exactness),
    ("centering-exactness", criterion_centering_exactness),
    ("curvature-averages", criterion_curvature_averages),
    ("condition-suite", criterion_condition_suite),
    ("affine-kernel", criterion_affine_kernel),
    ("cone-form-agreement", criterion_cone_form_agreement),
    ("sign-behaviour", criterion_sign_behaviour),
    ("relative-futaki-spot", criterion_relative_futaki_spot),
    ("lattice-residuals", criterion_lattice_residuals),
    ("pairing-identity", criterion_pairing_identity),
    ("blowup1-audit", criterion_blowup1_audit),
    ("scan-sanity", criterion_scan_sanity),
)


def run_all() -> bool:
    """Run every criterion, print one pass/fail line each, return overall."""
    all_ok = True
    for index, (name, fn) in enumerate(CRITERIA, start=1):
        ok, detail = fn()
        all_ok = all_ok and ok
        state = "PASS" if ok else "FAIL"
        print(f"[{index:2d}/{len(CRITERIA)}] {state} {name}: {detail}")
    return all_ok
