"""The dimension-3 potential catalog and its verification pipeline.

Each entry is a homogeneous cubic potential in normal form together
with the expected generators of its Poisson center.  Reducibility flags
are hard-coded from the normal forms; no factorization is performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# center_oracle is not called here, but stays importable from catalog:
# the layer spans of bench/spans.py are checked on this name
from .center import (  # noqa: F401
    center_oracle,
    graded_kernel,
    graded_span_dims,
    independent_brackets,
    is_central,
)
from .deriv import (
    Derivation,
    apply_derivation,
    divergence,
    is_poisson_derivation,
    is_unimodular,
    modular_derivation,
)
from .errors import (
    AlreadyUnimodular,
    InternalCheckFailed,
    Limits,
    NotGraded,
    NotPoissonDerivation,
    PoisError,
    SmallCharacteristic,
    WrongArity,
)
from .fieldpoly import MultiPoly, ff_inv, parse_poly
from .loz import is_poisson_normal, log_ozone_derivation
from .structure import PoissonStructure, from_potential, twist

FORM_IDS = (
    "Cube",
    "SquareLine",
    "ThreeLines",
    "TwoLinesDouble",
    "LineConic1",
    "LineConic2",
    "Irr1",
    "Irr2",
    "Elliptic",
)


@dataclass(frozen=True)
class PotentialForm:
    """One catalog entry: a cubic potential with expected center data."""

    form_id: str
    p: int
    omega: MultiPoly
    reducible: bool
    expected_center_gens: tuple[MultiPoly, ...]
    lam: Optional[int] = None

    def structure(self) -> PoissonStructure:
        return from_potential(self.omega)

    @property
    def label(self) -> str:
        if self.lam is None:
            return self.form_id
        return f"{self.form_id}(lambda={self.lam})"


def _omega_text(form_id: str) -> str:
    return {
        "Cube": "x1^3",
        "SquareLine": "x1^2*x2",
        "ThreeLines": "2*x1*x2*x3",
        "TwoLinesDouble": "x1^2*x2 + x1*x2^2",
        "LineConic1": "x1^3 + x1^2*x2 + x1*x2*x3",
        "LineConic2": "x1^2*x3 + x1*x2^2",
        "Irr1": "x1^3 + x2^2*x3",
        "Irr2": "x1^3 + x1^2*x3 + x2^2*x3",
    }[form_id]


def elliptic_lambdas(p: int) -> list[int]:
    """Values with lam^3 != -1 in F_p."""
    return [lam for lam in range(p) if pow(lam, 3, p) != (p - 1) % p]


def _make_form(form_id: str, p: int, lam: Optional[int] = None) -> PotentialForm:
    if form_id == "Elliptic":
        lam %= p
        if pow(lam, 3, p) == (p - 1) % p:
            raise PoisError(f"lambda={lam} violates lambda^3 != -1 mod {p}")
        inv3 = ff_inv(3, p)
        omega = parse_poly(
            f"{inv3}*x1^3 + {inv3}*x2^3 + {inv3}*x3^3 + {lam}*x1*x2*x3", p, 3
        )
        reducible = False
    else:
        omega = parse_poly(_omega_text(form_id), p, 3)
        reducible = form_id not in ("Irr1", "Irr2")
    if form_id == "Cube":
        gens = (
            MultiPoly.variable(p, 3, 0),
            MultiPoly.variable(p, 3, 1) ** p,
            MultiPoly.variable(p, 3, 2) ** p,
        )
    else:
        gens = tuple(MultiPoly.variable(p, 3, i) ** p for i in range(3)) + (omega,)
    return PotentialForm(
        form_id=form_id,
        p=p,
        omega=omega,
        reducible=reducible,
        expected_center_gens=gens,
        lam=lam,
    )


def potential_catalog(p: int, lam: Optional[int] = None) -> list[PotentialForm]:
    """The nine normal forms; Elliptic instantiated for every valid
    lambda in F_p unless one is supplied."""
    if p <= 3:
        raise SmallCharacteristic("the catalog assumes p > 3")
    forms = [_make_form(fid, p) for fid in FORM_IDS if fid != "Elliptic"]
    if lam is not None:
        forms.append(_make_form("Elliptic", p, lam))
    else:
        forms.extend(_make_form("Elliptic", p, v) for v in elliptic_lambdas(p))
    return forms


def catalog_form(p: int, form_id: str, lam: Optional[int] = None) -> PotentialForm:
    if p <= 3:
        raise SmallCharacteristic("the catalog assumes p > 3")
    if form_id not in FORM_IDS:
        raise PoisError(f"unknown catalog form {form_id!r}")
    if form_id != "Elliptic" and lam is not None:
        raise PoisError(f"only the Elliptic form has a lambda, not {form_id}")
    if form_id == "Elliptic" and lam is None:
        lam = 0
    return _make_form(form_id, p, lam)


def verify_expected_center(
    form: PotentialForm, max_degree: int, limits: Limits = Limits()
) -> bool:
    """The center's Hilbert function vs that of the subalgebra generated
    by the expected center generators, degree by degree up to max_degree.
    Only the dimensions are compared: the center's graded kernels are
    counted, never read back as polynomials.  Every expected generator is
    checked central first, so the kernels take n - 1 brackets: the one
    the first generator with a nonzero partial implies is dropped (see
    `independent_brackets`)."""
    struct = form.structure()
    for g in form.expected_center_gens:
        if not is_central(struct, g):
            return False
    images = independent_brackets(struct, form.expected_center_gens)
    hilbert = [len(kernel) for _, kernel in graded_kernel(form.p, 3, max_degree, images, limits)]
    dims, _ = graded_span_dims(
        form.p, 3, list(form.expected_center_gens), max_degree
    )
    return hilbert == dims


def verify_div_identity(struct: PoissonStructure, d: Derivation) -> bool:
    """Check d(Omega) = div(d) * Omega for a graded degree-0 Poisson
    derivation of a potential structure (valid for p > 3)."""
    if struct.provenance.kind != "potential":
        raise WrongArity("divergence identity needs a potential structure")
    if struct.p <= 3:
        raise SmallCharacteristic("divergence identity assumes p > 3")
    if not d.is_graded_degree_zero() or not is_poisson_derivation(struct, d):
        raise NotPoissonDerivation(
            "divergence identity needs a graded degree-0 Poisson derivation"
        )
    omega = struct.provenance.omega
    return apply_derivation(d, omega) == divergence(d) * omega


def modular_potential_pipeline(
    struct: PoissonStructure,
) -> tuple[MultiPoly, bool]:
    """Recover a potential for a non-unimodular graded 3-variable
    structure by twisting with a third of the modular derivation.

    Returns (omega, verified) where verified records that omega is
    Poisson normal in the original structure with log-ozone derivation
    equal to the modular derivation.

    When the twisted bracket is identically zero the potential is the
    zero polynomial and no log-ozone verification is possible; the
    result is then (0, False).  (The modular derivation still lies in
    the log-ozone group for such structures, just not as delta_omega.)
    """
    if struct.n != 3:
        raise WrongArity("pipeline is defined for three variables")
    if not struct.graded:
        raise NotGraded("pipeline needs a graded structure")
    if struct.p <= 3:
        raise SmallCharacteristic("pipeline inverts 3, so p > 3 is required")
    if is_unimodular(struct):
        raise AlreadyUnimodular("structure is already unimodular")
    p = struct.p
    phi = modular_derivation(struct)
    delta = phi * ff_inv(3, p)
    twisted = twist(struct, delta)
    if not is_unimodular(twisted):
        raise InternalCheckFailed("twist by phi/3 failed to be unimodular")
    xs = struct.gens()
    omega = (
        xs[0] * twisted.entry(1, 2)
        + xs[1] * twisted.entry(2, 0)
        + xs[2] * twisted.entry(0, 1)
    ) * ff_inv(3, p)
    recovered = from_potential(omega)
    if recovered.table != twisted.table:
        raise InternalCheckFailed("twisted structure is not Jacobian")
    if omega.is_zero:
        return omega, False
    verified = is_poisson_normal(struct, omega) and (
        log_ozone_derivation(struct, omega) == phi
    )
    return omega, verified
