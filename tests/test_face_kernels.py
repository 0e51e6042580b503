"""The per-kind kernels (_flat, _convex, _concave) against the one fused
kernel they replaced.

_face_eval and _resolve_face below are verbatim copies of that kernel
and of the resolver that fed it, kept as the reference: a resolved face
now carries its kernel and the kernel's hoisted constants, and every
(C, dC/dd) must come out bit for bit as before, over a seeded grid of
kinds, profiles, gaps and permittivities spanning the model envelope.
Outside a face's gap interval the public functions, and the quadrature
oracle, must raise the same GeometryDomainError, with the same text,
kind and gap. The cell a
per-point call builds in one pass must hold, on each side, exactly the
face _resolve_face builds from that side's profile.
"""

import math
import random

import pytest

from curvedcomb import (
    ArcProfile,
    ElectrodeConfig,
    FaceKind,
    PlanarProfile,
    Variant,
    capacitance,
    dcap_dgap,
    face_capacitance,
    quad_capacitance,
    transduction,
)
from curvedcomb.capacitance import GeometryDomainError
from curvedcomb.model import _ENVELOPE, SIDE_KINDS, _check_profile, side_gap_bounds

# ---- reference: the fused kernel as it was, verbatim ----------------------

_Face = tuple[FaceKind, ArcProfile | PlanarProfile, float, float, float | None]


def _resolve_face(kind: FaceKind, profile: ArcProfile | PlanarProfile) -> _Face:
    """The face of kind on profile; raises ValueError if the profile type
    does not fit the kind (PlanarProfile for FLAT, ArcProfile otherwise)."""
    _check_profile(kind, profile)
    lo, hi = side_gap_bounds(kind, profile)
    t = None if kind is FaceKind.FLAT else math.tan(profile.angular_extent_rad / 4.0)
    return kind, profile, lo, hi, t


def _face_eval(face: _Face, gap_m: float, permittivity: float) -> tuple[float, float]:
    """(C, dC/dd) of one resolved face at its closed-form gap, in F and F/m;
    raises GeometryDomainError if gap_m is outside side_gap_bounds."""
    kind, profile, lo, hi, t = face
    if not lo < gap_m < hi:
        raise GeometryDomainError(
            f"{kind.value} face needs a gap in ({lo}, {hi}) m, got {gap_m} m",
            kind=kind,
            gap_m=gap_m,
        )
    if kind is FaceKind.FLAT:
        k = permittivity * profile.thickness_m * profile.length_m
        return k / gap_m, -k / gap_m**2
    r = profile.radius_m
    lead = 4.0 * permittivity * profile.thickness_m * r
    if kind is FaceKind.CONVEX:
        n = 2.0 * r + gap_m
        p = gap_m * n
        atan_term = math.atan(t * math.sqrt(n / gap_m))
        return lead / math.sqrt(p) * atan_term, -lead * (
            t * r / (p * (gap_m + t * t * n)) + (r + gap_m) * atan_term / p**1.5
        )
    m = 2.0 * r - gap_m
    q = gap_m * m
    # the atanh argument is < 1 whenever the edge gap is > 0, and
    # gap - t^2 * m > 0 is its squared form, so both denominators are safe
    atanh_term = math.atanh(t * math.sqrt(m / gap_m))
    return lead / math.sqrt(q) * atanh_term, -lead * (
        t * r / (q * (gap_m - t * t * m)) + (r - gap_m) * atanh_term / q**1.5
    )


# ---- the grid --------------------------------------------------------------

L_LO, L_HI = _ENVELOPE["length"]
E_LO, E_HI = _ENVELOPE["permittivity"]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _profiles(rng: random.Random, count: int):
    """Arc profiles over the envelope, its corners included."""
    for i in range(count):
        r = (L_LO, L_HI)[i % 2] if i < 4 else _log_uniform(rng, L_LO, L_HI)
        h = (L_LO, L_HI)[i // 2 % 2] if i < 4 else _log_uniform(rng, L_LO, L_HI)
        # R*phi inside the envelope, phi below pi
        arc = _log_uniform(rng, 1e-9, min(1.0, 0.999 * math.pi * r))
        yield ArcProfile(r, arc / r, h)


def _inside(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """Gaps strictly inside (lo, hi): both ends to the ulp, and a spread
    that crowds toward lo (the concave edge) and across the decades."""
    gaps = [math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf)]
    for _ in range(count):
        gaps.append(lo + (hi - lo) * 10.0 ** rng.uniform(-16.0, 0.0))
        gaps.append(_log_uniform(rng, lo, hi))
    return [g for g in gaps if lo < g < hi]


def _outside(lo: float, hi: float) -> list[float]:
    return [lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
            0.0, -1e-6, math.inf, math.nan]


def _cases(seed: int):
    """(kind, profile, permittivity, (lo, hi)) over the grid."""
    rng = random.Random(seed)
    for prof in _profiles(rng, 60):
        flat = PlanarProfile(prof.arc_length(), prof.thickness_m)
        for eps in (E_LO, E_HI, _log_uniform(rng, E_LO, E_HI)):
            for kind in FaceKind:
                face = flat if kind is FaceKind.FLAT else prof
                yield kind, face, eps, side_gap_bounds(kind, face)


def _new(kind, profile, gap_m, eps):
    face = capacitance._resolve_face(kind, profile, eps)
    return face[0](face, gap_m)


@pytest.mark.parametrize("seed", [3, 4])
def test_kernels_match_the_fused_kernel_bit_for_bit(seed):
    rng = random.Random(seed + 100)
    checked = 0
    for kind, profile, eps, (lo, hi) in _cases(seed):
        ref_face = _resolve_face(kind, profile)
        for gap in _inside(rng, lo, hi, 4):
            ref = _face_eval(ref_face, gap, eps)
            assert _new(kind, profile, gap, eps) == ref, (kind, profile, gap, eps)
            assert face_capacitance(kind, profile, gap, eps) == ref[0]
            assert dcap_dgap(kind, profile, gap, eps) == ref[1]
            checked += 1
    assert checked > 3000


@pytest.mark.parametrize("seed", [3, 4])
def test_flat_face_cut_to_an_arc_matches_its_planar_profile(seed):
    rng = random.Random(seed + 200)
    for prof in _profiles(rng, 60):
        flat = PlanarProfile(prof.arc_length(), prof.thickness_m)
        arc = prof.radius_m, prof.angular_extent_rad, prof.thickness_m
        for eps in (E_LO, E_HI, _log_uniform(rng, E_LO, E_HI)):
            at_arc = capacitance._resolve_at_arc(FaceKind.FLAT, *arc, eps, prof.sagitta())
            assert at_arc == capacitance._resolve_face(FaceKind.FLAT, flat, eps)
            # a curved face resolved at the arc takes the reference's bounds
            # and values (the public path's _resolve_face calls _resolve_at_arc)
            for kind in (FaceKind.CONVEX, FaceKind.CONCAVE):
                face = capacitance._resolve_at_arc(kind, *arc, eps, prof.sagitta())
                bounds = side_gap_bounds(kind, prof)
                assert face[1:3] == bounds
                ref_face = _resolve_face(kind, prof)
                for gap in _inside(rng, *bounds, 4):
                    assert face[0](face, gap) == _face_eval(ref_face, gap, eps)
            for gap in _inside(rng, *side_gap_bounds(FaceKind.FLAT, flat), 4):
                ref = _face_eval(_resolve_face(FaceKind.FLAT, flat), gap, eps)
                assert at_arc[0](at_arc, gap) == ref


@pytest.mark.parametrize("public", [face_capacitance, dcap_dgap, quad_capacitance])
def test_out_of_domain_gaps_raise_the_same_error(public):
    cases = 0
    for kind, profile, eps, (lo, hi) in _cases(5):
        ref_face = _resolve_face(kind, profile)
        for gap in _outside(lo, hi):
            with pytest.raises(GeometryDomainError) as ref:
                _face_eval(ref_face, gap, eps)
            with pytest.raises(GeometryDomainError) as new:
                public(kind, profile, gap, eps)
            assert str(new.value) == str(ref.value)
            assert new.value.kind is ref.value.kind
            assert repr(new.value.gap_m) == repr(ref.value.gap_m)
            cases += 1
    assert cases > 1000


@pytest.mark.parametrize("seed", [6, 7])
def test_the_cell_of_a_call_holds_resolve_face_on_each_side(seed):
    # configs built directly, too: a flat face of another thickness, one
    # 5e-10 longer or shorter than the arc (inside the plano pairings'
    # length tolerance) and one of another length (every pairing but those)
    rng = random.Random(seed + 300)
    cells = set()
    for prof in _profiles(rng, 40):
        arc, h = prof.arc_length(), _log_uniform(rng, L_LO, L_HI)
        flats = (
            PlanarProfile(arc, prof.thickness_m),
            PlanarProfile(arc, h),
            PlanarProfile(arc * (1.0 + 5e-10 if arc < 0.5 else 1.0 - 5e-10), h),
            PlanarProfile(_log_uniform(rng, 1e-9, 1.0), h),
        )
        for eps in (E_LO, E_HI, _log_uniform(rng, E_LO, E_HI)):
            for variant in Variant:
                for i, flat in enumerate(flats):
                    try:
                        config = ElectrodeConfig(variant, prof, flat)
                    except ValueError:  # a plano pairing's flat face is cut to the arc
                        continue
                    cell = transduction._cell(config, 1e-6, 2e-6, eps)
                    assert cell[0] is variant and cell[3:] == (1e-6, 2e-6)
                    kinds = SIDE_KINDS[variant]
                    for kind, face in zip(kinds, cell[1:3]):
                        profile = flat if kind is FaceKind.FLAT else prof
                        assert face == capacitance._resolve_face(kind, profile, eps)
                    assert (cell[2] is cell[1]) == (kinds[0] is kinds[1])
                    cells.add((variant, i))
    assert len(cells) == 5 * 4 + 2 * 3
