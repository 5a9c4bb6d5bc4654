"""Real-basis Clebsch-Gordan tables, the reference SO(3) tensor product,
per-order SO(2) weights equivalent to a spherical-harmonic-filter tensor
product, and the expansion from irrep features to matrix sub-blocks.

Real CG coefficients are derived from the complex ones (exact rational
arithmetic inside the factorial sums) via the same change of basis used
for the Wigner-D matrices, so the equivariance identity

    contract(C, D1 x, D2 y) = D3 contract(C, x, y)

holds to machine precision for the real matrices of
:func:`so2frames.frames.wigner_d`.  Tables for odd l1+l2+l3 come out
purely imaginary under the basis change; the imaginary part is kept
(any fixed unit phase preserves equivariance and orthonormality).

Tables satisfy sum_{m1,m2} C[m1,m2,m3] C[m1,m2,m3'] = delta_{m3,m3'}
(normalization constant 1).
"""

from __future__ import annotations

import functools
import math
import threading

import numpy as np

from . import autodiff as ad
from .counters import count
from .frames import _u_matrix, frame_from_direction, from_local, to_local
from .irreps import DEFAULT_L_CAP, IrrepsLayout, So3Features, so3_layout
from .so2ops import so2_linear

_TABLES: dict[tuple[int, int, int], np.ndarray] = {}
_TABLES_LOCK = threading.Lock()


def _check_triangle(l1: int, l2: int, l3: int) -> None:
    for l in (l1, l2, l3):
        if l < 0 or l > DEFAULT_L_CAP:
            raise ValueError(f"degree {l} outside [0, {DEFAULT_L_CAP}]")
    if not abs(l1 - l2) <= l3 <= l1 + l2:
        raise ValueError(f"triangle rule violated for ({l1}, {l2}, {l3})")


def _cg_complex(l1: int, l2: int, l3: int) -> np.ndarray:
    """<l1 m1 l2 m2 | l3 m3> from exact integer factorial sums: each sum's
    signed reciprocals add up over their least common denominator, and a
    correctly rounded division gives the float of the exact ratio."""
    fact = math.factorial
    C = np.zeros((2 * l1 + 1, 2 * l2 + 1, 2 * l3 + 1))
    for m1 in range(-l1, l1 + 1):
        for m2 in range(-l2, l2 + 1):
            m3 = m1 + m2
            if abs(m3) > l3:
                continue
            pref = ((2 * l3 + 1) * fact(l3 + l1 - l2) * fact(l3 - l1 + l2) * fact(l1 + l2 - l3)
                    * fact(l3 + m3) * fact(l3 - m3) * fact(l1 - m1) * fact(l1 + m1)
                    * fact(l2 - m2) * fact(l2 + m2))
            ks = range(max(0, -(l3 - l2 + m1), -(l3 - l1 - m2)),
                       min(l1 + l2 - l3, l1 - m1, l2 + m2) + 1)
            dens = [fact(k) * fact(l1 + l2 - l3 - k) * fact(l1 - m1 - k) * fact(l2 + m2 - k)
                    * fact(l3 - l2 + m1 + k) * fact(l3 - l1 - m2 + k) for k in ks]
            common = math.lcm(*dens)
            total = sum((-1) ** k * (common // den) for k, den in zip(ks, dens))
            C[l1 + m1, l2 + m2, l3 + m3] = (total / common
                                            * math.sqrt(pref / fact(l1 + l2 + l3 + 1)))
    return C


def cg_table(l1: int, l2: int, l3: int) -> np.ndarray:
    """Memoized real-basis CG table with axes (m1, m2, m3).

    The returned array is shared and must not be mutated.
    """
    key = (l1, l2, l3)
    table = _TABLES.get(key)
    if table is not None:
        return table
    _check_triangle(l1, l2, l3)
    with _TABLES_LOCK:
        table = _TABLES.get(key)
        if table is not None:
            return table
        Cc = _cg_complex(l1, l2, l3)
        U1, U2, U3 = _u_matrix(l1), _u_matrix(l2), _u_matrix(l3)  # as in wigner_d
        T = np.einsum("abc,ma,nb,kc->mnk", Cc, np.conj(U1), np.conj(U2), U3,
                      optimize=True)
        re, im = np.max(np.abs(T.real)), np.max(np.abs(T.imag))
        if im > re:
            assert re < 1e-12, f"mixed-phase CG table for {key}"
            table = np.ascontiguousarray(T.imag)
        else:
            assert im < 1e-12, f"mixed-phase CG table for {key}"
            table = np.ascontiguousarray(T.real)
        table.setflags(write=False)
        _TABLES[key] = table
    return table


def valid_paths(l_in: tuple[int, ...], l_filter: tuple[int, ...],
                l_out_max: int) -> list[tuple[int, int, int]]:
    """All triangle-valid (l_i, l_f, l_o) triples with l_o <= l_out_max."""
    paths = []
    for li in l_in:
        for lf in l_filter:
            for lo in range(abs(li - lf), min(li + lf, l_out_max) + 1):
                paths.append((li, lf, lo))
    return paths


def so3_tensor_product(x: So3Features, sh: So3Features, weights: dict) -> So3Features:
    """Full CG tensor product of features with a single-channel filter.

    ``weights`` maps each path (l_i, l_f, l_o) to its channel weights, an
    array (channels,): channels act independently.  Computes, per path and
    channel c,

        out[l_o][c, m3] += w[path][c] * sum_{m1,m2} C[m1,m2,m3] x[l_i][c,m1] sh[l_f][m2]

    summed over all paths in ``weights``.  The output layout carries every
    degree reachable by some path, with the channel count of its inputs.
    A path that breaks the triangle rule fails in :func:`cg_table`.
    Counts ``so3_tp`` multiplies in the degree-based model of
    :mod:`.counters`.
    """
    mults = {c for _, c in x.layout.entries}
    if len(mults) != 1:
        raise ValueError("tensor product requires uniform multiplicity across degrees")
    channels = mults.pop()
    if any(c != 1 for _, c in sh.layout.entries):
        raise ValueError("filter must be single-channel")
    out_degrees = sorted({lo for (_, _, lo) in weights})
    acc: dict[int, list] = {lo: [] for lo in out_degrees}
    for (li, lf, lo), w in weights.items():
        if x.layout.mult(li) == 0 or sh.layout.mult(lf) == 0:
            raise ValueError(f"path ({li},{lf},{lo}) not covered by input layouts")
        C = cg_table(li, lf, lo)
        raw = ad.einsum("abc,ua,b->uc", C, x.block(li),
                        ad.reshape(sh.block(lf), (2 * lf + 1,)))
        acc[lo].append(ad.mul(raw, ad.reshape(w, (channels, 1))))
        count("so3_tp", channels * max(1, li * lf * lo))
    layout = so3_layout([(lo, channels) for lo in out_degrees])
    return So3Features(layout, [functools.reduce(ad.add, acc[lo]) for lo in out_degrees])


def filter_pole_amplitude(lf: int) -> float:
    """Value of the degree-lf orthonormal harmonic (m=0) at the target axis."""
    return math.sqrt((2 * lf + 1) / (4.0 * math.pi))


def escn_so2_linear_weights(weights: dict, in_layout: IrrepsLayout,
                            out_degrees, prefix: str) -> dict[str, np.ndarray]:
    """Per-order SO(2) linear weights reproducing the spherical-filter TP.

    Only m = 0 filter components survive canonicalization, so inside the
    local frame of the filter direction each path (l_i, l_f, l_o) with
    channel weights h couples order m of degree l_i to order m of degree
    l_o through its CG column at m2 = 0, scaled by the filter's pole
    amplitude K(l_f):

        w1 += h * K * C[(li, m), (lf, 0), (lo, m)]
        w2 += h * K * -C[(li, -m), (lf, 0), (lo, m)]

    for the action z_{-m} = w1 x_{-m} + w2 x_{+m}, z_{+m} = -w2 x_{-m} + w1 x_{+m}.
    Input channels at order m are the regrouped (degree, channel) slots of
    ``in_layout`` and output channels those of the out_degrees layout;
    slot (lo, c) receives only from slot (li, c).  Paths whose degrees lie
    outside the layouts are ignored.  Works on values only.  Returns the
    flat ``{prefix}/{m}/w1|w2`` dict that :func:`so2ops.so2_linear` reads.
    """
    mults = {c for _, c in in_layout.entries}
    if len(mults) != 1:
        raise ValueError("uniform multiplicity required")
    channels = mults.pop()
    out_degrees = sorted(out_degrees)
    diag = np.arange(channels)
    lin: dict[str, np.ndarray] = {}
    for m in range(out_degrees[-1] + 1):
        ins = {l: k for k, l in enumerate(l for l in in_layout.indices if l >= m)}
        outs = {l: k for k, l in enumerate(l for l in out_degrees if l >= m)}
        if not ins:
            continue  # no source channels at this order; the block is zero
        acc = np.zeros((2, len(outs), len(ins), channels))
        for (li, lf, lo), h in weights.items():
            if li in ins and lo in outs:
                C = cg_table(li, lf, lo)
                pair = filter_pole_amplitude(lf) * np.array([C[li + m, lf, lo + m],
                                                             -C[li - m, lf, lo + m]])
                acc[:, outs[lo], ins[li]] += np.multiply.outer(pair, h)
        w = np.zeros((2, len(outs), channels, len(ins), channels))
        w[:, :, diag, :, diag] = np.moveaxis(acc, -1, 0)
        w = w.reshape(2, len(outs) * channels, len(ins) * channels)
        lin[f"{prefix}/{m}/w1"] = w[0]
        if m > 0:
            lin[f"{prefix}/{m}/w2"] = w[1]
    return lin


def escn_reference_apply(x: So3Features, direction, weights: dict,
                         out_degrees) -> So3Features:
    """rotate -> SO(2) linear -> rotate back, the O(L^3) route.

    Equals ``so3_tensor_product(x, Y(direction), weights)`` for paths with
    a spherical-harmonic filter.  The frame reaches the higher of the
    input's and the output's top degree.  The SO(2) linear gives the orders
    up to the lower of the two; the orders above the input's get no
    weights, and :func:`from_local` reads them as zero.
    """
    out_degrees = sorted(out_degrees)
    frame = frame_from_direction(direction, max(x.layout.max_index, out_degrees[-1]))
    lin = escn_so2_linear_weights(weights, x.layout, out_degrees, "escn")
    out_layout = so3_layout([(lo, x.layout.entries[0][1]) for lo in out_degrees])
    return from_local(frame, so2_linear(to_local(frame, x), lin, "escn"), out_layout)


@functools.lru_cache(maxsize=None)
def stacked_cg_table(l1: int, l2: int, degrees: tuple[int, ...]) -> np.ndarray:
    """The CG tables of (l1, l2) into each degree l3 of ``degrees``, side by
    side: a ((2*l1+1)(2*l2+1), sum of 2*l3+1) array whose row m1 (2*l2+1) + m2
    holds ``cg_table(l1, l2, l3)[m1, m2]`` for the degrees in turn.  Shared;
    must not be mutated."""
    table = np.concatenate([cg_table(l1, l2, l3).reshape((2 * l1 + 1) * (2 * l2 + 1), -1)
                            for l3 in degrees], axis=1)
    table.setflags(write=False)
    return table


def expansion(feature: So3Features, w: dict[int, np.ndarray], l1: int, l2: int):
    """CG expansion of irrep features into (..., 2*l1+1, 2*l2+1) sub-blocks.

    ``w`` maps degree l3 to per-channel weights ``(..., mult_l3)`` with the
    batch axes of the feature, so one call expands a batch of items, each
    with its own weights; degrees in the triangle range missing from the
    feature or from ``w`` contribute zero.  Linear in both arguments.

    Two contractions: each degree's weights first mix its channels,
    ``y_l3 = sum_u w[l3][u] feature[l3][u]``, then the y of all degrees,
    side by side, meet the :func:`stacked_cg_table` of those degrees.  Both
    are plain einsums, so a batch gives each item the bits it gets alone;
    :func:`hamiltonian.assemble` computes the same two contractions.
    """
    degrees = tuple(l3 for l3 in range(abs(l1 - l2), l1 + l2 + 1)
                    if l3 in w and feature.layout.mult(l3))
    if not degrees:
        return np.zeros(feature.batch_shape + (2 * l1 + 1, 2 * l2 + 1))
    y = [ad.einsum("...uc,...u->...c", feature.block(l3), w[l3]) for l3 in degrees]
    y = y[0] if len(y) == 1 else ad.concat(y, axis=-1)
    out = ad.einsum("...c,nc->...n", y, stacked_cg_table(l1, l2, degrees))
    return ad.reshape(out, feature.batch_shape + (2 * l1 + 1, 2 * l2 + 1))

