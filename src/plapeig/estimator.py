"""Residual error indicator and bulk marking for the eigenvalue iteration.

The indicator of an element combines the q-th power of the scaled element
residual mu |u|^{p-2} u with the flux jumps of |grad u|^{p-2} grad u across
its interior edges, q = p/(p-1) being the conjugate exponent.  Because
(p-1) q = p, the element term collapses to h_T^q mu^q int_T |u|^p, which is
what `fem.element_lp` evaluates; the jump term is exact since the flux is
constant per element.  Note the asymmetry of the size weights: the element
term carries h_T^q while each edge term carries a single power of h_F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import P1Function
from .mesh import EdgeTable, Mesh


@dataclass(frozen=True)
class IndicatorSet:
    """Per-element error indicators (already raised to the q-th power) and
    the conjugate exponent q."""

    eta_q: np.ndarray
    q: float

    def __post_init__(self):
        e = np.ascontiguousarray(self.eta_q, dtype=np.float64)
        e.setflags(write=False)
        object.__setattr__(self, "eta_q", e)

    @property
    def total_eta(self) -> float:
        """The q-root of the summed indicators."""
        return float(self.eta_q.sum() ** (1.0 / self.q))

    @property
    def argmax_element(self) -> int:
        """Element with the largest indicator (smallest index on ties)."""
        return int(np.argmax(self.eta_q))


def _element_terms(mesh: Mesh, mu: float, u: P1Function,
                   p: float) -> np.ndarray:
    """h_T^q |mu|^q int_T |u|^p for every element."""
    int_up = fem.element_lp(u, p)  # raises unless p > 1
    q = p / (p - 1.0)
    return np.sqrt(mesh.areas) ** q * abs(mu) ** q * int_up


def _jump_terms(mesh: Mesh, edges: EdgeTable, u: P1Function,
                p: float) -> np.ndarray:
    """h_F |J_F|^q |F| for every interior edge (the flux jump J_F is
    constant along the edge, so integration is exact)."""
    q = p / (p - 1.0)
    sigma = fem.p_flux(fem.grad(u), p)
    jump = np.einsum("ed,ed->e",
                     np.take(sigma, edges.int_tri_plus, axis=0)
                     - np.take(sigma, edges.int_tri_minus, axis=0),
                     edges.int_normals)
    return edges.int_lengths ** 2 * np.abs(jump) ** q


def estimate_all(mesh: Mesh, edges: EdgeTable, mu: float, u: P1Function,
                 p: float) -> IndicatorSet:
    """Indicator of every element; each interior edge contributes its jump
    term to both adjacent elements."""
    if u.mesh is not mesh:
        raise ValueError("u must live on the given mesh")
    eta = _element_terms(mesh, mu, u, p)
    jumps = _jump_terms(mesh, edges, u, p)
    np.add.at(eta, edges.int_tri_plus, jumps)
    np.add.at(eta, edges.int_tri_minus, jumps)
    return IndicatorSet(eta_q=eta, q=p / (p - 1.0))


def dorfler_mark(ind: IndicatorSet, theta: float) -> np.ndarray:
    """Smallest greedy bulk set: descending-indicator prefix whose summed
    eta_q reaches theta^q times the total (equivalently, whose estimator
    reaches theta times the total estimator).

    Ties are broken by ascending element index, and an indicator within
    1e-12 relative of the prefix's last value counts as tied with it: every
    element above that tied group is marked, and the places left go to the
    group's elements in ascending index.  Mirror-image elements of a
    symmetric mesh carry indicators that agree up to round-off, so a
    last-bit change upstream does not decide which of them is marked.  The
    set has the size of the prefix; its sum may fall short of the prefix
    sum by at most 2e-12 relative, the slack of the bulk criterion.  The
    element with the largest indicator, or one tied with it, is always
    included; if all indicators vanish, argmax_element is returned alone so
    refinement still makes progress.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError("theta must lie in (0, 1]")
    eta = ind.eta_q
    order = np.argsort(-eta)  # csum depends only on the sorted values
    csum = np.cumsum(eta[order])
    total = csum[-1]
    if total <= 0.0:
        return np.array([ind.argmax_element], dtype=np.int64)
    target = theta ** ind.q * total
    k = int(np.searchsorted(csum, target, side="left"))
    k = min(k, len(eta) - 1)
    cut = eta[order[k]]
    slack = 1e-12 * cut
    above = np.flatnonzero(eta > cut + slack)
    tied = np.flatnonzero(np.abs(eta - cut) <= slack)
    return np.sort(np.concatenate((above, tied[:k + 1 - len(above)])))
