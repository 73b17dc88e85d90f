"""Energy functional for the critical-exponent p-Laplace problem.

The discrete energy of a nodal field u on a mesh of (0,1)^N is

    E(u) = (1/p) int |grad u|^p  -  (1/p*) int |u|^p*  -  lam * int F(u),

with p* = N p / (N - p) the critical exponent, F the primitive of the
lower-order term f, and all nonlinear integrals evaluated by the nodal
quadrature rule of the mesh.  Two families of f are provided:

    signed :  f(u) = |u|^(q-2) u + |u|^(r-2) u        (odd in u)
    pospart:  f(u) = |u|^(q-2) u + max(u,0)^(r-1)

with p < r <= q < p*.  Both vanish at 0 and grow superlinearly but
subcritically, which is what makes the constrained minimization below
the compactness threshold (1/N) S_p^(N/p) work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError
from .mesh import Mesh, _gradient_transpose, gradient_table, laplace_apply

__all__ = [
    "FAMILIES",
    "Nonlinearity",
    "RunParameters",
    "nonlin_eval",
    "source_power_terms",
    "sobolev_constant",
    "sobolev_threshold",
]

FAMILIES = ("signed", "pospart")


@dataclass(frozen=True)
class RunParameters:
    """Problem parameters: exponent p, dimension, coupling lam, gradient
    regularization eps (used in residuals only, never in the energy).
    lam and eps must be finite."""

    p: float
    dim: int
    lam: float
    eps: float = 1e-8

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ConfigurationError(f"dim must be 2 or 3, got {self.dim}")
        if not (1.0 < self.p < self.dim):
            raise ConfigurationError(
                f"p must lie in (1, dim)=(1, {self.dim}), got {self.p}"
            )
        if not (0.0 < self.lam < math.inf):
            raise ConfigurationError(
                f"lam must be positive and finite, got {self.lam}")
        if not (0.0 <= self.eps < math.inf):
            raise ConfigurationError(
                f"eps must be >= 0 and finite, got {self.eps}")

    @property
    def pstar(self) -> float:
        return self.dim * self.p / (self.dim - self.p)


@dataclass(frozen=True)
class Nonlinearity:
    """Lower-order term f(u) of a family with exponents r <= q.

    The growth constant k2 = r is the tightest value for which the
    superlinear (Ambrosetti-Rabinowitz) bound k2 F(u) <= f(u) u holds
    pointwise for both families.  Given p < r <= q < p*, which `validate`
    checks, it satisfies p < k2 < p*.
    """

    family: str
    q: float
    r: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"family must be one of {FAMILIES}, got {self.family!r}"
            )

    @property
    def odd(self) -> bool:
        """f(-u) = -f(u), so E(-u) = E(u) and K2 = -K1."""
        return self.family == "signed"

    @property
    def k2(self) -> float:
        """Growth: k2 F(u) <= f(u) u."""
        return self.r

    def validate(self, params: RunParameters) -> None:
        """Check the exponents against p and p*."""
        p, pstar = params.p, params.pstar
        if not (p < self.q < pstar):
            raise ConfigurationError(
                f"q must lie in (p, p*)=({p}, {pstar}), got {self.q}"
            )
        if not (p < self.r <= self.q):
            raise ConfigurationError(
                f"r must lie in (p, q]=({p}, {self.q}], got {self.r}"
            )


def _masked_power(base: np.ndarray, e: float) -> np.ndarray:
    """base**e with the convention 0**e = 0 even for e < 0 (base >= 0)."""
    if e >= 0.0:
        return base ** e
    out = np.zeros_like(base)
    mask = base > 0.0
    out[mask] = base[mask] ** e
    return out


class _Powers(dict):
    """|x|^e of one nodal field x, each power taken once: `pw[e]`.  An
    integer 2 < e <= 8 is a product of the shared squares x x, |x|^4, ...
    (|x|^6 = |x|^4 |x|^2, with no `abs` and no `pow`); any other e is
    `_masked_power(|x|, e)`, which is |x| ** e for e >= 0."""

    def __init__(self, x: np.ndarray):
        super().__init__()
        self.x = x

    def __missing__(self, e: float) -> np.ndarray:
        if e == 2.0:
            self[e] = self.x * self.x
        elif e == int(e) and 2.0 < e <= 8.0:
            low = 1 << ((int(e) - 1).bit_length() - 1)  # largest 2^k < e
            self[e] = self[low] * self[e - low]
        else:
            self[e] = _masked_power(np.abs(self.x), e)
        return self[e]

    def odd(self, e: float) -> np.ndarray:     # sign(x) |x|^e
        return self.x * self[e - 1.0]


def _source_derivatives(nl: Nonlinearity, pw: _Powers):
    """f(u) and f'(u) of `nonlin_eval`, to rounding, from the powers of u."""
    f, fu = pw.odd(nl.q - 1.0), (nl.q - 1.0) * pw[nl.q - 2.0]
    if nl.odd and nl.r == nl.q:     # x + x is 2x exactly
        return f + f, fu + fu
    base = pw if nl.odd else _Powers(np.maximum(pw.x, 0.0))
    return f + base.odd(nl.r - 1.0), fu + (nl.r - 1.0) * base[nl.r - 2.0]


def nonlin_eval(nl: Nonlinearity, u: np.ndarray):
    """Pointwise f(u), primitive F(u) and derivative f'(u).

    f'(0) is taken to be 0 whenever an exponent drops below 2, which is
    the continuous extension from u != 0.
    """
    u = np.asarray(u, dtype=float)
    au = np.abs(u)
    q, r = nl.q, nl.r
    f = np.sign(u) * au ** (q - 1.0)
    F = au ** q / q
    fu = (q - 1.0) * _masked_power(au, q - 2.0)
    signed = nl.family == "signed"
    if signed and r == q:       # x + x is 2x exactly
        return f + f, F + F, fu + fu
    base = au if signed else np.maximum(u, 0.0)
    return (f + base ** (r - 1.0) * (np.sign(u) if signed else 1.0),
            F + base ** r / r, fu + (r - 1.0) * _masked_power(base, r - 2.0))


def source_power_terms(nl: Nonlinearity, pw: _Powers):
    """Pairs (e, g_e) with f(t w) t w = sum_e t^e g_e pointwise for t > 0,
    read from the powers `pw` = `_Powers(w)` of w.

    signed gives (q, |w|^q) and (r, |w|^r); pospart gives (q, |w|^q) and
    (r, max(w, 0)^r), whose second entry vanishes on nonpositive w.
    """
    rth = pw if nl.odd else _Powers(np.maximum(pw.x, 0.0))
    return ((nl.q, pw[nl.q]), (nl.r, rth[nl.r]))


def _squared_norms(g: np.ndarray) -> np.ndarray:
    """|grad u|^2 per simplex of the field u whose gradient table is g."""
    return np.einsum("sd,sd->s", g, g)


def _p_dirichlet(mesh: Mesh, g2: np.ndarray, p: float) -> float:
    """int |grad u|^p of the field u whose squared gradient norms are g2."""
    return mesh.volume * float((g2 ** (p / 2.0)).sum())


def p_stiffness_vector(mesh: Mesh, g: np.ndarray, p: float, eps: float,
                       *, sq_norms: np.ndarray) -> np.ndarray:
    """Nodal co-vector of the regularized p-Dirichlet term of the field u
    whose gradient table is g and whose squared gradient norms
    |grad u|^2 per simplex are `sq_norms` (`_squared_norms(g)`): entry i
    pairs a variation v to
    int (|grad u|^2 + eps^2)^((p-2)/2) grad u . grad v.
    """
    expo = (p - 2.0) / 2.0
    if eps == 0.0 and expo < 0.0:
        w = np.zeros_like(sq_norms)
        mask = sq_norms > 0.0
        w[mask] = sq_norms[mask] ** expo
    else:
        w = (sq_norms + eps * eps) ** expo
    flux = (mesh.volume * w)[:, None] * g
    return _gradient_transpose(mesh, flux)


class _TableForm(NamedTuple):
    """The p-Dirichlet term of a field read from its gradient table and
    the squared norms of that table per simplex, at any p."""

    table: np.ndarray
    sq_norms: np.ndarray

    def scaled(self, t: float) -> "_TableForm":
        return _TableForm(t * self.table, t * t * self.sq_norms)

    def plus(self, other: "_TableForm") -> "_TableForm":
        table = self.table + other.table
        return _TableForm(table, _squared_norms(table))

    def mirrored(self) -> "_TableForm":
        """The form of -u(1 - x), as views: the inversion reverses the
        simplex order, so its gradient on simplex s is that of u on
        simplex n_simplices - 1 - s."""
        return _TableForm(self.table[::-1], self.sq_norms[::-1])

    def integral(self, mesh: Mesh, params: RunParameters) -> float:
        """int |grad u|^p."""
        return _p_dirichlet(mesh, self.sq_norms, params.p)

    def covector(self, mesh: Mesh, params: RunParameters) -> np.ndarray:
        """The regularized p-stiffness co-vector, `p_stiffness_vector`."""
        return p_stiffness_vector(mesh, self.table, params.p, params.eps,
                                  sq_norms=self.sq_norms)


class _StencilForm(NamedTuple):
    """The Dirichlet term at p = 2 of a field u that vanishes on the
    boundary, read from u and its stencil image K u (`laplace_apply`):
    int |grad u|^2 = u . K u, and K u is the p-stiffness co-vector on
    the interior rows, since (|grad u|^2 + eps^2)^0 = 1."""

    field: np.ndarray
    image: np.ndarray

    def scaled(self, t: float) -> "_StencilForm":
        return _StencilForm(t * self.field, t * self.image)

    def plus(self, other: "_StencilForm") -> "_StencilForm":
        return _StencilForm(self.field + other.field,
                            self.image + other.image)

    def mirrored(self) -> "_StencilForm":
        """The form of -u(1 - x): K commutes with the inversion."""
        return _StencilForm(-self.field[::-1], -self.image[::-1])

    def integral(self, mesh: Mesh, params: RunParameters) -> float:
        return float(np.dot(self.field, self.image))

    def covector(self, mesh: Mesh, params: RunParameters) -> np.ndarray:
        return self.image


def _dirichlet_form(mesh: Mesh, params: RunParameters, u: np.ndarray):
    """The p-Dirichlet term of a field u that vanishes on the boundary, in
    the form the descent reads it: the stencil image K u at p = 2, where
    the term is the quadratic form of K, and the gradient table otherwise.

    Both forms give int |grad u|^p (`integral`) and the p-stiffness
    co-vector (`covector`, exact on the interior rows), scale with u
    (`scaled`), add over fields (`plus`) and give the form of the
    inverted field -u(1 - x) with no kernel call (`mirrored`): the
    inversion reverses the vertex and the simplex order alike, so each
    form reverses its arrays.
    `plap.verify` keeps the table at every p, so it checks the stencil
    independently.
    """
    if params.p == 2.0:
        return _StencilForm(u, laplace_apply(mesh, u))
    table = gradient_table(mesh, u)
    return _TableForm(table, _squared_norms(table))


def sobolev_constant(p: float, dim: int) -> float:
    """Best constant S_p of the Sobolev embedding W^{1,p}_0 -> L^{p*} on R^N,

        S_p = inf  int |grad u|^p / ( int |u|^p* )^(p/p*),

    in closed form through Gamma functions.
    """
    if not (1.0 < p < dim):
        raise ConfigurationError(f"need 1 < p < dim, got p={p}, dim={dim}")
    g = math.gamma
    n = float(dim)
    best_embed = (
        math.pi ** -0.5
        * n ** (-1.0 / p)
        * ((p - 1.0) / (n - p)) ** ((p - 1.0) / p)
        * (g(1.0 + n / 2.0) * g(n) / (g(n / p) * g(1.0 + n - n / p))) ** (1.0 / n)
    )
    return best_embed ** (-p)


def sobolev_threshold(params: RunParameters) -> float:
    """Compactness threshold (1/N) S_p^(N/p): constrained minimizers with
    energy below this level cannot leak mass through the critical term."""
    S = sobolev_constant(params.p, params.dim)
    return S ** (params.dim / params.p) / params.dim
