"""Response families for quasi-likelihood smoothing.

A family bundles a link g, its inverse, and a variance function V, and from
them the derivatives of the quasi-likelihood Q(m, y) defined through

    dQ/dm = (y - m) / V(m).

Everything the fitting code consumes is expressed on the scale of the
linear predictor u = g(m):

    q1(u, y) = d/du Q(g^{-1}(u), y)
    q2(u, y) = d^2/du^2 Q(g^{-1}(u), y)

For the built-in canonical pairs (identity/Gaussian, logit/Bernoulli,
log/Poisson) these reduce to y - g^{-1}(u) and -(g^{-1})'(u).

A family implements one method, `fields(u, y)`: the weight -q2, the
score q1 and Q on the same cells, from one clamp and one evaluation of the
mean, each a new array, u left as it is.  `q1`, `q2`, `qll` and `psi`
derive from it.  The logit algebra past e^-u is one function,
`logit_from_exp`, which writes into the caller's buffers: it serves
`BernoulliLogit.fields` and the local linear engine's logit front end
(`ll_fit._logit_fields`), which forms e^-u as a product of per-axis
exponentials and allocates nothing per block.  `BernoulliLogit.mean`
and its derivatives take the same algebra, with numpy alone:
m = 1 / (1 + E), m' = E m^2 and m'' = E m^2 expm1(-u) m, as
1 - 2 m = expm1(-u) m, so neither derivative takes the difference 1 - m,
which has lost its digits at u >> 0.

Because dQ/dm is linear in y, all three are affine in y, Q up to a term in
y alone (Wedderburn 1974), so a weighted sum over observations is one
evaluation at the weighted mean response ybar = sum_i a_i y_i / sum_i a_i:

    sum_i a_i f(u, y_i) = (sum_i a_i) f(u, ybar),

for Q after the y-only term is removed.  The local constant fitter uses
this with the kernel weights a_i = K_h(x, X_i) and calls `fields(u, ybar)`;
`score_weight_pieces` and `qll_pieces`, the affine coefficient functions,
are kept only because the benchmark's layer tracer wraps them by name.

Links are clamped before any evaluation: the logit predictor to [-30, 30]
and the log predictor to at most 30.  That keeps weights strictly positive
and bounded without changing anything in the numerically relevant range.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

__all__ = [
    "Family",
    "GaussianIdentity",
    "BernoulliLogit",
    "PoissonLog",
    "QuasiFamily",
    "get_family",
    "logit_from_exp",
    "FAMILY_NAMES",
]


def logit_from_exp(e, ek, y, w, s, q):
    """The logit fields from E = e^-u: w = ek m^2, s = y - m and
    q = log m, with m = 1 / (1 + E), written into w, s and q.

    ek is E times any factor (a kernel product, or 1 with ek = e), so
    w is that factor times the weight E m^2 = m (1 - m), which keeps its
    digits at u >> 0, where 1 - m does not.  w may be ek, and e may be
    either, as only the first pass reads it; none may be s or q.  Six
    ufunc passes, no allocation.
    """
    np.add(e, 1.0, out=s)
    np.divide(1.0, s, out=s)
    np.log(s, out=q)
    np.multiply(ek, s, out=w)
    w *= s
    np.subtract(y, s, out=s)


class Family:
    """Base class; subclasses define the link, variance and `fields`."""

    name: str = ""
    response_description: str = ""
    clamp_lo: float | None = None
    clamp_hi: float | None = None

    # ---- link and mean -------------------------------------------------

    def clamp(self, u: np.ndarray) -> np.ndarray:
        """Clip the linear predictor to the family's safe range."""
        u = np.asarray(u, dtype=float)
        if self.clamp_lo is not None or self.clamp_hi is not None:
            u = np.clip(u, self.clamp_lo, self.clamp_hi)
        return u

    def link(self, m: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def mean(self, u: np.ndarray) -> np.ndarray:
        """Inverse link g^{-1}(u), after clamping."""
        raise NotImplementedError

    def mean_d1(self, u: np.ndarray) -> np.ndarray:
        """First derivative of the inverse link."""
        u = self.clamp(u)
        return 1.0 / self.link_deriv(self.mean(u))

    def mean_d2(self, u: np.ndarray) -> np.ndarray:
        """Second derivative of the inverse link.

        Default is a central difference of `mean_d1`; the built-in families
        override with closed forms.  Only the asymptotic formulas use this.
        """
        step = 1e-5
        u = np.asarray(u, dtype=float)
        return (self.mean_d1(u + step) - self.mean_d1(u - step)) / (2 * step)

    def link_deriv(self, m: np.ndarray) -> np.ndarray:
        """g'(m) on the mean scale."""
        raise NotImplementedError

    def variance(self, m: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # ---- quasi-likelihood on the predictor scale -----------------------

    def fields(self, u: np.ndarray, y):
        """Weight, score and quasi-likelihood (-q2, q1, Q) at (u, y).

        Each is a new float array of the broadcast shape of u and y, so
        callers may scale it in place, and u is not changed.  This is the
        one method a family implements; everything below derives from it.
        """
        raise NotImplementedError

    def _buffers(self, u, y):
        """u clamped into a new array of the broadcast shape of u and y,
        which `fields` may use as scratch, and three new arrays of that
        shape for the fields.  Every field is computed with ufunc `out=`
        arguments, so 0-d inputs give 0-d arrays, not numpy scalars.
        """
        u = np.asarray(u, dtype=float)
        shape = np.broadcast_shapes(u.shape, np.shape(y))
        scratch = np.empty(shape)
        if self.clamp_lo is not None or self.clamp_hi is not None:
            np.clip(u, self.clamp_lo, self.clamp_hi, out=scratch)
        else:
            np.copyto(scratch, u)
        return scratch, (np.empty(shape), np.empty(shape), np.empty(shape))

    def q1(self, u: np.ndarray, y) -> np.ndarray:
        """Score q1(u, y) = d/du Q(g^{-1}(u), y)."""
        return self.fields(u, y)[1]

    def q2(self, u: np.ndarray, y) -> np.ndarray:
        """q2(u, y) = d^2/du^2 Q(g^{-1}(u), y), strictly negative."""
        return -self.fields(u, y)[0]

    def qll(self, u: np.ndarray, y) -> np.ndarray:
        """Quasi-likelihood Q(g^{-1}(u), y), up to terms constant in u."""
        return self.fields(u, y)[2]

    def psi(self, u: np.ndarray) -> np.ndarray:
        """The weight at the mean response,
        -q2(u, g^{-1}(u)) = 1 / [V(m) g'(m)^2]."""
        return self.fields(u, self.mean(u))[0]

    # ---- affine-in-y decompositions ------------------------------------

    def score_weight_pieces(self, u: np.ndarray):
        """Coefficient functions (c, d, cp, dp) of the affine forms

        q1(u, y) = y c(u) - d(u) and q2(u, y) = y cp(u) - dp(u).

        They are extracted by evaluating at y = 0 and y = 1, which is exact
        because both derivatives are affine in y.
        """
        u = self.clamp(u)
        q10 = self.q1(u, 0.0)
        q20 = self.q2(u, 0.0)
        return self.q1(u, 1.0) - q10, -q10, self.q2(u, 1.0) - q20, -q20

    def qll_pieces(self, u: np.ndarray):
        """Coefficient functions (A, B) with Q(g^{-1}(u), y) = y A(u) - B(u)
        plus a term depending on y alone."""
        u = self.clamp(u)
        q0 = self.qll(u, 0.0)
        return self.qll(u, 1.0) - q0, -q0

    # ---- data validation ------------------------------------------------

    def validate_response(self, y: np.ndarray) -> None:
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            raise InputError("response contains non-finite values")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class GaussianIdentity(Family):
    """Identity link, constant variance: penalized least squares."""

    name = "gaussian"
    response_description = "any finite real value"

    def link(self, m):
        return np.asarray(m, dtype=float)

    def mean(self, u):
        return np.asarray(u, dtype=float)

    def mean_d1(self, u):
        return np.ones_like(np.asarray(u, dtype=float))

    def mean_d2(self, u):
        return np.zeros_like(np.asarray(u, dtype=float))

    def link_deriv(self, m):
        return np.ones_like(np.asarray(m, dtype=float))

    def variance(self, m):
        return np.ones_like(np.asarray(m, dtype=float))

    def fields(self, u, y):
        u, out = self._buffers(u, y)
        w, r, q = out
        w.fill(1.0)
        np.subtract(y, u, out=r)
        np.multiply(r, -0.5, out=q)
        q *= r
        return out


class BernoulliLogit(Family):
    """Logit link, binomial variance m(1 - m)."""

    name = "bernoulli"
    response_description = "values in [0, 1]"
    clamp_lo = -30.0
    clamp_hi = 30.0

    def link(self, m):
        m = np.asarray(m, dtype=float)
        return np.log(m) - np.log1p(-m)

    def _exp_mean(self, u):
        """E = e^-u and m = 1 / (1 + E) at the clamped u."""
        e = np.exp(-u)
        return e, 1.0 / (1.0 + e)

    def mean(self, u):
        return self._exp_mean(self.clamp(u))[1]

    def mean_d1(self, u):
        # E m^2 = m (1 - m), without the difference 1 - m
        e, m = self._exp_mean(self.clamp(u))
        return e * m * m

    def mean_d2(self, u):
        # m (1 - m) (1 - 2 m) with 1 - 2 m = expm1(-u) m
        u = self.clamp(u)
        e, m = self._exp_mean(u)
        return e * m * m * (np.expm1(-u) * m)

    def link_deriv(self, m):
        m = np.asarray(m, dtype=float)
        return 1.0 / (m * (1.0 - m))

    def variance(self, m):
        m = np.asarray(m, dtype=float)
        return m * (1.0 - m)

    def fields(self, u, y):
        u, (w, s, q) = self._buffers(u, y)
        # Q = (y - 1) u + log m: its linear part first, then E = e^-u,
        # after which u is scratch and takes log m
        np.subtract(y, 1.0, out=q)
        q *= u
        np.exp(np.negative(u, out=w), out=w)
        logit_from_exp(w, w, y, w, s, u)
        q += u
        return w, s, q

    def validate_response(self, y):
        super().validate_response(y)
        y = np.asarray(y, dtype=float)
        if np.any(y < 0.0) or np.any(y > 1.0):
            raise InputError(
                "bernoulli responses must lie in [0, 1]; got values outside"
            )


class PoissonLog(Family):
    """Log link, variance equal to the mean."""

    name = "poisson"
    response_description = "nonnegative values"
    clamp_hi = 30.0

    def link(self, m):
        return np.log(np.asarray(m, dtype=float))

    def mean(self, u):
        return np.exp(self.clamp(u))

    def mean_d1(self, u):
        return self.mean(u)

    def mean_d2(self, u):
        return self.mean(u)

    def link_deriv(self, m):
        return 1.0 / np.asarray(m, dtype=float)

    def variance(self, m):
        return np.asarray(m, dtype=float)

    def fields(self, u, y):
        u, out = self._buffers(u, y)
        m, s, q = out
        np.exp(u, out=m)
        np.multiply(y, u, out=q)
        q -= m
        np.subtract(y, m, out=s)
        return out

    def validate_response(self, y):
        super().validate_response(y)
        y = np.asarray(y, dtype=float)
        if np.any(y < 0.0):
            raise InputError("poisson responses must be nonnegative")


class QuasiFamily(Family):
    """Family assembled from user-supplied scalar maps.

    Parameters
    ----------
    name : str
        Label used in reports.
    link, mean, link_deriv, variance : callables
        The link g, its inverse, g' on the mean scale, and V on the mean
        scale.  All must be vectorized over ndarray inputs.
    q2 : callable
        Analytic second derivative q2(u, y) of Q(g^{-1}(u), y) in u,
        vectorized in u with scalar or array y.  Must be strictly negative.
    qll : callable
        Quasi-likelihood Q(g^{-1}(u), y) itself, up to y-only terms.
    clamp_lo, clamp_hi : float, optional
        Safe range for the linear predictor.
    validate : callable, optional
        Response-range check; raises InputError on violation.

    The score in `fields` comes from the defining relation
    q1 = (y - m) / [V(m) g'(m)]; the weight and Q from the q2 and qll
    callables.  The callables make new arrays, which `fields` copies into
    arrays of the broadcast shape.
    """

    def __init__(
        self,
        name: str,
        link,
        mean,
        link_deriv,
        variance,
        q2,
        qll,
        clamp_lo: float | None = None,
        clamp_hi: float | None = None,
        validate=None,
    ):
        self.name = name
        self._link = link
        self._mean = mean
        self._link_deriv = link_deriv
        self._variance = variance
        self._q2 = q2
        self._qll = qll
        self.clamp_lo = clamp_lo
        self.clamp_hi = clamp_hi
        self._validate = validate

    def link(self, m):
        return np.asarray(self._link(np.asarray(m, dtype=float)))

    def mean(self, u):
        return np.asarray(self._mean(self.clamp(u)))

    def link_deriv(self, m):
        return np.asarray(self._link_deriv(np.asarray(m, dtype=float)))

    def variance(self, m):
        return np.asarray(self._variance(np.asarray(m, dtype=float)))

    def fields(self, u, y):
        u, out = self._buffers(u, y)
        m = np.asarray(self._mean(u))
        score = (y - m) / (self.variance(m) * self.link_deriv(m))
        for o, f in zip(out, (-np.asarray(self._q2(u, y)), score,
                              self._qll(u, y))):
            np.copyto(o, f)
        return out

    def validate_response(self, y):
        super().validate_response(y)
        if self._validate is not None:
            self._validate(np.asarray(y, dtype=float))


_REGISTRY = {
    "gaussian": GaussianIdentity(),
    "bernoulli": BernoulliLogit(),
    "poisson": PoissonLog(),
}

FAMILY_NAMES = tuple(_REGISTRY)


def get_family(name) -> Family:
    """Look up a built-in family by name, or pass a Family through."""
    if isinstance(name, Family):
        return name
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InputError(
            f"unknown family {name!r}; choose one of {', '.join(FAMILY_NAMES)}"
        ) from None
