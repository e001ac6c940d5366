"""Identity-verification suites.

Every suite checks one structural fact of the theory at desk scale and
returns a VerificationReport: orthogonality of the Hermite family,
eigenrelations of the slice operator, agreement of the two kernel
construction paths, the reproducing property, the Bargmann basis map and
isometry, closed-form eigenfunction norms, the level decomposition, the
star-product calculus, and the integer character of the L2 spectrum.

Default grids are the acceptance grids; keyword arguments shrink or
stretch them.  Residual conventions are stated per suite; random draws
are seeded from the configuration so runs are reproducible.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np

from . import qarray
from .bargmann import (HermiteLine, b2_grid, b2_norm_closed, basis_image_scale, isometry_grams,
                       transform_batch)
from .config import Config
from .kernels import KernelSpec, k2_series_levels, kernel_value, project_batch
from .poly import laguerre
from .quad import SliceQuadrature, check_slice_degree, gauss_hermite, norm_sq_full
from .quat import Quaternion, qexp, quat, random_quaternion, random_unit
from .report import VerificationReport
from .series import (PolySliceSeries, SliceSeries, coeff_stack, exp_star, hermite_series,
                     laguerre_star, s_k_series, slice_values)
from .spectral import (FD_ORDER, FD_STEP, Eigenfunction, box_fd, box_symbolic, psi_norm_sq,
                       spectrum_probe)

__all__ = ["SUITES", "SUITE_ORDER", "run_suite", "run_all"]


def _rng(config: Config, salt: int):
    return np.random.default_rng([config.seed, salt])


def _bounded(rng, radius: float, n: int) -> np.ndarray:
    """n random points with |q| <= radius as an (n, 4) batch (rescaled tail);
    the same draws, to the bit, as n scalar quaternions of scale radius/2."""
    q = rng.normal(size=(n, 4)) * (radius / 2.0)
    r = np.sqrt(qarray.norm_sq(q))
    far = r > radius
    q[far] *= (radius / r[far])[:, None]
    return q


def _nonreal(rng, radius: float, min_imag: float) -> np.ndarray:
    """A (4,) row of _bounded with |Im q| > min_imag, summed as in Quaternion.imag_norm."""
    while True:
        q = _bounded(rng, radius, 1)[0]
        if math.sqrt(q[1] * q[1] + q[2] * q[2] + q[3] * q[3]) > min_imag:
            return q


# -- 1. orthogonality ----------------------------------------------------


def _slice_frame(unit: Quaternion) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, J, K) as (3,) vectors for a unit imaginary U: J a unit orthogonal
    to U and K = U J, so 1, U, J, K is an orthonormal basis of H."""
    u = qarray.from_quaternion(unit)[1:]
    e = np.eye(3)[np.argmin(np.abs(u))]           # the axis most nearly orthogonal to U
    j = e - (e @ u) * u
    j /= math.sqrt(j @ j)
    return u, j, qarray.qmul(np.r_[0.0, u], np.r_[0.0, j])[1:]


def _right_paired(C: np.ndarray, frame, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """conj(r_a) lift(C_ab, U) r_b = A_ab + B_ab J for a complex (M, M) C and
    (M, 4) quaternions r, with A and B complex, read in C_U.  Each r is
    alpha + beta J with alpha, beta in C_U, and J z = conj(z) J for z in C_U, so
    A = conj(alpha_a) C alpha_b + beta_a conj(C) conj(beta_b) and
    B = conj(alpha_a) C beta_b - beta_a conj(C) conj(alpha_b)."""
    u, j, k = frame
    alpha = right[:, 0] + 1j * (right[:, 1:] @ u)
    beta = right[:, 1:] @ j + 1j * (right[:, 1:] @ k)
    ca, cb = np.conj(alpha)[:, None], beta[:, None]
    return (ca * C * alpha + cb * np.conj(C) * np.conj(beta),
            ca * C * beta - cb * np.conj(C) * np.conj(alpha))


def verify_orthogonality(config: Config,
                         index_max: int = 8) -> VerificationReport:
    """Normalised slice Gram matrix of {H_{j,k} a_{j,k} : j,k <= index_max}
    vs the identity on 10 random slices, with fresh random unit quaternions
    a_{j,k} on the right for every slice: <H a, H' a'> = conj(a) <H, H'> a'.
    H_{j,k} has real coefficients, so on the slice of U, <H, H'> is the complex
    slice Gram C = sum_n w_n conj(H(z_n)) H'(z_n) lifted onto U; C does not
    depend on U and is computed once.  Each slice's Gram is A + B J in the frame
    1, U, J, K of _slice_frame, two complex arrays from C (_right_paired), and
    its distance from the identity is sqrt(|A - I|^2 + |B|^2) per entry.
    Residual is the worst entry."""
    n_slices = 10
    rep = VerificationReport("orthogonality", config.tolerance("orthogonality"),
                             {"index_max": index_max, "slices": n_slices,
                              "right_factors": "random unit quaternion per H_{j,k} and slice",
                              "nodes": config.slice_nodes, "seed": config.seed})
    idx = [(j, k) for j in range(index_max + 1) for k in range(index_max + 1)]
    # |H_{j,k} a|^2 has degree 2(j + k): refuse a large index_max before any work
    check_slice_degree((2 * (j + k) for j, k in idx), config.slice_nodes)
    basis = coeff_stack([hermite_series(j, k) for j, k in idx])
    if np.any(basis[..., 1:]):
        raise ValueError("a Hermite coefficient is not real: no lifted complex slice Gram")
    scale = np.sqrt([math.pi * math.factorial(j) * math.factorial(k) for j, k in idx])
    Q = SliceQuadrature(config.slice_nodes)
    V = slice_values(basis[..., 0], Q.z)
    C = (np.conj(V).T * Q.weights) @ V / np.outer(scale, scale)
    rng = _rng(config, 1)
    units = [random_unit(rng) for _ in range(n_slices)]
    eye = np.eye(len(idx))
    for unit in units:
        right = rng.normal(size=(len(idx), 4))
        right *= (1.0 / np.sqrt(qarray.norm_sq(right)))[:, None]
        frame = _slice_frame(unit)
        A, B = _right_paired(C, frame, right)
        dev = np.sqrt(np.abs(A - eye) ** 2 + np.abs(B) ** 2)
        worst = int(np.argmax(dev))
        a, b = divmod(worst, len(idx))
        g = (A[a, b].real, *(A[a, b].imag * frame[0] + B[a, b].real * frame[1]
                             + B[a, b].imag * frame[2]))
        rep.add({"slice": unit, "pair": [idx[a], idx[b]]},
                "identity matrix", [float(c) for c in g], float(dev[a, b]))
    return rep


# -- 2. eigenrelation ----------------------------------------------------


def verify_eigen(config: Config, j_max: int = 10,
                 k_max: int = 5) -> VerificationReport:
    """box H_{j,k} = k H_{j,k}: exact coefficients on the full grid, then
    box_fd at 50 random non-real points on polynomials of total degree
    <= fd_degree = 6 (what FD_STEP and FD_ORDER resolve below 1e-4), batched per (j, k)."""
    fd_degree = 6
    rep = VerificationReport("eigen", config.tolerance("eigen"),
                             {"j_max": j_max, "k_max": k_max, "fd_points": 50,
                              "fd_degree": fd_degree, "fd_step": FD_STEP,
                              "fd_order": FD_ORDER, "seed": config.seed})
    herm = {(j, k): hermite_series(j, k) for j in range(j_max + 1) for k in range(k_max + 1)}
    for (j, k), H in herm.items():
        lhs, rhs = box_symbolic(H), H.scale(k)
        resid = 0.0 if lhs == rhs else max(
            abs(lhs.coeff(a, b) - rhs.coeff(a, b))
            for a in range(max(lhs.level, rhs.level) + 1)
            for b in range(max(lhs.degree, rhs.degree) + 1))
        rep.add({"j": j, "k": k, "mode": "exact"}, "k*H", "box(H)", resid)

    rng = _rng(config, 2)
    cap = min(fd_degree, j_max)
    pairs = [(j, k) for j in range(cap + 1)
             for k in range(min(cap - j, k_max) + 1)]
    drawn, qs = zip(*[(pairs[rng.integers(len(pairs))], _nonreal(rng, 1.5, 0.05))
                      for _ in range(50)])      # a pair, then its point
    qs = np.array(qs)
    got, want = np.empty_like(qs), np.empty_like(qs)
    for j, k in sorted(set(drawn)):
        rows = [n for n, pair in enumerate(drawn) if pair == (j, k)]
        got[rows] = box_fd(herm[j, k], qs[rows])
        want[rows] = herm[j, k].eval_many(qs[rows]) * k
    resid = np.linalg.norm(got - want, axis=-1)
    for n, (j, k) in enumerate(drawn):
        rep.add({"j": j, "k": k, "q": qs[n], "mode": "fd"}, want[n], got[n], resid[n])
    return rep


# -- 3 + 5. kernel dual path and diagonal --------------------------------


def verify_kernel_dual(config: Config,
                       level_max: int = 4) -> VerificationReport:
    """Series vs star kernel on random pairs, the same-slice Laguerre
    closed form, and the exponential diagonal (relative residual)."""
    rep = VerificationReport("kernel-dual", config.tolerance("kernel-dual"),
                             {"level_max": level_max, "pairs": 25, "radius": 1.5,
                              "series_terms": config.series_terms,
                              "star_terms": config.star_terms, "seed": config.seed})
    rng = _rng(config, 3)
    levels = range(level_max + 1)

    def series_levels(ps, qs):
        """K_{2,kappa}(p_n, q_n) and K_{1,kappa}(p_n, q_n) for every
        kappa <= level_max, from one paired ladder."""
        k2 = k2_series_levels(level_max, ps, qs, config.series_terms)
        return k2, np.cumsum(k2, axis=0)

    pq = _bounded(rng, 1.5, 50)
    ps, qs = pq[0::2], pq[1::2]
    k2, _ = series_levels(ps, qs)
    star = np.array([kernel_value(KernelSpec("second", k, "star", config.star_terms), ps, qs)
                     for k in levels])
    resid = np.linalg.norm(k2 - star, axis=-1)
    for n in range(len(ps)):
        for k in levels:
            rep.add({"p": ps[n], "q": qs[n], "k": k, "check": "dual"},
                    k2[k, n], star[k, n], resid[k, n])
    closed, ks = [], []
    for _ in range(25):
        unit = qarray.from_quaternion(random_unit(rng))   # p, then q: a + unit b, a drawn first
        closed += [[rng.normal(), 0.0, 0.0, 0.0] + unit * rng.normal() for _ in range(2)]
        ks.append(int(rng.integers(level_max + 1)))
    ps, qs = np.array(closed[0::2]), np.array(closed[1::2])
    k2, k1 = series_levels(ps, qs)
    rows = np.arange(len(ks))
    got2, got1 = k2[ks, rows], k1[ks, rows]
    want2, want1 = (np.array([kernel_value(KernelSpec(kind, k, "closed"), ps, qs)
                              for k in levels])[ks, rows] for kind in ("second", "first"))
    r2, r1 = (np.linalg.norm(g - w, axis=-1) for g, w in ((got2, want2), (got1, want1)))
    for n, k in enumerate(ks):
        rep.add({"p": ps[n], "q": qs[n], "k": k, "check": "closed-2"}, want2[n], got2[n], r2[n])
        rep.add({"p": ps[n], "q": qs[n], "n": k, "check": "closed-1"}, want1[n], got1[n], r1[n])
    diag = _bounded(rng, 2.0, 4)
    k2, k1 = series_levels(diag, diag)
    base = np.array([math.exp(n2) for n2 in qarray.norm_sq(diag)]) / math.pi
    base1 = np.arange(1, level_max + 2)[:, None] * base   # K_1 is (k + 1) times K_2 here
    r2 = np.linalg.norm(k2 - base[:, None] * (1, 0, 0, 0), axis=-1) / base
    r1 = np.linalg.norm(k1 - base1[..., None] * (1, 0, 0, 0), axis=-1) / base1
    for n, q in enumerate(diag):
        for k in levels:
            rep.add({"q": q, "k": k, "check": "diagonal-2"}, base[n], k2[k, n], r2[k, n])
            rep.add({"q": q, "n": k, "check": "diagonal-1"}, base1[k, n], k1[k, n], r1[k, n])
    return rep


# -- 4. reproducing property ---------------------------------------------


def verify_reproduce(config: Config, level_max: int = 3,
                     degree_max: int = 6) -> VerificationReport:
    """<K_{2,k}(p,.), f> recovers f(p) for random members of the
    degree-bounded Hermite span at each level k; f(p) is read as
    f.eval_many on each (5, 4) batch of points."""
    rep = VerificationReport("reproduce", config.tolerance("reproduce"),
                             {"level_max": level_max, "degree_max": degree_max,
                              "points": 5 * (level_max + 1),
                              "nodes": config.slice_nodes, "seed": config.seed})
    rng = _rng(config, 4)
    for k in range(level_max + 1):
        f = hermite_series(0, k).rmul(random_quaternion(rng))
        for j in range(1, degree_max + 1):
            f = f + hermite_series(j, k).rmul(random_quaternion(rng))
        Q = SliceQuadrature(config.slice_nodes, random_unit(rng))
        ps = _bounded(rng, 1.5, 5)
        got, want = project_batch(k, f, ps, Q, config.series_terms), f.eval_many(ps)
        for p, g, w, r in zip(ps, got, want, np.linalg.norm(got - want, axis=-1)):
            rep.add({"k": k, "p": p}, w, g, r)
    return rep


# -- 6. Bargmann basis mapping -------------------------------------------


def verify_transform_basis(config: Config, j_max: int = 6,
                           k_max: int = 6) -> VerificationReport:
    """B_{2,k} sends the Hermite function h_j to (1/pi)^(1/4) sqrt(2^j/k!) H_{j,k};
    worst of 20 random q per (j,k).  Per level k, one transform_batch of all
    the h_j on all their points and one slice_values table of the stacked
    H_{j,k}; each (j, k) reads its own 20 rows of both."""
    rep = VerificationReport("transform-basis", config.tolerance("transform-basis"),
                             {"j_max": j_max, "k_max": k_max, "points": 20,
                              "line_nodes": config.line_nodes, "seed": config.seed})
    rng = _rng(config, 6)
    rule = gauss_hermite(config.line_nodes)
    js = range(j_max + 1)
    pts = _bounded(rng, 1.5, len(js) * (k_max + 1) * 20).reshape(len(js), k_max + 1, 20, 4)
    line, row = np.repeat(js, 20), np.arange(len(js) * 20)     # row n belongs to h_{n // 20}
    resid = np.empty((len(js), k_max + 1, 20))
    for k in range(k_max + 1):
        qs = pts[:, k].reshape(-1, 4)
        got = transform_batch(k, [HermiteLine(j) for j in js], qs, rule)[line, row]
        z, unit = qarray.to_slice(qs)
        stack = coeff_stack([hermite_series(j, k) for j in js])
        scale = np.array([basis_image_scale(j, k) for j in js])[line, None]
        ref = qarray.lift(slice_values(stack, z)[row, line], unit) * scale
        resid[:, k] = np.linalg.norm(got - ref, axis=1).reshape(len(js), 20)
    for j in js:
        for k in range(k_max + 1):
            worst = int(np.argmax(resid[j, k]))
            rep.add({"j": j, "k": k, "worst_q": pts[j, k, worst]},
                    "scale * H_{j,k}(q)", "B_{2,k} h_j (q)", float(resid[j, k, worst]))
    return rep


# -- 7. isometry ---------------------------------------------------------


def verify_isometry(config: Config, k_max: int = 6,
                    j_max: int = 6) -> VerificationReport:
    """Coherent-state line norms against e^(|q|^2/2)/sqrt(pi) (relative,
    part 'norm') and transformed-basis Gram against the line Gram
    (normalised, part 'gram')."""
    rep = VerificationReport("isometry", config.tolerance("isometry"),
                             {"k_max": k_max, "j_max": j_max, "points": 20,
                              "line_nodes": config.line_nodes,
                              "nodes": config.slice_nodes, "seed": config.seed})
    rng = _rng(config, 7)
    rule = gauss_hermite(config.line_nodes)
    for k in range(k_max + 1):
        qs = _bounded(rng, 2.0, 20)
        vals = b2_grid(k, rule.nodes, qs)
        nums = np.sqrt(np.sum(vals * vals, axis=2) @ rule.line_weights)
        want = b2_norm_closed(qs)
        resid = np.abs(nums - want) / want
        worst = int(np.argmax(resid))
        rep.add({"k": k, "worst_q": qs[worst], "part": "norm"},
                "exp(|q|^2/2)/sqrt(pi)", "line norm of B_{2,k}(.; q)", resid[worst])
    m = j_max + 1
    for k in range(k_max + 1):
        Q = SliceQuadrature(config.slice_nodes, random_unit(rng))
        g_img, g_line = isometry_grams(k, j_max, Q, rule)
        diag = g_line[np.arange(m), np.arange(m), 0]
        scale = np.sqrt(diag[:, None] * diag[None, :])
        dev = np.sqrt(np.sum((g_img - g_line) ** 2, axis=2)) / scale
        a, b = divmod(int(np.argmax(dev)), m)
        rep.add({"k": k, "pair": [a, b], "part": "gram"},
                [float(c) for c in g_line[a, b]],
                [float(c) for c in g_img[a, b]], float(dev[a, b]))
    return rep


# -- 8a. eigenfunction norms ---------------------------------------------


def verify_norms(config: Config, n_max: int = 3,
                 j_max: int = 4) -> VerificationReport:
    """Full-space quadrature norms of psi_{n,j} against
    4 pi^2 n!(j!)^2/(n+j)!  (relative residual)."""
    rep = VerificationReport("norms", config.tolerance("norms"),
                             {"n_max": n_max, "j_max": j_max,
                              "nodes": config.slice_nodes})
    for n in range(n_max + 1):
        for j in range(j_max + 1):
            want = psi_norm_sq(n, j)
            got = norm_sq_full(Eigenfunction(n, j), config.slice_nodes)
            rep.add({"n": n, "j": j}, want, got, abs(got - want) / want)
    return rep


# -- 8b. spectrum probe --------------------------------------------------


def verify_spectrum(config: Config) -> VerificationReport:
    """Radial mass probe: integer eigenvalue candidates must converge,
    non-integer ones must diverge; residual 0 when the flag matches."""
    rep = VerificationReport("spectrum", config.tolerance("spectrum"),
                             {"integers": [0, 1, 2, 3],
                              "non_integers": [0.5, 1.5, 2.5, 3.141592653589793, 3.7]})
    for mu in (0.0, 1.0, 2.0, 3.0):
        pr = spectrum_probe(mu, 0)
        rep.add({"mu": mu, "j": 0}, True, pr.converged,
                0.0 if pr.converged else 1.0)
    for mu in (0.5, 1.5, 2.5, math.pi, 3.7):
        pr = spectrum_probe(mu, 0)
        rep.add({"mu": mu, "j": 0}, False, pr.converged,
                0.0 if not pr.converged else 1.0)
    return rep


# -- 9. level decomposition ----------------------------------------------


def verify_decomposition(config: Config, level_max: int = 3,
                         degree: int = 6) -> VerificationReport:
    """Sum of the kernel projections P_k, k <= m, applied through slice
    quadrature (one project_batch over range(m + 1)) reassembles a random
    bidegree-(degree, m) polynomial, read as f.eval_many on each (5, 4)
    batch of points."""
    rep = VerificationReport("decomposition", config.tolerance("decomposition"),
                             {"degree": degree, "level_max": level_max,
                              "points": 5 * (level_max + 1),
                              "nodes": config.slice_nodes, "seed": config.seed})
    rng = _rng(config, 9)
    for m in range(level_max + 1):
        f = PolySliceSeries(tuple(
            tuple(random_quaternion(rng) for _ in range(degree + 1))
            for _ in range(m + 1)))
        Q = SliceQuadrature(config.slice_nodes, random_unit(rng))
        ps = _bounded(rng, 1.5, 5)
        got = project_batch(range(m + 1), f, ps, Q, config.series_terms)
        want = f.eval_many(ps)
        for p, g, w, r in zip(ps, got, want, np.linalg.norm(got - want, axis=-1)):
            rep.add({"m": m, "p": p}, w, g, r)
    return rep


# -- 10. star-product identities -----------------------------------------


def _fr(w, x=0, y=0, z=0) -> Quaternion:
    return Quaternion(Fraction(w), Fraction(x), Fraction(y), Fraction(z))


def verify_star_identities(config: Config) -> VerificationReport:
    """Star-product calculus: conjugation swaps left and right products,
    common-slice coefficients commute, the S_2 display expands as stated,
    and the star Laguerre and exponential collapse to their classical
    values on a common slice.  Exact cases score 0/1; floating cases
    score their max deviation."""
    rep = VerificationReport("star-identities", config.tolerance("star-identities"),
                             {"seed": config.seed})
    rng = _rng(config, 10)

    # exact: conj(f * g) = conj(g) *R conj(f) with rational coefficients
    f = PolySliceSeries(((_fr(1, 2, -1, 0), _fr(0, 1, 0, 3)),
                         (_fr(2, 0, 0, -1), _fr(-1, 1, 1, 1))))
    g = PolySliceSeries(((_fr(0, 0, 2, 1),),
                         (_fr(3, -2, 0, 0),),
                         (_fr(1, 1, 1, 0),)))
    lhs = f.star(g).conj()
    rhs = g.conj().star(f.conj())
    rep.add({"check": "conj-swap-exact"}, "conj(g) *R conj(f)",
            "conj(f *L g)", 0.0 if lhs == rhs else 1.0)

    # exact: common-slice coefficients commute (slice and poly products);
    # the slice is C_U for the rational unit U = (3i + 4j)/5
    U = Quaternion(0, Fraction(3, 5), Fraction(4, 5), 0)
    one = _fr(1)

    def in_slice(a, b):
        return one * a + U * b

    s1 = SliceSeries((in_slice(1, 2), in_slice(Fraction(1, 2), -1), in_slice(0, 3)))
    s2 = SliceSeries((in_slice(-2, 1), in_slice(3, Fraction(2, 3))))
    rep.add({"check": "commute-slice-exact"}, "g * f", "f * g",
            0.0 if s1.star(s2) == s2.star(s1) else 1.0)
    p1 = PolySliceSeries(((in_slice(1, 1), in_slice(0, 2)),
                          (in_slice(2, -1), in_slice(1, 0))))
    p2 = PolySliceSeries(((in_slice(0, 1),), (in_slice(Fraction(3, 7), 2),)))
    rep.add({"check": "commute-poly-exact"}, "g * f", "f * g",
            0.0 if p1.star(p2) == p2.star(p1) else 1.0)

    # exact: S_2 against its expanded display
    qq = one + U * 2
    qb = qq.conj()
    h2 = SliceSeries((-qq, one)).star(SliceSeries((-qq, one)))
    expected = PolySliceSeries((
        tuple(c * (qb * qb) for c in (h2.coeff(0), h2.coeff(1), h2.coeff(2))),
        tuple(c * (qb * -2) for c in (h2.coeff(0), h2.coeff(1), h2.coeff(2))),
        (h2.coeff(0), h2.coeff(1), h2.coeff(2)),
    ))
    rep.add({"check": "s2-display-exact", "q": qq}, "expanded S_2",
            "s_k_series(2, q)", 0.0 if s_k_series(2, qq) == expected else 1.0)

    # exact: same-slice star Laguerre reduction at rational points
    pp = _fr(2) + U
    got = laguerre_star(2, 0, qq).eval_left(pp)
    want = quat(laguerre(2, 0, Fraction(2)))  # |p - q|^2 = 2 exactly
    rep.add({"check": "laguerre-slice-exact", "p": pp, "q": qq},
            want, got, 0.0 if got == want else 1.0)

    # floating: conjugation swap and slice reductions at random points
    def rnd_poly(rows, cols):
        return PolySliceSeries(tuple(
            tuple(random_quaternion(rng) for _ in range(cols))
            for _ in range(rows)))

    ff, gg = rnd_poly(3, 3), rnd_poly(2, 4)
    a = ff.star(gg).conj()
    b = gg.conj().star(ff.conj())
    dev = max(abs(a.coeff(k, j) - b.coeff(k, j))
              for k in range(a.level + 1) for j in range(a.degree + 1))
    rep.add({"check": "conj-swap-float"}, 0.0, dev, dev)

    for n, gamma in ((1, 0), (3, 0), (4, 1), (2, 2)):
        unit = random_unit(rng)
        p = quat(rng.normal()) + unit * rng.normal()
        q = quat(rng.normal()) + unit * rng.normal()
        got = laguerre_star(n, gamma, q).eval_left(p)
        want = quat(laguerre(n, gamma, float((p - q).norm_sq())))
        rep.add({"check": "laguerre-slice-float", "n": n, "gamma": gamma},
                want, got, abs(got - want))
        eg = exp_star(q, config.star_terms).eval_left(p)
        ew = qexp(p.conj() * q)
        rep.add({"check": "exp-slice-float"}, ew, eg, abs(eg - ew))
    return rep


# -- registry ------------------------------------------------------------

SUITES = {
    "orthogonality": verify_orthogonality,
    "eigen": verify_eigen,
    "kernel-dual": verify_kernel_dual,
    "reproduce": verify_reproduce,
    "transform-basis": verify_transform_basis,
    "isometry": verify_isometry,
    "norms": verify_norms,
    "spectrum": verify_spectrum,
    "decomposition": verify_decomposition,
    "star-identities": verify_star_identities,
}

SUITE_ORDER = list(SUITES)


def run_suite(name: str, config: Config | None = None,
              **grid) -> VerificationReport:
    """Run one suite on config (default Config()) and record its wall time."""
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_ORDER}") from None
    if config is None:
        config = Config()
    t0 = time.perf_counter()
    rep = fn(config, **grid)
    rep.wall_time_s = time.perf_counter() - t0
    return rep


def run_all(config: Config | None = None) -> list[VerificationReport]:
    return [run_suite(name, config) for name in SUITES]
