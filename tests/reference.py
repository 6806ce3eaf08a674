"""A 40-digit reference for the Bloch wave operator and the leakage, in mpmath.

It reads one input from the float pipeline: H in the H0 eigenbasis,
``ProblemInstance.h_eig``, with the partition's eigenvalues and groups, each
float read exactly.  From there every quantity is computed in 40-digit
arithmetic, by routes that share no code with the package:

- the series: ``Omega^(j)`` from the Sylvester recursion, V being
  ``H - gamma diag(lam)``, summed to a given order J;
- the closed form: with ``H = S diag(E) S^dag`` (``mp.eighe``, E ascending),
  H's band k is the index set g of group k while ``||V|| < gamma eta / 2``,
  so ``Omega[out, g] = S[out, g] S[g, g]^-1`` and ``Omega[g, g] = I``;
- the leakage ``||Q_k e^{-itH} P_k||``, the top singular value of
  ``S[out, :] diag(e^{-iEt}) S[g, :]^dag``.

Sized for dims up to about 8: every product is a Python loop over mp numbers.
"""

from __future__ import annotations

from mpmath import mp

DPS = 40


def _mp(a) -> mp.matrix:
    """A numpy array as an mp matrix, each float read exactly."""
    if a.dtype.kind == "c":
        return mp.matrix([[mp.mpc(z.real, z.imag) for z in row] for row in a])
    return mp.matrix([[mp.mpf(float(z)) for z in row] for row in a])


def _block(a: mp.matrix, rows, cols) -> mp.matrix:
    return mp.matrix([[a[i, j] for j in cols] for i in rows])


def operator_norm(a: mp.matrix):
    """The largest singular value of ``a``."""
    with mp.workdps(DPS):
        return max(mp.svd(a, compute_uv=False))


def max_abs_diff(a: mp.matrix, b) -> float:
    """The largest entrywise ``|a - b|``, ``b`` a numpy array or an mp matrix."""
    with mp.workdps(DPS):
        b = b if isinstance(b, mp.matrix) else _mp(b)
        return float(max(abs(a[i, j] - b[i, j]) for i in range(a.rows) for j in range(a.cols)))


class Reference:
    """The 40-digit quantities of one ``ProblemInstance``."""

    def __init__(self, inst):
        part = inst.partition
        self.n = inst.dim
        self.groups = [[int(i) for i in g] for g in part.groups]
        with mp.workdps(DPS):
            self.gamma = mp.mpf(inst.gamma)
            self.lam = [mp.mpf(float(v)) for v in part.eigenvalues]
            self.h = _mp(inst.h_eig)
            self.v = self.h - self.gamma * mp.diag(self.lam)
            self.e, self.s = mp.eighe(self.h)

    def _out(self, g):
        return [i for i in range(self.n) if i not in g]

    def omega_series(self, order: int) -> mp.matrix:
        """``sum_{j <= order} gamma^-j Omega^(j)``.  With ``C_l = Omega^(l)[:, g]``,
        zero on the rows g for l >= 1, and ``Z_l = V[g, :] C_l``, order j solves
        ``lam_out X - X lam_g = Q_k (sum_{i=1}^{j-1} C_i Z_{j-1-i} - V C_{j-1})``
        for ``X = C_j[out]``: the Bloch equation ``H Omega_k = Omega_k H Omega_k``
        order by order in ``1 / gamma``."""
        n = self.n
        with mp.workdps(DPS):
            omega = mp.eye(n)
            for g in self.groups:
                out = self._out(g)
                v_g = _block(self.v, g, range(n))
                cs = [_block(mp.eye(n), range(n), g)]
                zs = [v_g * cs[0]]
                for j in range(1, order + 1):
                    rhs = -(self.v * cs[j - 1])
                    for i in range(1, j):
                        rhs += cs[i] * zs[j - 1 - i]
                    c = mp.zeros(n, len(g))
                    for i in out:
                        for b, col in enumerate(g):
                            c[i, b] = rhs[i, b] / (self.lam[i] - self.lam[col])
                    cs.append(c)
                    zs.append(v_g * c)
                    for i in out:
                        for b, col in enumerate(g):
                            omega[i, col] += c[i, b] / self.gamma**j
            return omega

    def omega_closed(self) -> mp.matrix:
        """``Omega[out, g] = S[out, g] S[g, g]^-1``, with ``Omega[g, g] = I``."""
        with mp.workdps(DPS):
            omega = mp.eye(self.n)
            for g in self.groups:
                out = self._out(g)
                block = _block(self.s, out, g) * mp.inverse(_block(self.s, g, g))
                for a, i in enumerate(out):
                    for b, col in enumerate(g):
                        omega[i, col] = block[a, b]
            return omega

    def h_bloch(self, omega: mp.matrix) -> mp.matrix:
        """``sum_k P_k H Omega_k``: block k is ``H[g, :] Omega[:, g]``, zero off the blocks."""
        n = self.n
        with mp.workdps(DPS):
            hb = mp.zeros(n, n)
            for g in self.groups:
                block = _block(self.h, g, range(n)) * _block(omega, range(n), g)
                for a, i in enumerate(g):
                    for b, col in enumerate(g):
                        hb[i, col] = block[a, b]
            return hb

    def leakage(self, k: int, t: float):
        """``||Q_k e^{-itH} P_k||`` from the eigensystem of H."""
        g = self.groups[k]
        with mp.workdps(DPS):
            phases = [mp.expj(-e * mp.mpf(t)) for e in self.e]
            b = mp.matrix([[mp.fsum(self.s[i, m] * phases[m] * mp.conj(self.s[col, m])
                                    for m in range(self.n)) for col in g]
                           for i in self._out(g)])
            return operator_norm(b)
