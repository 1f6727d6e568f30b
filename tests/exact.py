"""Exact information matrices of a modality pair, in rational arithmetic.

Every float is a dyadic rational, so ``Fraction(x)`` holds it exactly, and
the paper's closed forms are rational in the inputs: ``J = H^T Sigma^-1 H``
with ``H = [A; B]`` and ``Sigma`` the assembled joint noise, the SNR
matrices ``A^T Sigma_v^-1 A`` and ``B^T Sigma_u^-1 B``, and the synergy
matrices ``S_x = J - snr1`` and ``S_y = J - snr2``. This module computes
them with the standard library's ``fractions`` alone, on the very floats
the library saw, so an answer's true error is measured against no other
floating-point computation. Matrices are lists of rows; any nested
sequence of floats (a numpy array included) is accepted.

The placement objective is rational too. The probe's gains are rational but
for one square root, the rescaling back onto the budget sphere, which
``decimal`` takes to 60 digits.
"""

import math
from decimal import Context, Decimal
from fractions import Fraction


def rational(M):
    """``M`` as a list of rows of exact ``Fraction`` entries."""
    return [[Fraction(float(x)) for x in row] for row in M]


def transpose(M):
    return [list(column) for column in zip(*M)]


def matmul(X, Y):
    Y_t = transpose(Y)
    return [[sum(a * b for a, b in zip(row, column)) for column in Y_t] for row in X]


def solve(M, B):
    """``M^-1 B`` for a nonsingular square ``M``, by Gauss-Jordan elimination without rounding."""
    n = len(M)
    aug = [list(M[i]) + list(B[i]) for i in range(n)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if aug[i][k] != 0)
        aug[k], aug[pivot] = aug[pivot], aug[k]
        inv = 1 / aug[k][k]
        aug[k] = [x * inv for x in aug[k]]
        for i in range(n):
            if i != k and aug[i][k] != 0:
                f = aug[i][k]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def information(H, sigma):
    """``H^T sigma^-1 H``, exactly."""
    H, sigma = rational(H), rational(sigma)
    return matmul(transpose(H), solve(sigma, H))


def subtract(X, Y):
    return [[a - b for a, b in zip(r, s)] for r, s in zip(X, Y)]


def pair_information(pair):
    """``{"J", "snr1", "snr2", "S_x", "S_y"}`` of a ``ModalityPair``, exactly."""
    A, B, noise = pair.first.A, pair.second.A, pair.noise
    J = information([*A, *B], noise.joint())
    snr1 = information(A, noise.sigma_v)
    snr2 = information(B, noise.sigma_u)
    return {"J": J, "snr1": snr1, "snr2": snr2,
            "S_x": subtract(J, snr1), "S_y": subtract(J, snr2)}


def relative_error(approx, exact) -> float:
    """``||approx - exact||_F / ||exact||_F`` of a float matrix against an exact one.

    The difference and both sums of squares are exact; only their ratio is
    rounded, once, before its square root.
    """
    diff = subtract(rational(approx), exact)
    num = sum(x * x for row in diff for x in row)
    den = sum(x * x for row in exact for x in row)
    return float(num / den) ** 0.5


def _objective_above_a(A, rho):
    """``B -> Tr(D^T K D)``, ``D = B - rho^T A``, ``K = (I - rho^T rho)^-1``, of exact inputs."""
    n2 = len(rho[0])
    eye = [[Fraction(int(i == j)) for j in range(n2)] for i in range(n2)]
    K = solve(subtract(eye, matmul(transpose(rho), rho)), eye)
    target = matmul(transpose(rho), A)

    def score(B):
        D = subtract(B, target)
        return sum(d * k for row, k_row in zip(D, matmul(K, D)) for d, k in zip(row, k_row))

    return score


def placement_objective(A, rho, B):
    """The placement objective ``Tr(A^T A) + Tr(D^T K D)`` of a whitened ``B``, exactly."""
    A, rho = rational(A), rational(rho)
    return sum(a * a for row in A for a in row) + _objective_above_a(A, rho)(rational(B))


def probe_gains(A, rho, B0, draws, delta):
    """The objective gain of each probe perturbation ``z`` of ``draws``, from the probe's floats.

    The draw is displaced by the float ``s = delta / ||z||``, ``Y = B0 + s z``
    exactly, and scaled back onto the sphere of ``B0`` by
    ``c = sqrt(||B0||^2 / ||Y||^2)``, rounded to 60 digits. The gain is
    ``Tr(D^T K D) - Tr(D0^T K D0)`` with ``D = c Y - rho^T A``, ``D0 = B0 - rho^T A``
    and ``K = (I - rho^T rho)^-1`` taken exactly.
    """
    A, rho, B0 = rational(A), rational(rho), rational(B0)
    score, p = _objective_above_a(A, rho), sum(x * x for row in B0 for x in row)
    base, gains, digits = score(B0), [], Context(prec=60)
    for z in draws:
        s = Fraction(delta / max(math.sqrt(sum(float(x) ** 2 for row in z for x in row)), 1e-300))
        Y = [[b + s * x for b, x in zip(r, q)] for r, q in zip(B0, rational(z))]
        ratio = p / sum(y * y for row in Y for y in row)
        c = digits.sqrt(digits.divide(Decimal(ratio.numerator), Decimal(ratio.denominator)))
        c = Fraction(c)
        gains.append(score([[c * y for y in row] for row in Y]) - base)
    return gains
