"""Brute-force reference implementations used as independent test oracles.

Everything here is plain Python over cmath, deliberately sharing no code
with the library: dictionary-accumulated double loops for convolution,
term-by-term sums for factors and transforms.
"""

import cmath
import math


def conv_brute(f_vals, f_start, g_vals, g_start):
    """Full convolution by double loop; returns (start, list of values)."""
    if not f_vals or not g_vals:
        return f_start + g_start, []
    acc = {}
    for i, fv in enumerate(f_vals):
        for j, gv in enumerate(g_vals):
            k = (f_start + i) + (g_start + j)
            acc[k] = acc.get(k, 0j) + fv * gv
    start = f_start + g_start
    return start, [acc.get(k, 0j) for k in range(start, start + len(f_vals) + len(g_vals) - 1)]


def periodic_conv_brute(f_vals, g_vals):
    """Wrap-around convolution over one period by double loop."""
    n = len(f_vals)
    out = []
    for k in range(n):
        total = 0j
        for m in range(n):
            total += f_vals[m] * g_vals[(k - m) % n]
        out.append(total)
    return out


def mixed_conv_brute(h_vals, h_start, f_vals, scale=1.0):
    """Finite signal against one period of a periodic one, folded by modulo."""
    n = len(f_vals)
    out = [0j] * n
    for k in range(n):
        for i, hv in enumerate(h_vals):
            out[k] += scale * hv * f_vals[(k - (h_start + i)) % n]
    return out


def dft_brute(vals):
    """Plain-sum DFT with cmath exponentials."""
    n = len(vals)
    out = []
    for k in range(n):
        total = 0j
        for m in range(n):
            total += vals[m] * cmath.exp(-2j * cmath.pi * m * k / n)
        out.append(total)
    return out


def power_factor_brute(vals, start, a):
    """sum_n f(n) a^(-n) over the support, term by term."""
    total = 0j
    for i, v in enumerate(vals):
        n = start + i
        total += v * a ** (-n)
    return total


def riemann_factor_brute(vals, start, ts, a):
    """ts * sum_k f(k ts) e^(-a k ts), term by term."""
    total = 0j
    for i, v in enumerate(vals):
        t = (start + i) * ts
        total += v * cmath.exp(-a * t)
    return ts * total


def riemann_sum_fsum(vals, times, ts, a):
    """ts * sum_k f_k e^(-a t_k) with one cmath.exp per term and compensated
    (math.fsum) sums of the real and imaginary parts, together with the
    absolute mass ts * sum_k |f_k e^(-a t_k)| that bounds the rounding error
    of any summation order (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., SIAM 2002, section 4.2)."""
    terms = [complex(v) * cmath.exp(-a * float(t)) for v, t in zip(vals, times)]
    total = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
    return ts * total, ts * math.fsum(abs(z) for z in terms)
