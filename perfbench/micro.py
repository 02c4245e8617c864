"""Fixed-operand microbenchmarks of single layers, each call made cold.

The operands do not depend on the workload or the seed: q = 3/5, b = 3/7,
and the polynomial operands are the q-Chebyshev polynomials T_40, T_80 and
T_100 at that q.  Every timed call is preceded, outside the timed region, by
clearing every module-level cache, so a memoizing change shows as the cost of
one cold computation rather than as a dictionary lookup.
"""

import statistics
import time
from fractions import Fraction

from tracer import clear_caches

Q = Fraction(3, 5)
B = Fraction(3, 7)
REPS = 5
BATCH_S = 0.02


def per_call(fn, clearers):
    """Median over REPS batches of the mean time of one cold call; a batch
    repeats the call until it has spent BATCH_S inside it."""
    samples = []
    for _ in range(REPS):
        calls, spent = 0, 0.0
        while spent < BATCH_S:
            clear_caches(clearers)
            t0 = time.perf_counter()
            fn()
            spent += time.perf_counter() - t0
            calls += 1
        samples.append(spent / calls)
    return statistics.median(samples)


def oracle_routes(families, qkernel, point):
    """The independent second route of each family, called directly.  These
    are the routes suites checks each family against; they are listed here so
    that the benchmark does not depend on that module's private dispatch."""
    fid, q = families.FamilyId, point.q
    return {
        fid.FIB_CARLITZ: lambda n: families.fib_carlitz_rec(n, q),
        fid.FIB_QB: lambda n: families.fib_qb_closed(n, point),
        fid.LUCAS_TRACE: lambda n: families.lucas_trace_closed(n, point),
        fid.LUCAS_QB: lambda n: families.lucas_qb_closed(n, point),
        fid.GEN_FIB: lambda n: families.fib_qb_closed(n, qkernel.ParamPoint(q, -1)),
        fid.GEN_LUCAS: lambda n: families.hypergeom_gen_lucas(n, q),
        fid.CHEB_U: lambda n: families.cheb_u_closed(n, q),
        fid.CHEB_T: lambda n: families.cheb_t_closed(n, q),
        fid.ALSALAM_ISMAIL: lambda n: families.cheb_u_closed(n, q),
    }


def run(modules, clearers):
    """All microbenchmark metrics, by name."""
    qkernel, families = modules["qkernel"], modules["families"]
    point = qkernel.ParamPoint(Q, B)
    out = {}
    for fam, oracle in oracle_routes(families, qkernel, point).items():
        out[f"families.{fam.value}.primary_n24_ms"] = 1e3 * per_call(
            lambda: families.family_poly(fam, 24, point), clearers
        )
        out[f"families.{fam.value}.oracle_n24_ms"] = 1e3 * per_call(
            lambda: oracle(24), clearers
        )
    out["qkernel.q_poch_n40_us"] = 1e6 * per_call(
        lambda: qkernel.q_poch(Q * B, Q, 40), clearers
    )
    out["qkernel.q_binom_40_20_us"] = 1e6 * per_call(
        lambda: qkernel.q_binom(40, 20, Q), clearers
    )
    t40, t80, t100 = (families.cheb_t(n, Q) for n in (40, 80, 100))
    out["polyring.mul_T40_us"] = 1e6 * per_call(lambda: t40 * t40, clearers)
    out["polyring.mul_T80_us"] = 1e6 * per_call(lambda: t80 * t80, clearers)
    out["polyring.add_T80_us"] = 1e6 * per_call(lambda: t80 + t80, clearers)
    out["polyring.dilate_T80_us"] = 1e6 * per_call(lambda: t80.dilate(Q, 1, 1), clearers)
    out["polyring.to_json_T100_ms"] = 1e3 * per_call(t100.to_json, clearers)
    return out
