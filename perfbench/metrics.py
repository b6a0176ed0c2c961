"""Metric arithmetic of the hds benchmark (see README.md in this directory).

Pure functions only, so test_metrics.py can check them without a build.
"""

import math
import statistics


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(values):
    """Arithmetic mean of a non-empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("mean of no values")
    return sum(values) / len(values)


def percentile(values, pct):
    """The pct-th percentile of values with its sample count.

    Linear interpolation between closest ranks (numpy's default), so p50
    equals the median.  Returns (value, sample_count).
    """
    if not 0 <= pct <= 100:
        raise ValueError("percentile outside [0, 100]")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return float(value), len(ordered)


def geomean_ratio(pairs):
    """Geometric mean of cycles / baseline_cycles over (cycles, baseline)."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("geometric mean of no ratios")
    total = 0.0
    for cycles, baseline in pairs:
        if cycles <= 0 or baseline <= 0:
            raise ValueError("cycle counts must be positive")
        total += math.log(cycles / baseline)
    return math.exp(total / len(pairs))


def failure_share(attempted, failed):
    """Share of attempted cells that failed; an erroring cell is a failure."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie in [0, attempted]")
    return failed / attempted


def sim_cycles_ratio(results):
    """Geomean over non-Original cells of cycles / the program's Original.

    results: results-document rows (dicts with workload, mode, tuned and
    the prefetcher identity fields).  The Original baseline is the plain
    cell: mode original, no prefetcher, not tuned.
    """
    baseline = {}
    others = []
    for row in results:
        if is_plain_original(row):
            baseline[row["workload"]] = row["cycles"]
        else:
            others.append(row)
    return geomean_ratio((row["cycles"], baseline[row["workload"]])
                         for row in others)


PREFETCHER_FIELDS = ("stride", "markov", "stream_pf", "pair_pf", "duel_pf")


def is_plain_original(row):
    return (row["mode"] == "original" and not row["tuned"]
            and not any(row[f] for f in PREFETCHER_FIELDS))


def breakdown_sums(row):
    """Whether the cycle breakdown of an ok row sums to its cycles."""
    return sum(row["cycle_breakdown"].values()) == row["cycles"]


def figure12_losers(results):
    """Programs on which Dyn-pref does not beat Original (Figure 12)."""
    original = {}
    dynpref = {}
    for row in results:
        if is_plain_original(row):
            original[row["workload"]] = row["cycles"]
        elif (row["mode"] == "dynpref" and not row["tuned"]
              and not any(row[f] for f in PREFETCHER_FIELDS)):
            dynpref[row["workload"]] = row["cycles"]
    return sorted(w for w in original
                  if w not in dynpref or dynpref[w] >= original[w])


def quartile_spread(values):
    """(Q3 - Q1) / median, the run-to-run spread of one metric."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)
