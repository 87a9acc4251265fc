"""The source paper's own clauses, end to end over the wire.

``MAXIMUM-ELEMENT-SEPARATION … MAXIMUM-GROUP-DIAMETER`` and ``AROUND …
MAXIMUM-GROUP-DIAMETER`` are the ICDE 2009 operators (N-D ``AROUND …
WITHIN`` is their lift to the later paper's setting).  ``benchmarks/e2e``
drives only the ε clauses, so this is where each of them crosses parser →
planner → similarity aggregate → wire encoder and is checked against a
brute-force oracle that shares no code with ``repro.core``.
"""

import math
import random

from repro.engine.database import Database
from repro.service import ServerThread, ServiceClient

N_ROWS = 240
CENTERS_1D = [2.0, 6.0, 7.0]
CENTERS_ND = [(2.0, 2.0), (6.0, 6.0), (9.0, 1.0)]


def make_rows():
    rng = random.Random(2009)
    rows = [(round(rng.uniform(0, 10), 2), round(rng.uniform(0, 10), 2), n)
            for n in range(N_ROWS - 3)]
    # exact ties: on a diameter/radius boundary and midway between centres
    rows += [(3.5, 2.0, N_ROWS - 3), (6.5, 6.0, N_ROWS - 2),
             (4.0, 2.0, N_ROWS - 1)]
    return rows


def aggregate(rows, labels):
    """``count(*), min(v), max(v), sum(n)`` per label, in label order."""
    out = {}
    for (v, _w, n), label in zip(rows, labels):
        if label is None:
            continue
        count, lo, hi, total = out.get(label, (0, v, v, 0))
        out[label] = (count + 1, min(lo, v), max(hi, v), total + n)
    return [out[label] for label in sorted(out)]


def segment_oracle(rows, separation, diameter):
    """Left-to-right over the sorted values: a new group starts at a gap
    wider than ``separation`` or when the group would exceed ``diameter``."""
    order = sorted(range(len(rows)), key=lambda i: rows[i][0])
    labels = [None] * len(rows)
    group, start, prev = -1, None, None
    for i in order:
        v = rows[i][0]
        if prev is None or v - prev > separation or v - start > diameter:
            group, start = group + 1, v
        labels[i], prev = group, v
    return aggregate(rows, labels)


def around_oracle(rows, points, centers, radius):
    """Nearest centre (earlier wins ties), dropped when beyond ``radius``."""
    labels = []
    for p in points:
        dists = [math.dist(p, c) for c in centers]
        best = dists.index(min(dists))
        labels.append(best if dists[best] <= radius else None)
    return aggregate(rows, labels)


def test_icde2009_clauses_over_the_wire():
    rows = make_rows()
    db = Database()
    db.execute("CREATE TABLE m (v float, w float, n int)")
    db.insert("m", rows + [(None, 1.0, -1)])  # a NULL key is not grouped
    select = "SELECT count(*), min(v), max(v), sum(n) FROM m GROUP BY "
    centres_1d = ", ".join(str(c) for c in CENTERS_1D)
    centres_nd = ", ".join(f"({x}, {y})" for x, y in CENTERS_ND)
    cases = [
        (select + "v MAXIMUM-ELEMENT-SEPARATION 0.04 "
                  "MAXIMUM-GROUP-DIAMETER 0.5",
         segment_oracle(rows, 0.04, 0.5),
         "SimilarityGroupBy1D (separation=0.04 diameter=0.5)"),
        (select + f"v AROUND ({centres_1d}) MAXIMUM-GROUP-DIAMETER 3",
         around_oracle(rows, [(r[0],) for r in rows],
                       [(c,) for c in CENTERS_1D], 1.5),
         "SimilarityGroupBy1D (around 3 centre(s) diameter=3.0)"),
        (select + f"v, w AROUND ({centres_nd}) L2 WITHIN 2.5",
         around_oracle(rows, [(r[0], r[1]) for r in rows], CENTERS_ND, 2.5),
         "SimilarityGroupAround (3 centres, l2 within 2.5)"),
    ]
    with ServerThread(db=db) as server, \
            ServiceClient(port=server.port) as client:
        for sql, expected, node in cases:
            assert node in client.explain(sql)
            got = [tuple(row) for row in client.query(sql).rows]
            assert got == expected
            assert 1 < len(got) and sum(r[0] for r in got) <= N_ROWS
            assert all(type(cell) in (int, float)
                       for row in got for cell in row)
