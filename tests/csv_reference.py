"""csv.writer cross-check for the CLI's CSV writer.

cli._write_csv formats whole numeric columns through orjson, rewrites
orjson's text of the floats that repr writes in exponent form into repr's
spelling, uses repr itself only for nan, ±inf and text the rewrite does
not recognise, and joins the rows itself. This is the same output written
the direct way, one cell at a time through csv.writer, so it lives next to
the tests, not in the library.
"""
import csv

import numpy as np


def reference_write_csv(path, header, columns) -> None:
    """One row per index of the equal-length columns, through csv.writer."""
    # newline='' so csv controls line endings; deterministic output
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(zip(*(np.asarray(c).tolist() for c in columns)))
