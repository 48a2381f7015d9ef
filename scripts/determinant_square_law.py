#!/usr/bin/env python3
"""Level-by-level determinant comparison between the plain module and the
rank-2 Jordan module, both symbolic in (c, h).

For each level prints the basis size, the wall time of both determinants,
and whether det S_2 = (det S)^2 holds.  Measured with `--max-level 6` on a
shared 2-core x86-64 machine with Python 3.11 whose speed varies: levels
1-4 take 0.02 s together, level 5 (7x7 and 14x14) 0.41 s, and level 6
(11x11 and 22x22) 39 s, nearly all of it the 22x22 determinant.  The
default stops at level 5, the largest level the acceptance fixture covers.
"""

import argparse
import time

from virlog.modules import JordanVermaModule, level_basis, shapovalov_determinant


def run(max_level: int) -> None:
    plain = JordanVermaModule("c", "h", 1)
    jordan = JordanVermaModule("c", "h", 2)
    for level in range(1, max_level + 1):
        size = len(level_basis(plain, level))
        start = time.monotonic()
        det = shapovalov_determinant(plain, level)
        det2 = shapovalov_determinant(jordan, level)
        elapsed = time.monotonic() - start
        square = det2 == det * det
        print(
            f"level {level}: {size}x{size} and {2 * size}x{2 * size}, "
            f"{elapsed:8.3f}s, square law {'holds' if square else 'FAILS'}"
        )
        if not square:
            raise SystemExit(1)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-level", type=int, default=5)
    run(parser.parse_args().max_level)
