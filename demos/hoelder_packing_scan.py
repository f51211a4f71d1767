"""Packing numbers, a packing-exponent fit, and a cotype blow-up scan.

Run:  python3 demos/hoelder_packing_scan.py
"""

from fractions import Fraction

from rkhs_sandwich import (brute_force_packing, cube, decide, exponent_fit,
                           greedy_packing, sequence_lp)


def main():
    print("greedy packing of (0,1) at separation 1/4:",
          greedy_packing(cube(1), Fraction(1, 4)).count,
          "(brute force:", str(brute_force_packing(cube(1), Fraction(1, 4)).count) + ")")

    deltas = [Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)]
    for d in (1, 2):
        print(f"packing exponent fit on the {d}-cube:",
              round(exponent_fit(cube(d), deltas), 3))

    print("\ncotype blow-up for l3 -> l4 (no intermediate Hilbert space):")
    recipe = decide(sequence_lp(3), sequence_lp(4)).obstruction
    from rkhs_sandwich import scan
    series = scan(recipe, None, None,
                  [Fraction(1, 4), Fraction(1, 16), Fraction(1, 64)])
    for delta, n, ratio in series.points:
        print(f"  n={n:3d}: cotype ratio {ratio:.6f}  (= n^(1/6))")
    print(f"  fitted slope {series.fitted_slope:.6f}, predicted "
          f"{recipe.predicted_exponent}")


if __name__ == "__main__":
    main()
