# python3
"""Weak values that put each photon's path in one arm and its grin in the other.

Builds the pre/post-selected pairs of growing size and prints their weak
values. The pattern to look for: photon 1 has path weak value 1 on the left
arm but grin weak value 1 on the right arm, and photon 2 is mirrored. Larger
chains alternate photon by photon.
"""

import math

import cheshire as ch


def show(title, pair):
    print(f"== {title} ==")
    report = ch.weak_value_report(pair)
    for (kind, photon, arm), w in report.entries.items():
        print(f"photon {photon}  {kind}  {arm}  {w.real:+.6f}{w.imag:+.6f}i")
    print(f"(post-selection success probability {abs(report.overlap) ** 2:.6f})")
    print()


show("single photon", ch.single())
show("two photons, shared grin", ch.two_cat())

# The two-photon family has free angles. The pattern is the same at every
# interior point; only the post-selection probability moves.
for theta in (math.pi / 8, math.pi / 3):
    pair = ch.general_two_cat(theta, phi=0.7)
    show(f"general family, theta={theta:.4f}, phi=0.7", pair)

show("five-photon chain", ch.n_cat(5))

# Weak values are not constrained to [0, 1]. A nearly orthogonal pair drives
# them far outside the eigenvalue range; this is ordinary for post-selection.
conv = ch.BasisConvention(1)
pre = ch.normalize(ch.make_ket(conv, {0: 1.0, 2: 0.995}))
post = ch.normalize(ch.make_ket(conv, {0: 1.0, 2: -1.0}))
pair = ch.pair_from_states(pre, post)
w = ch.weak_value(ch.path_projector(conv, 1, "L"), pair)
print(f"amplified example: left-path weak value {w.real:+.2f}{w.imag:+.2f}i")
