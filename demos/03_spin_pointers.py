"""Spin pointers: the same weak values without an oscillator.

Nothing is special about the Gaussian pointer.  Replace each oscillator
with a spin s prepared in |m = -s> and couple through H = -gt A S_y; the
joint weak value then reads

    <prod A_j>_w = (1 / (gt s))^N <prod S-_j>.

A spin-1/2 pointer carries just two levels, so expectation values only
need 2^(2N) projective outcomes -- and the shift in the conjugate spin
component does not shrink relative to its spread as the coupling weakens.
"""

import weakmeas as wm

if __name__ == "__main__":
    pairs = [
        ("aav_qubit", "aav_qubit_spinptr"),
        ("joint_pair_entangled", "joint_pair_spinptr"),
    ]
    for fock_name, spin_name in pairs:
        fock = wm.run_experiment(fock_name)
        spin = wm.run_experiment(spin_name)
        print(f"{fock_name}  vs  {spin_name}")
        print(f"   analytic weak value:   {fock.analytic:+.6f}")
        print(f"   Fock lowering route:   {fock.extracted['lowering']:+.6f}")
        print(f"   spin S- ladder route:  {spin.extracted['spin']:+.6f}")
        print(f"   route difference:      "
              f"{abs(fock.extracted['lowering'] - spin.extracted['spin']):.2e}")
        print()

    print("Both pointer families agree with the analytic value to the")
    print("quadratic error scale of their couplings; the extraction only")
    print("relies on the pointer starting in the bottom state of a ladder.")
