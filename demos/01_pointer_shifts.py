"""Single weak measurement: pointer shifts and anomalous weak values.

A qubit prepared in (|0> + |1>)/sqrt(2) is weakly coupled to a Gaussian
pointer through H = gt * sigma_z * P, then post-selected.  The surviving
pointer is barely displaced, but the displacement divided by the coupling
is the *weak value* <F|A|I>/<F|I> -- a complex number that is not confined
to the eigenvalue range of A:

* the position shift tracks its real part,
* the momentum shift tracks its imaginary part,
* a nearly orthogonal post-selection amplifies it far beyond |1|.
"""

import weakmeas as wm


def show(name):
    scenario = wm.resolve_scenario(name)
    report = wm.run_experiment(name)
    gt = scenario.couplings[0]
    sigma = scenario.pointers[0].sigma
    x_mean, p_mean = report.xp_shift

    print(f"--- {name} ---")
    print(f"    {scenario.description}")
    print(f"    coupling gt = {gt}, pointer width sigma = {sigma}")
    print(f"    post-selection survives with probability {report.prob_success:.6g}")
    print(f"    analytic weak value  A_w = {report.analytic:+.6f}")
    print(f"    <X>/gt               = {x_mean / gt:+.6f}   (tracks Re A_w)")
    print(f"    (2 sigma^2/gt) <P>   = {2 * sigma**2 / gt * p_mean:+.6f}   (tracks Im A_w)")
    print(f"    lowering-operator route: (2 sigma/gt) <a> = {report.extracted['lowering']:+.6f}")
    print(f"    |extracted - analytic| = {report.abs_errors['lowering']:.2e}"
          f"  (quadratic in the coupling)")
    print()


if __name__ == "__main__":
    # a garden-variety weak value between the eigenvalues -1 and +1
    show("aav_qubit")

    # purely imaginary weak value: the *momentum* quadrature does the talking
    show("aav_imaginary")

    # amplification: post-select nearly orthogonal to the pre-selection and
    # the weak value balloons to ~200 -- at the price of a ~2.5e-5 success rate
    show("aav_amplified")

    print("The amplified value sits two hundred times outside the sigma_z")
    print("spectrum; only one trial in ~40000 survives the post-selection.")
