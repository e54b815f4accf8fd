"""What an ensemble actually records: sampled pointer positions.

Exact expectation values are a simulator's luxury.  A real experiment
post-selects, then histograms pointer positions over many trials; the
average shift emerges from shot noise only as sqrt(N) grinds it out.
Here the conditioned pointer's position density is synthesized from its
number-state amplitudes, sampled by inverse CDF with a counter-based
generator (bitwise reproducible given the seed), and compared with the
exact first moment.
"""

import numpy as np

import weakmeas as wm

if __name__ == "__main__":
    scenario = wm.resolve_scenario("aav_qubit")
    result = wm.post_select(wm.evolve_exact(scenario), scenario)
    exact_x, _ = wm.pointer_shift_check(result, scenario)
    print(f"exact conditioned <X> = {exact_x:+.6f}")
    print(f"post-selection probability = {result.prob_success:.4f}")
    print()
    print("   shots      sample mean    std error    pull (sigma)")
    for shots in (10**3, 10**4, 10**5, 10**6):
        positions = wm.sample_positions(result, scenario, 0, shots, seed=42)
        mean = float(np.mean(positions))
        stderr = float(np.std(positions)) / np.sqrt(shots)
        pull = (mean - exact_x) / stderr
        print(f"   {shots:8d}   {mean:+.6f}     {stderr:.2e}     {pull:+.2f}")

    print()
    print("The pointer spread (sigma = 1) dwarfs the shift (~0.008): a")
    print("single trial says nothing, and ~10^5 post-selected trials are")
    print("needed before the weak value stands clear of the noise --")
    print("the statistical price of measuring without disturbing.")
