"""Synthesize one received frame and look at its structure.

The reader samples k = n + q fast-time points in each of l pulse intervals.
Stacked into an l x k matrix, the noiseless signal is the sum of two outer
products: the tag codeword times the backscatter pulse shape, and all-ones
times the direct pulse shape.  Because tag words sum to zero, averaging the
rows isolates the direct component exactly.
"""

import numpy as np

from radartag import (
    SnrConfig,
    SystemParams,
    check_assumptions,
    gen_gold,
    gen_tag_codebook,
    noise_variance,
    numeric_rank,
    sample_channel,
    synthesize_frame,
)
from radartag.channel import response_vector
from radartag.harness import frame_to_csv

params = SystemParams(n=31, l=10, q=2, n_pri=150, pri_s=3e-6, nu_max_hz=1e3)
report = check_assumptions(params)
print("model feasibility at the default operating point:")
print(f"  block-constant channels: {report.coherence_ok} "
      f"(l*pri*nu_max = {report.coherence_product:.3g}, "
      f"needs nu_max << {report.nu_max_bound_hz / 1e3:.1f} kHz)")
print(f"  pulse fits in the PRI:   {report.timing_ok} "
      f"(n_pri = {params.n_pri} > {report.n_pri_required})")

rng = np.random.default_rng(0)
snr = SnrConfig(snr_str_db=15.0, snr_sr_db=20.0)
sigma_w2, sigma_str2, sigma_sr2 = noise_variance(snr, params.n)
print(f"\nSNRs (backscatter, direct) = (15, 20) dB -> tap powers "
      f"({sigma_str2:.4f}, {sigma_sr2:.4f}) at noise variance {sigma_w2}")

c = gen_gold(5).words[7]
x = gen_tag_codebook(10).words[42]
g_str = sample_channel(params.q, 3, sigma_str2, -10.0, False, rng)
g_sr = sample_channel(params.q, 3, sigma_sr2, -10.0, False, rng)

clean = synthesize_frame(c, x, g_str, g_sr, 0.0, rng)
print(f"\nnoiseless frame: shape {clean.shape}, rank {numeric_rank(clean)}")

row_avg = clean.T @ np.ones(params.l) / params.l
direct = response_vector(c, g_sr)
print("row average recovers the direct pulse shape exactly:",
      np.allclose(row_avg, direct, atol=1e-12))

noisy = synthesize_frame(c, x, g_str, g_sr, sigma_w2, rng)
print(f"noisy frame sample power {np.mean(np.abs(noisy) ** 2):.3f} "
      f"(signal + unit-variance noise)")

dump = frame_to_csv(noisy)
print(f"\ndebug dump: {len(dump.splitlines())} lines, "
      f"first line starts '{dump.splitlines()[0][:40]}...'")
