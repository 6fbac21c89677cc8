"""Pilot-free decoding: both messages ride on whole codewords, no pilots.

Joint decoding scores every (source word, tag word) pair with per-pair
regularized channel fits; disjoint decoding picks the tag word first from
slow-time correlation energy, then the source word.  On a noiseless frame
both recover everything exactly; under noise the joint search is the
stronger (and costlier) decoder.
"""

import time

import numpy as np

from radartag import (
    RegularizationConfig,
    SourceCodebook,
    TagCodebook,
    decode_disjoint,
    decode_joint,
    decode_perfect_csi,
    gen_gold,
    gen_tag_codebook,
    noise_variance,
    sample_channel,
    snr_pair,
    synthesize_frame,
)

rng = np.random.default_rng(1)
gold = gen_gold(5)
pool = gen_tag_codebook(10)
src = SourceCodebook(n=31, words=gold.words[np.sort(rng.choice(33, 16, replace=False))])
tag = TagCodebook(l=10, words=pool.words[np.sort(rng.choice(126, 16, replace=False))])
print(f"codebooks: |C| = {len(src)}, |X| = {len(tag)} -> 4 + 4 bit/frame")

reg0 = RegularizationConfig(kind="l2", lambda_str=0.0, lambda_sr=0.0)
ci, xi = 3, 11
g_str = sample_channel(2, 3, 1.0, -10.0, False, rng)
g_sr = sample_channel(2, 3, 1.0, -10.0, False, rng)
frame = synthesize_frame(src.words[ci], tag.words[xi], g_str, g_sr, 0.0, rng)
res = decode_joint(frame.y, src, tag, reg0)
print(f"\nnoiseless joint decode: sent ({ci}, {xi}), got "
      f"({res.c_index}, {res.x_index}); channel error "
      f"{np.linalg.norm(res.g_str_hat - g_str.taps):.2e}")

# a short noisy run comparing the three decoders on identical frames
snr = snr_pair(snr_sr_db=10.0, rho_db=-5.0)
sigma_w2, sigma_str2, sigma_sr2 = noise_variance(snr, 31)
reg = RegularizationConfig(kind="l2", lambda_str=0.1, lambda_sr=0.1)
trials = 400
errors = {"perfect": 0, "joint": 0, "disjoint": 0}
start = time.time()
run_rng = np.random.default_rng(2)
for _ in range(trials):
    ci = int(run_rng.integers(len(src)))
    xi = int(run_rng.integers(len(tag)))
    g_str = sample_channel(2, 3, sigma_str2, -10.0, False, run_rng)
    g_sr = sample_channel(2, 3, sigma_sr2, -10.0, False, run_rng)
    frame = synthesize_frame(src.words[ci], tag.words[xi], g_str, g_sr,
                             sigma_w2, run_rng)
    outcomes = {
        "perfect": decode_perfect_csi(frame.y, src, tag, g_str, g_sr),
        "joint": decode_joint(frame.y, src, tag, reg),
        "disjoint": decode_disjoint(frame.y, src, tag, reg),
    }
    for name, out in outcomes.items():
        errors[name] += (out.c_index != ci) + (out.x_index != xi)

print(f"\nmessage error counts over {trials} noisy frames "
      f"(SNR direct 10 dB, backscatter 5 dB), {time.time() - start:.1f}s:")
for name, count in errors.items():
    print(f"  {name:9s} {count:4d}")
print("expected ordering: perfect <= joint <= disjoint")
