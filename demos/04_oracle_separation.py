"""Encode / mask / decode separation with oracle masks.
====================================================

The separation skeleton is a learned filterbank analysis of the raw
mixture, per-source multiplicative masks in that latent space, and an
overlap-add synthesis back to waveforms. Trained masking networks are out
of scope here, so the masks come from an oracle: the ratio of each clean
source's latent energy to the mixture's. With a mirrored orthonormal
basis this pipeline is essentially lossless, which makes it a precise
testbed for everything around the masking network.
"""

import numpy as np

from diarsep import AudioBuffer, align_frames, concat_features, mirrored_dct_basis, oracle_masks, oracle_separation, si_sdr
from diarsep.features import FeatureMatrix
from diarsep.tasnet import apply_masks, decode, encode

rate = 8000
n = 2 * rate  # 2 s

# two voices that never talk at the same time
t = np.arange(rate) / rate
s1 = np.zeros(n, np.float32)
s2 = np.zeros(n, np.float32)
s1[:rate] = (0.4 * np.sin(2 * np.pi * 440 * t) * np.hanning(rate)).astype(np.float32)
s2[rate:] = (0.4 * np.sin(2 * np.pi * 660 * t) * np.hanning(rate)).astype(np.float32)
sources = [AudioBuffer(s1, rate), AudioBuffer(s2, rate)]
mixture = AudioBuffer(s1 + s2, rate)

# -- encode -------------------------------------------------------------------

basis = mirrored_dct_basis(kernel_len=16)  # 32 filters, stride 16, relu
latent = encode(mixture, basis)
print(f"mixture: {len(mixture)} samples -> latent {latent.n_frames} frames x {latent.dim} filters")

# A masking network would also see frame-aligned encoder-rate features
# concatenated onto this latent; the masks themselves stay latent-sized.
rng = np.random.default_rng(2)
ssl = FeatureMatrix(rng.standard_normal((100, 8)).astype(np.float32), 50.0)
conditioned = concat_features(latent, align_frames(ssl, latent.n_frames))
print(f"masking-network input after concatenation: {conditioned.dim} dims "
      f"({latent.dim} latent + {conditioned.dim - latent.dim} features)")

# -- oracle masks and synthesis -------------------------------------------------

masks = oracle_masks(sources, basis)
print(f"masks: {masks.shape[0]} sources x {masks.shape[1]} frames x {masks.shape[2]} filters, "
      f"range [{masks.min():.3f}, {masks.max():.3f}]")

estimates = [decode(masked, basis) for masked in apply_masks(latent, masks)]
for i, (src, est) in enumerate(zip(sources, estimates)):
    active = slice(0, rate) if i == 0 else slice(rate, n)
    quality = si_sdr(src.samples[active], est.samples[active])
    print(f"source {i}: SI-SDR on its active second = {quality:.1f} dB")

# The CLI's separate-oracle runs the same steps in one pass, holding one block
# of masks at a time instead of the whole (sources, frames, filters) array.
fused = oracle_separation(sources, basis)
same = all(np.array_equal(f.samples, e.samples) for f, e in zip(fused, estimates))
print(f"one-pass oracle_separation gives the same estimates: {same}")
