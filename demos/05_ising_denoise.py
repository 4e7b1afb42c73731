"""Binary image denoising with the checkerboard Ising Gibbs sampler.

The noisy image seeds both the spins and the bias field; the coupling
pulls neighbors into agreement.  The per-sweep flip fraction shows how few
pixels still change once the chain settles.
"""

from parmcmc import denoise, flip_noise, synthetic_binary_image, write_pbm

img = synthetic_binary_image(128, 128)
noisy = flip_noise(img, 0.10, seed=5)

trace: list[float] = []
restored = denoise(noisy, w=1.0, bias_scale=2.0, sweeps=40, burnin=15, seed=6,
                   trace_out=trace)
print(f"input error    : {(noisy != img).mean():6.2%}")
print(f"restored error : {(restored != img).mean():6.2%}")
print("flip fraction by sweep:",
      " ".join(f"{t:.2f}" for t in trace[:6]), "...",
      " ".join(f"{t:.3f}" for t in trace[-3:]))

write_pbm("denoise_noisy.pbm", noisy)
write_pbm("denoise_restored.pbm", restored)
print("wrote denoise_noisy.pbm / denoise_restored.pbm")
