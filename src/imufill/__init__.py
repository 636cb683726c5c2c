"""Real-time whole-body motion reconstruction from arbitrary sparse
inertial sensors and contact insoles, via autoregressive inpainting
diffusion. See README.md at the root of the repository for the tour."""

__version__ = "0.1.0"
