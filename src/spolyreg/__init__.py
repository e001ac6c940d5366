"""Numerics for S-polyregular Bargmann spaces over the quaternions.

The package computes with the quaternionic Hermite polynomials
H_{m,n}(q, qbar), the star products that make polyanalytic series close
under multiplication, the reproducing kernels of the Bargmann spaces of
first and second kind, the associated Segal-Bargmann transforms, and the
slice operator box = -d ds dbar_s + qbar dbar_s whose L2 spectrum is the
nonnegative integers.

Layout: `quat` quaternion arithmetic and text format; `poly` classical
and quaternionic special functions; `series` slice and polyanalytic
series with star products; `quad` Gauss rules on the line and a slice,
and the pairings there and over the sphere of slices, which is 4 pi
times one slice pairing; `kernels` the two kernel construction
paths behind `kernel_value(KernelSpec, p, q)`; `bargmann` the
transforms; `spectral` the slice operator and its eigenfunctions;
`verify` the identity suites; `cli` the command line.
"""

from .bargmann import (HermiteLine, SampledLine, b2_grid, b2_norm_closed,
                       basis_image_scale, transform_batch)
from .config import Config, load_config
from .kernels import KernelSpec, kernel_tail, kernel_value, project_batch
from .poly import (KummerConvergenceError, hermite_H, hermite_fn, hermite_quat,
                   kummer_M, laguerre, pochhammer)
from .quad import (QuadratureDegreeError, Rule1D, SliceQuadrature, gauss_hermite,
                   gauss_legendre, gram_slice, inner_full, inner_real,
                   inner_slice, norm_sq_full, norm_sq_slice)
from .quat import (Quaternion, format_quaternion, imaginary_unit,
                   parse_quaternion, qexp, quat, split)
from .report import Case, VerificationReport
from .series import (PolySliceSeries, RightPolySeries, SliceSeries, exp_star,
                     extract_components, from_hermite_basis, hermite_op,
                     hermite_series, laguerre_star, poly_monomial, s_k_series,
                     slice_monomial, to_hermite_basis)
from .spectral import (EigenExpansion, ProbeResult, box_fd, box_symbolic,
                       expand_eigen, psi, psi_norm_sq, spectrum_probe)
from .verify import SUITES, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "Quaternion", "quat", "qexp", "split", "imaginary_unit",
    "parse_quaternion", "format_quaternion",
    "hermite_H", "hermite_fn", "laguerre", "pochhammer", "kummer_M",
    "hermite_quat", "KummerConvergenceError",
    "SliceSeries", "PolySliceSeries", "RightPolySeries", "slice_monomial",
    "poly_monomial", "hermite_series", "hermite_op", "extract_components",
    "to_hermite_basis", "from_hermite_basis", "s_k_series", "laguerre_star",
    "exp_star",
    "Rule1D", "SliceQuadrature", "QuadratureDegreeError", "gauss_hermite",
    "gauss_legendre", "inner_slice", "inner_real", "inner_full",
    "norm_sq_slice", "norm_sq_full", "gram_slice",
    "KernelSpec", "kernel_value", "kernel_tail", "project_batch",
    "HermiteLine", "SampledLine", "b2_grid", "transform_batch",
    "basis_image_scale", "b2_norm_closed",
    "box_symbolic", "box_fd", "psi", "psi_norm_sq",
    "EigenExpansion", "expand_eigen", "ProbeResult", "spectrum_probe",
    "Config", "load_config", "Case", "VerificationReport",
    "SUITES", "run_suite", "run_all",
    "__version__",
]
