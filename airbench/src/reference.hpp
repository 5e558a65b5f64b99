#pragma once

// The benchmark's independent check of Airfoil results: a plain serial
// loop nest over the raw airfoil::mesh arrays, with its own copy of the
// flow constants and the five kernels, that shares no code with the
// program's OP2 layers.

#include <string>
#include <vector>

#include <airfoil/mesh.hpp>

namespace airbench {

/// State after `niter` iterations from the mesh's initial state.
struct solution {
    std::vector<double> q;    ///< ncell * 4
    std::vector<double> rms;  ///< one entry per iteration
};

/// March `niter` iterations serially. The rms entry of an iteration is
/// sqrt(sum of squared updates over both inner steps / (2 * ncell)),
/// the quantity airfoil::run records.
solution reference_solve(airfoil::mesh const& m, int niter);

/// Tolerances sit several orders of magnitude above the rounding gap the
/// parallel backends show today (seq bitwise, fork_join and hpx within
/// 1e-15): q normwise (max abs difference over max abs value), rms
/// entrywise relative.
inline constexpr double q_tolerance = 1e-10;
inline constexpr double rms_tolerance = 1e-9;

/// How far a program result lies from the reference.
struct deviation {
    double q_rel = 0.0;    ///< max |q - q_ref| / max |q_ref|
    double rms_rel = 0.0;  ///< max |rms - rms_ref| / |rms_ref|
    std::string what;      ///< empty when within both tolerances
};

deviation compare(solution const& ref, std::vector<double> const& q,
                  std::vector<double> const& rms);

}  // namespace airbench
