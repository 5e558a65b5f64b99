#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>

namespace airbench {

namespace {

constexpr double gam = 1.4;
constexpr double gm1 = gam - 1.0;
constexpr double cfl = 0.9;
constexpr double eps = 0.05;
constexpr double mach = 0.4;

struct freestream {
    double q[4];
};

freestream make_freestream() {
    double const p = 1.0;
    double const r = 1.0;
    double const u = std::sqrt(gam * p / r) * mach;
    double const e = p / (r * gm1) + 0.5 * u * u;
    return {{r, r * u, 0.0, r * e}};
}

double pressure(double const* q) {
    double const ri = 1.0 / q[0];
    return gm1 * (q[3] - 0.5 * ri * (q[1] * q[1] + q[2] * q[2]));
}

}  // namespace

solution reference_solve(airfoil::mesh const& m, int niter) {
    std::size_t const nc = m.ncell;
    std::vector<double> q = m.q_init;
    std::vector<double> qold(nc * 4, 0.0);
    std::vector<double> adt(nc, 0.0);
    std::vector<double> res(nc * 4, 0.0);
    freestream const inf = make_freestream();
    double const* x = m.x.data();

    solution out;
    for (int it = 0; it < niter; ++it) {
        qold = q;
        double sum = 0.0;
        for (int k = 0; k < 2; ++k) {
            // Time-step measure per cell from its four sides.
            for (std::size_t c = 0; c < nc; ++c) {
                double const* qc = &q[4 * c];
                double const ri = 1.0 / qc[0];
                double const u = ri * qc[1];
                double const v = ri * qc[2];
                double const snd =
                    std::sqrt(gam * gm1 * (ri * qc[3] - 0.5 * (u * u + v * v)));
                double a = 0.0;
                for (int s = 0; s < 4; ++s) {
                    double const* xa = x + 2 * m.pcell[4 * c + s];
                    double const* xb = x + 2 * m.pcell[4 * c + (s + 1) % 4];
                    double const dx = xb[0] - xa[0];
                    double const dy = xb[1] - xa[1];
                    a += std::fabs(u * dy - v * dx) +
                         snd * std::sqrt(dx * dx + dy * dy);
                }
                adt[c] = a / cfl;
            }
            // Interior fluxes, added to the first cell, taken from the
            // second.
            for (std::size_t e = 0; e < m.nedge; ++e) {
                double const* x1 = x + 2 * m.pedge[2 * e];
                double const* x2 = x + 2 * m.pedge[2 * e + 1];
                auto const c1 = static_cast<std::size_t>(m.pecell[2 * e]);
                auto const c2 = static_cast<std::size_t>(m.pecell[2 * e + 1]);
                double const* q1 = &q[4 * c1];
                double const* q2 = &q[4 * c2];
                double const dx = x1[0] - x2[0];
                double const dy = x1[1] - x2[1];
                double const p1 = pressure(q1);
                double const p2 = pressure(q2);
                double const vol1 = (q1[1] * dy - q1[2] * dx) / q1[0];
                double const vol2 = (q2[1] * dy - q2[2] * dx) / q2[0];
                double const mu = 0.5 * (adt[c1] + adt[c2]) * eps;
                double f[4];
                f[0] = 0.5 * (vol1 * q1[0] + vol2 * q2[0]) + mu * (q1[0] - q2[0]);
                f[1] = 0.5 * (vol1 * q1[1] + p1 * dy + vol2 * q2[1] + p2 * dy) +
                       mu * (q1[1] - q2[1]);
                f[2] = 0.5 * (vol1 * q1[2] - p1 * dx + vol2 * q2[2] - p2 * dx) +
                       mu * (q1[2] - q2[2]);
                f[3] = 0.5 * (vol1 * (q1[3] + p1) + vol2 * (q2[3] + p2)) +
                       mu * (q1[3] - q2[3]);
                for (int n = 0; n < 4; ++n) {
                    res[4 * c1 + n] += f[n];
                    res[4 * c2 + n] -= f[n];
                }
            }
            // Boundary fluxes: pressure force on walls, far-field flux
            // against the free stream elsewhere.
            for (std::size_t e = 0; e < m.nbedge; ++e) {
                double const* x1 = x + 2 * m.pbedge[2 * e];
                double const* x2 = x + 2 * m.pbedge[2 * e + 1];
                auto const c = static_cast<std::size_t>(m.pbecell[e]);
                double const* q1 = &q[4 * c];
                double* r = &res[4 * c];
                double const dx = x1[0] - x2[0];
                double const dy = x1[1] - x2[1];
                double const p1 = pressure(q1);
                if (m.bound[e] == 1) {
                    r[1] += p1 * dy;
                    r[2] -= p1 * dx;
                    continue;
                }
                double const* q2 = inf.q;
                double const p2 = pressure(q2);
                double const vol1 = (q1[1] * dy - q1[2] * dx) / q1[0];
                double const vol2 = (q2[1] * dy - q2[2] * dx) / q2[0];
                double const mu = adt[c] * eps;
                r[0] += 0.5 * (vol1 * q1[0] + vol2 * q2[0]) + mu * (q1[0] - q2[0]);
                r[1] += 0.5 * (vol1 * q1[1] + p1 * dy + vol2 * q2[1] + p2 * dy) +
                        mu * (q1[1] - q2[1]);
                r[2] += 0.5 * (vol1 * q1[2] - p1 * dx + vol2 * q2[2] - p2 * dx) +
                        mu * (q1[2] - q2[2]);
                r[3] += 0.5 * (vol1 * (q1[3] + p1) + vol2 * (q2[3] + p2)) +
                        mu * (q1[3] - q2[3]);
            }
            // Explicit update from the saved state.
            for (std::size_t c = 0; c < nc; ++c) {
                for (int n = 0; n < 4; ++n) {
                    double const del = res[4 * c + n] / adt[c];
                    q[4 * c + n] = qold[4 * c + n] - del;
                    res[4 * c + n] = 0.0;
                    sum += del * del;
                }
            }
        }
        out.rms.push_back(std::sqrt(sum / static_cast<double>(2 * nc)));
    }
    out.q = std::move(q);
    return out;
}

deviation compare(solution const& ref, std::vector<double> const& q,
                  std::vector<double> const& rms) {
    deviation d;
    char buf[160];
    if (q.size() != ref.q.size() || rms.size() != ref.rms.size()) {
        std::snprintf(buf, sizeof buf,
                      "shape: q %zu vs %zu values, rms %zu vs %zu entries",
                      q.size(), ref.q.size(), rms.size(), ref.rms.size());
        d.what = buf;
        return d;
    }
    double diff = 0.0;
    double norm = 0.0;
    for (std::size_t i = 0; i < q.size(); ++i) {
        // std::max keeps the running value when the new one is NaN, so
        // count NaNs as an infinite difference.
        double const e = std::fabs(q[i] - ref.q[i]);
        diff = std::isnan(e) ? INFINITY : std::max(diff, e);
        norm = std::max(norm, std::fabs(ref.q[i]));
    }
    d.q_rel = norm > 0.0 ? diff / norm : diff;
    for (std::size_t i = 0; i < rms.size(); ++i) {
        double const e = std::fabs(rms[i] - ref.rms[i]);
        double const rel = ref.rms[i] != 0.0 ? e / std::fabs(ref.rms[i]) : e;
        d.rms_rel = std::isnan(rel) ? INFINITY : std::max(d.rms_rel, rel);
    }
    if (!(d.q_rel <= q_tolerance)) {
        std::snprintf(buf, sizeof buf, "q differs by %.3g of its norm",
                      d.q_rel);
        d.what = buf;
    } else if (!(d.rms_rel <= rms_tolerance)) {
        std::snprintf(buf, sizeof buf, "rms differs by %.3g relative",
                      d.rms_rel);
        d.what = buf;
    }
    return d;
}

}  // namespace airbench
