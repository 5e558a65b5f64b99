// airbench: the Airfoil benchmark of this repository.
//
//   airbench --workload <airfoil_paper|airfoil_fine|airfoil_cold>
//            --seed <n> --seconds <s> --trace <0|1> [--trace-file PATH]
//            [--workers N]
//
// --trace 1 needs --trace-file, where the Chrome trace-event file goes.
//
// The pool has nproc-1 workers unless --workers overrides it (README.md
// uses that for its scaling figures; the benchmark runs never do).
// Drives the program only through its public functions (airfoil::
// make_mesh / make_problem / run, op2::exec::run_loop, op2::op_fence_all,
// op2::plan_cache_size, hpxlite::init, thread_pool::tasks_executed) and
// checks every timed segment or job against an independent serial
// reference (reference.hpp). Prints a readable report, then, as the last
// line of standard output, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// benchmark also feeds the Airfoil loop chain through exec::run_loop
// itself, wraps spans around its calls, and reports the per-layer
// metrics (README.md maps each to the end-to-end metric it should move).

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <airfoil/app.hpp>
#include <airfoil/kernels.hpp>
#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

#include "reference.hpp"
#include "trace.hpp"

extern char** environ;

namespace {

using airbench::clock;
using airbench::span_scope;
using airbench::tracer;
using op2::backend;

constexpr backend backends[] = {backend::seq, backend::fork_join,
                                backend::hpx};
constexpr char const* loop_names[] = {"save_soln", "adt_calc", "res_calc",
                                      "bres_calc", "update"};

double since(clock::time_point t0) {
    return std::chrono::duration<double>(clock::now() - t0).count();
}

/// The p-quantile of v, interpolated linearly between order statistics.
double quantile(std::vector<double> v, double p) {
    if (v.empty()) {
        return std::nan("");
    }
    std::sort(v.begin(), v.end());
    double const pos = p * static_cast<double>(v.size() - 1);
    auto const i = static_cast<std::size_t>(pos);
    double const frac = pos - static_cast<double>(i);
    return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

double median(std::vector<double> const& v) { return quantile(v, 0.5); }

/// Median of the samples that lost the least time to host steal:
/// those whose steal is at most the lower quartile of the run's. Steal
/// only adds time, and fork_join loses more than the time stolen, since
/// every sweep waits for the thread whose vCPU was taken. In a busy spell
/// most segments carry some, so the median of all of them follows the
/// host's load as much as the program. Where the kernel reports no steal
/// every sample reads 0 and this is the plain median.
/// Takes (value, host steal s) pairs.
double low_steal_median(std::vector<std::pair<double, double>> const& samples) {
    std::vector<double> steal;
    for (auto const& [value, st] : samples) {
        steal.push_back(st);
    }
    double const cut = quantile(steal, 0.25);
    std::vector<double> kept;
    for (auto const& [value, st] : samples) {
        if (st <= cut) {
            kept.push_back(value);
        }
    }
    return median(kept);
}

/// splitmix64: the workload generator's only source of randomness.
struct rng {
    std::uint64_t s;
    std::uint64_t next() {
        std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

// ---------------------------------------------------------------- host

std::size_t usable_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        return static_cast<std::size_t>(CPU_COUNT(&set));
    }
    return std::max(1U, std::thread::hardware_concurrency());
}

/// Steal time of the whole host so far, in seconds (/proc/stat); nullopt
/// when the kernel does not report it.
std::optional<double> host_steal_s() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    unsigned long long v[8] = {};
    if (!(in >> cpu) || cpu != "cpu") {
        return std::nullopt;
    }
    for (auto& x : v) {
        if (!(in >> x)) {
            return std::nullopt;
        }
    }
    long const hz = sysconf(_SC_CLK_TCK);
    return hz > 0 ? std::optional<double>(static_cast<double>(v[7]) /
                                          static_cast<double>(hz))
                  : std::nullopt;
}

/// Host steal since `steal0` (a host_steal_s() reading), in whole
/// milliseconds, so that equal tick counts compare equal.
double steal_since(double steal0) {
    return std::round((host_steal_s().value_or(0.0) - steal0) * 1e3) * 1e-3;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The memory ceiling: a STREAM triad a = b + s*c over arrays of four
/// times the last-level cache each, on `threads` threads; best of five.
double stream_triad_gbps(std::size_t threads) {
    long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0) {
        llc = 32L << 20;
    }
    std::size_t const n = 4 * static_cast<std::size_t>(llc) / sizeof(double);
    std::unique_ptr<double[]> a(new double[n]);
    std::unique_ptr<double[]> b(new double[n]);
    std::unique_ptr<double[]> c(new double[n]);
    auto parallel = [&](auto body) {
        std::vector<std::thread> ts;
        for (std::size_t t = 0; t < threads; ++t) {
            ts.emplace_back([&, t] {
                body(n * t / threads, n * (t + 1) / threads);
            });
        }
        for (auto& t : ts) {
            t.join();
        }
    };
    parallel([&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
            a[i] = 0.0;
            b[i] = 1.0;
            c[i] = 2.0;
        }
    });
    double best = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        auto const t0 = clock::now();
        parallel([&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                a[i] = b[i] + 3.0 * c[i];
            }
        });
        best = std::max(best, 3.0 * sizeof(double) * static_cast<double>(n) /
                                  since(t0) / 1e9);
    }
    if (a[n / 2] != 7.0) {
        std::fprintf(stderr, "airbench: stream triad computed %g, not 7\n",
                     a[n / 2]);
        return std::nan("");
    }
    return best;
}

// ------------------------------------------------------------ workloads

/// Everything that sets a workload's cost is fixed per workload; the seed
/// only varies the geometry (bump height), the backend rotation and the
/// order of cold jobs, so figures from different seeds are comparable.
struct workload {
    std::size_t nx = 0;
    std::size_t ny = 0;
    int seg_iters = 0;  ///< iterations per timed airfoil::run segment
    int setups = 0;     ///< set-ups measured before the timed phase
    /// Segments per round for seq, fork_join and hpx, so that each
    /// backend gets about the same share of the run and as many samples.
    int reps[3] = {1, 1, 1};
    /// airfoil_cold: job mesh sizes, one job per size and backend a round.
    std::vector<std::pair<std::size_t, std::size_t>> job_sizes;
};

std::optional<workload> find_workload(std::string const& name) {
    if (name == "airfoil_paper") {
        return workload{1200, 600, 3, 3, {1, 3, 1}, {}};
    }
    if (name == "airfoil_fine") {
        return workload{48, 24, 25, 50, {1, 1, 1}, {}};
    }
    if (name == "airfoil_cold") {
        return workload{0, 0, 10, 0, {1, 1, 1}, {{48, 24}, {96, 48}, {120, 60}}};
    }
    return std::nullopt;
}

/// Bytes one Airfoil iteration moves, computed from set sizes, dims and
/// access modes (8-byte doubles, 4-byte ints): READ and WRITE args move
/// their data once, RW and INC twice, and each distinct (map, index)
/// pair of an indirect loop reads one 4-byte map entry. Ignores caches.
double computed_bytes_per_iter(airfoil::mesh const& m) {
    double const d = 8.0;
    double const i = 4.0;
    double const save_soln = 4 * d + 4 * d;                       // q, qold
    double const adt_calc = 4 * (2 * d + i) + 4 * d + 1 * d;      // x, q, adt
    double const res_calc = 2 * (2 * d + i) + 2 * (4 * d + i) +   // x, q
                            2 * 1 * d + 2 * 2 * 4 * d;            // adt, res
    double const bres_calc = 2 * (2 * d + i) + (4 * d + i) +      // x, q
                             1 * d + 2 * 4 * d + i;               // adt, res, b
    double const update = 4 * d + 4 * d + 2 * 4 * d + 1 * d;      // qold,q,res,adt
    auto const cells = static_cast<double>(m.ncell);
    return cells * save_soln +
           2 * (cells * adt_calc + static_cast<double>(m.nedge) * res_calc +
                static_cast<double>(m.nbedge) * bres_calc + cells * update);
}

// ------------------------------------------------------------- segments

struct segment {
    double seconds = 0.0;
    double steal_s = 0.0;  ///< host steal over the segment, all vCPUs
    std::vector<double> q;
    std::vector<double> rms;
};

/// Restore the problem's state dats to the mesh's initial state.
void reset(airfoil::problem& p, airfoil::mesh const& m) {
    std::copy(m.q_init.begin(), m.q_init.end(), p.p_q.view<double>().begin());
    for (op2::op_dat* d : {&p.p_qold, &p.p_adt, &p.p_res}) {
        auto v = d->view<double>();
        std::fill(v.begin(), v.end(), 0.0);
    }
}

segment run_segment(airfoil::problem& p, backend be, int niter) {
    airfoil::app_config cfg;
    cfg.niter = niter;
    cfg.be = be;
    double const steal0 = host_steal_s().value_or(0.0);
    auto const t0 = clock::now();
    airfoil::app_result r = airfoil::run(p, cfg);
    double const dt = since(t0);
    return {dt, steal_since(steal0), std::move(r.q_final),
            std::move(r.rms_history)};
}

/// Span ids of the traced loop chain.
struct chain_ids {
    int loop[5][3];  // [loop][backend]
    int fence;

    explicit chain_ids(tracer& tr) {
        for (int l = 0; l < 5; ++l) {
            for (int b = 0; b < 3; ++b) {
                auto const be = backends[b];
                loop[l][b] = tr.id(std::string(be == backend::hpx
                                                   ? "exec.issue_us."
                                                   : "exec.loop_us.") +
                                   loop_names[l] + "." + op2::to_string(be));
            }
        }
        fence = tr.id("exec.fence_ms.hpx");
    }
};

/// One Airfoil iteration issued through exec::run_loop with a span around
/// every call: the loop chain of airfoil::run (save_soln, then adt_calc,
/// res_calc, bres_calc and update twice).
void traced_step(airfoil::problem& p, backend be, double* rms, tracer& tr,
                 chain_ids const& ids) {
    namespace k = airfoil::kernels;
    using namespace op2;
    loop_options lo;
    lo.backend = to_exec_backend(be);
    int const b = static_cast<int>(be);
    auto loop = [&](int l, op_set const& set, auto kernel, auto... args) {
        auto const t0 = clock::now();
        (void)exec::run_loop(lo, loop_names[l], set, kernel, args...);
        tr.record(ids.loop[l][b], t0, clock::now());
    };

    loop(0, p.cells, k::save_soln,
         op_arg_dat(p.p_q, -1, OP_ID, 4, "double", OP_READ),
         op_arg_dat(p.p_qold, -1, OP_ID, 4, "double", OP_WRITE));
    for (int kk = 0; kk < 2; ++kk) {
        loop(1, p.cells, k::adt_calc,
             op_arg_dat(p.p_x, 0, p.pcell, 2, "double", OP_READ),
             op_arg_dat(p.p_x, 1, p.pcell, 2, "double", OP_READ),
             op_arg_dat(p.p_x, 2, p.pcell, 2, "double", OP_READ),
             op_arg_dat(p.p_x, 3, p.pcell, 2, "double", OP_READ),
             op_arg_dat(p.p_q, -1, OP_ID, 4, "double", OP_READ),
             op_arg_dat(p.p_adt, -1, OP_ID, 1, "double", OP_WRITE));
        loop(2, p.edges, k::res_calc,
             op_arg_dat(p.p_x, 0, p.pedge, 2, "double", OP_READ),
             op_arg_dat(p.p_x, 1, p.pedge, 2, "double", OP_READ),
             op_arg_dat(p.p_q, 0, p.pecell, 4, "double", OP_READ),
             op_arg_dat(p.p_q, 1, p.pecell, 4, "double", OP_READ),
             op_arg_dat(p.p_adt, 0, p.pecell, 1, "double", OP_READ),
             op_arg_dat(p.p_adt, 1, p.pecell, 1, "double", OP_READ),
             op_arg_dat(p.p_res, 0, p.pecell, 4, "double", OP_INC),
             op_arg_dat(p.p_res, 1, p.pecell, 4, "double", OP_INC));
        loop(3, p.bedges, k::bres_calc,
             op_arg_dat(p.p_x, 0, p.pbedge, 2, "double", OP_READ),
             op_arg_dat(p.p_x, 1, p.pbedge, 2, "double", OP_READ),
             op_arg_dat(p.p_q, 0, p.pbecell, 4, "double", OP_READ),
             op_arg_dat(p.p_adt, 0, p.pbecell, 1, "double", OP_READ),
             op_arg_dat(p.p_res, 0, p.pbecell, 4, "double", OP_INC),
             op_arg_dat(p.p_bound, -1, OP_ID, 1, "int", OP_READ));
        loop(4, p.cells, k::update,
             op_arg_dat(p.p_qold, -1, OP_ID, 4, "double", OP_READ),
             op_arg_dat(p.p_q, -1, OP_ID, 4, "double", OP_WRITE),
             op_arg_dat(p.p_res, -1, OP_ID, 4, "double", OP_RW),
             op_arg_dat(p.p_adt, -1, OP_ID, 1, "double", OP_READ),
             op_arg_gbl(rms, 1, "double", OP_INC));
    }
}

// ---------------------------------------------------------------- bench

struct options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string trace_file;
    std::size_t workers = 0;  ///< 0: nproc - 1
};

class bench {
public:
    bench(options opt, workload wl, std::size_t workers)
      : opt_(std::move(opt)), wl_(std::move(wl)), workers_(workers),
        rng_{opt_.seed} {
        if (opt_.trace) {
            tr_ = std::make_unique<tracer>();
            ids_.emplace(*tr_);
        }
        rotation_ = static_cast<int>(rng_.next() % 3);
    }

    void run() {
        free_stream_check();
        if (wl_.job_sizes.empty()) {
            run_segments();
        } else {
            run_jobs();
        }
        if (rss_mb_ == 0.0) {
            rss_mb_ = peak_rss_mb();
        }
        if (opt_.trace) {
            stream_gbps_ = stream_triad_gbps(workers_);
        }
    }

    /// Print the report and, last, the JSON result. Returns false, with no
    /// result printed, when a metric has no samples or the trace file
    /// cannot be written.
    bool report(double steal_s);

private:
    double bump() { return 0.03 + 0.04 * rng_.uniform(); }

    tracer* tr() { return tr_.get(); }
    int span(std::string const& n) { return tr_ ? tr_->id(n) : -1; }

    /// Count one checked operation; print what differs on a mismatch.
    void check(char const* what, backend be,
               airbench::deviation const& d) {
        ++attempted_;
        worst_q_ = std::max(worst_q_, d.q_rel);
        worst_rms_ = std::max(worst_rms_, d.rms_rel);
        if (!d.what.empty()) {
            ++failed_;
            std::printf("MISMATCH %s on %s: %s\n", what, op2::to_string(be),
                        d.what.c_str());
        }
    }
    void fail(char const* what, backend be, char const* why) {
        ++attempted_;
        ++failed_;
        std::printf("FAILED %s on %s: %s\n", what, op2::to_string(be), why);
    }

    /// Outside the timed region: on a flat channel started from free
    /// stream every flux cancels, so each backend must keep q exactly at
    /// its initial value with an rms of exactly 0. A dropped or doubled
    /// edge contribution breaks this.
    void free_stream_check() {
        airfoil::mesh const m = airfoil::make_mesh({40, 20, 4.0, 2.0, 0.0});
        airfoil::problem p = airfoil::make_problem(m);
        for (backend be : backends) {
            try {
                reset(p, m);
                segment const s = run_segment(p, be, 4);
                bool const still = s.q == m.q_init &&
                                   std::all_of(s.rms.begin(), s.rms.end(),
                                               [](double r) { return r == 0.0; });
                if (still) {
                    ++attempted_;
                } else {
                    fail("free-stream", be, "flat channel moved");
                }
            } catch (std::exception const& e) {
                fail("free-stream", be, e.what());
            }
        }
    }

    /// A set-up: mesh generation, OP2 declarations and the first (cold)
    /// iteration on each backend. Returns its wall time.
    double setup(std::optional<airfoil::mesh>& m,
                 std::optional<airfoil::problem>& p, double bump_height) {
        p.reset();
        m.reset();
        auto const t0 = clock::now();
        {
            span_scope s(tr(), span("airfoil.mesh_gen_ms"));
            m.emplace(airfoil::make_mesh(
                {wl_.nx, wl_.ny, 4.0, 2.0, bump_height}));
        }
        std::size_t const plans0 = op2::plan_cache_size();
        {
            span_scope s(tr(), span("airfoil.declare_ms"));
            p.emplace(airfoil::make_problem(*m));
        }
        for (int r = 0; r < 3; ++r) {
            backend const be = backends[(r + rotation_) % 3];
            span_scope s(tr(), span(std::string("plan.cold_iter_ms.") +
                                    op2::to_string(be)));
            (void)run_segment(*p, be, 1);
        }
        double const dt = since(t0);
        samples_["plan.cached_per_problem"].push_back(
            static_cast<double>(op2::plan_cache_size() - plans0));
        return dt;
    }

    /// One traced segment: the chain through exec::run_loop with spans,
    /// one fence span for hpx, pool and context counters around it.
    segment traced_segment(airfoil::problem& p, backend be, int niter) {
        std::vector<double> acc(static_cast<std::size_t>(niter), 0.0);
        auto& pool = hpxlite::get_pool();
        auto const& ctx = op2::current_context();
        std::uint64_t const tasks0 = pool.tasks_executed();
        std::uint64_t const loops0 = ctx->loops_issued.load();
        double const steal0 = host_steal_s().value_or(0.0);
        auto const t0 = clock::now();
        for (int it = 0; it < niter; ++it) {
            traced_step(p, be, &acc[static_cast<std::size_t>(it)], *tr_, *ids_);
        }
        if (be == backend::hpx) {
            auto const f0 = clock::now();
            op2::op_fence_all();
            tr_->record(ids_->fence, f0, clock::now());
            samples_["exec.fence_ms.hpx"].push_back(
                std::chrono::duration<double>(clock::now() - f0).count() *
                1e3 / niter);
        }
        segment s;
        s.seconds = since(t0);
        s.steal_s = steal_since(steal0);
        if (be != backend::seq) {
            samples_[std::string("pool.tasks_per_iter.") + op2::to_string(be)]
                .push_back(static_cast<double>(pool.tasks_executed() - tasks0) /
                           niter);
        }
        samples_["exec.loops_per_iter"].push_back(
            static_cast<double>(ctx->loops_issued.load() - loops0) / niter);
        auto const q = p.p_q.view<double>();
        s.q.assign(q.begin(), q.begin() + static_cast<std::ptrdiff_t>(4 * p.ncell));
        for (double r : acc) {
            s.rms.push_back(std::sqrt(r / static_cast<double>(2 * p.ncell)));
        }
        return s;
    }

    /// `size` is the index of the mesh size (airfoil_cold has three).
    void record_iter(backend be, bool traced, segment const& s, int niter,
                     double bytes, std::size_t size) {
        std::string const b = op2::to_string(be);
        double const per_iter = s.seconds / niter;
        samples_[(traced ? "traced_iter_ms." : "iter_ms.") + b].push_back(
            per_iter * 1e3);
        if (!traced) {
            samples_["memory.gbps." + b].push_back(bytes / per_iter / 1e9);
            auto& by_size = iter_ms_by_size_[b];
            by_size.resize(std::max(by_size.size(), size + 1));
            by_size[size].push_back({per_iter * 1e3, s.steal_s});
        }
    }

    /// airfoil_paper and airfoil_fine: set up, then rotate the backends
    /// round-robin over fixed-length airfoil::run segments, each from the
    /// same initial state, until the run time is spent.
    void run_segments() {
        double const bump_height = bump();
        std::optional<airfoil::mesh> m;
        std::optional<airfoil::problem> p;
        for (int k = 0; k < wl_.setups; ++k) {
            samples_["setup_s"].push_back(setup(m, p, bump_height));
        }
        double const bytes = computed_bytes_per_iter(*m);
        samples_["memory.bytes_per_iter"].push_back(bytes);
        airbench::solution const ref =
            airbench::reference_solve(*m, wl_.seg_iters);

        // One round: each backend in the rotated order, reps[b] segments
        // each, every untraced segment followed by a traced one under
        // --trace 1.
        std::vector<std::pair<backend, bool>> round;
        for (int r = 0; r < 3; ++r) {
            int const b = (r + rotation_) % 3;
            for (int rep = 0; rep < wl_.reps[b]; ++rep) {
                round.emplace_back(backends[b], false);
                if (opt_.trace) {
                    round.emplace_back(backends[b], true);
                }
            }
        }

        auto const t0 = clock::now();
        do {
            double const steal0 = host_steal_s().value_or(0.0);
            double solve_s = 0.0;
            std::size_t segments = 0;
            for (auto [be, traced] : round) {
                try {
                    reset(*p, *m);
                    segment const s =
                        traced ? traced_segment(*p, be, wl_.seg_iters)
                               : run_segment(*p, be, wl_.seg_iters);
                    check("segment", be, airbench::compare(ref, s.q, s.rms));
                    record_iter(be, traced, s, wl_.seg_iters, bytes, 0);
                    solve_s += s.seconds;
                    ++segments;
                } catch (std::exception const& e) {
                    fail("segment", be, e.what());
                }
            }
            round_rates_.emplace_back(static_cast<double>(segments) / solve_s,
                                      steal_since(steal0));
        } while (since(t0) < opt_.seconds);
    }

    /// airfoil_cold: a closed loop with one client. Each job builds a
    /// fresh mesh, declarations and plans, runs its first iteration cold
    /// and the rest warm, and tears everything down. A round is one job
    /// per (size, backend) in a seeded order. Plans of destroyed sets stay
    /// in the process-wide cache, so the footprint grows with every job:
    /// peak RSS is read after a fixed number of rounds, which every run
    /// reaches, so that it measures the footprint per job rather than the
    /// run's throughput.
    static constexpr int rss_rounds = 50;

    void run_jobs() {
        struct kind {
            airfoil::mesh_params mp;
            airbench::solution ref;
            double bytes;
        };
        std::vector<kind> kinds;
        for (auto [nx, ny] : wl_.job_sizes) {
            airfoil::mesh_params const mp{nx, ny, 4.0, 2.0, bump()};
            airfoil::mesh const m = airfoil::make_mesh(mp);
            kinds.push_back({mp, airbench::reference_solve(m, wl_.seg_iters),
                             computed_bytes_per_iter(m)});
        }
        std::vector<std::pair<std::size_t, backend>> round;
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            for (backend be : backends) {
                round.emplace_back(k, be);
            }
        }

        int rounds = 0;
        auto const t0 = clock::now();
        while (rounds < rss_rounds || since(t0) < opt_.seconds) {
            double const steal0 = host_steal_s().value_or(0.0);
            double busy_s = 0.0;
            std::size_t jobs = 0;
            for (std::size_t i = round.size(); i > 1; --i) {
                std::swap(round[i - 1], round[rng_.next() % i]);
            }
            for (auto [k, be] : round) {
                for (bool traced : {false, true}) {
                    if (traced && !opt_.trace) {
                        continue;
                    }
                    try {
                        busy_s += job(kinds[k].mp, kinds[k].ref, kinds[k].bytes,
                                      k, be, traced);
                        ++jobs;
                    } catch (std::exception const& e) {
                        fail("job", be, e.what());
                    }
                }
            }
            round_rates_.emplace_back(static_cast<double>(jobs) / busy_s,
                                      steal_since(steal0));
            if (++rounds == rss_rounds) {
                rss_mb_ = peak_rss_mb();
            }
        }
    }

    /// One cold job; returns its wall time (checks excluded).
    double job(airfoil::mesh_params const& mp, airbench::solution const& ref,
               double bytes, std::size_t size, backend be, bool traced) {
        std::string const b = op2::to_string(be);
        auto const t0 = clock::now();
        segment first;
        segment rest;
        {
            std::optional<airfoil::mesh> m;
            std::optional<airfoil::problem> p;
            {
                span_scope s(traced ? tr() : nullptr, span("airfoil.mesh_gen_ms"));
                m.emplace(airfoil::make_mesh(mp));
            }
            std::size_t const plans0 = op2::plan_cache_size();
            {
                span_scope s(traced ? tr() : nullptr, span("airfoil.declare_ms"));
                p.emplace(airfoil::make_problem(*m));
            }
            {
                span_scope s(traced ? tr() : nullptr,
                             span("plan.cold_iter_ms." + b));
                first = traced ? traced_segment(*p, be, 1) : run_segment(*p, be, 1);
            }
            if (!traced) {
                samples_["setup_s"].push_back(since(t0));
            }
            rest = traced ? traced_segment(*p, be, wl_.seg_iters - 1)
                          : run_segment(*p, be, wl_.seg_iters - 1);
            if (traced) {
                samples_["plan.cached_per_problem"].push_back(
                    static_cast<double>(op2::plan_cache_size() - plans0));
                samples_["memory.bytes_per_iter"].push_back(bytes);
            }
        }
        double const dt = since(t0);
        record_iter(be, traced, rest, wl_.seg_iters - 1, bytes, size);
        first.rms.insert(first.rms.end(), rest.rms.begin(), rest.rms.end());
        check("job", be, airbench::compare(ref, rest.q, first.rms));
        return dt;
    }

    options opt_;
    workload wl_;
    std::size_t workers_;
    rng rng_;
    int rotation_ = 0;
    std::unique_ptr<tracer> tr_;
    std::optional<chain_ids> ids_;
    std::map<std::string, std::vector<double>> samples_;
    /// Untraced (iteration ms, host steal s) samples per backend, then
    /// per mesh size.
    std::map<std::string, std::vector<std::vector<std::pair<double, double>>>>
        iter_ms_by_size_;
    /// (operations per second of busy time, host steal s) per round.
    std::vector<std::pair<double, double>> round_rates_;
    long attempted_ = 0;
    long failed_ = 0;
    double worst_q_ = 0.0;
    double worst_rms_ = 0.0;
    double rss_mb_ = 0.0;
    double stream_gbps_ = 0.0;
};

struct metric {
    std::string name;
    double value;
    char const* unit;
};

bool bench::report(double steal_s) {
    auto med = [&](std::string const& n) { return median(samples_[n]); };
    std::vector<metric> out;
    if (!opt_.trace) {
        for (backend be : backends) {
            std::string const b = op2::to_string(be);
            double sum = 0.0;
            auto const& by_size = iter_ms_by_size_[b];
            for (auto const& v : by_size) {
                sum += low_steal_median(v);
            }
            out.push_back({"iter_ms." + b,
                           sum / static_cast<double>(by_size.size()), "ms"});
        }
        out.push_back({"setup_s", med("setup_s"), "s"});
        out.push_back({"peak_rss_mb", rss_mb_, "MB"});
        out.push_back({"jobs_per_s", low_steal_median(round_rates_), "1/s"});
    } else {
        auto span_med = [&](std::string const& n, double scale) {
            return median(tr_->durations(n)) * scale;
        };
        out.push_back({"airfoil.mesh_gen_ms", span_med("airfoil.mesh_gen_ms", 1e3), "ms"});
        out.push_back({"airfoil.declare_ms", span_med("airfoil.declare_ms", 1e3), "ms"});
        for (backend be : backends) {
            std::string const n = std::string("plan.cold_iter_ms.") + op2::to_string(be);
            out.push_back({n, span_med(n, 1e3), "ms"});
        }
        out.push_back({"plan.cached_per_problem", med("plan.cached_per_problem"), "count"});
        for (char const* l : loop_names) {
            std::string const n = std::string("exec.issue_us.") + l + ".hpx";
            out.push_back({n, span_med(n, 1e6), "us"});
        }
        out.push_back({"exec.fence_ms.hpx", med("exec.fence_ms.hpx"), "ms"});
        for (backend be : {backend::seq, backend::fork_join}) {
            for (char const* l : loop_names) {
                std::string const n = std::string("exec.loop_us.") + l + "." +
                                      op2::to_string(be);
                out.push_back({n, span_med(n, 1e6), "us"});
            }
        }
        out.push_back({"exec.loops_per_iter", med("exec.loops_per_iter"), "count"});
        for (backend be : {backend::fork_join, backend::hpx}) {
            std::string const n = std::string("pool.tasks_per_iter.") + op2::to_string(be);
            out.push_back({n, med(n), "count"});
        }
        out.push_back({"memory.bytes_per_iter", med("memory.bytes_per_iter"), "B"});
        for (backend be : backends) {
            std::string const n = std::string("memory.gbps.") + op2::to_string(be);
            out.push_back({n, med(n), "GB/s"});
        }
        out.push_back({"memory.stream_gbps", stream_gbps_, "GB/s"});
        out.push_back({"host.steal_s", steal_s, "s"});
        for (backend be : backends) {
            std::string const b = op2::to_string(be);
            double const plain = med("iter_ms." + b);
            double const traced = med("traced_iter_ms." + b);
            out.push_back({"trace.overhead_pct." + b,
                           (traced - plain) / plain * 100.0, "%"});
        }
    }

    std::printf("checked: %ld attempted, %ld failed; worst deviation from the "
                "serial reference: q %.3g (tolerance %.0e), rms %.3g "
                "(tolerance %.0e)\n",
                attempted_, failed_, worst_q_, airbench::q_tolerance,
                worst_rms_, airbench::rms_tolerance);
    for (backend be : backends) {
        std::string const n = std::string("iter_ms.") + op2::to_string(be);
        std::vector<double> const& v = samples_[n];
        std::printf("%s samples: n=%zu min %.4g q1 %.4g median %.4g q3 %.4g "
                    "max %.4g\n",
                    n.c_str(), v.size(), quantile(v, 0.0), quantile(v, 0.25),
                    median(v), quantile(v, 0.75), quantile(v, 1.0));
    }
    if (opt_.trace) {
        std::printf("per-layer summary (median of %zu spans; bytes are "
                    "computed, not measured):\n",
                    tr_->size());
    }
    for (metric const& m : out) {
        std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    if (opt_.trace) {
        if (!tr_->write(opt_.trace_file)) {
            std::printf("trace: cannot write %s; no result\n",
                        opt_.trace_file.c_str());
            return false;
        }
        std::printf("trace: %s\n", opt_.trace_file.c_str());
    }
    if (!std::all_of(out.begin(), out.end(),
                     [](metric const& m) { return std::isfinite(m.value); })) {
        std::printf("a metric has no samples; no result\n");
        return false;
    }

    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                failed_ == 0 ? "true" : "false", attempted_, failed_);
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", out[i].name.c_str(), out[i].value,
                    out[i].unit);
    }
    std::printf("}}\n");
    return true;
}

// ------------------------------------------------------------------ cli

int usage(char const* why) {
    std::fprintf(stderr,
                 "airbench: %s\n"
                 "usage: airbench --workload <airfoil_paper|airfoil_fine|"
                 "airfoil_cold> --seed N --seconds S --trace 0|1 "
                 "[--trace-file PATH] [--workers N]\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    options opt;
    bool have[4] = {};
    for (int i = 1; i < argc; ++i) {
        std::string const a = argv[i];
        if (i + 1 >= argc) {
            return usage(("missing value for " + a).c_str());
        }
        char const* v = argv[++i];
        char* end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
            have[0] = true;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
            have[1] = *v != '\0' && *end == '\0';
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            have[2] = *end == '\0' && opt.seconds > 0 && opt.seconds <= 120;
        } else if (a == "--trace") {
            opt.trace = std::strcmp(v, "1") == 0;
            have[3] = opt.trace || std::strcmp(v, "0") == 0;
        } else if (a == "--trace-file") {
            opt.trace_file = v;
        } else if (a == "--workers") {
            opt.workers = std::strtoul(v, &end, 10);
            if (*end != '\0' || opt.workers < 1 ||
                opt.workers > usable_cpus()) {
                return usage("--workers takes 1..nproc");
            }
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!(have[0] && have[1] && have[2] && have[3])) {
        return usage("--workload, --seed, --seconds (0..120] and --trace 0|1 "
                     "are required");
    }
    std::optional<workload> wl = find_workload(opt.workload);
    if (!wl) {
        return usage(("unknown workload " + opt.workload).c_str());
    }
    if (opt.trace && opt.trace_file.empty()) {
        return usage("--trace 1 needs --trace-file");
    }
    // A knob in the environment measures a different program.
    for (char** e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "OP2HPX_", 7) == 0 ||
            std::strncmp(*e, "HPXLITE_", 8) == 0) {
            std::fprintf(stderr, "airbench: refusing to run with %s set\n", *e);
            return 2;
        }
    }

    // The issuing thread sweeps and helps at fences, so nproc-1 workers
    // plus that thread fill the cores without oversubscribing them.
    std::size_t const workers =
        opt.workers != 0 ? opt.workers
                         : std::max<std::size_t>(1, usable_cpus() - 1);
    hpxlite::init(hpxlite::runtime_config{workers});
    std::optional<double> const steal0 = host_steal_s();
    std::printf("airbench: workload=%s seed=%llu seconds=%g trace=%d "
                "pool_workers=%zu\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0,
                hpxlite::get_num_worker_threads());
    try {
        bench b(opt, *wl, workers);
        b.run();
        std::optional<double> const steal1 = host_steal_s();
        double const steal = steal0 && steal1 ? *steal1 - *steal0 : 0.0;
        std::printf("host.steal_s=%.3f over the run\n", steal);
        if (!b.report(steal)) {
            return 1;
        }
    } catch (std::exception const& e) {
        std::fprintf(stderr, "airbench: %s\n", e.what());
        return 1;
    }
    hpxlite::finalize();
    return 0;
}
