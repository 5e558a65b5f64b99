#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <random>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

class ForkJoinTest : public ::testing::Test {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override { hpxlite::finalize(); }
};

/// Random scatter mesh: ne edges over nn nodes with a fixed seed.
struct scatter_mesh {
    op_set edges, nodes;
    op_map em;
    op_dat weights, acc;

    scatter_mesh(std::size_t ne, std::size_t nn, unsigned seed) {
        edges = op_decl_set(ne, "edges");
        nodes = op_decl_set(nn, "nodes");
        std::mt19937 rng(seed);
        std::uniform_int_distribution<int> dist(0, static_cast<int>(nn) - 1);
        std::vector<int> tab(2 * ne);
        for (auto& t : tab) {
            t = dist(rng);
        }
        // Avoid self-edges: the kernel would alias n1/n2 pointers.
        for (std::size_t e = 0; e < ne; ++e) {
            if (tab[2 * e] == tab[2 * e + 1]) {
                tab[2 * e + 1] =
                    (tab[2 * e] + 1) % static_cast<int>(nn);
            }
        }
        em = op_decl_map(edges, nodes, 2, tab, "em");
        std::vector<double> w(ne);
        std::uniform_real_distribution<double> wd(0.5, 2.0);
        for (auto& x : w) {
            x = wd(rng);
        }
        weights = op_decl_dat(edges, 1, "double", w, "w");
        acc = op_decl_dat_zero<double>(nodes, 1, "double", "acc");
    }

    void reset() {
        for (auto& x : acc.view<double>()) {
            x = 0.0;
        }
    }

    static void kernel(double const* w, double* n1, double* n2) {
        *n1 += *w;
        *n2 -= 0.5 * *w;
    }

    template <typename RunFn>
    std::vector<double> run(RunFn&& fn) {
        reset();
        fn();
        auto v = acc.view<double>();
        return {v.begin(), v.end()};
    }

    std::array<op_arg, 3> args() {
        return {op_arg_dat(weights, -1, OP_ID, 1, "double", OP_READ),
                op_arg_dat(acc, 0, em, 1, "double", OP_INC),
                op_arg_dat(acc, 1, em, 1, "double", OP_INC)};
    }
};

TEST_F(ForkJoinTest, MatchesSeqOnRandomScatter) {
    scatter_mesh m(2000, 500, 7);
    auto ref = m.run([&] {
        auto [a0, a1, a2] = m.args();
        op_par_loop_seq("scatter", m.edges, scatter_mesh::kernel, a0, a1, a2);
    });
    loop_options opts;
    opts.part_size = 64;
    auto got = m.run([&] {
        auto [a0, a1, a2] = m.args();
        op_par_loop_fork_join(opts, "scatter", m.edges, scatter_mesh::kernel,
                              a0, a1, a2);
    });
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_NEAR(got[i], ref[i], 1e-9 * (1.0 + std::fabs(ref[i])));
    }
}

TEST_F(ForkJoinTest, DirectLoop) {
    auto cells = op_decl_set(10'000, "cells");
    auto d = op_decl_dat_zero<double>(cells, 2, "double", "d");
    loop_options opts;
    op_par_loop_fork_join(opts, "fill", cells,
                          [](double* x) {
                              x[0] = 1.0;
                              x[1] = 2.0;
                          },
                          op_arg_dat(d, -1, OP_ID, 2, "double", OP_WRITE));
    auto v = d.view<double>();
    for (std::size_t i = 0; i < v.size(); i += 2) {
        ASSERT_DOUBLE_EQ(v[i], 1.0);
        ASSERT_DOUBLE_EQ(v[i + 1], 2.0);
    }
}

TEST_F(ForkJoinTest, GlobalReductionMatchesSeq) {
    auto cells = op_decl_set(12'345, "cells");
    std::vector<double> init(12'345);
    std::mt19937 rng(3);
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    for (auto& x : init) {
        x = dist(rng);
    }
    auto d = op_decl_dat(cells, 1, "double", init, "d");
    auto sum_kernel = [](double const* x, double* s) { *s += *x; };

    double seq_sum = 0.0;
    op_par_loop_seq("sum", cells, sum_kernel,
                    op_arg_dat(d, -1, OP_ID, 1, "double", OP_READ),
                    op_arg_gbl(&seq_sum, 1, "double", OP_INC));

    double fj_sum = 0.0;
    loop_options opts;
    opts.part_size = 100;
    op_par_loop_fork_join(opts, "sum", cells, sum_kernel,
                          op_arg_dat(d, -1, OP_ID, 1, "double", OP_READ),
                          op_arg_gbl(&fj_sum, 1, "double", OP_INC));
    EXPECT_NEAR(fj_sum, seq_sum, 1e-9 * seq_sum);
}

TEST_F(ForkJoinTest, GlobalMinMax) {
    auto cells = op_decl_set(1000, "cells");
    std::vector<double> init(1000);
    for (std::size_t i = 0; i < 1000; ++i) {
        init[i] = static_cast<double>((i * 37) % 991);
    }
    auto d = op_decl_dat(cells, 1, "double", init, "d");
    double mn = 1e30;
    double mx = -1e30;
    loop_options opts;
    opts.part_size = 64;
    op_par_loop_fork_join(opts, "minmax", cells,
                          [](double const* x, double* lo, double* hi) {
                              *lo = std::min(*lo, *x);
                              *hi = std::max(*hi, *x);
                          },
                          op_arg_dat(d, -1, OP_ID, 1, "double", OP_READ),
                          op_arg_gbl(&mn, 1, "double", OP_MIN),
                          op_arg_gbl(&mx, 1, "double", OP_MAX));
    EXPECT_DOUBLE_EQ(mn, 0.0);
    EXPECT_DOUBLE_EQ(mx, 990.0);
}

TEST_F(ForkJoinTest, INCIsDeterministicAcrossRuns) {
    // Same plan, same blocks => identical FP result run to run.
    scatter_mesh m(3000, 400, 11);
    loop_options opts;
    opts.part_size = 50;
    auto run_once = [&] {
        return m.run([&] {
            auto [a0, a1, a2] = m.args();
            op_par_loop_fork_join(opts, "scatter", m.edges,
                                  scatter_mesh::kernel, a0, a1, a2);
        });
    };
    auto r1 = run_once();
    auto r2 = run_once();
    EXPECT_EQ(r1, r2);  // bitwise equality
}

// Parameterised: part_size and chunker sweeps must all match seq.
struct FJParam {
    std::size_t part_size;
    int chunker;
};

// Names the case by its fields: gtest's default printer dumps the raw
// bytes, padding included, so the ctest name would vary between builds.
void PrintTo(FJParam const& p, std::ostream* os) {
    static char const* const kChunkers[] = {"static", "static1", "dynamic4",
                                            "auto", "persistent_auto"};
    *os << "part" << p.part_size << "_" << kChunkers[p.chunker];
}

class ForkJoinSweep : public ::testing::TestWithParam<FJParam> {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override { hpxlite::finalize(); }
};

TEST_P(ForkJoinSweep, MatchesSeq) {
    auto const p = GetParam();
    scatter_mesh m(1500, 300, 42);
    auto ref = m.run([&] {
        auto [a0, a1, a2] = m.args();
        op_par_loop_seq("scatter", m.edges, scatter_mesh::kernel, a0, a1, a2);
    });
    loop_options opts;
    opts.part_size = p.part_size;
    namespace ex = hpxlite::execution;
    ex::chunk_domain dom;
    switch (p.chunker) {
        case 0: opts.chunk = ex::static_chunk_size{}; break;
        case 1: opts.chunk = ex::static_chunk_size{1}; break;
        case 2: opts.chunk = ex::dynamic_chunk_size{4}; break;
        case 3: opts.chunk = ex::auto_chunk_size{}; break;
        default: opts.chunk = ex::persistent_auto_chunk_size{&dom}; break;
    }
    auto got = m.run([&] {
        auto [a0, a1, a2] = m.args();
        op_par_loop_fork_join(opts, "scatter", m.edges, scatter_mesh::kernel,
                              a0, a1, a2);
    });
    for (std::size_t i = 0; i < ref.size(); ++i) {
        ASSERT_NEAR(got[i], ref[i], 1e-9 * (1.0 + std::fabs(ref[i])));
    }
}

INSTANTIATE_TEST_SUITE_P(PartAndChunker, ForkJoinSweep,
                         ::testing::ValuesIn([] {
                             std::vector<FJParam> ps;
                             for (std::size_t part : {16ul, 128ul, 1024ul}) {
                                 for (int c = 0; c < 5; ++c) {
                                     ps.push_back({part, c});
                                 }
                             }
                             return ps;
                         }()));

}  // namespace
