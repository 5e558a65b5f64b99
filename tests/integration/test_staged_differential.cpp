// Differential test of the staged execution engine: random indirect
// loop programs run through the staged colored path (fork_join and hpx
// backends) must produce *bit-identical* results to run_sequential.
//
// Bit-identity holds because every value in the program is an integer
// held in a double: integer sums below 2^53 are exact in IEEE double
// arithmetic regardless of the order the colored schedule adds
// contributions in, so any divergence — a wrong gather offset, a colour
// conflict, a lost reduction partial — shows up as an exact mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <random>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

struct program {
    static constexpr std::size_t kCells = 700;
    static constexpr std::size_t kEdges = 1900;

    op_set cells;
    op_set edges;
    op_map em;   // edges -> cells, dim 3
    op_dat src;  // dim 2, read-only through the run
    op_dat acc;  // dim 1, scatter-increment target
    std::vector<double> src_init;

    explicit program(unsigned seed) {
        cells = op_decl_set(kCells, "cells");
        edges = op_decl_set(kEdges, "edges");
        std::mt19937 rng(seed);
        std::uniform_int_distribution<int> cd(0, kCells - 1);
        std::vector<int> tab(3 * kEdges);
        for (auto& v : tab) {
            v = cd(rng);
        }
        em = op_decl_map(edges, cells, 3, tab, "em");

        std::uniform_int_distribution<int> vd(0, 9);
        src_init.resize(2 * kCells);
        for (auto& v : src_init) {
            v = static_cast<double>(vd(rng));  // integer-valued doubles
        }
        src = op_decl_dat<double>(cells, 2, "double", src_init, "src");
        acc = op_decl_dat_zero<double>(cells, 1, "double", "acc");
    }

    struct outcome {
        std::vector<double> acc;
        double sum = 0.0;
        double mn = 0.0;
        double mx = 0.0;
    };

    /// One round: 3-slot scatter-increment over the edges, a direct
    /// accumulate back into src, then a gbl INC/MIN/MAX reduction.
    outcome run(backend be, loop_options const& opts) {
        // Reset state.
        auto sv = src.view<double>();
        std::copy(src_init.begin(), src_init.end(), sv.begin());
        for (auto& x : acc.view<double>()) {
            x = 0.0;
        }

        auto issue = [&](char const* name, op_set const& set, auto kern,
                         auto... as) {
            switch (be) {
                case backend::seq:
                    op_par_loop_seq(name, set, kern, as...);
                    break;
                case backend::fork_join:
                    op_par_loop_fork_join(opts, name, set, kern, as...);
                    break;
                case backend::hpx:
                    (void)op_par_loop_hpx(opts, name, set, kern, as...);
                    break;
            }
        };

        outcome out;
        out.mn = 1e300;
        out.mx = -1e300;
        for (int round = 0; round < 3; ++round) {
            issue("scatter", edges,
                  [](double const* s0, double const* s1, double* t0,
                     double* t1, double* t2) {
                      *t0 += s0[0] + 2.0 * s1[1];
                      *t1 += 3.0 * s0[1];
                      *t2 += s1[0] + s0[0];
                  },
                  op_arg_dat(src, 0, em, 2, "double", OP_READ),
                  op_arg_dat(src, 1, em, 2, "double", OP_READ),
                  op_arg_dat(acc, 0, em, 1, "double", OP_INC),
                  op_arg_dat(acc, 1, em, 1, "double", OP_INC),
                  op_arg_dat(acc, 2, em, 1, "double", OP_INC));
            issue("fold", cells,
                  [](double const* a, double* s) {
                      s[0] += *a;
                      s[1] += *a;
                  },
                  op_arg_dat(acc, -1, OP_ID, 1, "double", OP_READ),
                  op_arg_dat(src, -1, OP_ID, 2, "double", OP_RW));
        }
        issue("reduce", cells,
              [](double const* a, double* s, double* lo, double* hi) {
                  *s += *a;
                  *lo = std::min(*lo, *a);
                  *hi = std::max(*hi, *a);
              },
              op_arg_dat(acc, -1, OP_ID, 1, "double", OP_READ),
              op_arg_gbl(&out.sum, 1, "double", OP_INC),
              op_arg_gbl(&out.mn, 1, "double", OP_MIN),
              op_arg_gbl(&out.mx, 1, "double", OP_MAX));
        if (be == backend::hpx) {
            op_fence_all();
        }
        auto av = acc.view<double>();
        out.acc.assign(av.begin(), av.end());
        return out;
    }
};

class StagedDifferential : public ::testing::TestWithParam<unsigned> {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override { hpxlite::finalize(); }
};

TEST_P(StagedDifferential, ColoredStagedPathMatchesSequentialBitwise) {
    program prog(GetParam());
    loop_options staged;
    staged.part_size = 48;
    staged.staged_gather = true;
    loop_options legacy = staged;
    legacy.staged_gather = false;
    loop_options staged_pf = staged;
    staged_pf.prefetch = true;

    auto ref = prog.run(backend::seq, staged);

    struct variant {
        char const* name;
        backend be;
        loop_options const* opts;
    };
    variant const variants[] = {
        {"fork_join/staged", backend::fork_join, &staged},
        {"fork_join/legacy", backend::fork_join, &legacy},
        {"fork_join/staged+prefetch", backend::fork_join, &staged_pf},
        {"hpx/staged", backend::hpx, &staged},
    };
    for (auto const& v : variants) {
        auto got = prog.run(v.be, *v.opts);
        ASSERT_EQ(got.acc.size(), ref.acc.size());
        // Bit-identical: memcmp, not EXPECT_NEAR.
        EXPECT_EQ(std::memcmp(got.acc.data(), ref.acc.data(),
                              ref.acc.size() * sizeof(double)),
                  0)
            << v.name << ": scatter-increment field diverged";
        EXPECT_EQ(got.sum, ref.sum) << v.name;
        EXPECT_EQ(got.mn, ref.mn) << v.name;
        EXPECT_EQ(got.mx, ref.mx) << v.name;
    }
}

/// Same program, with the dats allocated under partition-affine first
/// touch: the initialisation path (per-partition tasks on the owning
/// workers) must be invisible to every backend's results.
TEST_P(StagedDifferential, FirstTouchAllocationIsBitwiseInvisible) {
    program ref_prog(GetParam());
    loop_options opts;
    opts.part_size = 48;
    auto ref = ref_prog.run(backend::seq, opts);

    auto ft_prog = [&] {
        // Scoped: restores the prior effective setting, so the
        // env-driven scalar-oracle CI leg (OP2HPX_FIRST_TOUCH=1) keeps
        // first-touching every dat the *other* tests declare.
        op2::memory::first_touch_scope scope(true);
        return program(GetParam());
    }();

    for (auto be : {backend::seq, backend::fork_join, backend::hpx}) {
        auto got = ft_prog.run(be, opts);
        ASSERT_EQ(got.acc.size(), ref.acc.size());
        EXPECT_EQ(std::memcmp(got.acc.data(), ref.acc.data(),
                              ref.acc.size() * sizeof(double)),
                  0)
            << to_string(be) << ": first-touch allocation changed results";
        EXPECT_EQ(got.sum, ref.sum) << to_string(be);
        EXPECT_EQ(got.mn, ref.mn) << to_string(be);
        EXPECT_EQ(got.mx, ref.mx) << to_string(be);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StagedDifferential,
                         ::testing::Values(3u, 7u, 19u, 31u, 57u, 91u));

}  // namespace
