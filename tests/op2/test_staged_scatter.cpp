// The staged INC path (loop_options::staged_gather): indirect OP_INC
// arguments resolve their targets through the plan's staged offset
// tables instead of through the map, per element. Staging does not
// affect colouring, so under one plan the staged and the legacy
// per-element executors add every contribution in exactly the same
// order. These differentials pin that with arbitrary (non-integer)
// values, where any reordering of IEEE additions would show up as a
// bitwise mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

class StagedScatterTest : public ::testing::Test {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override { hpxlite::finalize(); }
};

struct scatter_mesh {
    static constexpr std::size_t kCells = 600;
    static constexpr std::size_t kEdges = 1700;

    op_set cells;
    op_set edges;
    op_map em;   // edges -> cells, dim 2
    op_dat src;  // dim 2 per cell, read-only
    op_dat acc2; // dim 2 per cell
    op_dat acc4; // dim 4 per cell
    std::vector<double> src_init;

    explicit scatter_mesh(unsigned seed) {
        cells = op_decl_set(kCells, "cells");
        edges = op_decl_set(kEdges, "edges");
        std::mt19937 rng(seed);
        std::uniform_int_distribution<int> cd(0, kCells - 1);
        std::vector<int> tab(2 * kEdges);
        for (std::size_t e = 0; e < kEdges; ++e) {
            // Distinct endpoints per edge: the INC contract assumes a
            // kernel's private increment slots do not alias.
            int const a = cd(rng);
            int b = cd(rng);
            while (b == a) {
                b = cd(rng);
            }
            tab[2 * e] = a;
            tab[2 * e + 1] = b;
        }
        em = op_decl_map(edges, cells, 2, tab, "em");

        // Non-integer values on purpose: IEEE addition is order-
        // sensitive here, so the bitwise comparisons below prove the
        // staged path keeps the per-element accumulation order.
        std::uniform_real_distribution<double> vd(0.1, 1.0);
        src_init.resize(2 * kCells);
        for (auto& v : src_init) {
            v = vd(rng);
        }
        src = op_decl_dat<double>(cells, 2, "double", src_init, "src");
        acc2 = op_decl_dat_zero<double>(cells, 2, "double", "acc2");
        acc4 = op_decl_dat_zero<double>(cells, 4, "double", "acc4");
    }

    void reset() {
        for (auto& x : acc2.view<double>()) {
            x = 0.0;
        }
        for (auto& x : acc4.view<double>()) {
            x = 0.0;
        }
    }

    /// The res_calc shape: one loop, TWO indirect INC args on the same
    /// dat (both endpoints of the edge), plus a single-slot INC on a
    /// second dat.
    void run(loop_options const& opts) {
        reset();
        auto h = exec::run_loop(
            opts, "scatter2", edges,
            [](double const* s0, double const* s1, double* a0, double* a1,
               double* b0) {
                a0[0] += s0[0] + 0.5 * s1[1];
                a0[1] += s0[1];
                a1[0] += s1[0];
                a1[1] += 0.25 * s0[0] + s1[1];
                b0[0] += s0[0] * s1[0];
                b0[1] += s0[1] + s1[1];
                b0[2] += 0.125 * s0[0];
                b0[3] += s1[0] - s0[1];
            },
            op_arg_dat(src, 0, em, 2, "double", OP_READ),
            op_arg_dat(src, 1, em, 2, "double", OP_READ),
            op_arg_dat(acc2, 0, em, 2, "double", OP_INC),
            op_arg_dat(acc2, 1, em, 2, "double", OP_INC),
            op_arg_dat(acc4, 0, em, 4, "double", OP_INC));
        h.get();
        op_fence_all();
    }

    [[nodiscard]] std::pair<std::vector<double>, std::vector<double>>
    snapshot() {
        auto v2 = acc2.view<double>();
        auto v4 = acc4.view<double>();
        return {{v2.begin(), v2.end()}, {v4.begin(), v4.end()}};
    }
};

void expect_bitwise_equal(std::vector<double> const& a,
                          std::vector<double> const& b) {
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                             a.size() * sizeof(double)));
}

TEST_F(StagedScatterTest, StagedIncScatterMatchesLegacyBitwise) {
    scatter_mesh m(7);
    loop_options legacy;
    legacy.backend = exec::backend_kind::staged;
    legacy.part_size = 96;
    legacy.staged_gather = false;
    loop_options staged = legacy;
    staged.staged_gather = true;

    m.run(legacy);
    auto const [l2, l4] = m.snapshot();
    m.run(staged);
    auto const [s2, s4] = m.snapshot();
    expect_bitwise_equal(l2, s2);
    expect_bitwise_equal(l4, s4);
}

TEST_F(StagedScatterTest, HpxPartitionedIncScatterMatchesLegacyBitwise) {
    scatter_mesh m(23);
    loop_options legacy;
    legacy.backend = exec::backend_kind::hpx_dataflow;
    legacy.partitions = 4;
    legacy.part_size = 96;
    legacy.staged_gather = false;
    loop_options staged = legacy;
    staged.staged_gather = true;

    m.run(legacy);
    auto const [l2, l4] = m.snapshot();
    m.run(staged);
    auto const [s2, s4] = m.snapshot();
    expect_bitwise_equal(l2, s2);
    expect_bitwise_equal(l4, s4);
}

/// A dat reached through BOTH an indirect INC and an indirect READ in
/// one loop: the read and the increment must both see the live dat on
/// the staged path, as they do on the legacy one. The map keeps the
/// read slot and the INC slot on disjoint cell ranges, so the mixed
/// access itself is race-free and deterministic.
TEST_F(StagedScatterTest, MixedAccessDatStaysExact) {
    constexpr std::size_t kCells = 600;
    constexpr std::size_t kEdges = 1500;
    auto cells = op_decl_set(kCells, "cells");
    auto edges = op_decl_set(kEdges, "edges");
    std::mt19937 rng(41);
    std::uniform_int_distribution<int> lo(0, kCells / 2 - 1);
    std::uniform_int_distribution<int> hi(kCells / 2,
                                          static_cast<int>(kCells) - 1);
    std::vector<int> tab(2 * kEdges);
    for (std::size_t e = 0; e < kEdges; ++e) {
        tab[2 * e] = lo(rng);      // slot 0: read-only half
        tab[2 * e + 1] = hi(rng);  // slot 1: INC half
    }
    auto em = op_decl_map(edges, cells, 2, tab, "em");
    std::uniform_real_distribution<double> vd(0.1, 1.0);
    std::vector<double> init(2 * kCells);
    for (auto& v : init) {
        v = vd(rng);
    }
    auto mixed = op_decl_dat<double>(cells, 2, "double", init, "mixed");
    auto acc4 = op_decl_dat_zero<double>(cells, 4, "double", "acc4");

    auto run_mixed = [&](bool staged) {
        auto mv = mixed.view<double>();
        std::copy(init.begin(), init.end(), mv.begin());
        for (auto& x : acc4.view<double>()) {
            x = 0.0;
        }
        loop_options o;
        o.backend = exec::backend_kind::staged;
        o.part_size = 96;
        o.staged_gather = staged;
        auto h = exec::run_loop(
            o, "mixed", edges,
            [](double const* probe, double* a1, double* b0) {
                a1[0] += probe[0];
                a1[1] += 0.5 * probe[1];
                b0[0] += probe[1];
                b0[1] += probe[0];
                b0[2] += 1.0;
                b0[3] += probe[0] * 0.5;
            },
            op_arg_dat(mixed, 0, em, 2, "double", OP_READ),
            op_arg_dat(mixed, 1, em, 2, "double", OP_INC),
            op_arg_dat(acc4, 0, em, 4, "double", OP_INC));
        h.get();
        op_fence_all();
        auto v2 = mixed.view<double>();
        auto v4 = acc4.view<double>();
        std::vector<double> out(v2.begin(), v2.end());
        out.insert(out.end(), v4.begin(), v4.end());
        return out;
    };
    auto const legacy = run_mixed(false);
    auto const staged = run_mixed(true);
    expect_bitwise_equal(legacy, staged);
}

/// Odd strides (dim-1 / dim-3 doubles) go through the same staged
/// tables as the even ones and must match the legacy path too.
TEST_F(StagedScatterTest, OddStridesMatchLegacyBitwise) {
    auto cells = op_decl_set(300, "cells");
    auto edges = op_decl_set(900, "edges");
    std::mt19937 rng(91);
    std::uniform_int_distribution<int> cd(0, 299);
    std::vector<int> tab(2 * 900);
    for (auto& v : tab) {
        v = cd(rng);
    }
    auto em = op_decl_map(edges, cells, 2, tab, "em");
    auto acc1 = op_decl_dat_zero<double>(cells, 1, "double", "acc1");
    auto acc3 = op_decl_dat_zero<double>(cells, 3, "double", "acc3");

    auto run = [&](bool staged) {
        for (auto& x : acc1.view<double>()) {
            x = 0.0;
        }
        for (auto& x : acc3.view<double>()) {
            x = 0.0;
        }
        loop_options o;
        o.backend = exec::backend_kind::staged;
        o.part_size = 64;
        o.staged_gather = staged;
        auto h = exec::run_loop(
            o, "odd", edges,
            [](double* a, double* b) {
                a[0] += 0.375;
                b[0] += 0.5;
                b[1] += 0.25;
                b[2] += 0.125;
            },
            op_arg_dat(acc1, 0, em, 1, "double", OP_INC),
            op_arg_dat(acc3, 1, em, 3, "double", OP_INC));
        h.get();
        op_fence_all();
        auto v1 = acc1.view<double>();
        auto v3 = acc3.view<double>();
        std::vector<double> out(v1.begin(), v1.end());
        out.insert(out.end(), v3.begin(), v3.end());
        return out;
    };
    auto const legacy = run(false);
    auto const staged = run(true);
    expect_bitwise_equal(legacy, staged);
}

}  // namespace
