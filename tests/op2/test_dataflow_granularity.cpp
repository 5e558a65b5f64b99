// The per-set dataflow granularity (op2/set.hpp dataflow_partitions):
// the function itself, that a defaulted hpx_dataflow loop issues at it
// on every pool size, that per-set and uniform plans never share a
// cache slot, and that a failed sub-node's quarantine spans are cut at
// each written dat's own granularity.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

constexpr std::size_t kGrain = dataflow_grain;
constexpr std::size_t kCap = dataflow_max_partitions;

TEST(DataflowGranularity, OnePartitionUpToTheGrain) {
    EXPECT_EQ(dataflow_partitions(0), 1u);
    EXPECT_EQ(dataflow_partitions(1), 1u);
    EXPECT_EQ(dataflow_partitions(kGrain - 1), 1u);
    EXPECT_EQ(dataflow_partitions(kGrain), 1u);
    EXPECT_EQ(dataflow_partitions(kGrain + 1), 2u);
}

TEST(DataflowGranularity, MonotoneCeilAndClampedAtTheCap) {
    std::size_t prev = 1;
    for (std::size_t n = 0; n <= (kCap + 3) * kGrain; n += kGrain / 8 + 1) {
        std::size_t const g = dataflow_partitions(n);
        EXPECT_GE(g, prev) << "not monotone at |S| = " << n;
        EXPECT_EQ(g, std::clamp((n + kGrain - 1) / kGrain, std::size_t{1},
                                kCap))
            << "|S| = " << n;
        prev = g;
    }
    EXPECT_EQ(dataflow_partitions(kCap * kGrain), kCap);
    EXPECT_EQ(dataflow_partitions(kCap * kGrain + 1), kCap);
    EXPECT_EQ(dataflow_partitions(std::size_t{1} << 40), kCap);
}

/// The granularity is a property of the set, not of the pool: a
/// defaulted loop issues at dataflow_partitions(|S|) partitions — its
/// dat's record table lands at exactly that count — on every pool size.
/// (OP2HPX_AUTOTUNE routes defaulted loops through the tuner's ladder
/// instead, so there the table follows the tuner's pick.)
TEST(DataflowGranularity, DefaultedLoopIssuesAtItOnEveryPoolSize) {
    constexpr std::size_t kN = 5 * kGrain + 7;
    for (std::size_t workers : {1u, 2u, 3u, 4u}) {
        hpxlite::init(hpxlite::runtime_config{workers});
        {
            auto s = op_decl_set(kN, "s");
            auto d = op_decl_dat_zero<double>(s, 1, "double", "d");
            loop_options o;
            o.backend = exec::backend_kind::hpx_dataflow;
            o.fuse = false;
            o.localities = 1;
            exec::run_loop(o, "bump", s, [](double* x) { *x += 1.0; },
                           op_arg_dat(d, -1, OP_ID, 1, "double", OP_RW))
                .get();
            if (!tune::autotune_default()) {
                EXPECT_EQ(d.internal().dep.table().second,
                          dataflow_partitions(kN))
                    << workers << " worker(s)";
            }
            for (double x : d.view<double>()) {
                ASSERT_EQ(x, 1.0);
            }
        }
        hpxlite::finalize();
    }
}

/// A per-set plan counts its footprints' target partitions at the
/// target set's granularity, a uniform plan at the loop's count: same
/// set, same args, same partition count — different plans, different
/// cache slots.
TEST(DataflowGranularity, PerSetAndUniformPlansNeverShareASlot) {
    plan_cache_clear();
    auto cells = op_decl_set(2 * kGrain, "cells");
    auto edges = op_decl_set(4 * kGrain, "edges");
    std::vector<int> tab(edges.size());
    for (std::size_t e = 0; e < tab.size(); ++e) {
        tab[e] = static_cast<int>(e / 2);
    }
    auto em = op_decl_map(edges, cells, 1, tab, "em");
    auto r = op_decl_dat_zero<double>(cells, 1, "double", "r");
    std::vector<op_arg> args{op_arg_dat(r, 0, em, 1, "double", OP_INC)};

    std::size_t const np = dataflow_partitions(edges.size());
    op_plan const& per_set =
        plan_get(edges, args, plan_desc{0, true, np, 1, true});
    op_plan const& uniform =
        plan_get(edges, args, plan_desc{0, true, np, 1, false});
    EXPECT_NE(&per_set, &uniform);
    // Edge partition 1 reaches cells [kGrain/2, kGrain): cell partition
    // 0 of the cells' own two, but partition 1 of four uniform ones.
    ASSERT_NE(per_set.find_footprint(em.id(), 0), nullptr);
    ASSERT_NE(uniform.find_footprint(em.id(), 0), nullptr);
    EXPECT_EQ(per_set.find_footprint(em.id(), 0)->parts,
              (std::vector<std::uint32_t>{0}));
    EXPECT_EQ(uniform.find_footprint(em.id(), 0)->parts,
              (std::vector<std::uint32_t>{1}));
    // Whole-set plans carry no footprints: both modes share one.
    EXPECT_EQ(&plan_get(edges, args, plan_desc{0, true, 1, 0, true}),
              &plan_get(edges, args, plan_desc{0, true, 1, 0, false}));
}

class DataflowGranularityQuarantine : public ::testing::Test {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override {
        fault::disarm();
        hpxlite::finalize();
    }
};

/// The poison spans of `d`, sorted by their start.
std::vector<std::pair<std::size_t, std::size_t>> poison_spans(op_dat& d) {
    auto& dep = d.internal().dep;
    std::vector<std::pair<std::size_t, std::size_t>> out;
    {
        std::lock_guard<hpxlite::util::spinlock> lk(dep.mtx);
        for (auto const& s : dep.poison) {
            out.emplace_back(s.lo, s.hi);
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

/// A failed edge-partition sub-node of a defaulted loop poisons exactly
/// the cell spans of its footprint cut at the *cell* granularity (two
/// partitions here, against the edges' four), plus its own span of the
/// edge dat it writes directly. The map sends edge e to cell e/2, so no
/// two blocks conflict: every sub-node is colour 0 and no other
/// partition inherits the failure.
TEST_F(DataflowGranularityQuarantine, EdgeFailurePoisonsCellSpansAtCellGranularity) {
    auto cells = op_decl_set(2 * kGrain, "cells");
    auto edges = op_decl_set(4 * kGrain, "edges");
    ASSERT_EQ(dataflow_partitions(cells.size()), 2u);
    ASSERT_EQ(dataflow_partitions(edges.size()), 4u);
    std::vector<int> tab(edges.size());
    for (std::size_t e = 0; e < tab.size(); ++e) {
        tab[e] = static_cast<int>(e / 2);
    }
    auto em = op_decl_map(edges, cells, 1, tab, "em");
    auto r = op_decl_dat_zero<double>(cells, 1, "double", "r");
    auto w = op_decl_dat_zero<double>(edges, 1, "double", "w");

    loop_options o;
    o.backend = exec::backend_kind::hpx_dataflow;
    o.fuse = false;
    o.localities = 1;
    fault::arm("kernel=scatter@1.*");
    auto h = exec::run_loop(
        o, "scatter", edges,
        [](double* c, double* x) {
            *c += 1.0;
            *x = 1.0;
        },
        op_arg_dat(r, 0, em, 1, "double", OP_INC),
        op_arg_dat(w, -1, OP_ID, 1, "double", OP_WRITE));
    EXPECT_THROW(h.get(), std::runtime_error);
    op_fence_all();

    if (!tune::autotune_default()) {
        using spans = std::vector<std::pair<std::size_t, std::size_t>>;
        EXPECT_EQ(poison_spans(r), (spans{{0, kGrain}}));
        EXPECT_EQ(poison_spans(w), (spans{{kGrain, 2 * kGrain}}));
    } else {
        EXPECT_TRUE(r.quarantined());
        EXPECT_TRUE(w.quarantined());
    }
    r.clear_quarantine();
    w.clear_quarantine();
}

}  // namespace
