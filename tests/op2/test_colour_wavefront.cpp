// Issue order of partitioned dataflow loops (op2/exec/backend.hpp):
// sub-nodes are issued colour-major, so under the same-colour exemption
// a partition's colour c + 1 waits only on colour c (and lower) of the
// neighbours it shares dependency records with — a point-to-point
// colour wavefront, never a chain that runs the partitions of one INC
// loop one after another. Both properties are checked deterministically:
// a blocker-protocol trace that needs partition 1 to start while
// partition 0 is still running, and a graph-shape check over the wired
// edges of a loop held behind a gate loop.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

using namespace op2;

namespace {

/// A ring mesh: edge e increments cells e and e + 1 (mod n). Adjacent
/// blocks share a cell, so blocks alternate colours, and every
/// partition's footprint reaches its neighbour's cells.
struct ring {
    static constexpr std::size_t kN = 600;
    op_set cells = op_decl_set(kN, "cells");
    op_set edges = op_decl_set(kN, "edges");
    op_map em;
    op_dat tag;  // per-edge role in the trace (edge dat, read directly)
    op_dat d;    // the INC target (cell dat)

    ring() {
        std::vector<int> tab(2 * kN);
        for (std::size_t e = 0; e < kN; ++e) {
            tab[2 * e] = static_cast<int>(e);
            tab[2 * e + 1] = static_cast<int>((e + 1) % kN);
        }
        em = op_decl_map(edges, cells, 2, tab, "em");
        tag = op_decl_dat_zero<double>(edges, 1, "double", "tag");
        d = op_decl_dat_zero<double>(cells, 1, "double", "d");
    }

    [[nodiscard]] std::array<op_arg, 3> args() {
        return {op_arg_dat(tag, -1, OP_ID, 1, "double", OP_READ),
                op_arg_dat(d, 0, em, 1, "double", OP_INC),
                op_arg_dat(d, 1, em, 1, "double", OP_INC)};
    }

    /// Every cell has two in-edges: exactly two increments each.
    void expect_each_cell_incremented_twice() {
        for (double x : d.view<double>()) {
            ASSERT_EQ(x, 2.0);
        }
    }
};

/// Global edge ids of partition p's colour-c blocks.
std::vector<std::size_t> elements_of(op_plan const& plan, std::size_t c) {
    std::vector<std::size_t> out;
    for (std::size_t b : plan.blocks_of_color(c)) {
        for (std::size_t k = 0; k < plan.nelems[b]; ++k) {
            out.push_back(plan.elem_base + plan.offset[b] + k);
        }
    }
    return out;
}

/// Highest non-empty colour of a partition plan.
std::size_t last_live_color(op_plan const& plan) {
    std::size_t last = 0;
    for (std::size_t c = 0; c < plan.ncolors; ++c) {
        if (!plan.blocks_of_color(c).empty()) {
            last = c;
        }
    }
    return last;
}

class ColourWavefront : public ::testing::Test {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override { hpxlite::finalize(); }

    static loop_options wave_options(std::size_t nparts) {
        loop_options o;
        o.backend = exec::backend_kind::hpx_dataflow;
        o.partitions = nparts;
        o.part_size = 50;
        o.color_exemption = true;
        o.placement = placement_kind::affinity;
        // One shape only: no fusion window, no halo chains.
        o.fuse = false;
        o.localities = 1;
        return o;
    }
};

/// The blocker protocol: partition 1's colour-0 sub-node blocks once it
/// has started, until the test thread has looked at the trace. It
/// shares the dependency record of partition 1's cells with partition
/// 0's last-colour sub-node (edge 199 increments cell 200), and their
/// colours differ, so one of the two waits on the other — whichever was
/// issued first. Issued colour-major, partition 1 starts while partition
/// 0's last colour is still blocked on its dependencies; issued
/// partition-major, partition 1 could only start once partition 0 had
/// run all its colours.
TEST_F(ColourWavefront, NextPartitionStartsWhileLastColourIsBlocked) {
    ring m;
    loop_options const o = wave_options(3);
    auto args = m.args();
    op_plan const& p0 =
        plan_get(m.edges, args, plan_desc{o.part_size, true, 3, 0});
    op_plan const& p1 =
        plan_get(m.edges, args, plan_desc{o.part_size, true, 3, 1});
    std::size_t const last = last_live_color(p0);
    ASSERT_GT(last, 0u) << "partition 0 needs two colours for the trace";
    ASSERT_FALSE(p1.blocks_of_color(0).empty());

    {
        auto t = m.tag.view<double>();
        for (std::size_t e : elements_of(p0, last)) {
            t[e] = 1.0;  // partition 0's last colour
        }
        for (std::size_t e : elements_of(p1, 0)) {
            t[e] = 2.0;  // partition 1's colour 0
        }
    }

    std::atomic<bool> partner_started{false};
    std::atomic<bool> last_started{false};
    std::atomic<bool> release{false};
    auto const deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    auto h = exec::run_loop(
        o, "wave", m.edges,
        [&](double const* t, double* a, double* b) {
            if (*t == 1.0) {
                last_started.store(true, std::memory_order_release);
            } else if (*t == 2.0) {
                partner_started.store(true, std::memory_order_release);
                while (!release.load(std::memory_order_acquire) &&
                       std::chrono::steady_clock::now() < deadline) {
                    std::this_thread::yield();
                }
            }
            *a += 1.0;
            *b += 1.0;
        },
        args[0], args[1], args[2]);
    // Spin, do not help: a helping thread could run partition 0's
    // sub-nodes itself and blur the trace.
    while (!partner_started.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
    }
    bool const started = partner_started.load();
    bool const last_ran_first = last_started.load();
    release.store(true, std::memory_order_release);
    h.get();
    op_fence_all();

    ASSERT_TRUE(started) << "partition 1's colour-0 sub-node never ran";
    EXPECT_FALSE(last_ran_first)
        << "partition 1's colour 0 started only after partition 0's last "
           "colour: the partitions of the loop ran one after another";
    m.expect_each_cell_incremented_twice();
}

/// The graph shape behind the wavefront. A gate loop writes d first and
/// holds its sub-nodes until the test has looked, so every sub-node of
/// the loop under test is issued and wired but none can have run (each
/// writes some record of d, behind the gate's writer). Within the loop,
/// an edge (q, c') -> (p, c) must then go strictly up in colour:
/// same-colour sub-nodes never edge (the exemption), and no sub-node
/// waits on a higher colour of another partition. Run with the loop
/// alone and fused with a partner (issue_fused wires the same shape).
class ColourWavefrontShape : public ColourWavefront,
                             public ::testing::WithParamInterface<bool> {};

TEST_P(ColourWavefrontShape, SubNodesNeverWaitOnAHigherColour) {
    bool const fuse = GetParam();
    ring m;
    auto e2 = op_decl_dat_zero<double>(m.cells, 1, "double", "e2");

    std::atomic<bool> release{false};
    auto const deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    loop_options o = wave_options(4);
    (void)exec::run_loop(
        o, "gate", m.cells,
        [&](double*) {
            while (!release.load(std::memory_order_acquire) &&
                   std::chrono::steady_clock::now() < deadline) {
                std::this_thread::yield();
            }
        },
        op_arg_dat(m.d, -1, OP_ID, 1, "double", OP_RW));
    // Released and drained on every exit path: after a failed ASSERT
    // the gate must neither spin until its deadline nor outlive the
    // locals its kernel reads.
    struct releaser {
        std::atomic<bool>& flag;
        ~releaser() {
            flag.store(true, std::memory_order_release);
            op_fence_all();
        }
    } const guard{release};

    o.fuse = fuse;
    auto args = m.args();
    exec::loop_handle h = exec::run_loop(
        o, "wave", m.edges,
        [](double const*, double* a, double* b) {
            *a += 1.0;
            *b += 1.0;
        },
        args[0], args[1], args[2]);
    if (fuse) {
        // A partner with the same indirect INC classes (so the same
        // colouring) and no dat ordered against the wave loop: the pair
        // fuses, and the fused sub-nodes carry both names.
        h = exec::run_loop(
            o, "mark", m.edges,
            [](double* a, double* b) {
                *a += 1.0;
                *b += 1.0;
            },
            op_arg_dat(e2, 0, m.em, 1, "double", OP_INC),
            op_arg_dat(e2, 1, m.em, 1, "double", OP_INC));
    }
    std::string const loop = fuse ? "wave+mark" : "wave";
    auto is_sub = [&](exec::dataflow_node const& n) {
        return n.site_loop() != nullptr && loop == n.site_loop() &&
               n.site_kind() == nullptr &&
               n.site_partition() != exec::dataflow_node::kJoin;
    };

    // The loop's sub-nodes, gathered from d's records (each writes at
    // least one); the gate's nodes sit there too and are skipped.
    std::vector<exec::node_ref> subs;
    {
        auto const [recs, count] = m.d.internal().dep.table();
        std::vector<exec::node_ref> scratch;
        for (std::size_t r = 0; r < count; ++r) {
            recs[r].snapshot(scratch);
            for (auto& n : scratch) {
                bool seen = !is_sub(*n);
                for (auto const& s : subs) {
                    seen = seen || s.get() == n.get();
                }
                if (!seen) {
                    subs.push_back(n);
                }
            }
        }
    }
    ASSERT_FALSE(subs.empty()) << "no sub-node of '" << loop << "' found";
    std::size_t cross = 0;
    std::size_t chained = 0;
    for (auto const& n : subs) {
        ASSERT_FALSE(n->done()) << "a sub-node ran past the gate";
        for (auto const& s : n->successors()) {
            if (!is_sub(*s)) {
                continue;  // the join
            }
            EXPECT_LT(n->site_color(), s->site_color())
                << "sub-node (" << s->site_partition() << ", "
                << s->site_color() << ") waits on ("
                << n->site_partition() << ", " << n->site_color() << ")";
            if (n->site_partition() == s->site_partition()) {
                ++chained;
            } else {
                ++cross;
            }
        }
    }
    EXPECT_GT(chained, 0u) << "no partition's colours were chained";
    EXPECT_GT(cross, 0u) << "no wavefront edge between neighbours";

    release.store(true, std::memory_order_release);
    h.get();
    op_fence_all();
    m.expect_each_cell_incremented_twice();
    if (fuse) {
        for (double x : e2.view<double>()) {
            ASSERT_EQ(x, 2.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(FuseOffOn, ColourWavefrontShape,
                         ::testing::Bool());

}  // namespace
