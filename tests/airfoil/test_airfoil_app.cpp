#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include <airfoil/app.hpp>

namespace {

class AirfoilAppTest : public ::testing::Test {
protected:
    void SetUp() override { hpxlite::init(hpxlite::runtime_config{4}); }
    void TearDown() override { hpxlite::finalize(); }

    static airfoil::app_config small_config(op2::backend be) {
        airfoil::app_config cfg;
        cfg.mesh.nx = 40;
        cfg.mesh.ny = 20;
        cfg.niter = 40;
        cfg.rms_stride = 10;
        cfg.be = be;
        return cfg;
    }
};

TEST_F(AirfoilAppTest, ProblemDeclaresAllEntities) {
    auto m = airfoil::make_mesh({.nx = 8, .ny = 4});
    auto p = airfoil::make_problem(m);
    EXPECT_EQ(p.cells.size(), m.ncell);
    EXPECT_EQ(p.nodes.size(), m.nnode);
    EXPECT_EQ(p.edges.size(), m.nedge);
    EXPECT_EQ(p.bedges.size(), m.nbedge);
    EXPECT_EQ(p.pcell.dim(), 4);
    EXPECT_EQ(p.pecell.dim(), 2);
    EXPECT_EQ(p.pbecell.dim(), 1);
    EXPECT_EQ(p.p_q.dim(), 4);
    EXPECT_EQ(p.p_q.view<double>().size(), m.ncell * 4);
}

TEST_F(AirfoilAppTest, SeqRunProducesFiniteDecreasingResidual) {
    auto r = airfoil::run(small_config(op2::backend::seq));
    ASSERT_FALSE(r.rms_history.empty());
    for (double rms : r.rms_history) {
        ASSERT_TRUE(std::isfinite(rms));
        ASSERT_GT(rms, 0.0);
    }
    EXPECT_LT(r.rms_history.back(), r.rms_history.front());
}

TEST_F(AirfoilAppTest, StateStaysPhysical) {
    auto r = airfoil::run(small_config(op2::backend::seq));
    for (std::size_t c = 0; c < r.q_final.size() / 4; ++c) {
        ASSERT_GT(r.q_final[4 * c], 0.0) << "negative density, cell " << c;
        ASSERT_TRUE(std::isfinite(r.q_final[4 * c + 3]));
    }
}

TEST_F(AirfoilAppTest, ForkJoinMatchesSeq) {
    auto seq = airfoil::run(small_config(op2::backend::seq));
    auto fj = airfoil::run(small_config(op2::backend::fork_join));
    ASSERT_EQ(seq.rms_history.size(), fj.rms_history.size());
    for (std::size_t i = 0; i < seq.rms_history.size(); ++i) {
        EXPECT_NEAR(fj.rms_history[i], seq.rms_history[i],
                    1e-9 * (1.0 + seq.rms_history[i]));
    }
}

TEST_F(AirfoilAppTest, HpxMatchesSeq) {
    auto seq = airfoil::run(small_config(op2::backend::seq));
    auto hx = airfoil::run(small_config(op2::backend::hpx));
    ASSERT_EQ(seq.rms_history.size(), hx.rms_history.size());
    for (std::size_t i = 0; i < seq.rms_history.size(); ++i) {
        EXPECT_NEAR(hx.rms_history[i], seq.rms_history[i],
                    1e-9 * (1.0 + seq.rms_history[i]));
    }
    // Final flow fields agree too.
    ASSERT_EQ(seq.q_final.size(), hx.q_final.size());
    for (std::size_t i = 0; i < seq.q_final.size(); ++i) {
        ASSERT_NEAR(hx.q_final[i], seq.q_final[i],
                    1e-8 * (1.0 + std::fabs(seq.q_final[i])));
    }
}

TEST_F(AirfoilAppTest, PersistentChunkingPreservesResults) {
    auto cfg = small_config(op2::backend::hpx);
    hpxlite::execution::chunk_domain dom;
    cfg.opts.chunk = hpxlite::execution::persistent_auto_chunk_size{&dom};
    auto seq = airfoil::run(small_config(op2::backend::seq));
    auto hx = airfoil::run(cfg);
    for (std::size_t i = 0; i < seq.rms_history.size(); ++i) {
        EXPECT_NEAR(hx.rms_history[i], seq.rms_history[i],
                    1e-9 * (1.0 + seq.rms_history[i]));
    }
}

TEST_F(AirfoilAppTest, PrefetchingPreservesResults) {
    auto cfg = small_config(op2::backend::hpx);
    cfg.opts.prefetch = true;
    cfg.opts.prefetch_distance_factor = 15;
    auto seq = airfoil::run(small_config(op2::backend::seq));
    auto hx = airfoil::run(cfg);
    for (std::size_t i = 0; i < seq.rms_history.size(); ++i) {
        EXPECT_NEAR(hx.rms_history[i], seq.rms_history[i],
                    1e-9 * (1.0 + seq.rms_history[i]));
    }
}

TEST_F(AirfoilAppTest, RmsStrideControlsSampling) {
    auto cfg = small_config(op2::backend::seq);
    cfg.niter = 30;
    cfg.rms_stride = 10;
    auto r = airfoil::run(cfg);
    EXPECT_EQ(r.rms_history.size(), 3u);
    cfg.rms_stride = 1;
    auto r2 = airfoil::run(cfg);
    EXPECT_EQ(r2.rms_history.size(), 30u);
}

/// Each rms row is labelled with the iteration it was recorded after:
/// every stride multiple, plus the final iteration when niter is not
/// one (niter=50, stride=20 records after 20, 40 and 50 — not 60).
TEST_F(AirfoilAppTest, RmsRowsCarryTheirRealIteration) {
    auto cfg = small_config(op2::backend::seq);
    cfg.niter = 50;
    cfg.rms_stride = 20;
    auto r = airfoil::run(cfg);
    EXPECT_EQ(r.rms_iters, (std::vector<int>{20, 40, 50}));
    EXPECT_EQ(r.rms_history.size(), r.rms_iters.size());
    cfg.niter = 40;
    EXPECT_EQ(airfoil::run(cfg).rms_iters, (std::vector<int>{20, 40}));
}

/// A declared problem's cached plans leave with it: plan_cache_size()
/// returns to its prior value once the problem (and so its sets) is
/// destroyed. A second problem then re-issues on pooled executors whose
/// old plans were purged, and must reproduce the first run bitwise.
TEST_F(AirfoilAppTest, DestroyedProblemLeavesNoCachedPlans) {
    std::size_t const before = op2::plan_cache_size();
    auto const m = airfoil::make_mesh({.nx = 24, .ny = 12});
    auto cfg = small_config(op2::backend::hpx);
    cfg.niter = 4;
    std::vector<double> first;
    {
        airfoil::problem p = airfoil::make_problem(m);
        first = airfoil::run(p, cfg).q_final;
        EXPECT_GT(op2::plan_cache_size(), before);
    }
    // run() fences, and the fence waits for each loop's join too —
    // the node that drops the loop's set handles.
    EXPECT_EQ(op2::plan_cache_size(), before);

    airfoil::problem p = airfoil::make_problem(m);
    EXPECT_EQ(airfoil::run(p, cfg).q_final, first);
}

/// A defaulted hpx run keeps every dat's dependency records at its own
/// set's granularity, so loops over cells, edges and bedges share q,
/// adt and res with zero re-partitions (no drain in dep_state::pin
/// serialising the issue-ahead chain) — on meshes where the three sets
/// get three different granularities, with bedges at several
/// partitions and at one (bres_calc is cut finer than its bound dat
/// either way) — and the run still matches seq under the HpxMatchesSeq
/// bound. (OP2HPX_AUTOTUNE routes defaulted loops through the tuner's
/// ladder instead, which re-partitions by design.)
TEST_F(AirfoilAppTest, DefaultedHpxRunNeverRepartitions) {
    for (airfoil::mesh_params const mp :
         {airfoil::mesh_params{.nx = 1040, .ny = 8},
          airfoil::mesh_params{.nx = 96, .ny = 48}}) {
        auto const m = airfoil::make_mesh(mp);
        std::size_t const gc = op2::dataflow_partitions(m.ncell);
        std::size_t const ge = op2::dataflow_partitions(m.nedge);
        std::size_t const gb = op2::dataflow_partitions(m.nbedge);
        ASSERT_TRUE(gc != ge && ge != gb && gc != gb)
            << gc << " " << ge << " " << gb;

        auto cfg = small_config(op2::backend::hpx);
        cfg.mesh = mp;
        cfg.niter = 6;
        cfg.rms_stride = 1;
        cfg.opts.fuse = false;
        cfg.opts.localities = 1;
        auto scfg = cfg;
        scfg.be = op2::backend::seq;
        auto const seq = airfoil::run(scfg);

        airfoil::problem p = airfoil::make_problem(m);
        std::atomic<std::size_t> repartitions{0};
        for (op2::op_dat d :
             {p.p_bound, p.p_x, p.p_q, p.p_qold, p.p_adt, p.p_res}) {
            d.internal().dep.repartition_hook = [&](std::size_t) {
                repartitions.fetch_add(1);
            };
        }
        auto const hx = airfoil::run(p, cfg);
        if (!op2::tune::autotune_default()) {
            EXPECT_EQ(repartitions.load(), 0u)
                << "mesh " << mp.nx << "x" << mp.ny;
            EXPECT_EQ(p.p_res.internal().dep.table().second, gc);
            EXPECT_EQ(p.p_bound.internal().dep.table().second, gb);
        }
        ASSERT_EQ(seq.rms_history.size(), hx.rms_history.size());
        for (std::size_t i = 0; i < seq.rms_history.size(); ++i) {
            EXPECT_NEAR(hx.rms_history[i], seq.rms_history[i],
                        1e-9 * (1.0 + seq.rms_history[i]));
        }
        ASSERT_EQ(seq.q_final.size(), hx.q_final.size());
        for (std::size_t i = 0; i < seq.q_final.size(); ++i) {
            ASSERT_NEAR(hx.q_final[i], seq.q_final[i],
                        1e-8 * (1.0 + std::fabs(seq.q_final[i])));
        }
    }
}

TEST_F(AirfoilAppTest, InvalidIterationCountThrows) {
    auto cfg = small_config(op2::backend::seq);
    cfg.niter = 0;
    EXPECT_THROW(airfoil::run(cfg), std::invalid_argument);
}

TEST_F(AirfoilAppTest, ReusingProblemContinuesSimulation) {
    auto m = airfoil::make_mesh({.nx = 20, .ny = 10});
    auto p = airfoil::make_problem(m);
    auto cfg = small_config(op2::backend::seq);
    cfg.niter = 10;
    cfg.rms_stride = 10;
    auto r1 = airfoil::run(p, cfg);
    auto r2 = airfoil::run(p, cfg);  // continues from r1's state
    EXPECT_LT(r2.final_rms, r1.final_rms);
}

TEST_F(AirfoilAppTest, UniformFlowOnFlatChannelStaysSteady) {
    // With no bump, free-stream flow through a rectangular channel is an
    // exact steady state: the residual is (near) zero from step one.
    airfoil::app_config cfg;
    cfg.mesh.nx = 16;
    cfg.mesh.ny = 8;
    cfg.mesh.bump_height = 0.0;
    cfg.niter = 5;
    cfg.be = op2::backend::seq;
    auto r = airfoil::run(cfg);
    for (double rms : r.rms_history) {
        ASSERT_LT(rms, 1e-12);
    }
}

}  // namespace
