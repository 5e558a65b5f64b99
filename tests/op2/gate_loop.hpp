#pragma once

// The gate-loop protocol for scheduler traces that need every pool
// worker busy while work is queued behind them: a dataflow loop with
// one single-element partition per worker whose sub-nodes spin until
// released. Each spin is bounded by a deadline, and the destructor
// releases the gate and waits for it, so a failed ASSERT (or a test
// thread that never gets to release) costs a bounded wait and a failed
// test — never a hung suite, as raw spinning pool.submit blockers could.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>

#include <hpxlite/runtime.hpp>
#include <op2/op2.hpp>

namespace op2::testing {

class worker_gate {
public:
    /// Issue the gate over all `workers` workers of the global pool and
    /// wait (yielding, never helping) until every gate sub-node runs.
    explicit worker_gate(std::size_t workers)
      : deadline_(std::chrono::steady_clock::now() + std::chrono::seconds(10)),
        set_(op_decl_set(workers, "gate")),
        dat_(op_decl_dat_zero<double>(set_, 1, "double", "gate")) {
        loop_options o;
        o.backend = exec::backend_kind::hpx_dataflow;
        o.partitions = workers;  // one element per partition
        o.part_size = 1;
        o.placement = placement_kind::affinity;
        o.fuse = false;      // a deferred gate would never start
        o.localities = 1;
        handle_ = exec::run_loop(
            o, "gate", set_,
            [this](double*) {
                running_.fetch_add(1, std::memory_order_acq_rel);
                while (!released_.load(std::memory_order_acquire) &&
                       std::chrono::steady_clock::now() < deadline_) {
                    std::this_thread::yield();
                }
            },
            op_arg_dat(dat_, -1, OP_ID, 1, "double", OP_RW));
        while (running_.load(std::memory_order_acquire) < workers &&
               std::chrono::steady_clock::now() < deadline_) {
            std::this_thread::yield();
        }
        holding_ = running_.load(std::memory_order_acquire) == workers;
    }

    worker_gate(worker_gate const&) = delete;
    worker_gate& operator=(worker_gate const&) = delete;

    ~worker_gate() {
        release();
        handle_.wait();
    }

    /// True when every worker was held before the deadline.
    [[nodiscard]] bool holding() const noexcept { return holding_; }

    /// Let the gate's sub-nodes finish (any thread may call this).
    void release() noexcept {
        released_.store(true, std::memory_order_release);
    }

private:
    std::chrono::steady_clock::time_point const deadline_;
    std::atomic<std::size_t> running_{0};
    std::atomic<bool> released_{false};
    bool holding_ = false;
    op_set set_;
    op_dat dat_;
    exec::loop_handle handle_;
};

}  // namespace op2::testing
