#include <op2/context.hpp>

#include <utility>

#include <op2/exec/dataflow.hpp>

namespace op2 {

namespace {

std::uint64_t next_context_id() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local context slot. Empty means "the default context" so
/// thread creation pays nothing; current_context() resolves the
/// default lazily.
std::shared_ptr<runtime_context>& tls_context() {
    thread_local std::shared_ptr<runtime_context> ctx;
    return ctx;
}

}  // namespace

runtime_context::runtime_context()
  : joins_(std::make_unique<exec::join_set>()) {}

runtime_context::runtime_context(std::string name)
  : id_(next_context_id()), name_(std::move(name)),
    joins_(std::make_unique<exec::join_set>()) {}

runtime_context::~runtime_context() = default;

std::shared_ptr<runtime_context> const& runtime_context::default_context() {
    // Intentionally leaked (never destroyed): dats and dep_states
    // reference the default context's poison gate during static
    // teardown, exactly like the inline atomics this replaces.
    static std::shared_ptr<runtime_context> const* const ctx =
        new std::shared_ptr<runtime_context>(
            std::make_shared<runtime_context>());
    return *ctx;
}

std::shared_ptr<runtime_context> make_context(std::string name) {
    return std::make_shared<runtime_context>(std::move(name));
}

std::shared_ptr<runtime_context> const& current_context() {
    auto const& tls = tls_context();
    return tls ? tls : runtime_context::default_context();
}

context_scope::context_scope(std::shared_ptr<runtime_context> ctx) {
    auto& tls = tls_context();
    prev_ = std::exchange(tls, std::move(ctx));
}

context_scope::~context_scope() { tls_context() = std::move(prev_); }

}  // namespace op2
