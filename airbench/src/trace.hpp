#pragma once

// Spans the benchmark records around its own calls into the program's
// layers. All spans come from the benchmark's single issuing thread, so
// recording is a push_back with no synchronisation; the whole record is
// kept in memory and written once, at exit, as a Chrome trace-event
// file (chrome://tracing, Perfetto).

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace airbench {

using clock = std::chrono::steady_clock;

class tracer {
public:
    /// Id of the span name `n`, interning it on first use. Ids stay valid
    /// for the tracer's lifetime; hot paths look them up once.
    int id(std::string const& n);

    void record(int id, clock::time_point t0, clock::time_point t1);

    /// Durations, in seconds, of every span recorded under `n`.
    [[nodiscard]] std::vector<double> const& durations(std::string const& n);

    /// Write every span as a complete ("X") trace event. Returns false
    /// when the file cannot be written.
    [[nodiscard]] bool write(std::string const& path) const;

    [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

private:
    struct span {
        int id;
        std::int64_t t0_ns;
        std::int64_t t1_ns;
    };

    clock::time_point origin_ = clock::now();
    std::vector<std::string> names_;
    std::unordered_map<std::string, int> ids_;
    std::vector<std::vector<double>> durations_;  // per id
    std::vector<span> spans_;
};

/// Records [construction, destruction) under `id` when `tr` is not null.
class span_scope {
public:
    span_scope(tracer* tr, int id) : tr_(tr), id_(id) {}
    ~span_scope() {
        if (tr_ != nullptr) {
            tr_->record(id_, t0_, clock::now());
        }
    }
    span_scope(span_scope const&) = delete;
    span_scope& operator=(span_scope const&) = delete;

private:
    tracer* tr_;
    int id_;
    clock::time_point t0_ = clock::now();
};

}  // namespace airbench
