#include "trace.hpp"

#include <cstdio>

namespace airbench {

int tracer::id(std::string const& n) {
    auto [it, fresh] = ids_.try_emplace(n, static_cast<int>(names_.size()));
    if (fresh) {
        names_.push_back(n);
        durations_.emplace_back();
    }
    return it->second;
}

void tracer::record(int id, clock::time_point t0, clock::time_point t1) {
    auto const ns = [&](clock::time_point t) {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
            .count();
    };
    spans_.push_back({id, ns(t0), ns(t1)});
    durations_[static_cast<std::size_t>(id)].push_back(
        std::chrono::duration<double>(t1 - t0).count());
}

std::vector<double> const& tracer::durations(std::string const& n) {
    return durations_[static_cast<std::size_t>(id(n))];
}

bool tracer::write(std::string const& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return false;
    }
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        span const& s = spans_[i];
        // Span names are the benchmark's own metric names: no characters
        // that need JSON escaping.
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f}\n",
                     i == 0 ? "" : ",",
                     names_[static_cast<std::size_t>(s.id)].c_str(),
                     static_cast<double>(s.t0_ns) / 1e3,
                     static_cast<double>(s.t1_ns - s.t0_ns) / 1e3);
    }
    std::fputs("]}\n", f);
    bool const ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
}

}  // namespace airbench
