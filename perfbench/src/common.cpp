#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include <sys/resource.h>

namespace perfbench {

namespace {

std::uint64_t clock_ns(clockid_t id) {
    timespec ts{};
    clock_gettime(id, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/// 17 significant digits: the value round-trips, every digit as measured.
std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

} // namespace

std::uint64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }
std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double median(std::vector<double> v) {
    if (v.empty())
        throw std::runtime_error("median of no samples");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

SetupSampler::SetupSampler(int per_sample, std::function<std::uint64_t()> one,
                           std::uint64_t deadline_ns)
    : per_sample_(per_sample), one_(std::move(one)) {
    batch();
    start_ns_    = now_ns();
    deadline_ns_ = std::max(deadline_ns, start_ns_);
}

double SetupSampler::batch() {
    std::uint64_t ns = 0;
    for (int i = 0; i < per_sample_; ++i)
        ns += one_();
    return static_cast<double>(ns) * 1e-9;
}

void SetupSampler::poll() {
    const std::size_t n = samples_.size();
    if (n < kSamples &&
        now_ns() >= start_ns_ + (deadline_ns_ - start_ns_) * n / kSamples)
        samples_.push_back(batch());
}

double SetupSampler::finish() {
    while (samples_.size() < kSamples)
        samples_.push_back(batch());
    return median(samples_);
}

bool Report::check(bool ok, const std::string& what) {
    op(ok);
    if (!ok) {
        correct_ = false;
        std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
    }
    return ok;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
}

std::string Report::json() const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const auto& [name, vu] = metrics_[i];
        os << (i ? ", " : "") << '"' << name << "\": {\"value\": " << num(vu.first)
           << ", \"unit\": \"" << vu.second << "\"}";
    }
    os << "}}";
    return os.str();
}

void Tracer::begin(const char* name) {
    if (!enabled_)
        return;
    Span s;
    s.name = name;
    s.path = open_.empty() ? s.name : open_.back().path + "/" + s.name;
    open_.push_back(std::move(s));
    open_.back().start_ns = now_ns();
}

void Tracer::end() {
    if (!enabled_)
        return;
    const std::uint64_t t = now_ns();
    Span s                = std::move(open_.back());
    open_.pop_back();
    s.dur_ns = t - s.start_ns;
    if (!open_.empty())
        open_.back().child_ns += s.dur_ns;
    done_.push_back(std::move(s));
}

std::map<std::string, std::uint64_t> Tracer::self_by_name(const std::string& root) const {
    std::map<std::string, std::uint64_t> out;
    for (const Span& s : done_)
        if (s.path == root || s.path.rfind(root + "/", 0) == 0)
            out[s.name] += s.self_ns();
    return out;
}

std::uint64_t Tracer::root_ns(const std::string& root) const {
    std::uint64_t ns = 0;
    for (const Span& s : done_)
        if (s.path == root)
            ns += s.dur_ns;
    return ns;
}

void Tracer::write_json(const std::string& path) const {
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot write " + path);
    std::uint64_t t0 = UINT64_MAX;
    for (const Span& s : done_)
        t0 = std::min(t0, s.start_ns);
    os << "[";
    for (std::size_t i = 0; i < done_.size(); ++i) {
        const Span& s = done_[i];
        os << (i ? ",\n " : "\n ") << "{\"ph\": \"X\", \"name\": \""
           << json_escape(s.name) << "\", \"path\": \"" << json_escape(s.path)
           << "\", \"cat\": \"layer\", \"pid\": 0, \"tid\": 0, \"ts\": "
           << num(static_cast<double>(s.start_ns - t0) / 1e3)
           << ", \"dur\": " << num(static_cast<double>(s.dur_ns) / 1e3)
           << ", \"exclusive_us\": " << num(static_cast<double>(s.self_ns()) / 1e3)
           << "}";
    }
    os << "\n]\n";
}

bool same_bytes(const std::string& a, const std::string& b, std::string* why) {
    if (a == b)
        return true;
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    if (why)
        *why = "outputs differ at byte " + std::to_string(i) + " (sizes " +
               std::to_string(a.size()) + " vs " + std::to_string(b.size()) + ")";
    return false;
}

} // namespace perfbench
