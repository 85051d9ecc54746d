// Shared pieces of the perfbench binary: options, clocks, statistics, the
// result report, and the span tracer behind the per-layer (traced) run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds     = 10;
    bool trace         = false;
    std::string dir;        ///< work directory for inputs and sockets
    std::string trace_file; ///< span file written by the traced run
};

// -- clocks ------------------------------------------------------------------

std::uint64_t now_ns();
/// User+sys CPU time of the whole process / of the calling thread.
std::uint64_t process_cpu_ns();
std::uint64_t thread_cpu_ns();
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

// -- deterministic inputs ----------------------------------------------------

/// splitmix64: small, seedable, and identical on every platform.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }
    std::uint64_t below(std::uint64_t n) { return next() % n; }

private:
    std::uint64_t state_;
};

// -- statistics --------------------------------------------------------------

double median(std::vector<double> v);

/// setup_s: the median over kSamples samples, each the summed time of a
/// fixed number of consecutive set-ups. One set-up takes well under a
/// millisecond on every workload, so each timed sample is a batch. The
/// samples are spread evenly over the run's measured rounds: the host's
/// speed changes over seconds, and a burst of samples would catch one
/// moment of it. Their count is fixed, so the state they leave behind
/// (Caliper never frees a channel) does not depend on the run's length.
class SetupSampler {
public:
    static constexpr int kSamples = 21;

    /// \a one performs one set-up and returns its duration in ns (tear-down
    /// excluded). Takes one untimed warm-up batch; the timed samples fall
    /// due at even steps over [now, \a deadline_ns].
    SetupSampler(int per_sample, std::function<std::uint64_t()> one,
                 std::uint64_t deadline_ns);
    /// Between rounds: take the next sample if it is due.
    void poll();
    /// Take the samples not yet due; the median, in seconds.
    double finish();

private:
    double batch();

    int per_sample_;
    std::function<std::uint64_t()> one_;
    std::uint64_t start_ns_, deadline_ns_;
    std::vector<double> samples_;
};

// -- result ------------------------------------------------------------------

/// What one run prints: operation accounting, correctness, and metrics.
class Report {
public:
    /// Count one attempted operation; \a ok = false counts it as failed.
    void op(bool ok = true) {
        ++attempted_;
        if (!ok)
            ++failed_;
    }
    /// A correctness check: an attempted operation whose failure also marks
    /// the run incorrect. Logs \a what to stderr on a mismatch.
    bool check(bool ok, const std::string& what);
    void metric(const std::string& name, double value, const std::string& unit);

    bool correct() const noexcept { return correct_; }
    /// The final JSON line.
    std::string json() const;

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_    = 0;
    bool correct_            = true;
    std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

// -- tracing -----------------------------------------------------------------

/// Nested wall-clock spans recorded by the benchmark around its own calls
/// into calib's modules (single-threaded). A span's self time is its
/// duration minus the time covered by its direct children, so the self
/// times of all spans under a root add up to the root's duration.
class Tracer {
public:
    struct Span {
        std::string name;
        std::string path;
        std::uint64_t start_ns = 0;
        std::uint64_t dur_ns   = 0;
        std::uint64_t child_ns = 0;
        std::uint64_t self_ns() const noexcept { return dur_ns - child_ns; }
    };

    void begin(const char* name);
    void end();
    /// A disabled tracer records nothing: the same pass runs untraced, to
    /// measure the tracing overhead.
    void set_enabled(bool on) noexcept { enabled_ = on; }

    class Scope {
    public:
        Scope(Tracer& t, const char* name) : t_(t) { t_.begin(name); }
        ~Scope() { t_.end(); }
        Scope(const Scope&)            = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer& t_;
    };

    /// Self time per span name over the completed spans whose path starts
    /// with \a root (a root span name), plus the root's duration.
    std::map<std::string, std::uint64_t> self_by_name(const std::string& root) const;
    std::uint64_t root_ns(const std::string& root) const;

    /// Chrome trace_event JSON array, the shape cali-query --trace-json
    /// writes (ph/name/path/cat/pid/tid/ts/dur/exclusive_us).
    void write_json(const std::string& path) const;

private:
    std::vector<Span> done_;
    std::vector<Span> open_;
    bool enabled_ = true;
};

/// Byte-compare helper with a short diagnostic on mismatch.
bool same_bytes(const std::string& a, const std::string& b, std::string* why);

// -- workloads (one translation unit each) ------------------------------------

constexpr std::size_t kWorkers = 2; ///< offline workers, push clients, ranks
/// Peak RSS is read after this many measured rounds (plus the warm-up), not
/// at the end: a high-water mark over a time-dependent number of rounds
/// would drift with the machine's speed.
constexpr int kRssRounds = 4;

void run_offline(const Options& o, Report& r);
void run_daemon(const Options& o, Report& r);
void run_runtime(const Options& o, Report& r);

/// Traced per-layer passes; each appends its layer metrics to \a r.
/// Returns the traced / untraced wall-time ratio of the layer-by-layer passes.
double trace_offline(const std::string& job, const Options& o, Report& r, Tracer& t,
                     double budget_s);
void trace_daemon(const Options& o, Report& r, Tracer& t, double budget_s);
void trace_runtime(const Options& o, Report& r, Tracer& t, double budget_s);

} // namespace perfbench
