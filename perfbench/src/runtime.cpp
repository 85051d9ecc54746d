// runtime-annotate: the paper's own hot path. simmpi rank-threads run a
// fixed nested begin/end annotation loop into an event,timer,aggregate
// channel (per-thread blackboard -> snapshot -> per-thread aggregation
// database), then reduce the channel to rank 0 with
// simmpi::reduce_channel. One simmpi world of kWorkers rank-threads lives
// for the whole run; each round creates its channel, annotates, reduces,
// and closes it. Rounds alternate all ranks annotating and rank 0 alone
// (the other rank joins only the reduction, empty). setup_s times channel
// creation apart from the rounds, on rank 0 between them.
#include "common.hpp"

#include "mpisim/online_reduce.hpp"
#include "runtime/annotation.hpp"
#include "runtime/caliper.hpp"

#include <atomic>
#include <functional>
#include <iostream>
#include <map>
#include <optional>

namespace perfbench {

namespace {

using namespace calib;

constexpr int kPhases     = 8;
constexpr int kRegions    = 1000; // region values per phase: the per-key entries
constexpr int kInner      = 16;   // region begin/end pairs per phase iteration
constexpr int kIterations = 3000; // phase iterations per rank per round
constexpr std::uint64_t kEventsPerRank =
    static_cast<std::uint64_t>(kIterations) * (2 + 2 * kInner);
constexpr int kSetupsPerSample = 192; // channel creations per setup_s sample

/// Region value of inner step \a j of iteration \a it on \a rank.
int region_of(std::uint64_t seed, int rank, int it, int j) {
    return static_cast<int>((seed % 997 + 7919ull * rank + 131ull * it + j) % kRegions);
}
int phase_of(std::uint64_t seed, int it) { return static_cast<int>((seed + it) % kPhases); }

/// The annotation loop. Events snapshot *before* the blackboard update, so
/// per iteration the keys (phase, region) are counted as: (-, -) once at
/// the phase begin, (p, -) at every region begin and at the phase end, and
/// (p, r) at every region end.
void annotate(std::uint64_t seed, int rank) {
    Annotation phase("pb.phase");
    Annotation region("pb.region");
    for (int it = 0; it < kIterations; ++it) {
        phase.begin(Variant(phase_of(seed, it)));
        for (int j = 0; j < kInner; ++j) {
            region.begin(Variant(region_of(seed, rank, it, j)));
            region.end();
        }
        phase.end();
    }
}

using Key = std::pair<std::int64_t, std::int64_t>; // -1 = absent
constexpr std::int64_t kNone = -1;

std::map<Key, std::uint64_t> expected_counts(std::uint64_t seed, int ranks) {
    std::map<Key, std::uint64_t> m;
    for (int rank = 0; rank < ranks; ++rank) {
        for (int it = 0; it < kIterations; ++it) {
            const std::int64_t p = phase_of(seed, it);
            m[{kNone, kNone}] += 1;
            m[{p, kNone}] += kInner + 1;
            for (int j = 0; j < kInner; ++j)
                m[{p, region_of(seed, rank, it, j)}] += 1;
        }
    }
    return m;
}

Channel* make_channel() {
    static int serial = 0;
    return Caliper::instance().create_channel(
        "perfbench-" + std::to_string(serial++),
        RuntimeConfig{{"services.enable", "event,timer,aggregate"},
                      {"aggregate.key", "pb.phase,pb.region"},
                      {"aggregate.ops", "count,sum(time.duration)"}});
}

struct Round {
    int ranks               = 0; ///< ranks that annotated
    std::uint64_t loop_ns   = 0;
    std::uint64_t cpu_ns    = 0; ///< annotating threads, loop only
    std::uint64_t reduce_ns = 0;
    std::size_t entries     = 0; ///< rank 0's per-thread database
    std::vector<RecordMap> reduced;
};

/// Run rounds in one kWorkers-rank world until \a after returns true.
/// \a single(round) picks a rank-0-only round. With a tracer, rank 0 wraps
/// its annotation loop, the reduction, and (after each round, with no
/// channel active) the same loop as the blackboard-only floor in spans.
void run_rounds(std::uint64_t seed, const std::function<bool(int)>& single,
                const std::function<bool(int, Round&)>& after, Tracer* t) {
    Caliper& c  = Caliper::instance();
    Channel* ch = nullptr;
    Round res;
    bool stop = false;
    std::atomic<std::uint64_t> cpu{0};
    std::uint64_t start = 0;
    simmpi::run(static_cast<int>(kWorkers), [&](simmpi::Comm& comm) {
        const bool root = comm.rank() == 0;
        for (int round = 0; !stop; ++round) {
            if (root) {
                res       = Round{};
                res.ranks = single(round) ? 1 : comm.size();
                cpu       = 0;
                ch        = make_channel();
            }
            comm.barrier();
            if (root)
                start = now_ns();
            if (comm.rank() < res.ranks) {
                const std::uint64_t c0 = thread_cpu_ns();
                if (t && root)
                    t->begin("runtime.annotate");
                annotate(seed, comm.rank());
                if (t && root)
                    t->end();
                cpu += thread_cpu_ns() - c0;
            }
            comm.barrier();
            if (root) {
                res.loop_ns = now_ns() - start;
                res.entries = c.thread_data().channels[ch->id()].aggregation->size();
            }
            comm.barrier();
            const std::uint64_t r0 = now_ns();
            if (t && root)
                t->begin("mpisim.reduce");
            std::vector<RecordMap> rows = simmpi::reduce_channel(comm, ch, 0);
            if (t && root)
                t->end();
            if (root) {
                res.reduce_ns = now_ns() - r0;
                res.reduced   = std::move(rows);
            }
            comm.barrier(); // every rank is quiescent: drop the channel state
            if (root) {
                c.close_channel(ch);
                c.release_thread_states(ch);
                res.cpu_ns = cpu.load();
                if (t) {
                    Tracer::Scope s(*t, "runtime.blackboard");
                    annotate(seed, 0);
                }
                stop = after(round, res);
            }
            comm.barrier();
        }
    });
}

void check_round(std::uint64_t seed, int ranks, const Round& res, Report& r) {
    const std::map<Key, std::uint64_t> want = expected_counts(seed, ranks);
    bool ok = res.reduced.size() == want.size();
    for (const RecordMap& row : res.reduced) {
        const Variant p = row.get("pb.phase"), g = row.get("pb.region");
        const Key key{p.empty() ? kNone : p.to_int(), g.empty() ? kNone : g.to_int()};
        const auto it = want.find(key);
        ok = ok && it != want.end() && row.get("count").to_uint() == it->second;
    }
    r.check(ok, "runtime-annotate: reduced per-key counts differ from the " +
                    std::to_string(ranks) + "-rank loop's begin/end pairs");
}

} // namespace

void run_runtime(const Options& o, Report& r) {
    std::vector<double> tput, tput1, cpu, reduce_ms;
    double rss = 0;
    std::optional<SetupSampler> setup;
    const auto create_channel = [] {
        const std::uint64_t t0 = now_ns();
        Channel* ch            = make_channel();
        const std::uint64_t ns = now_ns() - t0;
        Caliper::instance().close_channel(ch);
        Caliper::instance().release_thread_states(ch);
        return ns;
    };
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(o.seconds * 0.85 * 1e9);
    std::vector<Round> last(2); // the last round of each kind, for the check
    // a warm-up round of each kind, then alternating rounds until the time
    // is spent, ending on an all-ranks round
    run_rounds(
        o.seed, [](int round) { return round % 2 == 0; },
        [&](int round, Round& res) {
            r.op(); // the annotation round
            r.op(); // its reduction
            const bool single   = res.ranks == 1;
            const double events = static_cast<double>(kEventsPerRank) * res.ranks;
            if (round == 1)
                setup.emplace(kSetupsPerSample, create_channel, deadline);
            if (round >= 2) {
                setup->poll();
                if (single) {
                    tput1.push_back(events / (res.loop_ns * 1e-9));
                } else {
                    tput.push_back(events / (res.loop_ns * 1e-9));
                    cpu.push_back(static_cast<double>(res.cpu_ns) / events);
                    reduce_ms.push_back(static_cast<double>(res.reduce_ns) * 1e-6);
                }
            }
            if (round == 2 * kRssRounds + 1)
                rss = peak_rss_mib();
            last[single ? 0 : 1] = std::move(res);
            return !single && round >= 2 * kRssRounds + 1 && now_ns() >= deadline;
        },
        nullptr);
    check_round(o.seed, 1, last[0], r);
    check_round(o.seed, static_cast<int>(kWorkers), last[1], r);

    r.metric("setup_s", setup->finish(), "s");
    r.metric("throughput_rec_s", median(tput), "rec/s");
    r.metric("throughput_1w_rec_s", median(tput1), "rec/s");
    r.metric("cpu_ns_per_rec", median(cpu), "ns");
    r.metric("peak_rss_mb", rss, "MiB");
    r.metric("query_p50_ms", median(reduce_ms), "ms");
    std::cerr << "perfbench: runtime-annotate: " << tput.size() + tput1.size()
              << " rounds, " << last[1].entries << " entries per rank database\n";
}

void trace_runtime(const Options& o, Report& r, Tracer& t, double budget_s) {
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
    Tracer::Scope root(t, "runtime-annotate");
    std::size_t rounds = 0, entries = 0;
    run_rounds(
        o.seed, [](int) { return false; },
        [&](int round, Round& res) {
            r.op();
            r.op();
            check_round(o.seed, static_cast<int>(kWorkers), res, r);
            entries = res.entries;
            rounds  = static_cast<std::size_t>(round) + 1;
            return rounds >= 20 || (rounds >= 3 && now_ns() >= deadline);
        },
        &t);
    const auto self = t.self_by_name("runtime-annotate");
    const auto ns   = [&](const char* layer) {
        const auto it = self.find(layer);
        return it == self.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double events = static_cast<double>(kEventsPerRank * rounds);
    r.metric("runtime.begin_end_ns", ns("runtime.annotate") / events, "ns");
    r.metric("runtime.blackboard_ns", ns("runtime.blackboard") / events, "ns");
    r.metric("runtime.db_entries", static_cast<double>(entries), "count");
    r.metric("mpisim.reduce_ms", ns("mpisim.reduce") / static_cast<double>(rounds) * 1e-6, "ms");
}

} // namespace perfbench
