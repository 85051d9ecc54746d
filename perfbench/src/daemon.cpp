// daemon-mixed: calib-proxyd (ProxyDaemon, in-process, unix socket, exact
// mode) under concurrent ingest and live queries.
//
// One round: start a daemon and connect the push clients. A query
// connection loads a reference channel with kRefRecs records. Then the
// push clients send a fixed number of pre-generated records, split between
// them, as fast as the daemon takes them (closed loop), while the query
// connection runs the fixed CalQL query against the reference channel
// kQueriesPerRound times, one query outstanding at a time, each when the
// clients have handed over the next equal share of the round's records.
// Queries are paced by records, not by a clock, so every round does the
// same work on the single daemon thread however fast the host runs. The
// round ends when the daemon has drained every connection after stop(), so
// every record is folded. Rounds alternate two push clients
// (throughput_rec_s) and one (throughput_1w_rec_s). An exact-mode query
// replays every record of its channel, multiplicity included, so a fresh
// daemon per round and a fixed-size reference channel keep each query's
// replay the same size. setup_s is timed apart from the rounds: a fresh
// daemon's start() until its channel is open.
#include "common.hpp"

#include "net/client.hpp"
#include "net/frame.hpp"
#include "proxyd/daemon.hpp"
#include "proxyd/session.hpp"
#include "query/calql.hpp"
#include "query/processor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <pthread.h>
#include <thread>
#include <time.h>

namespace perfbench {

namespace {

using namespace calib;

constexpr std::size_t kPool            = 4096;   // distinct records per client
constexpr std::size_t kRoundRecs       = 160000; // records per round, all clients
constexpr std::size_t kRefRecs         = 10000;  // reference channel the queries replay
constexpr std::size_t kQueriesPerRound = 4;
constexpr int kSetupsPerSample         = 128; // daemon set-ups per setup_s sample
constexpr const char* kQuery =
    "AGGREGATE count(),sum(val) GROUP BY kernel ORDER BY kernel FORMAT csv";

/// One client's pre-generated records over a bounded domain (16 kernels x
/// 16 ranks x 64 iterations x 1000 values), as ids of its own registry.
struct Pool {
    AttributeRegistry registry;
    std::vector<IdRecord> records;
    std::vector<RecordMap> named; ///< the same records by name (offline check)
};

std::unique_ptr<Pool> make_pool(std::uint64_t seed, std::size_t client) {
    auto pool = std::make_unique<Pool>();
    Rng rng(seed * 0xa0761d6478bd642full + client);
    const id_t kernel = pool->registry.create("kernel", Variant::Type::String, 0).id();
    const id_t rank   = pool->registry.create("mpi.rank", Variant::Type::Int, 0).id();
    const id_t iter   = pool->registry.create("iter", Variant::Type::Int, 0).id();
    const id_t val    = pool->registry.create("val", Variant::Type::Int, 0).id();
    for (std::size_t i = 0; i < kPool; ++i) {
        const std::string k = "kernel-" + std::to_string(rng.below(16));
        const auto rk       = static_cast<long long>(rng.below(16));
        const auto it       = static_cast<long long>(rng.below(64));
        const auto v        = static_cast<long long>(rng.below(1000));
        IdRecord rec;
        rec.append(kernel, Variant(k));
        rec.append(rank, Variant(rk));
        rec.append(iter, Variant(it));
        rec.append(val, Variant(v));
        pool->records.push_back(std::move(rec));
        RecordMap named;
        named.append("kernel", Variant(k));
        named.append("mpi.rank", Variant(rk));
        named.append("iter", Variant(it));
        named.append("val", Variant(v));
        pool->named.push_back(std::move(named));
    }
    return pool;
}

/// Records client \a c pushes in a round with \a clients clients: a
/// contiguous run through its pool, starting where the previous round
/// stopped, so every pool record is pushed about equally often.
struct Share {
    std::size_t first = 0;
    std::size_t count = 0;
};

struct RoundResult {
    std::uint64_t wall_ns  = 0; ///< first push until the drained daemon exits
    std::uint64_t cpu_ns   = 0; ///< daemon thread over the same interval
    std::uint64_t folded   = 0;
    std::vector<double> query_ms;
    std::size_t queries_failed = 0;
    std::size_t pushes_failed  = 0; ///< push clients that threw
    std::string final_answer; ///< checked rounds: live answer over "bench"
};

net::ProxyClient::Options client_options(const proxyd::ProxyDaemon& d, const char* channel,
                                         const std::string& name) {
    net::ProxyClient::Options o;
    o.address     = d.ingest_address();
    o.channel     = channel;
    o.client_name = name;
    return o;
}

/// A started daemon's event loop on its own thread. Leaving scope stops the
/// daemon and joins the thread; finish() does the same and reports a loop
/// that failed.
class DaemonThread {
public:
    explicit DaemonThread(proxyd::ProxyDaemon& d) : daemon_(d), thread_([this] { loop(); }) {}
    ~DaemonThread() { join(); }
    DaemonThread(const DaemonThread&)            = delete;
    DaemonThread& operator=(const DaemonThread&) = delete;

    /// CPU time the loop thread has used so far.
    std::uint64_t cpu_ns() {
        clockid_t id{};
        timespec ts{};
        pthread_getcpuclockid(thread_.native_handle(), &id);
        clock_gettime(id, &ts);
        return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
               static_cast<std::uint64_t>(ts.tv_nsec);
    }
    /// Stop, drain, join; returns the loop thread's CPU time at its end.
    std::uint64_t finish() {
        join();
        if (!error_.empty())
            throw std::runtime_error("daemon loop failed: " + error_);
        return cpu_end_;
    }

private:
    void loop() {
        try {
            daemon_.run();
        } catch (const std::exception& e) {
            error_ = e.what();
        }
        cpu_end_ = thread_cpu_ns();
    }
    void join() {
        if (thread_.joinable()) {
            daemon_.stop();
            thread_.join();
        }
    }

    proxyd::ProxyDaemon& daemon_;
    std::string error_;
    std::uint64_t cpu_end_ = 0;
    std::thread thread_; // last: it runs loop(), which uses the members above
};

/// One round with \a clients push clients. A \a checked round also acks
/// every push client and takes a final live answer over the pushed records.
RoundResult run_round(const Options& o, const std::vector<std::unique_ptr<Pool>>& pools,
                      std::size_t clients, std::vector<Share>& shares, bool checked) {
    RoundResult res;
    proxyd::DaemonOptions dopts;
    dopts.listen = o.dir + "/pb.sock";

    proxyd::ProxyDaemon daemon(dopts);
    daemon.start();
    DaemonThread loop(daemon);
    std::vector<std::unique_ptr<net::ProxyClient>> pushers;
    for (std::size_t c = 0; c < clients; ++c)
        pushers.push_back(std::make_unique<net::ProxyClient>(
            client_options(daemon, "bench", "push-" + std::to_string(c))));
    net::ProxyClient querier(client_options(daemon, "ref", "query"));
    const Pool& ref = *pools.back();
    for (std::size_t i = 0; i < kRefRecs; ++i)
        querier.push(ref.registry, ref.records[i % kPool]);
    querier.query(kQuery); // ack: the reference channel is loaded

    std::mutex m; // guards push_errors
    std::vector<std::string> push_errors;
    std::atomic<std::size_t> pushing{clients};
    std::atomic<std::size_t> sent{0}; // records handed to the clients, in steps of kStep
    constexpr std::size_t kStep = 1024;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    struct JoinAll { // on every path out: release the pushers, then join them
        std::atomic<bool>& go;
        std::vector<std::thread>& threads;
        ~JoinAll() {
            go.store(true);
            for (std::thread& t : threads)
                if (t.joinable())
                    t.join();
        }
    } join_all{go, threads};
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            while (!go.load())
                std::this_thread::yield();
            std::string error;
            try {
                const Pool& pool = *pools[c];
                for (std::size_t i = 0; i < shares[c].count; ++i) {
                    pushers[c]->push(pool.registry,
                                     pool.records[(shares[c].first + i) % kPool]);
                    if (i % kStep == kStep - 1)
                        sent.fetch_add(kStep);
                }
                if (checked)
                    pushers[c]->query(kQuery); // ack: this client's records are folded
                else
                    pushers[c]->close();
            } catch (const std::exception& e) {
                error = e.what();
            }
            if (!error.empty()) {
                std::lock_guard<std::mutex> lock(m);
                push_errors.push_back(std::move(error));
            }
            --pushing;
        });
    }
    const std::uint64_t cpu_go = loop.cpu_ns();
    const std::uint64_t start  = now_ns();
    go.store(true);
    for (std::size_t q = 1; q <= kQueriesPerRound; ++q) {
        const std::size_t due = q * kRoundRecs / (kQueriesPerRound + 1);
        while (sent.load() < due && pushing.load() > 0)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        const std::uint64_t q0 = now_ns();
        try {
            querier.query(kQuery);
            res.query_ms.push_back(static_cast<double>(now_ns() - q0) * 1e-6);
        } catch (const std::exception& e) {
            ++res.queries_failed;
            std::cerr << "perfbench: live query failed: " << e.what() << "\n";
        }
    }
    for (std::thread& t : threads)
        t.join();
    for (const std::string& e : push_errors)
        std::cerr << "perfbench: push client failed: " << e << "\n";
    res.pushes_failed = push_errors.size();
    if (checked) {
        net::ProxyClient::Options qo = client_options(daemon, "bench", "check");
        qo.query_only                = true;
        net::ProxyClient final(qo);
        res.final_answer = final.query(kQuery);
        final.close();
        for (auto& p : pushers)
            p->close();
    }
    querier.close();
    res.cpu_ns  = loop.finish() - cpu_go;
    res.wall_ns = now_ns() - start;
    if (const proxyd::ProxyChannel* ch = daemon.channel("bench", false))
        res.folded = ch->records();
    for (std::size_t c = 0; c < clients; ++c)
        shares[c].first = (shares[c].first + shares[c].count) % kPool;
    return res;
}

/// The generator's tally for the round's query (count and sum(val) per
/// kernel) and the same records run through offline QueryProcessor.
void check_final(const std::vector<std::unique_ptr<Pool>>& pools,
                 const std::vector<Share>& before, const std::string& answer, Report& r) {
    QueryProcessor offline(parse_calql(kQuery));
    std::map<std::string, std::pair<std::uint64_t, std::int64_t>> tally;
    for (std::size_t c = 0; c < before.size(); ++c) {
        for (std::size_t i = 0; i < before[c].count; ++i) {
            const RecordMap& rec = pools[c]->named[(before[c].first + i) % kPool];
            offline.add(rec);
            auto& t = tally[rec.get("kernel").to_string()];
            ++t.first;
            t.second += rec.get("val").to_int();
        }
    }
    std::ostringstream os;
    offline.write(os);
    std::string why;
    r.check(same_bytes(answer, os.str(), &why),
            "daemon-mixed: live answer differs from offline QueryProcessor: " + why);
    bool ok = offline.result().size() == tally.size();
    for (const RecordMap& row : offline.result()) {
        const auto it = tally.find(row.get("kernel").to_string());
        ok = ok && it != tally.end() && row.get("count").to_uint() == it->second.first &&
             row.get("sum#val").to_int() == it->second.second;
    }
    r.check(ok, "daemon-mixed: answer does not match the generator's tally");
}

/// One set-up: a fresh daemon's construction and start() (listener bound,
/// event loop set up) until its channel is open, on the calling thread.
/// The socket round trip of a client's Hello is left out: its time is the
/// host's thread wake-up latency, which moved setup_s by more than half
/// between two sets of runs of the same code. Tear-down is not timed.
std::uint64_t setup_once(const Options& o) {
    proxyd::DaemonOptions dopts;
    dopts.listen           = o.dir + "/pb-setup.sock";
    const std::uint64_t t0 = now_ns();
    proxyd::ProxyDaemon daemon(dopts);
    daemon.start();
    const bool open        = daemon.channel("bench") != nullptr;
    const std::uint64_t ns = now_ns() - t0;
    if (!open)
        throw std::runtime_error("daemon set-up: channel did not open");
    return ns;
}

std::vector<Share> split(std::size_t clients) {
    std::vector<Share> s(clients);
    for (std::size_t c = 0; c < clients; ++c)
        s[c].count = kRoundRecs / clients;
    return s;
}

} // namespace

void run_daemon(const Options& o, Report& r) {
    std::vector<std::unique_ptr<Pool>> pools; // push clients', then the reference
    for (std::size_t c = 0; c <= kWorkers; ++c)
        pools.push_back(make_pool(o.seed, c));
    std::vector<Share> shares_n = split(kWorkers), shares_1 = split(1);

    std::vector<double> tput, tput1, cpu, lat_ms;
    double rss = 0;
    std::optional<SetupSampler> setup;
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(o.seconds * 0.85 * 1e9);
    const auto account = [&](const RoundResult& res, const std::vector<Share>& pushed) {
        r.op(res.pushes_failed == 0); // the round: its pushes and the drain
        for (std::size_t i = 0; i < res.query_ms.size() + res.queries_failed; ++i)
            r.op(i < res.query_ms.size());
        std::uint64_t expected = 0;
        for (const Share& s : pushed)
            expected += s.count;
        r.check(res.folded == expected, "daemon-mixed: folded " + std::to_string(res.folded) +
                                            " of " + std::to_string(expected) + " records");
    };
    // a warm-up round of each kind, then alternating one- and two-client
    // rounds until the time is spent, ending on a two-client round, with
    // the set-up samples between them
    for (int round = 0;; ++round) {
        const bool single          = round % 2 == 0;
        std::vector<Share>& shares = single ? shares_1 : shares_n;
        const std::vector<Share> pushed = shares;
        const RoundResult res = run_round(o, pools, single ? 1 : kWorkers, shares, false);
        account(res, pushed);
        if (round == 1)
            setup.emplace(kSetupsPerSample, [&] { return setup_once(o); }, deadline);
        if (round < 2)
            continue;
        setup->poll();
        const double recs = static_cast<double>(res.folded);
        if (single) {
            tput1.push_back(recs / (res.wall_ns * 1e-9));
            continue;
        }
        tput.push_back(recs / (res.wall_ns * 1e-9));
        cpu.push_back(static_cast<double>(res.cpu_ns) / recs);
        lat_ms.insert(lat_ms.end(), res.query_ms.begin(), res.query_ms.end());
        if (round == 2 * kRssRounds + 1)
            rss = peak_rss_mib();
        if (round >= 2 * kRssRounds + 1 && now_ns() >= deadline)
            break;
    }

    // one checked two-client round: acked pushes, then the live answer
    // against offline QueryProcessor and the generator's tally
    const std::vector<Share> pushed = shares_n;
    const RoundResult res           = run_round(o, pools, kWorkers, shares_n, true);
    account(res, pushed);
    r.op(); // the final live query
    check_final(pools, pushed, res.final_answer, r);

    r.metric("setup_s", setup->finish(), "s");
    r.metric("throughput_rec_s", median(tput), "rec/s");
    r.metric("throughput_1w_rec_s", median(tput1), "rec/s");
    r.metric("cpu_ns_per_rec", median(cpu), "ns");
    r.metric("peak_rss_mb", rss, "MiB");
    r.metric("query_p50_ms", median(lat_ms), "ms");
    std::sort(lat_ms.begin(), lat_ms.end());
    std::cerr << "perfbench: daemon-mixed: " << tput.size() + tput1.size() << " rounds, "
              << lat_ms.size() << " live queries, p90 " << lat_ms[lat_ms.size() * 9 / 10]
              << " ms\n";
}

// -- traced per-layer pass --------------------------------------------------------

void trace_daemon(const Options& o, Report& r, Tracer& t, double budget_s) {
    const std::unique_ptr<Pool> pool = make_pool(o.seed, 0);
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);
    Tracer::Scope root(t, "daemon-mixed");

    // net: client-side push + flush into a live daemon, one client
    std::uint64_t pushed = 0, bytes = 0;
    {
        proxyd::DaemonOptions dopts;
        dopts.listen = o.dir + "/pb-trace.sock";
        proxyd::ProxyDaemon daemon(dopts);
        daemon.start();
        DaemonThread loop(daemon);
        net::ProxyClient::Options copts;
        copts.address = daemon.ingest_address();
        copts.channel = "bench";
        net::ProxyClient client(copts);
        for (std::size_t round = 0; round < 4; ++round) {
            {
                Tracer::Scope s(t, "net.push");
                for (std::size_t i = 0; i < kRoundRecs; ++i)
                    client.push(pool->registry, pool->records[i % kPool]);
                client.flush();
            }
            Tracer::Scope s(t, "net.query");
            client.query("AGGREGATE count() FORMAT csv");
            r.op();
        }
        pushed = client.records_sent();
        bytes  = client.bytes_sent();
        client.close();
        loop.finish();
        r.check(daemon.channel("bench", false)->records() == pushed,
                "daemon-mixed (traced): records folded != records pushed");
    }

    // the client's frame stream for one round: Hello, attribute definitions,
    // 512-record Records frames, kQueriesPerRound live queries paced as in
    // the untraced rounds, Bye —
    // encoded with the frame encoders ProxyClient uses
    std::vector<std::byte> stream;
    net::append_hello(stream, "replay", "bench");
    for (id_t a = 0; a < pool->registry.size(); ++a) {
        const Attribute attr = pool->registry.get(a);
        net::append_attr(stream, static_cast<std::uint32_t>(a), attr.name(), attr.type(),
                         attr.properties());
    }
    net::RecordsBuilder batch;
    for (std::size_t i = 0; i < kRoundRecs; ++i) {
        batch.begin_record();
        for (const Entry& e : pool->records[i % kPool])
            batch.entry(static_cast<std::uint32_t>(e.attribute), e.value);
        batch.end_record();
        if (batch.num_records() == 512 || i + 1 == kRoundRecs)
            batch.frame(stream);
        if ((i + 1) % (kRoundRecs / (kQueriesPerRound + 1)) == 0 && i + 1 < kRoundRecs)
            net::append_query(stream, kQuery);
    }
    net::append_bye(stream);

    // proxyd: replay the stream through IngestSession::feed in socket-read
    // sized chunks (the query answers nest inside feed), then fold the same
    // records straight into a second channel
    std::uint64_t replayed = 0, queries = 0, rounds = 0;
    std::size_t groups = 0;
    for (; rounds < 3 || (now_ns() < deadline && rounds < 20); ++rounds) {
        proxyd::ProxyChannel channel("bench", "");
        proxyd::IngestSession::Hooks hooks;
        hooks.open_channel = [&](const std::string&, bool) { return &channel; };
        hooks.on_query     = [&](std::string_view q) {
            Tracer::Scope s(t, "proxyd.answer");
            replayed += channel.records();
            ++queries;
            bool ok = false;
            channel.answer(q, &ok);
            r.op(ok);
        };
        hooks.respond = [](std::uint8_t, std::string_view) {};
        proxyd::IngestSession session(hooks);
        constexpr std::size_t kChunk = 64 * 1024;
        for (std::size_t off = 0; off < stream.size(); off += kChunk) {
            Tracer::Scope s(t, "proxyd.feed");
            session.feed(stream.data() + off, std::min(kChunk, stream.size() - off));
        }
        r.check(channel.records() == kRoundRecs,
                "daemon-mixed (traced): replay folded " + std::to_string(channel.records()));

        proxyd::ProxyChannel direct("bench", "");
        std::vector<id_t> map;
        for (id_t a = 0; a < pool->registry.size(); ++a) {
            const Attribute attr = pool->registry.get(a);
            map.push_back(direct.registry().create(attr.name(), attr.type(), attr.properties()).id());
        }
        IdRecord rec;
        for (std::size_t i = 0; i < kRoundRecs; i += 512) {
            Tracer::Scope s(t, "proxyd.fold");
            for (std::size_t j = i; j < std::min(kRoundRecs, i + 512); ++j) {
                rec.clear();
                for (const Entry& e : pool->records[j % kPool])
                    rec.append(map[e.attribute], e.value);
                direct.fold(rec);
            }
        }
        bool ok = false, replay_ok = false;
        std::string why;
        const std::string answer = channel.answer(kQuery, &replay_ok);
        r.check(same_bytes(direct.answer(kQuery, &ok), answer, &why) && ok && replay_ok,
                "daemon-mixed (traced): replayed and folded channels answer differently: " + why);
        groups = channel.groups();
    }

    const auto self = t.self_by_name("daemon-mixed");
    const auto ns   = [&](const char* layer) {
        const auto it = self.find(layer);
        return it == self.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double replay_recs = static_cast<double>(kRoundRecs * rounds);
    r.metric("net.push_ns_per_rec", ns("net.push") / static_cast<double>(pushed), "ns");
    r.metric("net.bytes_per_rec", static_cast<double>(bytes) / static_cast<double>(pushed), "B");
    r.metric("proxyd.feed_ns_per_rec", ns("proxyd.feed") / replay_recs, "ns");
    r.metric("proxyd.fold_ns_per_rec", ns("proxyd.fold") / replay_recs, "ns");
    r.metric("proxyd.answer_ms", ns("proxyd.answer") / static_cast<double>(queries) * 1e-6, "ms");
    r.metric("proxyd.replayed_rows_per_query",
             static_cast<double>(replayed) / static_cast<double>(queries), "count");
    r.metric("proxyd.channel_groups", static_cast<double>(groups), "count");
}

} // namespace perfbench
