// Offline workloads: calib's ingest -> LET/WHERE -> aggregate -> merge ->
// format path over generated .cali files, as cali-query runs it.
//
//   offline-scan     paradis-gen-shaped rank files, a trivial 85-group
//                    aggregation: reading dominates.
//   offline-groupby  short records with a zipf-skewed key of a few hundred
//                    thousand distinct values, one LET, a WHERE that drops
//                    exactly 10% of rows: aggregation and merge dominate.
//
// The generators are written out once per run; their tallies are recomputed
// from the same seed after the measurement (so the tally is not resident
// while peak RSS is taken) and the engine's rows are checked against them.
#include "common.hpp"

#include "engine/morsel.hpp"
#include "engine/parallel_processor.hpp"
#include "io/calireader.hpp"
#include "io/caliwriter.hpp"
#include "query/calql.hpp"
#include "query/filter.hpp"
#include "query/let.hpp"
#include "query/processor.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

namespace perfbench {

namespace {

using namespace calib;

// -- offline-scan input: ParaDiS-shaped rank files ----------------------------

constexpr int kScanFiles       = 8;
constexpr int kScanRecords     = 50000; // per file
constexpr int kScanKernels     = 60;
constexpr int kScanMpiFns      = 24;
constexpr int kScanIterations  = 25;
constexpr const char* kScanQuery =
    "AGGREGATE sum(time.inclusive.duration),count() GROUP BY kernel,mpi.function "
    "FORMAT csv";

std::string scan_kernel(int i) { return "kernel-" + std::to_string(i); }
std::string scan_mpi(int i) { return "MPI_Fn" + std::to_string(i); }

/// One rank file's records in file order (the ParaDiS generator's layout:
/// the region attribute first, then iteration, rank, and the three
/// measurement columns). \a fn(kind, region, iteration, visits, excl, incl):
/// kind 0 = kernel, 1 = MPI function, 2 = neither.
template <typename Fn>
void scan_records(std::uint64_t seed, int rank, Fn&& fn) {
    Rng rng(seed * 0x100000001b3ull + static_cast<std::uint64_t>(rank));
    const int keys_per_iter = kScanKernels + kScanMpiFns + 1;
    for (int n = 0; n < kScanRecords; ++n) {
        const int k    = n % keys_per_iter;
        const int iter = (n / keys_per_iter) % kScanIterations;
        const int kind = k < kScanKernels ? 0 : k < kScanKernels + kScanMpiFns ? 1 : 2;
        const int region = kind == 0 ? k : kind == 1 ? k - kScanKernels : 0;
        const std::uint64_t visits = 1 + rng.below(64);
        const double excl          = (0.5 + rng.uniform()) * 150.0 * static_cast<double>(visits);
        const double incl          = excl * (1.0 + rng.uniform());
        fn(kind, region, iter, visits, excl, incl);
    }
}

// -- offline-groupby input: short records, zipf-skewed key --------------------

constexpr int kGbFiles     = 4;
constexpr int kGbRecords   = 125000; // per file
constexpr int kGbDomain    = 200000; // possible keys
constexpr double kGbZipf   = 0.8;
constexpr const char* kGbQuery =
    "LET vv=scale(gb.v,2) AGGREGATE count(),sum(vv),min(gb.v),max(gb.v),avg(gb.v) "
    "WHERE gb.w<9 GROUP BY gb.key FORMAT csv";

/// \a fn(key, v, w) per record of file \a file, in file order. w cycles
/// 0..9, so the WHERE (w < 9) drops exactly one row in ten.
template <typename Fn>
void groupby_records(std::uint64_t seed, int file, const std::vector<double>& cdf, Fn&& fn) {
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 7919u * static_cast<std::uint64_t>(file));
    for (int n = 0; n < kGbRecords; ++n) {
        const double u = rng.uniform() * cdf.back();
        const auto key = static_cast<std::int64_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const auto v = static_cast<std::int64_t>(rng.below(100000));
        fn(std::min<std::int64_t>(key, kGbDomain - 1), v, n % 10);
    }
}

std::vector<double> zipf_cdf() {
    std::vector<double> cdf(kGbDomain);
    double acc = 0;
    for (int k = 0; k < kGbDomain; ++k)
        cdf[k] = acc += std::pow(static_cast<double>(k + 1), -kGbZipf);
    return cdf;
}

// -- jobs -----------------------------------------------------------------------

struct Job {
    std::string name;
    std::string query;
    std::vector<std::string> files;
    std::uint64_t records = 0;
    std::uint64_t bytes   = 0;
};

Job make_job(const std::string& name, const Options& o) {
    Job job;
    job.name  = name;
    job.query = name == "offline-scan" ? kScanQuery : kGbQuery;
    if (name == "offline-scan") {
        for (int f = 0; f < kScanFiles; ++f) {
            const std::string path =
                o.dir + "/scan-" + std::to_string(o.seed) + "-" + std::to_string(f) + ".cali";
            std::ofstream os(path);
            CaliWriter w(os);
            w.write_global("mpi.rank", Variant(static_cast<long long>(f)));
            RecordMap rec;
            scan_records(o.seed, f,
                         [&](int kind, int region, int iter, std::uint64_t visits,
                             double excl, double incl) {
                             rec.clear();
                             if (kind == 0)
                                 rec.append("kernel", Variant(scan_kernel(region)));
                             else if (kind == 1)
                                 rec.append("mpi.function", Variant(scan_mpi(region)));
                             rec.append("iteration#mainloop", Variant(iter));
                             rec.append("mpi.rank", Variant(f));
                             rec.append("count", Variant(static_cast<unsigned long long>(visits)));
                             rec.append("sum#time.duration", Variant(excl));
                             rec.append("sum#time.inclusive.duration", Variant(incl));
                             w.write_record(rec);
                         });
            os.close();
            if (!os)
                throw std::runtime_error("cannot write " + path);
            job.files.push_back(path);
            job.records += kScanRecords;
        }
    } else {
        const std::vector<double> cdf = zipf_cdf();
        for (int f = 0; f < kGbFiles; ++f) {
            const std::string path =
                o.dir + "/gb-" + std::to_string(o.seed) + "-" + std::to_string(f) + ".cali";
            std::ofstream os(path);
            CaliWriter w(os);
            RecordMap rec;
            groupby_records(o.seed, f, cdf, [&](std::int64_t key, std::int64_t v, int wv) {
                rec.clear();
                rec.append("gb.key", Variant(static_cast<long long>(key)));
                rec.append("gb.v", Variant(static_cast<long long>(v)));
                rec.append("gb.w", Variant(wv));
                w.write_record(rec);
            });
            os.close();
            if (!os)
                throw std::runtime_error("cannot write " + path);
            job.files.push_back(path);
            job.records += kGbRecords;
        }
    }
    for (const std::string& f : job.files)
        job.bytes += static_cast<std::uint64_t>(std::ifstream(f, std::ios::ate).tellg());
    return job;
}

// -- independent tallies and the row check ---------------------------------------

/// The generator's own per-group tally, recomputed from the seed.
void check_scan(const Options& o, const std::vector<RecordMap>& rows, Report& r) {
    struct Acc {
        std::uint64_t count = 0;
        long double sum     = 0;
    };
    std::map<std::pair<std::string, std::string>, Acc> tally;
    std::uint64_t total = 0;
    for (int f = 0; f < kScanFiles; ++f)
        scan_records(o.seed, f,
                     [&](int kind, int region, int, std::uint64_t, double, double incl) {
                         const std::pair<std::string, std::string> key{
                             kind == 0 ? scan_kernel(region) : "",
                             kind == 1 ? scan_mpi(region) : ""};
                         Acc& a = tally[key];
                         ++a.count;
                         a.sum += incl;
                         ++total;
                     });
    r.check(rows.size() == tally.size(),
            "offline-scan: " + std::to_string(rows.size()) + " groups, tally has " +
                std::to_string(tally.size()));
    std::uint64_t sum_count = 0;
    bool ok                 = true;
    for (const RecordMap& row : rows) {
        const std::pair<std::string, std::string> key{row.get("kernel").to_string(),
                                                      row.get("mpi.function").to_string()};
        const auto it = tally.find(key);
        if (it == tally.end()) {
            ok = false;
            continue;
        }
        const std::uint64_t c = row.get("count").to_uint();
        const double s        = row.get("sum#time.inclusive.duration").to_double();
        sum_count += c;
        // sums: the engine's reduction order differs from the generator's,
        // so compare to a relative 1e-9 (doubles of ~1e4 summed 5e3 times)
        ok = ok && c == it->second.count &&
             std::fabs(s - static_cast<double>(it->second.sum)) <=
                 1e-9 * std::fabs(static_cast<double>(it->second.sum));
    }
    r.check(ok, "offline-scan: per-group count/sum differ from the generator tally");
    r.check(sum_count == total, "offline-scan: sum of counts " + std::to_string(sum_count) +
                                    " != records generated " + std::to_string(total));
}

void check_groupby(const Options& o, const std::vector<RecordMap>& rows, Report& r) {
    struct Acc {
        std::uint64_t count = 0;
        std::int64_t sum    = 0;
        std::int64_t min    = INT64_MAX;
        std::int64_t max    = INT64_MIN;
    };
    std::vector<Acc> tally(kGbDomain);
    std::uint64_t total = 0, dropped = 0;
    {
        const std::vector<double> cdf = zipf_cdf();
        for (int f = 0; f < kGbFiles; ++f)
            groupby_records(o.seed, f, cdf, [&](std::int64_t key, std::int64_t v, int w) {
                ++total;
                if (w >= 9) {
                    ++dropped;
                    return;
                }
                Acc& a = tally[static_cast<std::size_t>(key)];
                ++a.count;
                a.sum += v;
                a.min = std::min(a.min, v);
                a.max = std::max(a.max, v);
            });
    }
    const std::size_t groups =
        std::count_if(tally.begin(), tally.end(), [](const Acc& a) { return a.count > 0; });
    r.check(rows.size() == groups, "offline-groupby: " + std::to_string(rows.size()) +
                                       " groups, tally has " + std::to_string(groups));
    std::uint64_t sum_count = 0;
    bool ok                 = true;
    for (const RecordMap& row : rows) {
        const std::int64_t key = row.get("gb.key").to_int();
        if (key < 0 || key >= kGbDomain) {
            ok = false;
            continue;
        }
        const Acc& a          = tally[static_cast<std::size_t>(key)];
        const std::uint64_t c = row.get("count").to_uint();
        sum_count += c;
        const double avg = static_cast<double>(a.sum) / static_cast<double>(a.count);
        // integer-valued sums and extrema are exact; avg to a relative 1e-12
        ok = ok && c == a.count && row.get("sum#vv").to_double() == 2.0 * static_cast<double>(a.sum) &&
             row.get("min#gb.v").to_int() == a.min && row.get("max#gb.v").to_int() == a.max &&
             std::fabs(row.get("avg#gb.v").to_double() - avg) <= 1e-12 * std::fabs(avg);
    }
    r.check(ok, "offline-groupby: per-group count/sum/min/max/avg differ from the tally");
    r.check(sum_count == total - dropped,
            "offline-groupby: sum of counts " + std::to_string(sum_count) +
                " != records - WHERE-dropped " + std::to_string(total - dropped));
}

// -- one engine execution ------------------------------------------------------------

struct Exec {
    std::uint64_t wall_ns = 0;
    std::uint64_t cpu_ns  = 0;
    std::string out;
    engine::EngineStats stats;
    std::vector<RecordMap> rows;
};

Exec execute(const Job& job, std::size_t threads, bool keep_rows) {
    Exec e;
    const std::uint64_t c0 = process_cpu_ns();
    const std::uint64_t t0 = now_ns();
    engine::EngineOptions eo;
    eo.threads = threads;
    engine::ParallelQueryProcessor eng(parse_calql(job.query), eo);
    QueryProcessor& root = eng.run(job.files);
    std::ostringstream os;
    root.write(os);
    e.wall_ns = now_ns() - t0;
    e.cpu_ns  = process_cpu_ns() - c0;
    e.out     = os.str();
    e.stats   = eng.stats();
    if (keep_rows)
        e.rows = root.result();
    return e;
}

/// Engine set-ups timed together per setup_s sample.
constexpr int kSetupsPerSample = 1024;

/// The program's set-up before the first record, as ParallelQueryProcessor
/// runs it: CalQL parse, engine construction, and planning the inputs into
/// morsels. With several input files the plan is one whole-file morsel per
/// file; the workers map their files as they read them.
std::uint64_t setup_once(const Job& job) {
    const std::uint64_t t0 = now_ns();
    engine::EngineOptions eo;
    eo.threads = kWorkers;
    engine::ParallelQueryProcessor eng(parse_calql(job.query), eo);
    const std::vector<engine::Morsel> morsels =
        engine::make_morsels(job.files, {eo.json_input, eo.bytes_per_morsel});
    const std::uint64_t ns = now_ns() - t0;
    if (morsels.size() != job.files.size())
        throw std::runtime_error("planning produced " + std::to_string(morsels.size()) +
                                 " morsels for " + std::to_string(job.files.size()) + " files");
    return ns;
}

} // namespace

void run_offline(const Options& o, Report& r) {
    const Job job = make_job(o.workload, o);

    std::vector<double> tput, tput1, cpu, lat_ms;

    // warm-up pair, then rounds of 1-worker and N-worker runs until the
    // time budget is spent (at least five rounds), set-up samples between
    const std::string reference = execute(job, 1, false).out;
    r.op();
    execute(job, kWorkers, false);
    r.op();
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(o.seconds * 0.8 * 1e9);
    SetupSampler setup(kSetupsPerSample, [&] { return setup_once(job); }, deadline);
    bool outputs_equal = true;
    double rss         = 0;
    for (int round = 0; round < 5 || now_ns() < deadline; ++round) {
        const Exec one = execute(job, 1, false);
        const Exec par = execute(job, kWorkers, false);
        r.op();
        r.op();
        tput1.push_back(static_cast<double>(job.records) / (one.wall_ns * 1e-9));
        tput.push_back(static_cast<double>(job.records) / (par.wall_ns * 1e-9));
        cpu.push_back(static_cast<double>(par.cpu_ns) / static_cast<double>(job.records));
        lat_ms.push_back(par.wall_ns * 1e-6);
        outputs_equal = outputs_equal && one.out == reference && par.out == reference;
        if (round == kRssRounds - 1)
            rss = peak_rss_mib();
        setup.poll();
    }

    // checks: 1-worker == N-worker bytes on every round, rows vs tally
    r.check(outputs_equal, o.workload + ": 1-worker and " + std::to_string(kWorkers) +
                               "-worker outputs are not byte-identical");
    const Exec final = execute(job, kWorkers, true);
    r.op();
    r.check(final.out == reference, o.workload + ": final output differs");
    if (o.workload == "offline-scan")
        check_scan(o, final.rows, r);
    else
        check_groupby(o, final.rows, r);

    r.metric("setup_s", setup.finish(), "s");
    r.metric("throughput_rec_s", median(tput), "rec/s");
    r.metric("throughput_1w_rec_s", median(tput1), "rec/s");
    r.metric("cpu_ns_per_rec", median(cpu), "ns");
    r.metric("peak_rss_mb", rss, "MiB");
    r.metric("query_p50_ms", median(lat_ms), "ms");
    std::cerr << "perfbench: " << o.workload << ": " << job.records << " records, "
              << job.bytes / 1e6 << " MB, " << tput.size() << " rounds\n";
}

// -- traced per-layer pass ------------------------------------------------------------

namespace {

struct TracedPass {
    std::uint64_t wall_ns = 0;
    std::uint64_t overflow_rows = 0;
    std::string out;
    std::size_t groups = 0;
};

/// Drive the layers directly on one worker, in the engine's per-morsel
/// pipeline and stride-doubling merge order, with a span around each call.
TracedPass traced_pass(const Job& job, Tracer& t) {
    TracedPass p;
    const std::uint64_t t0 = now_ns();
    Tracer::Scope root(t, job.name.c_str());
    const QuerySpec spec = parse_calql(job.query);
    AttributeRegistry registry;
    {
        Tracer::Scope s(t, "io.plan");
        engine::make_morsels(job.files);
    }
    CompiledLets lets(spec.lets, &registry);
    SnapshotFilter where(spec.filters, &registry);
    std::vector<std::uint32_t> sel;
    std::vector<std::unique_ptr<QueryProcessor>> parts;
    for (const std::string& f : job.files) {
        parts.push_back(std::make_unique<QueryProcessor>(spec, &registry));
        AggregationDB* db = parts.back()->aggregation_db();
        Tracer::Scope s(t, "io.read");
        CaliReader::read_file_batches(f, registry, engine::default_batch_size(),
                                      [&](RecordBatch& b) {
                                          {
                                              Tracer::Scope g(t, "bench.inspect");
                                              for (std::size_t i = 0; i < b.rows(); ++i)
                                                  p.overflow_rows += b.is_overflow(i);
                                          }
                                          if (!lets.empty()) {
                                              Tracer::Scope g(t, "query.let");
                                              lets.apply(b);
                                          }
                                          {
                                              Tracer::Scope g(t, "query.where");
                                              where.matches(b, sel);
                                          }
                                          if (!sel.empty()) {
                                              Tracer::Scope g(t, "aggregate.update");
                                              db->process_batch(b, sel);
                                          }
                                      });
    }
    QueryProcessor result(spec, &registry);
    {
        Tracer::Scope s(t, "query.merge");
        for (std::size_t stride = 1; stride < parts.size(); stride *= 2)
            for (std::size_t i = 0; i + stride < parts.size(); i += 2 * stride)
                parts[i]->merge(std::move(*parts[i + stride]));
        result.merge(std::move(*parts[0]));
    }
    {
        Tracer::Scope s(t, "query.result");
        p.groups = result.result().size();
    }
    std::ostringstream os;
    {
        Tracer::Scope s(t, "query.format");
        result.write(os);
    }
    p.out     = os.str();
    p.wall_ns = now_ns() - t0;
    return p;
}

} // namespace

double trace_offline(const std::string& name, const Options& o, Report& r, Tracer& t,
                     double budget_s) {
    Options jo  = o;
    jo.workload = name;
    const Job job = make_job(name, jo);
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(budget_s * 1e9);

    // untraced engine runs: the reference bytes, the 1-worker wall time the
    // tracing overhead is measured against, merge time and scaling
    std::vector<double> one_ns, par_ns, merge_ms;
    std::string reference;
    std::size_t morsels = 0;
    std::vector<TracedPass> passes;
    std::vector<double> untraced_ns;
    for (int round = 0; round < 2 || (now_ns() < deadline && round < 9); ++round) {
        const Exec one = execute(job, 1, false);
        const Exec par = execute(job, kWorkers, false);
        r.op();
        r.op();
        if (round == 0)
            reference = one.out;
        r.check(one.out == reference && par.out == reference,
                name + ": engine outputs differ between rounds or worker counts");
        one_ns.push_back(static_cast<double>(one.wall_ns));
        par_ns.push_back(static_cast<double>(par.wall_ns));
        merge_ms.push_back(static_cast<double>(par.stats.merge_ns) * 1e-6);
        morsels = par.stats.morsels;
        passes.push_back(traced_pass(job, t));
        t.set_enabled(false);
        const TracedPass plain = traced_pass(job, t);
        t.set_enabled(true);
        untraced_ns.push_back(static_cast<double>(plain.wall_ns));
        r.op();
        r.op();
        std::string why;
        r.check(same_bytes(passes.back().out, reference, &why),
                name + ": traced layer-by-layer output differs from the engine: " + why);
        r.check(plain.out == reference, name + ": untraced layer-by-layer output differs");
    }

    // per-layer figures: self times summed over the traced passes
    const auto self      = t.self_by_name(name);
    const double n_pass  = static_cast<double>(passes.size());
    const double recs    = static_cast<double>(job.records) * n_pass;
    const auto ns        = [&](const char* layer) {
        const auto it = self.find(layer);
        return it == self.end() ? 0.0 : static_cast<double>(it->second);
    };
    std::vector<double> traced_wall;
    for (const TracedPass& p : passes)
        traced_wall.push_back(static_cast<double>(p.wall_ns));
    const double overhead = median(traced_wall) / median(untraced_ns) - 1.0;

    if (name == "offline-scan") {
        r.metric("io.read_ns_per_rec", ns("io.read") / recs, "ns");
        r.metric("io.read_mb_s",
                 static_cast<double>(job.bytes) * n_pass / (ns("io.read") * 1e-9) / 1e6, "MB/s");
        r.metric("io.plan_ms", ns("io.plan") / n_pass * 1e-6, "ms");
        r.metric("batch.overflow_rows", static_cast<double>(passes.back().overflow_rows), "count");
        r.metric("batch.overflow_share",
                 static_cast<double>(passes.back().overflow_rows) / static_cast<double>(job.records),
                 "ratio");
        r.metric("engine.morsels", static_cast<double>(morsels), "count");
        r.metric("engine.scaling", median(one_ns) / (kWorkers * median(par_ns)), "ratio");
        r.metric("aggregate.scan_share", ns("aggregate.update") / t.root_ns(name), "ratio");
    } else {
        r.metric("query.let_ns_per_rec", ns("query.let") / recs, "ns");
        r.metric("query.where_ns_per_rec", ns("query.where") / recs, "ns");
        r.metric("query.format_ms", ns("query.format") / n_pass * 1e-6, "ms");
        r.metric("aggregate.ns_per_rec", ns("aggregate.update") / recs, "ns");
        r.metric("aggregate.groups", static_cast<double>(passes.back().groups), "count");
        r.metric("engine.merge_ms", median(merge_ms), "ms");
    }
    std::cerr << "perfbench: trace " << name << ": " << passes.size()
              << " traced passes, tracing overhead " << overhead * 100
              << "%, layer-by-layer pass vs 1-worker engine "
              << (median(untraced_ns) / median(one_ns) - 1.0) * 100 << "%\n";
    return median(traced_wall) / median(untraced_ns);
}

} // namespace perfbench
