// perfbench: calib's end-to-end benchmark (see ../README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --dir <work dir> [--trace-file <spans.json>]
//
// Untraced, it runs one workload and prints the end-to-end metrics; traced,
// it runs every workload's job again with spans around the calls into each
// calib module and prints the per-layer metrics. Either way the last line
// of stdout is one JSON object: correct, attempted, failed, metrics.
#include "common.hpp"

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <offline-scan|offline-groupby|"
                 "daemon-mixed|runtime-annotate> --seed <n> --seconds <s> "
                 "--trace <0|1> --dir <dir> [--trace-file <file>]\n";
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::stoull(v);
        else if (a == "--seconds")
            o.seconds = std::stod(v);
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--dir")
            o.dir = v;
        else if (a == "--trace-file")
            o.trace_file = v;
        else
            usage(("unknown option " + a).c_str());
    }
    if (o.workload != "offline-scan" && o.workload != "offline-groupby" &&
        o.workload != "daemon-mixed" && o.workload != "runtime-annotate")
        usage("unknown workload");
    if (o.dir.empty() || o.seconds <= 0)
        usage("--dir and a positive --seconds are required");
    return o;
}

/// Every job's traced pass, a quarter of the time each. Layer self times
/// plus the unaccounted remainder (time inside a job's root span that no
/// layer span covers, and the benchmark's own bench.* spans) add up to the
/// traced wall time.
void traced(const Options& o, Report& r) {
    Tracer t;
    const double quarter = o.seconds / 4;
    // the offline passes carry the finest spans (four per 1024-row batch),
    // so their traced / untraced ratio bounds the tracing overhead
    const double scan = trace_offline("offline-scan", o, r, t, quarter);
    const double gb   = trace_offline("offline-groupby", o, r, t, quarter);
    r.metric("trace.overhead_share", (scan + gb) / 2 - 1.0, "ratio");
    trace_daemon(o, r, t, quarter);
    trace_runtime(o, r, t, quarter);

    double wall = 0, remainder = 0;
    for (const char* job :
         {"offline-scan", "offline-groupby", "daemon-mixed", "runtime-annotate"}) {
        wall += static_cast<double>(t.root_ns(job));
        for (const auto& [name, ns] : t.self_by_name(job))
            if (name == job || name.rfind("bench.", 0) == 0)
                remainder += static_cast<double>(ns);
    }
    r.metric("trace.remainder_share", remainder / wall, "ratio");
    if (!o.trace_file.empty())
        t.write_json(o.trace_file);
}

} // namespace

int main(int argc, char** argv) {
    const Options o = parse(argc, argv);
    Report r;
    try {
        std::filesystem::create_directories(o.dir);
        if (o.trace)
            traced(o, r);
        else if (o.workload.rfind("offline-", 0) == 0)
            run_offline(o, r);
        else if (o.workload == "daemon-mixed")
            run_daemon(o, r);
        else
            run_runtime(o, r);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << o.workload << " failed: " << e.what() << "\n";
        return 1;
    }
    std::cout << r.json() << std::endl;
    return r.correct() ? 0 : 1;
}
