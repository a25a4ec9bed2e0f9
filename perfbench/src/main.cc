/**
 * @file
 * perfbench — the repository benchmark's measuring program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --served PATH/TO/ganacc-served --out DIR
 *
 * Runs one workload (daemon-unique, fleet-repeat, fault-campaign,
 * dse-sweep), checks every output, writes a result file with host
 * metadata and per-phase accounting to DIR, and prints one JSON line
 * with every metric it measured. perfbench/run.py builds this program
 * and turns that line into the benchmark's result line.
 */

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common.hh"
#include "util/args.hh"
#include "util/logging.hh"
#include "util/strings.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

std::string
resultJson(const Options &o, const RunResult &r)
{
    std::ostringstream os;
    os << "{\"correct\":" << (r.correct ? "true" : "false")
       << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
       << ",\"metrics\":{";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        os << (i ? "," : "") << "\"" << m.name << "\":{\"value\":"
           << num(m.value) << ",\"unit\":\"" << m.unit << "\"}";
    }
    os << "},\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
       << ",\"seconds\":" << num(o.seconds)
       << ",\"trace\":" << (o.trace ? 1 : 0)
       << ",\"host\":" << hostJson(o.nproc) << ",\"phases\":[";
    for (std::size_t i = 0; i < r.phases.size(); ++i) {
        const PhaseCount &p = r.phases[i];
        os << (i ? "," : "") << "{\"phase\":\""
           << ganacc::util::escapeJson(p.phase) << "\",\"sent\":" << p.sent
           << ",\"succeeded\":" << p.succeeded << ",\"failed\":"
           << p.failed << ",\"shed\":" << p.shed << "}";
    }
    os << "],\"problems\":[";
    for (std::size_t i = 0; i < r.problems.size(); ++i)
        os << (i ? "," : "") << "\""
           << ganacc::util::escapeJson(r.problems[i]) << "\"";
    os << "]";
    if (!r.layerTable.empty())
        os << ",\"layers\":" << r.layerTable;
    os << "}";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
try {
    // A daemon that dies mid-run must surface as an error from the
    // client, not kill the benchmark with SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    ganacc::util::ArgParser args(argc, argv);
    Options o;
    o.workload = args.getString("workload", "", "workload to run");
    o.seed = std::uint64_t(args.getInt("seed", 1, "input seed"));
    o.seconds = args.getDouble("seconds", 10.0, "measured seconds");
    o.trace = args.getInt("trace", 0, "1 = traced per-layer run") != 0;
    o.served = args.getString("served", "", "ganacc-served binary");
    o.outDir = args.getString("out", ".bench_out", "result directory");
    if (args.helpRequested()) {
        args.usage(std::cout);
        return 0;
    }
    args.finish();
    o.nproc = cpuCount();
    if (o.seconds <= 0.0)
        ganacc::util::fatal("--seconds must be positive");
    std::filesystem::create_directories(o.outDir);

    RunResult r;
    if (o.workload == "daemon-unique")
        r = runDaemonUnique(o);
    else if (o.workload == "fleet-repeat")
        r = runFleetRepeat(o);
    else if (o.workload == "fault-campaign")
        r = runFaultCampaign(o);
    else if (o.workload == "dse-sweep")
        r = runDseSweep(o);
    else
        ganacc::util::fatal("unknown --workload '", o.workload,
                            "' (daemon-unique, fleet-repeat, "
                            "fault-campaign, dse-sweep)");

    r.add("bench.error_rate",
          r.attempted ? double(r.failed) / double(r.attempted) : 0.0,
          "ratio");
    for (const PhaseCount &p : r.phases)
        std::fprintf(stderr,
                     "%s: phase %-16s sent %llu succeeded %llu failed %llu "
                     "shed %llu\n",
                     o.workload.c_str(), p.phase.c_str(),
                     (unsigned long long)p.sent,
                     (unsigned long long)p.succeeded,
                     (unsigned long long)p.failed,
                     (unsigned long long)p.shed);
    for (const std::string &p : r.problems)
        std::fprintf(stderr, "%s: CHECK FAILED: %s\n", o.workload.c_str(),
                     p.c_str());

    const std::string json = resultJson(o, r);
    const std::string path = o.outDir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + "-trace" +
                             (o.trace ? "1" : "0") + ".json";
    std::ofstream(path, std::ios::trunc) << json << "\n";
    std::cout << json << std::endl;
    return 0;
} catch (const std::exception &e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
}
